"""Coannihilators (F : X) and the Boolean family they generate.

(F : X) collects the elements whose join with every member of X lands in
F.  For a fixed base filter F the coannihilators of all subsets form a
Boolean algebra; the coannihilators of singletons (coannulets) form a
sublattice of it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

from .bitsets import bits, subset_fold
from .errors import UnknownMember
from .filters import canonical_sort
from .structure import Structure, per_structure


@per_structure
def coannulet_table(s: Structure, f: int) -> tuple[int, ...]:
    """(f : x) for every element x."""
    out = []
    for x in range(s.n):
        row = s.join[x]
        out.append(sum(1 << a for a in range(s.n) if f >> row[a] & 1))
    return tuple(out)


def coannihilator(s: Structure, f: int, x_set: int) -> int:
    """(f : x_set); the empty set yields the whole carrier."""
    table = coannulet_table(s, f)
    out = s.full
    for x in bits(x_set):
        out &= table[x]
    return out


@per_structure
def coann_subset_table(s: Structure, f: int) -> Sequence[int]:
    """(f : X) for every subset mask X."""
    return subset_fold(coannulet_table(s, f), s.full, operator.and_)


@dataclass(frozen=True, eq=False)
class CoannFamily:
    """All coannihilators of one base filter, closed under intersection.

    `members` and `coannulets` are canonically sorted.  Join and
    complement are precomputed as index tables so law checking loops are
    table lookups.
    """

    base: int
    members: tuple[int, ...]
    coannulets: tuple[int, ...]
    index: dict[int, int] = field(repr=False)
    join_index: tuple[tuple[int, ...], ...] = field(repr=False)
    complement_index: tuple[int, ...] = field(repr=False)

    def __contains__(self, g: int) -> bool:
        return g in self.index

    def position(self, g: int) -> int:
        try:
            return self.index[g]
        except KeyError:
            raise UnknownMember(f"not a member of the family: {g:#x}") from None


@per_structure
def coann_family(s: Structure, f: int) -> CoannFamily:
    """Materialize the family by closing the coannulets under intersection.

    Every (f : X) is the intersection of the coannulets of the elements
    of X, so the closure together with the empty intersection (the whole
    carrier) is exactly the set of coannihilators.
    """
    lets = canonical_sort(set(coannulet_table(s, f)))
    members = set(lets)
    members.add(s.full)
    worklist = list(members)
    while worklist:
        g = worklist.pop()
        for h in list(members):
            gh = g & h
            if gh not in members:
                members.add(gh)
                worklist.append(gh)
    ordered = canonical_sort(members)
    index = {g: i for i, g in enumerate(ordered)}
    k = len(ordered)
    join_idx = [[0] * k for _ in range(k)]
    comp_idx = [0] * k
    for i, g in enumerate(ordered):
        comp_idx[i] = index[coannihilator(s, f, g)]
        for j in range(i, k):
            h = ordered[j]
            val = coannihilator(s, f, coannihilator(s, f, g | h))
            join_idx[i][j] = join_idx[j][i] = index[val]
    return CoannFamily(
        base=f,
        members=ordered,
        coannulets=lets,
        index=index,
        join_index=tuple(tuple(r) for r in join_idx),
        complement_index=tuple(comp_idx),
    )


def gamma_join(fam: CoannFamily, g: int, h: int) -> int:
    """Least member above g and h: (F : (F : g union h))."""
    return fam.members[fam.join_index[fam.position(g)][fam.position(h)]]


def gamma_complement(fam: CoannFamily, g: int) -> int:
    """(F : g); meets g in the base and joins with g to the carrier."""
    return fam.members[fam.complement_index[fam.position(g)]]
