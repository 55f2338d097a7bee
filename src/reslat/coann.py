"""Coannihilators (F : X) and the Boolean family they form.

(F : X) collects the elements whose join with every member of X lands in
F.  For a fixed base filter F the coannihilators of all subsets form a
Boolean algebra; the coannihilators of singletons (coannulets) form a
sublattice of it.

On a finite structure the two sets are equal: (F : x) and (F : y) meet
in (F : x * y), since a v x and a v y in F put (a v x)(a v y) <= a v xy
in F (the join-of-products bound; Galatos, Jipsen, Kowalski & Ono,
*Residuated Lattices*, 2007), and a v xy <= a v x.  So (F : X) is the
coannulet (F : prod X), and (F : {}) = (F : top) is the carrier.
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
    """All coannihilators of one base filter, canonically sorted.

    Join and complement are precomputed as index tables so law checking
    loops are table lookups.
    """

    base: int
    members: tuple[int, ...]
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
    """The family as the distinct coannulets (see the module docstring)."""
    ordered = canonical_sort(set(coannulet_table(s, f)))
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
