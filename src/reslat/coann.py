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

from .bitsets import bits, subset_fold
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


@per_structure
def coann_family(s: Structure, f: int) -> tuple[int, ...]:
    """The family as the distinct coannulets, canonically sorted (see
    the module docstring).  The complement of a member g is (f : g),
    `coannihilator(s, f, g)`; the join is `gamma_join`."""
    return canonical_sort(set(coannulet_table(s, f)))


def gamma_join(s: Structure, f: int, g: int, h: int) -> int:
    """Least member above g and h: (F : (F : g union h))."""
    return coannihilator(s, f, coannihilator(s, f, g | h))
