"""Filters and ideals: membership, generation, and full enumeration.

A filter is a nonempty subset closed under the product and upward
closed; an ideal (of the lattice reduct) is a nonempty downward closed
subset closed under join.  The empty generating set yields the least
element of the respective lattice: {top} for filters, {bot} for ideals.

In a finite residuated lattice both are principal (Galatos, Jipsen,
Kowalski & Ono, *Residuated Lattices*, 2007).  A filter F holds the
product p of its members, which lies below them all, so F = up(p), and
p is idempotent; each up(e) with e idempotent is a filter, and
up(e) v up(f) = up(e * f).  An ideal I is down(v I).  So the routines
below read filters off idempotents and ideals off elements, and assume
a structure that passes `validate_structure`; only the membership tests
and the subset scans go by the definitions.
"""

from __future__ import annotations

from .bitsets import bits, closed_under, union_over
from .structure import Structure, per_structure


def _closed_cone(s: Structure, m: int, cone, table) -> bool:
    """Nonempty, inside the carrier, containing cone[x] for each member
    x, and closed under `table`."""
    if m == 0 or m & ~s.full:
        return False
    return union_over(cone, m) == m and closed_under(table, m)


def is_filter(s: Structure, m: int) -> bool:
    """True iff m is nonempty, upward closed and product closed."""
    return _closed_cone(s, m, s.up, s.times)


def is_ideal(s: Structure, m: int) -> bool:
    """True iff m is nonempty, downward closed and join closed."""
    return _closed_cone(s, m, s.down, s.join)


def generated_filter(s: Structure, gens: int) -> int:
    """Least filter containing `gens`: up(e), where e is the idempotent
    power of the product x of `gens` (top when `gens` is empty); the
    powers of x descend, so squaring stops where they settle.  Nothing
    is kept: `generated_filter_table` is the one store of its answers."""
    times = s.times
    x = s.top
    for g in bits(gens):
        x = times[x][g]
    while (sq := times[x][x]) != x:
        x = sq
    return s.up[x]


@per_structure
def generated_filter_table(s: Structure) -> tuple[int, ...]:
    """generated_filter(s, m) for every subset mask m, each read through
    the module's `generated_filter`, so that rebinding it reaches the
    table too."""
    return tuple(generated_filter(s, m) for m in range(1 << s.n))


def generated_ideal(s: Structure, gens: int) -> int:
    """Least ideal containing `gens`: down of their join (bot when
    `gens` is empty)."""
    join = s.join
    x = s.bot
    for g in bits(gens):
        x = join[x][g]
    return s.down[x]


def principal_filter(s: Structure, x: int) -> int:
    return generated_filter(s, 1 << x)


def filter_extension(s: Structure, f: int, x: int) -> int:
    """The join of filter f with the principal filter of x."""
    return generated_filter(s, f | 1 << x)


def canonical_sort(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


@per_structure
def all_filters(s: Structure) -> tuple[int, ...]:
    """Every filter, canonically sorted: up(e) for each idempotent e.
    Meet is f & g and join is generated_filter(s, f | g).  Assumes a
    valid structure."""
    times = s.times
    return canonical_sort(s.up[e] for e in range(s.n) if times[e][e] == e)


def filters_by_subset_scan(s: Structure) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets."""
    return canonical_sort(m for m in range(1, s.full + 1) if is_filter(s, m))


def ideal_join(s: Structure, i: int, j: int) -> int:
    return generated_ideal(s, i | j)


@per_structure
def all_ideals(s: Structure) -> tuple[int, ...]:
    """Every ideal of the lattice reduct, canonically sorted: the
    principal down-sets.  Assumes a valid structure."""
    return canonical_sort(s.down)


def ideals_by_subset_scan(s: Structure) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets."""
    return canonical_sort(m for m in range(1, s.full + 1) if is_ideal(s, m))
