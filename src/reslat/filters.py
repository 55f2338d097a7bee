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

from dataclasses import dataclass, field

from .bitsets import bits, closed_under, union_over
from .errors import UnknownFilter
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


@per_structure
def generated_filter(s: Structure, gens: int) -> int:
    """Least filter containing `gens`: up(e), where e is the idempotent
    power of the product x of `gens` (top when `gens` is empty); the
    powers of x descend, so squaring stops where they settle."""
    times = s.times
    x = s.top
    for g in bits(gens):
        x = times[x][g]
    while (sq := times[x][x]) != x:
        x = sq
    return s.up[x]


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


@dataclass(frozen=True, eq=False)
class FilterLattice:
    """All filters of a structure with their join table.

    Filters are listed canonically (ascending popcount, then bit value).
    Meet is set intersection; join of F and G is the least filter
    containing their union.
    """

    filters: tuple[int, ...]
    index: dict[int, int] = field(repr=False)
    join_table: tuple[tuple[int, ...], ...] = field(repr=False)

    def __contains__(self, f: int) -> bool:
        return f in self.index

    def position(self, f: int) -> int:
        try:
            return self.index[f]
        except KeyError:
            raise UnknownFilter(f"not an enumerated filter: {f:#x}") from None

    def join(self, f: int, g: int) -> int:
        return self.filters[self.join_table[self.position(f)][self.position(g)]]

    def meet(self, f: int, g: int) -> int:
        # Positions only reject what is not a filter: meet is intersection.
        self.position(f)
        self.position(g)
        return f & g


def canonical_sort(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


@per_structure
def all_filters(s: Structure) -> FilterLattice:
    """Every filter, as up(e) for each idempotent e; the join of up(e)
    and up(f) is up(e * f).  Assumes a valid structure."""
    up, times = s.up, s.times
    idempotents = [e for e in range(s.n) if times[e][e] == e]
    filters = canonical_sort(up[e] for e in idempotents)
    index = {m: i for i, m in enumerate(filters)}
    least = sorted(idempotents, key=lambda e: index[up[e]])
    join_t = tuple(tuple(index[up[times[e][f]]] for f in least) for e in least)
    return FilterLattice(filters=filters, index=index, join_table=join_t)


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
