"""Filters and ideals: membership, generation, and full enumeration.

A filter is a nonempty subset closed under the product and upward
closed; an ideal (of the lattice reduct) is a nonempty downward closed
subset closed under join.  The empty generating set yields the least
element of the respective lattice: {top} for filters, {bot} for ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bitsets import closed_under, closure_under, union_over
from .errors import UnknownFilter
from .structure import Structure, memo


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
    """Least filter containing `gens`, memoised per structure."""
    return memo(s, filter_closure, gens)


def generated_ideal(s: Structure, gens: int) -> int:
    """Least ideal containing `gens`, memoised per structure."""
    return memo(s, ideal_closure, gens)


def filter_closure(s: Structure, gens: int) -> int:
    """Upward closure of the product closure of `gens` and top, without
    the memo."""
    return union_over(s.up, closure_under(s.times, gens | 1 << s.top))


def ideal_closure(s: Structure, gens: int) -> int:
    """Downward closure of the join closure of `gens` and bot, without
    the memo."""
    return union_over(s.down, closure_under(s.join, gens | 1 << s.bot))


def principal_filter(s: Structure, x: int) -> int:
    return generated_filter(s, 1 << x)


def filter_extension(s: Structure, f: int, x: int) -> int:
    """The join of filter f with the principal filter of x."""
    return generated_filter(s, f | 1 << x)


def _upsets(s: Structure) -> list[int]:
    """Every upward closed subset, found by include/exclude propagation."""
    n = s.n
    out: list[int] = []

    def rec(i: int, inc: int, exc: int) -> None:
        if i == n:
            out.append(inc)
            return
        b = 1 << i
        if inc & b or exc & b:
            rec(i + 1, inc, exc)
            return
        rec(i + 1, inc, exc | s.down[i])
        if not s.up[i] & exc:
            rec(i + 1, inc | s.up[i], exc)

    rec(0, 0, 0)
    return out


@dataclass(frozen=True, eq=False)
class FilterLattice:
    """All filters of a structure with their join table.

    Filters are listed canonically (ascending popcount, then bit value).
    Meet is set intersection; join of F and G is the least filter
    containing their union.
    """

    structure: Structure
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


@lru_cache(maxsize=None)
def all_filters(s: Structure) -> FilterLattice:
    """Enumerate every filter by scanning the upward closed subsets."""
    found = [m for m in _upsets(s) if m and closed_under(s.times, m)]
    filters = canonical_sort(found)
    index = {m: i for i, m in enumerate(filters)}
    k = len(filters)
    join_t = [[0] * k for _ in range(k)]
    for i, f in enumerate(filters):
        for j in range(i, k):
            jt = index[generated_filter(s, f | filters[j])]
            join_t[i][j] = join_t[j][i] = jt
    return FilterLattice(
        structure=s,
        filters=filters,
        index=index,
        join_table=tuple(tuple(r) for r in join_t),
    )


def filter_join(lat: FilterLattice, f: int, g: int) -> int:
    return lat.join(f, g)


def filter_meet(lat: FilterLattice, f: int, g: int) -> int:
    return lat.meet(f, g)


def filters_by_subset_scan(s: Structure) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets."""
    return canonical_sort(m for m in range(1, s.full + 1) if is_filter(s, m))


def ideal_join(s: Structure, i: int, j: int) -> int:
    return generated_ideal(s, i | j)


@lru_cache(maxsize=None)
def all_ideals(s: Structure) -> tuple[int, ...]:
    """Every ideal of the lattice reduct, canonically sorted."""
    downs = (s.full ^ u for u in _upsets(s))
    found = [m for m in downs if m and closed_under(s.join, m)]
    return canonical_sort(found)


def ideals_by_subset_scan(s: Structure) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets."""
    return canonical_sort(m for m in range(1, s.full + 1) if is_ideal(s, m))
