"""Coannulet unions, dense elements, omega filter families and divisors.

omega_F(X) is the union of the coannulets (F : x) over x in X.  Applied
to ideals of the lattice reduct it always yields a filter; the filters
reachable this way form a bounded distributive lattice under inclusion,
with intersection as meet.

On a finite structure that family is the set of coannulets: every ideal
is down(v), and (F : x) grows with x, so omega_F(down v) = (F : v).  The
ideals sent to h = (F : w) cover {x : (F : x) <= h}: for such x and any
a in (F : x v w), a v w lies in (F : x) <= (F : w), so (F : x v w) = h.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from .bitsets import subset_fold, union_over
from .coann import coannulet_table
from .errors import EmptyArgument, ImproperFilter, RepresentationMismatch
from .filters import canonical_sort, generated_filter, generated_ideal
from .structure import Structure, per_structure, subset_repr


@per_structure
def omega_table(s: Structure, f: int) -> Sequence[int]:
    """Slot X is the union of (f : x) over x in X, for every subset mask X."""
    return subset_fold(coannulet_table(s, f), 0, operator.or_)


def omega(s: Structure, f: int, x_set: int) -> int:
    """Union of (f : x) over x in x_set.  Raw mask; a filter when x_set
    is join closed, but not in general.  A single union, so one call
    does not build the whole `omega_table`.
    """
    if x_set == 0:
        raise EmptyArgument("omega needs a nonempty subset")
    return union_over(coannulet_table(s, f), x_set)


def dense_set(s: Structure, f: int) -> int:
    """Elements x with (f : x) = f.  Always an ideal of the reduct."""
    table = coannulet_table(s, f)
    return sum(1 << x for x in range(s.n) if table[x] == f)


@per_structure
def omega_family(s: Structure, f: int) -> dict[int, int]:
    """All filters of the form omega_F(I) for an ideal I, in canonical
    order (see the module docstring).  Each member h maps to its largest
    witness ideal, the union of every ideal sent to h: {x : (F : x) <= h}.
    """
    table = coannulet_table(s, f)
    return {
        h: sum(1 << x for x in range(s.n) if not (table[x] & ~h))
        for h in canonical_sort(set(table))
    }


def least_member_above(s: Structure, fam: dict[int, int], mask: int) -> int:
    """Least member containing mask; exists since members are closed
    under intersection and the carrier is a member."""
    out = s.full
    for g in fam:
        if not (mask & ~g):
            out &= g
    if out not in fam:
        raise RepresentationMismatch(
            "members are not intersection closed above " + subset_repr(s, mask)
        )
    return out


def omega_join(s: Structure, f: int, g: int, h: int) -> int:
    """Least member of `omega_family(s, f)` above the members g and h,
    cross-checked against the ideal-join formula on their witnesses.
    One omega union, so the call builds no 2^n table."""
    fam = omega_family(s, f)
    least = least_member_above(s, fam, g | h)
    via_ideals = omega(s, f, generated_ideal(s, fam[g] | fam[h]))
    if via_ideals != least:
        raise RepresentationMismatch(
            "ideal-join formula disagrees with the least member for "
            + subset_repr(s, g)
            + " and "
            + subset_repr(s, h)
        )
    return least


def divisor(s: Structure, f: int, h: int) -> int:
    """omega_f over the complement of the proper filter h.

    A raw mask in general; a filter whenever h is prime (the complement
    is then join closed).
    """
    if h == s.full:
        raise ImproperFilter("divisor set needs a proper filter")
    return omega(s, f, s.full ^ h)


def sigma(s: Structure, f: int) -> int:
    """Elements whose trivial-base coannulet joins with f to the carrier
    in the filter lattice."""
    table = coannulet_table(s, 1 << s.top)
    out = 0
    for a in range(s.n):
        if generated_filter(s, table[a] | f) == s.full:
            out |= 1 << a
    return out


def greatest_omega_within(s: Structure, f: int) -> int | None:
    """Greatest member of the trivial-base family inside f, if one exists."""
    inside = [g for g in omega_family(s, 1 << s.top) if not (g & ~f)]
    best = None
    for g in inside:
        if all(not (h & ~g) for h in inside):
            best = g
            break
    return best
