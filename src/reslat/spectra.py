"""Prime, maximal and minimal prime filters; join-closed separators."""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import closed_under
from .filters import all_filters, canonical_sort
from .structure import Structure, per_structure


def is_prime(s: Structure, f: int) -> bool:
    """Proper filter with x v y in f implying x in f or y in f."""
    if f == s.full:
        return False
    for x in range(s.n):
        row = s.join[x]
        if f >> x & 1:
            continue
        for y in range(x, s.n):
            if f >> y & 1:
                continue
            if f >> row[y] & 1:
                return False
    return True


def prime_by_complement(s: Structure, f: int) -> bool:
    """Alternative route: proper and the complement is join closed."""
    return f != s.full and is_join_closed(s, s.full ^ f)


@per_structure
def primes_of(s: Structure) -> tuple[int, ...]:
    return tuple(f for f in all_filters(s) if is_prime(s, f))


@per_structure
def maximal_filters(s: Structure) -> tuple[int, ...]:
    proper = [f for f in all_filters(s) if f != s.full]
    return tuple(
        f
        for f in proper
        if not any(g != f and not (f & ~g) for g in proper)
    )


@per_structure
def minimal_primes_over(s: Structure, x_set: int) -> tuple[int, ...]:
    """Minimal elements of the primes containing x_set.

    Empty exactly when x_set generates the whole carrier, since in a
    finite structure every proper filter sits below a prime.  Canonically
    sorted, as `primes_of` is.
    """
    over = [p for p in primes_of(s) if not (x_set & ~p)]
    return tuple(
        p for p in over if not any(q != p and not (q & ~p) for q in over)
    )


@per_structure
def minimal_primes_table(s: Structure) -> tuple[tuple[int, ...], ...]:
    """minimal_primes_over(s, m) for every subset mask m, each read
    through the module's `minimal_primes_over`, so that rebinding it
    reaches the table too."""
    return tuple(minimal_primes_over(s, m) for m in range(1 << s.n))


@dataclass(frozen=True)
class SpectrumReport:
    base: int
    primes: tuple[int, ...]
    maximals: tuple[int, ...]
    minimal_primes: tuple[int, ...]


def spectrum(s: Structure, base: int | None = None) -> SpectrumReport:
    """Primes, maximal filters and base-minimal primes above `base`.

    The default base is the trivial filter {top}, which makes the report
    cover the whole spectrum.
    """
    if base is None:
        base = 1 << s.top
    return SpectrumReport(
        base=base,
        primes=tuple(p for p in primes_of(s) if not (base & ~p)),
        maximals=tuple(m for m in maximal_filters(s) if not (base & ~m)),
        minimal_primes=minimal_primes_over(s, base),
    )


def is_join_closed(s: Structure, c: int) -> bool:
    """Nonempty and closed under binary joins."""
    if c == 0 or c & ~s.full:
        return False
    return closed_under(s.join, c)


@per_structure
def join_closed_subsets(s: Structure) -> tuple[int, ...]:
    """All nonempty join-closed subsets, canonically sorted."""
    return canonical_sort(
        m for m in range(1, s.full + 1) if is_join_closed(s, m)
    )


def prime_avoiding(s: Structure, f: int, c: int) -> int | None:
    """Some prime filter containing f and disjoint from join-closed c.

    Returns None when no such prime exists (i.e. when c meets f, by the
    separation theorem for finite structures).
    """
    for p in primes_of(s):
        if not (f & ~p) and not (p & c):
            return p
    return None


def intersection_of(masks, empty: int) -> int:
    """Intersection of an iterable of masks; `empty` for no masks at all."""
    out = None
    for m in masks:
        out = m if out is None else out & m
    return empty if out is None else out


def generated_by_primes(s: Structure, x_set: int) -> int:
    """Intersection of all primes containing x_set (full carrier if none)."""
    return intersection_of(
        (p for p in primes_of(s) if not (x_set & ~p)), s.full
    )


def generated_by_minimal_primes(s: Structure, x_set: int) -> int:
    """Intersection of the x_set-minimal primes (full carrier if none)."""
    return intersection_of(minimal_primes_over(s, x_set), s.full)
