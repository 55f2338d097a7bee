"""The shared closure helpers, and the battery's power to catch a broken closure."""

import sys
from contextlib import contextmanager
from dataclasses import replace

import pytest

from reslat import bitsets, filters, spectra
from reslat.battery import run_battery
from reslat.modelgen import SearchSpec, enumerate_residuated
from reslat.structure import live_memos


def census(*sizes):
    return [
        rec.structure
        for size in sizes
        for rec in enumerate_residuated(SearchSpec(size=size))
    ]


def brute_closed(table, n: int, c: int) -> bool:
    members = [x for x in range(n) if c >> x & 1]
    return all(c >> table[x][y] & 1 for x in members for y in members)


def test_closure_helpers_match_subset_scan(a6):
    structures = census(2, 3, 4) + [a6]
    assert len(structures) == 1 + 2 + 7 + 1
    for s in structures:
        for table in (s.join, s.times):
            closed = [c for c in range(1 << s.n) if brute_closed(table, s.n, c)]
            for m in range(1 << s.n):
                least = s.full
                for c in closed:
                    if not m & ~c:
                        least &= c
                assert bitsets.closure_under(table, m) == least
                assert bitsets.closed_under(table, m) == (least == m)


def package_modules():
    return [
        module
        for name, module in sys.modules.items()
        if name == "reslat" or name.startswith("reslat.")
    ]


@contextmanager
def forgotten_answers():
    """Forget every answer on entry and on exit: call each `cache_clear`
    in the package and empty the `memos` of every live structure, the
    shared session fixtures included."""

    def clear():
        for module in package_modules():
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        for memos in live_memos():
            memos.clear()

    clear()
    try:
        yield
    finally:
        clear()


@pytest.fixture
def cold_caches():
    """Forget every answer before and after the test, so that neither
    correct nor broken results leak across it."""
    with forgotten_answers():
        yield


def every_proper_filter_is_prime(monkeypatch):
    monkeypatch.setattr(spectra, "is_prime", lambda s, f: f != s.full)


def test_no_answer_of_a_mutant_outlives_it(a6):
    """Answers computed on the shared a6 under a broken `is_prime`, by
    whole-structure and per-subset cached routines, are gone once the
    block ends."""

    def answers():
        primes = spectra.primes_of(a6)
        return primes, [spectra.minimal_primes_over(a6, m) for m in range(1 << a6.n)]

    right = answers()
    with pytest.MonkeyPatch.context() as mp, forgotten_answers():
        every_proper_filter_is_prime(mp)
        wrong = answers()
        assert wrong[0] != right[0] and wrong[1] != right[1]
    assert answers() == right


def failed_checks(structures) -> set[str]:
    """Names of the battery checks that fail on some of the structures
    with a law witness or a domain error, not by crashing: a mutant
    that makes a check raise, say, `AttributeError` has broken the
    check's input shape rather than the law the check tests.

    Each structure is rebuilt first, since the cached answers live on
    the structure object.
    """
    out = set()
    for s in structures:
        report = run_battery(replace(s, names=s.names))
        out |= {o.name for o in report.outcomes if not o.passed and not o.crashed}
    return out


def patch_everywhere(monkeypatch, orig, mutant) -> None:
    """Rebind `orig` to `mutant` in every package module that imported it."""
    for module in package_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, key, mutant)


def filter_closure_without_up_cone(monkeypatch):
    def no_cone(s, gens):
        return bitsets.closure_under(s.times, gens | 1 << s.top)

    patch_everywhere(monkeypatch, filters.generated_filter, no_cone)


def ideal_closure_without_down_cone(monkeypatch):
    def no_cone(s, gens):
        return bitsets.closure_under(s.join, gens | 1 << s.bot)

    patch_everywhere(monkeypatch, filters.generated_ideal, no_cone)


def closure_stopped_after_one_round(monkeypatch):
    # One product of the generators, without its idempotent power: up of
    # that product is upward closed but not product closed in general.
    def product_only(s, gens):
        x = s.top
        for g in bitsets.bits(gens):
            x = s.times[x][g]
        return s.up[x]

    patch_everywhere(monkeypatch, filters.generated_filter, product_only)


# The mutants of this module, for `test_battery_failures.py`.
MUTANTS = (
    every_proper_filter_is_prime,
    filter_closure_without_up_cone,
    ideal_closure_without_down_cone,
    closure_stopped_after_one_round,
)


def test_battery_catches_filter_closure_without_up_cone(a6, monkeypatch, cold_caches):
    filter_closure_without_up_cone(monkeypatch)
    failed = failed_checks([a6])
    assert "generated-filter-is-prime-intersection" in failed
    assert len(failed) >= 6


def test_battery_catches_ideal_closure_without_down_cone(a6, monkeypatch, cold_caches):
    ideal_closure_without_down_cone(monkeypatch)
    assert "principal-ideal-join-rule" in failed_checks([a6])


def test_battery_catches_closure_stopped_after_one_round(a6, monkeypatch, cold_caches):
    closure_stopped_after_one_round(monkeypatch)
    failed = failed_checks(census(4, 5) + [a6])
    assert "generated-filter-idempotent" in failed
    assert len(failed) >= 4
