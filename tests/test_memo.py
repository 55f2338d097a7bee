"""The per-structure memo answers exactly as the uncached routines."""

import gc
import operator
from dataclasses import replace

import pytest

from reslat.bitsets import bits, subset_fold, union_over
from reslat.coann import coann_subset_table, coannulet_table
from reslat.fileformat import load_structure
from reslat.filters import all_filters, generated_filter, generated_filter_table, generated_ideal
from reslat.modelgen import SearchSpec, enumerate_residuated
from reslat.omega import omega, omega_table
from reslat.spectra import minimal_primes_over, minimal_primes_table
from reslat.structure import Structure, validate_structure

from conftest import FIXTURES


@pytest.fixture(scope="module")
def structures(a6):
    """Every census class of size 2 to 5, then the a6 fixture."""
    out = [
        rec.structure
        for size in (2, 3, 4, 5)
        for rec in enumerate_residuated(SearchSpec(size=size))
    ]
    assert len(out) == 1 + 2 + 7 + 26
    return [*out, a6]


def godel_chain(n: int) -> Structure:
    """The n-element chain with product = meet; past `SMALL_N` for n > 8."""
    maxs = [[max(x, y) for y in range(n)] for x in range(n)]
    mins = [[min(x, y) for y in range(n)] for x in range(n)]
    res = [[n - 1 if x <= y else y for y in range(n)] for x in range(n)]
    return Structure(
        n=n,
        names=[str(i) for i in range(n)],
        join=maxs,
        meet=mins,
        times=mins,
        residuum=res,
        bot=0,
        top=n - 1,
    )


def test_generated_filters_are_kept_only_in_their_table(structures):
    """`generated_filter` keeps no answer on a structure, so its answers
    over every mask are held once, in `generated_filter_table`."""
    for s in structures:
        s = replace(s, names=s.names)
        answers = tuple(generated_filter(s, m) for m in range(1 << s.n))
        assert not vars(s).get("memos")
        assert generated_filter_table(s) == answers
        assert dict(s.memos) == {generated_filter_table.__wrapped__: {None: answers}}


def test_omega_table_matches_coannulet_union(structures):
    for s in structures:
        for f in all_filters(s):
            table = coannulet_table(s, f)
            unions = omega_table(s, f)
            for x_set in range(1, 1 << s.n):
                expected = 0
                for x in bits(x_set):
                    expected |= table[x]
                assert omega(s, f, x_set) == expected
                assert unions[x_set] == expected == union_over(table, x_set)
            assert s.memos[omega_table.__wrapped__][f] is omega_table(s, f)


def test_coann_memo_matches_subset_fold(structures):
    for s in structures:
        for f in all_filters(s):
            expected = subset_fold(coannulet_table(s, f), s.full, operator.and_)
            assert list(coann_subset_table(s, f)) == expected
            assert s.memos[coann_subset_table.__wrapped__][f] is coann_subset_table(s, f)


def test_minimal_primes_memo_matches_scan(structures):
    minimal_primes_scan = minimal_primes_over.__wrapped__
    for s in structures:
        for _ in range(2):  # the first pass may fill slots, the second reads them
            for m in range(1 << s.n):
                assert minimal_primes_over(s, m) == minimal_primes_scan(s, m)
        assert len(s.memos[minimal_primes_scan]) == 1 << s.n


def test_mask_tables_match_their_routines(census):
    """Each battery table, on a rebuilt copy of every class of sizes 2
    to 6 and of every fixture, answers as its routine on every mask."""
    fixtures = [load_structure(path)[0] for path in sorted(FIXTURES.glob("*.json"))]
    structures = [s for size in range(2, 7) for s in census[size]] + fixtures
    assert len(structures) == 1 + 2 + 7 + 26 + 129 + 5
    for s in structures:
        s = replace(s, names=s.names)
        masks = range(1 << s.n)
        assert generated_filter_table(s) == tuple(generated_filter(s, m) for m in masks)
        assert minimal_primes_table(s) == tuple(minimal_primes_over(s, m) for m in masks)
        assert generated_filter_table(s) is generated_filter_table(s)
        assert minimal_primes_table(s) is minimal_primes_table(s)


def test_large_carrier_shares_the_memo():
    s = godel_chain(9)
    assert validate_structure(s).valid
    for x in range(s.n):
        up = sum(1 << y for y in range(x, s.n))
        assert generated_filter(s, 1 << x | 1 << s.top) == up
        assert generated_ideal(s, 1 << x | 1 << s.bot) == s.down[x]
        assert omega(s, up, 1 << x) == s.full
        trivial = s.full if x == s.top else 1 << s.top
        assert omega(s, 1 << s.top, 1 << x | 1) == trivial
        # The filters of a chain are its up-sets, and every one is prime
        # except the carrier, so up is the only minimal prime over x.
        assert minimal_primes_over(s, 1 << x) == ((up,) if x else ())
    # Single omega queries build no 2^n table.
    assert omega_table.__wrapped__ not in s.memos
    for f in all_filters(s):
        table = coannulet_table(s, f)
        assert omega_table(s, f) == subset_fold(table, 0, operator.or_)
        assert coann_subset_table(s, f) == subset_fold(table, s.full, operator.and_)
    minimal_primes_scan = minimal_primes_over.__wrapped__
    for m in range(1 << s.n):
        assert minimal_primes_over(s, m) == minimal_primes_scan(s, m)
    assert len(s.memos[minimal_primes_scan]) == 1 << s.n


def test_cache_info_counts_answers_of_live_structures(a6):
    all_filters.cache_clear()
    s = replace(a6, names=a6.names)
    assert all_filters(s) is all_filters(s)
    info = all_filters.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    all_filters(a6)
    assert all_filters.cache_info().currsize == 2
    del s
    gc.collect()
    assert all_filters.cache_info().currsize == 1
    assert all_filters.__wrapped__ in a6.memos
    all_filters.cache_clear()
    assert all_filters.cache_info()[:2] == (0, 0)
    assert all_filters.__wrapped__ not in a6.memos
    assert all_filters.cache_info().currsize == 0


def test_bits_lists_set_bits_ascending():
    masks = [*range(0, 1 << 10), 0xFFFF, 1 << 40, (1 << 70) | (1 << 9) | 5]
    for mask in masks:
        assert bits(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_equal_structures_hash_equal(a6):
    again = Structure(
        n=a6.n,
        names=list(a6.names),
        join=[list(r) for r in a6.join],
        meet=[list(r) for r in a6.meet],
        times=[list(r) for r in a6.times],
        residuum=[list(r) for r in a6.residuum],
        bot=a6.bot,
        top=a6.top,
    )
    generated_filter(a6, 3)
    assert again is not a6
    assert again == a6
    assert hash(again) == hash(a6) == hash(a6)
    assert replace(again, names=("z", *a6.names[1:])) != a6
