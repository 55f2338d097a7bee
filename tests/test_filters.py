import random

import pytest

from reslat import filters
from reslat.battery import CHECKS
from reslat.bitsets import closed_under, closure_under, mask_of, union_over
from reslat.errors import UnknownFilter
from reslat.fileformat import load_structure
from reslat.filters import (
    FilterLattice,
    all_filters,
    all_ideals,
    canonical_sort,
    filters_by_subset_scan,
    generated_filter,
    generated_ideal,
    ideals_by_subset_scan,
    is_filter,
    is_ideal,
)
from reslat.structure import subset_repr

from conftest import FIXTURES
from test_closure import census
from test_structure import _relabeled_off_bounds


def named_mask(s, names):
    return mask_of(s.element(x) for x in names)


def test_a6_filter_list_is_the_known_five(a6):
    lat = all_filters(a6)
    expected = {
        named_mask(a6, "1"),
        named_mask(a6, "d1"),
        named_mask(a6, "abd1"),
        named_mask(a6, "cd1"),
        a6.full,
    }
    assert set(lat.filters) == expected
    assert len(lat.filters) == 5


def test_filters_are_canonically_ordered(a6):
    lat = all_filters(a6)
    keys = [(f.bit_count(), f) for f in lat.filters]
    assert keys == sorted(keys)


def test_is_filter_examples(a6):
    assert is_filter(a6, named_mask(a6, "cd1"))
    assert is_filter(a6, named_mask(a6, "d1"))
    assert is_filter(a6, named_mask(a6, "1"))
    # b*b = a is missing, so upward closure alone is not enough
    assert not is_filter(a6, named_mask(a6, "bd1"))
    assert not is_filter(a6, 0)


def test_generated_filter_examples(a6):
    assert generated_filter(a6, named_mask(a6, "c")) == named_mask(a6, "cd1")
    assert generated_filter(a6, named_mask(a6, "1")) == named_mask(a6, "1")
    assert generated_filter(a6, named_mask(a6, "0")) == a6.full
    assert generated_filter(a6, 0) == 1 << a6.top


def test_generated_filter_idempotent_on_all_subsets(a6):
    for x_set in range(1 << a6.n):
        once = generated_filter(a6, x_set)
        assert x_set & ~once == 0
        assert generated_filter(a6, once) == once


def test_filter_join_and_meet(a6):
    lat = all_filters(a6)
    f3 = named_mask(a6, "abd1")
    f4 = named_mask(a6, "cd1")
    f2 = named_mask(a6, "d1")
    assert lat.join(f3, f4) == a6.full
    assert lat.meet(f3, f4) == f2
    for f in lat.filters:
        assert lat.join(f, f) == f
        assert lat.meet(f, f) == f


def test_filter_lattice_rejects_unknown_arguments(a6):
    lat = all_filters(a6)
    with pytest.raises(UnknownFilter):
        lat.join(named_mask(a6, "bd1"), a6.full)
    with pytest.raises(UnknownFilter):
        lat.meet(a6.full, named_mask(a6, "b"))


def test_enumeration_matches_subset_scan(a6, chain2, chain3_godel, chain3_luk):
    for s in (a6, chain2, chain3_godel, chain3_luk):
        assert all_filters(s).filters == filters_by_subset_scan(s)
        assert all_ideals(s) == ideals_by_subset_scan(s)


def test_chain_filter_lattices(chain2, chain3_godel):
    assert set(all_filters(chain2).filters) == {1 << chain2.top, chain2.full}
    m1 = mask_of([chain3_godel.element("m"), chain3_godel.top])
    assert set(all_filters(chain3_godel).filters) == {
        1 << chain3_godel.top,
        m1,
        chain3_godel.full,
    }


def test_ideals_of_a6(a6):
    expected = {
        named_mask(a6, "0"),
        named_mask(a6, "0a"),
        named_mask(a6, "0c"),
        named_mask(a6, "0ab"),
        named_mask(a6, "0abcd"),
        a6.full,
    }
    assert set(all_ideals(a6)) == expected


def test_generated_ideal_examples(a6):
    assert generated_ideal(a6, named_mask(a6, "b")) == named_mask(a6, "0ab")
    assert generated_ideal(a6, named_mask(a6, "1")) == a6.full
    # a v c = d pulls in the whole downset of d
    assert generated_ideal(a6, named_mask(a6, "ac")) == named_mask(a6, "0abcd")
    assert generated_ideal(a6, 0) == 1 << a6.bot


def test_is_ideal(a6):
    assert is_ideal(a6, named_mask(a6, "0ab"))
    assert not is_ideal(a6, named_mask(a6, "0ac"))  # not join closed
    assert not is_ideal(a6, named_mask(a6, "ab"))  # missing bottom


def test_filter_lattice_is_distributive(a6):
    lat = all_filters(a6)
    for f in lat.filters:
        for g in lat.filters:
            for h in lat.filters:
                assert f & lat.join(g, h) == lat.join(f & g, f & h)


def test_extension_rules_on_a6(a6):
    from reslat.filters import filter_extension

    lat = all_filters(a6)
    for f in lat.filters:
        for x in range(a6.n):
            for y in range(a6.n):
                ext_x = filter_extension(a6, f, x)
                ext_y = filter_extension(a6, f, y)
                assert ext_x & ext_y == filter_extension(a6, f, a6.join[x][y])
                assert generated_filter(a6, ext_x | ext_y) == filter_extension(
                    a6, f, a6.times[x][y]
                )


def test_subset_repr_of_filters(a6):
    assert [subset_repr(a6, f) for f in all_filters(a6).filters] == [
        "{1}",
        "{d,1}",
        "{c,d,1}",
        "{a,b,d,1}",
        "{0,a,b,c,d,1}",
    ]


# Reference routes: the up-set scan and the fixpoint closures that
# `filters` used before it read filters off idempotents and ideals off
# elements.


def upsets_scan(s) -> list[int]:
    """Every upward closed subset, found by include/exclude propagation."""
    out = []

    def rec(i, inc, exc):
        if i == s.n:
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


def reference_filter_closure(s, m):
    return union_over(s.up, closure_under(s.times, m | 1 << s.top))


def reference_ideal_closure(s, m):
    return union_over(s.down, closure_under(s.join, m | 1 << s.bot))


def reference_filters(s):
    found = canonical_sort(m for m in upsets_scan(s) if m and closed_under(s.times, m))
    index = {m: i for i, m in enumerate(found)}
    join_t = tuple(
        tuple(index[reference_filter_closure(s, f | g)] for g in found) for f in found
    )
    return found, join_t


def reference_ideals(s):
    downs = (s.full ^ u for u in upsets_scan(s))
    return canonical_sort(m for m in downs if m and closed_under(s.join, m))


@pytest.fixture(scope="module")
def oracle_structures():
    """Every census class of sizes 2-6, a seeded relabeling of each that
    moves bot off 0 and top off n - 1, and every fixture."""
    classes = census(2, 3, 4, 5, 6)
    rng = random.Random(15)
    relabeled = [_relabeled_off_bounds(s, rng) for s in classes]
    fixtures = [load_structure(p)[0] for p in sorted(FIXTURES.glob("*.json"))]
    assert len(classes) == 1 + 2 + 7 + 26 + 129
    assert any(s.n == 9 for s in fixtures)
    return classes + relabeled + fixtures


def test_enumerations_match_reference_routes(oracle_structures):
    for s in oracle_structures:
        lat = all_filters(s)
        assert (lat.filters, lat.join_table) == reference_filters(s)
        assert all_ideals(s) == reference_ideals(s)


def test_closures_match_reference_routes_on_every_mask(oracle_structures):
    # The undecorated filter routine, so that no structure keeps 2^n answers.
    filter_closure = generated_filter.__wrapped__
    for s in oracle_structures:
        for m in range(1 << s.n):
            assert filter_closure(s, m) == reference_filter_closure(s, m)
            assert generated_ideal(s, m) == reference_ideal_closure(s, m)


def enumeration_check(name):
    return next(fn for _group, check, fn in CHECKS if check == name)


def test_enumeration_oracle_catches_a_dropped_idempotent(a6, monkeypatch):
    def drop_bot(s):
        # bot is always idempotent; up(bot) is the whole carrier.
        kept = canonical_sort(
            s.up[e] for e in range(s.n) if s.times[e][e] == e and e != s.bot
        )
        index = {m: i for i, m in enumerate(kept)}
        return FilterLattice(filters=kept, index=index, join_table=())

    monkeypatch.setattr(filters, "all_filters", drop_bot)
    check = enumeration_check("filter-enumeration-matches-subset-scan")
    for s in census(2, 3, 4, 5) + [a6]:
        witness, _notes = check(s)
        assert witness is not None


def test_enumeration_oracle_catches_a_dropped_down_set(a6, monkeypatch):
    def drop_top(s):
        return canonical_sort(s.down[x] for x in range(s.n) if x != s.top)

    monkeypatch.setattr(filters, "all_ideals", drop_top)
    check = enumeration_check("ideal-enumeration-matches-subset-scan")
    for s in census(2, 3, 4, 5) + [a6]:
        witness, _notes = check(s)
        assert witness is not None
