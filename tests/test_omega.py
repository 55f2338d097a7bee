from dataclasses import replace

import pytest

from reslat.bitsets import mask_of
from reslat.errors import EmptyArgument, ImproperFilter
from reslat.filters import all_filters, all_ideals, is_filter
from reslat.omega import (
    dense_set,
    divisor,
    greatest_omega_within,
    omega,
    omega_family,
    omega_join,
    omega_table,
    sigma,
)
from reslat.spectra import join_closed_subsets


def named_mask(s, names):
    return mask_of(s.element(x) for x in names)


def test_omega_examples(a6):
    f1 = named_mask(a6, "1")
    f2 = named_mask(a6, "d1")
    zero_c = named_mask(a6, "0c")
    assert omega(a6, f1, zero_c) == f1
    assert omega(a6, f2, zero_c) == named_mask(a6, "abd1")


def test_omega_full_iff_meets_base(a6):
    for f in all_filters(a6):
        for x_set in range(1, 1 << a6.n):
            assert (omega(a6, f, x_set) == a6.full) == bool(f & x_set)


def test_omega_rejects_empty_set(a6):
    with pytest.raises(EmptyArgument):
        omega(a6, named_mask(a6, "1"), 0)


def test_dense_sets(a6):
    f1 = named_mask(a6, "1")
    f4 = named_mask(a6, "cd1")
    assert dense_set(a6, f1) == named_mask(a6, "0abcd")
    assert dense_set(a6, f4) == named_mask(a6, "0ab")
    assert dense_set(a6, a6.full) == a6.full


def test_omega_family_members(a6):
    f1 = named_mask(a6, "1")
    f2 = named_mask(a6, "d1")
    fam1 = omega_family(a6, f1)
    assert tuple(fam1) == (f1, a6.full)
    fam2 = omega_family(a6, f2)
    assert tuple(fam2) == (
        f2,
        named_mask(a6, "cd1"),
        named_mask(a6, "abd1"),
        a6.full,
    )
    fam_full = omega_family(a6, a6.full)
    assert tuple(fam_full) == (a6.full,)


def test_omega_family_witnesses_map_back(a6):
    for f in all_filters(a6):
        for member, witness in omega_family(a6, f).items():
            assert omega(a6, f, witness) == member


def test_omega_of_ideals_is_filter(a6):
    for f in all_filters(a6):
        for ideal in all_ideals(a6):
            assert is_filter(a6, omega(a6, f, ideal))


def test_omega_of_join_closed_is_filter(a6):
    for f in all_filters(a6):
        for c in join_closed_subsets(a6):
            assert is_filter(a6, omega(a6, f, c))


def test_omega_join(a6):
    f2 = named_mask(a6, "d1")
    f3, f4 = named_mask(a6, "abd1"), named_mask(a6, "cd1")
    assert omega_join(a6, f2, f3, f4) == a6.full
    for g in omega_family(a6, f2):
        assert omega_join(a6, f2, g, f2) == g
        assert omega_join(a6, f2, g, g) == g


def test_omega_join_builds_no_omega_table(a6):
    """One join reads one omega union, not a 2^n table of them."""
    s = replace(a6, names=a6.names)
    held = omega_table.cache_info().currsize
    for f in all_filters(s):
        fam = omega_family(s, f)
        for g in fam:
            for h in fam:
                omega_join(s, f, g, h)
    assert omega_table.cache_info().currsize == held
    assert omega_table.__wrapped__ not in s.memos


def test_divisor_examples(a6):
    f1 = named_mask(a6, "1")
    f2 = named_mask(a6, "d1")
    f3 = named_mask(a6, "abd1")
    f4 = named_mask(a6, "cd1")
    assert divisor(a6, f2, f3) == f3
    assert divisor(a6, f1, f3) == f1
    # the base is not inside the filter, so everything divides
    assert divisor(a6, f3, f4) == a6.full
    with pytest.raises(ImproperFilter):
        divisor(a6, f1, a6.full)


def test_sigma_examples(a6):
    f1 = named_mask(a6, "1")
    f3 = named_mask(a6, "abd1")
    assert sigma(a6, f3) == f1
    assert sigma(a6, f1) == f1
    assert sigma(a6, a6.full) == a6.full


def test_sigma_is_omega_filter_inside(a6):
    fam = omega_family(a6, named_mask(a6, "1"))
    for f in all_filters(a6):
        sg = sigma(a6, f)
        assert sg in fam
        assert not (sg & ~f)


def test_greatest_omega_within(a6):
    f1 = named_mask(a6, "1")
    f3 = named_mask(a6, "abd1")
    assert greatest_omega_within(a6, f3) == f1
    assert greatest_omega_within(a6, a6.full) == a6.full


def test_omega_monotonicity(a6):
    from reslat.bitsets import submasks

    filters = all_filters(a6)
    for f in filters:
        for y_set in range(1, 1 << a6.n):
            oy = omega(a6, f, y_set)
            assert not (f & ~oy)
            for x_set in submasks(y_set):
                if x_set:
                    assert not (omega(a6, f, x_set) & ~oy)


def test_dense_is_ideal_everywhere(a6, chain2, chain3_godel, chain3_luk):
    from reslat.filters import is_ideal

    for s in (a6, chain2, chain3_godel, chain3_luk):
        for f in all_filters(s):
            assert is_ideal(s, dense_set(s, f))
