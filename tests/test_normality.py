from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from reslat.battery import run_battery
from reslat.bitsets import mask_of
from reslat.errors import BadN, ImproperFilter, NotMinimalPrime
from reslat.fileformat import load_structure
from reslat.filters import all_filters, generated_filter
from reslat.modelgen import SearchSpec, enumerate_residuated
from reslat.normality import (
    _pairwise_tuples,
    is_n_prime,
    n_normality_verdict,
    n_prime,
    n_prime_relations,
    normality_report,
    normality_verdict,
    omega_sublattice_verdict,
    separating_elements,
    sigma_greatest_check,
)
from reslat.omega import omega_family, omega_join
from reslat.spectra import minimal_primes_over, primes_of
from reslat.structure import subset_repr, validate_structure

from conftest import FIXTURES
from normality_reference import (
    join_identity_conditions,
    zero_plus_boolean,
    zero_product_condition,
)


def named_mask(s, names):
    return mask_of(s.element(x) for x in names)


def test_n_prime_examples(a6):
    f2 = named_mask(a6, "d1")
    assert n_prime(a6, f2, 3)  # intersection of the two maximal primes
    assert not n_prime(a6, f2, 2)  # it is not prime itself
    for p in primes_of(a6):
        assert n_prime(a6, p, 2)


def test_is_n_prime_agreement(a6):
    f2 = named_mask(a6, "d1")
    v3 = is_n_prime(a6, f2, 3)
    assert v3.agree and all(val for _, val in v3.conditions)
    v2 = is_n_prime(a6, f2, 2)
    assert v2.agree and not any(val for _, val in v2.conditions)
    assert v2.witness is not None


def test_is_n_prime_agreement_everywhere(a6, chain3_luk):
    for s in (a6, chain3_luk):
        top_n = len(primes_of(s)) + 1
        for f in all_filters(s):
            if f == s.full:
                continue
            for n in range(2, top_n + 1):
                assert is_n_prime(s, f, n).agree


def _is_n_prime_by_combinations(s, f, n):
    """is_n_prime's conditions and witness, from itertools combinations."""
    filters = all_filters(s)

    def filter_names(gs):
        return ", ".join(subset_repr(s, g) for g in gs)

    def element_names(xs):
        return ", ".join(s.names[x] for x in xs)

    scans = [
        (
            "filters-meeting-at-base",
            [g for g in filters if g != f],
            lambda a, b: a & b == f,
            filter_names,
        ),
        (
            "filters-meeting-below-base",
            [g for g in filters if g & ~f],
            lambda a, b: not (a & b & ~f),
            filter_names,
        ),
        (
            "elements-pairwise-joined-into-base",
            [x for x in range(s.n) if not f >> x & 1],
            lambda a, b: f >> s.join[a][b] & 1,
            element_names,
        ),
    ]
    conditions, witness = [], {}
    for key, items, related, names in scans:
        bad = next((c for c in combinations(items, n) if _pairs_ok(c, related)), None)
        conditions.append(bad is None)
        if bad is not None:
            witness[key] = names(bad)
    return conditions + [n_prime(s, f, n)], witness or None


def test_is_n_prime_matches_combinations_with_relations_built_once_per_base(a6):
    structures = [a6, zero_plus_boolean(3)]
    structures += [rec.structure for n in (4, 5) for rec in enumerate_residuated(SearchSpec(size=n))]
    n_prime_relations.cache_clear()
    bases = 0
    for s in structures:
        for f in all_filters(s):
            if f == s.full:
                continue
            bases += 1
            for n in range(2, len(primes_of(s)) + 2):
                verdict = is_n_prime(s, f, n)
                assert ([v for _, v in verdict.conditions], verdict.witness) == (
                    _is_n_prime_by_combinations(s, f, n)
                )
    info = n_prime_relations.cache_info()
    assert info.misses == bases and info.hits > bases


def test_n_prime_argument_errors(a6):
    with pytest.raises(BadN):
        n_prime(a6, named_mask(a6, "d1"), 1)
    with pytest.raises(ImproperFilter):
        is_n_prime(a6, a6.full, 2)
    with pytest.raises(ImproperFilter):
        n_prime(a6, a6.full, 2)
    with pytest.raises(BadN):
        is_n_prime(a6, named_mask(a6, "d1"), 1)


def test_normality_report_of_a6(a6):
    for f in all_filters(a6):
        if f == a6.full:
            continue
        rep = normality_report(a6, f)
        assert rep.index == 1
        assert all(count == 1 for _, count in rep.per_prime)
    f2 = named_mask(a6, "d1")
    rep2 = normality_report(a6, f2)
    assert {p for p, _ in rep2.per_prime} == {
        named_mask(a6, "abd1"),
        named_mask(a6, "cd1"),
    }


def test_normality_report_of_chain(chain2):
    rep = normality_report(chain2, 1 << chain2.top)
    assert rep.index == 1
    with pytest.raises(ImproperFilter):
        normality_report(chain2, chain2.full)


def test_separating_elements_witness(a6):
    f2 = named_mask(a6, "d1")
    f3 = named_mask(a6, "abd1")
    f4 = named_mask(a6, "cd1")
    a, b = separating_elements(a6, f2, [f3, f4])
    # lexicographically first witness: (c, a), products (a, c)
    assert a == (a6.element("c"), a6.element("a"))
    assert b == (a6.element("a"), a6.element("c"))
    # postconditions, re-checked here independently of the search
    assert f2 >> a6.join[a[0]][a[1]] & 1
    assert not (f3 >> a[0] & 1) and not (f4 >> a[1] & 1)
    assert f3 >> b[0] & 1 and f4 >> b[1] & 1
    assert f2 >> a6.join[b[0]][b[1]] & 1


def test_separating_elements_errors(a6):
    f2 = named_mask(a6, "d1")
    f3 = named_mask(a6, "abd1")
    with pytest.raises(BadN):
        separating_elements(a6, f2, [f3])
    with pytest.raises(ValueError):
        separating_elements(a6, f2, [f3, f3])
    with pytest.raises(NotMinimalPrime):
        separating_elements(a6, f2, [f3, named_mask(a6, "1")])


def test_n_normality_verdicts_on_a6(a6):
    f1 = named_mask(a6, "1")
    f2 = named_mask(a6, "d1")
    for f in (f1, f2):
        v = n_normality_verdict(a6, f, 1)
        assert v.agree
        assert all(val for _, val in v.conditions)
    # beyond the number of minimal primes everything is vacuous
    v = n_normality_verdict(a6, f2, 5)
    assert v.agree and all(val for _, val in v.conditions)


def test_n_normality_argument_errors(a6):
    with pytest.raises(BadN):
        n_normality_verdict(a6, named_mask(a6, "1"), 0)
    with pytest.raises(ImproperFilter):
        n_normality_verdict(a6, a6.full, 1)


def test_reading_divergence_is_noted_not_failed(a6):
    f2 = named_mask(a6, "d1")
    v = n_normality_verdict(a6, f2, 1)
    assert v.agree
    assert any("diverges" in note for note in v.notes)


def test_normal_verdict(a6, chain2, chain3_godel):
    for s in (a6, chain2, chain3_godel):
        v = normality_verdict(s)
        assert v.agree
        assert all(val for _, val in v.conditions)


def test_omega_sublattice_verdict(a6, chain2):
    for s in (a6, chain2):
        v = omega_sublattice_verdict(s)
        assert v.agree
        assert all(val for _, val in v.conditions)


def test_sigma_greatest_check_on_normal_structure(a6):
    for f in all_filters(a6):
        assert sigma_greatest_check(a6, f)


def _first_non_normal_structure():
    for rec in enumerate_residuated(SearchSpec(size=6)):
        if rec.stats.normality_index > 1:
            return rec.structure
    raise AssertionError("census contains no structure with index above 1")


def test_non_normal_structure_verdicts():
    s = _first_non_normal_structure()
    v = omega_sublattice_verdict(s)
    # all four conditions fail together; the equivalence still agrees
    assert v.agree
    assert not any(val for _, val in v.conditions)
    assert normality_report(s, 1 << s.top).index == 2


# ---------------------------------------------------------------------------
# the narrowed routes of n_normality_verdict against the direct ones


def test_zero_product_and_join_identity_match_direct_scans(
    a6, chain2, chain3_godel, chain3_luk
):
    chain9, _ = load_structure(FIXTURES / "chain9-godel.json")
    structures = [
        rec.structure
        for size in range(2, 7)
        for rec in enumerate_residuated(SearchSpec(size=size))
    ] + [a6, chain2, chain3_godel, chain3_luk, chain9]
    assert len(structures) == 1 + 2 + 7 + 26 + 129 + 5
    failures = {"c5": 0, "c6": 0, "c7": 0}
    for s in structures:
        for f in all_filters(s):
            if f == s.full:
                continue
            for n in range(1, len(minimal_primes_over(s, f)) + 3):
                v = n_normality_verdict(s, f, n)
                got = dict(v.conditions)
                seen = v.witness or {}
                c5, w5 = zero_product_condition(s, f, n)
                c6, w6, c7, w7 = join_identity_conditions(s, f, n)
                assert got["zero-product-witnesses-exist"] == c5
                assert seen.get("tuple-without-zero-product-witnesses") == w5
                assert got["coannihilator-join-identity"] == c6
                assert seen.get("tuple-breaking-coannihilator-join-identity") == w6
                assert got["coannihilator-join-implication"] == c7
                assert seen.get("tuple-breaking-coannihilator-join-implication") == w7
                failures["c5"] += not c5
                failures["c6"] += not c6
                failures["c7"] += not c7
    # The failing side is compared too, not only the vacuous one.
    assert all(failures.values())


def _pairs_ok(combo, pred):
    return all(pred(a, b) for i, a in enumerate(combo) for b in combo[i + 1 :])


def _masks(items, pred):
    """The relation `pred` as masks over the later indices of `items`."""
    n = len(items)
    return [sum(1 << j for j in range(i + 1, n) if pred(items[i], items[j])) for i in range(n)]


@given(
    st.lists(st.integers(0, 5), max_size=9),
    st.integers(0, 10),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
)
@settings(max_examples=300, deadline=None)
def test_pairwise_tuples_are_the_filtered_combinations(items, k, related):
    def pred(a, b):
        return (a, b) in related

    expected = [c for c in combinations(items, k) if _pairs_ok(c, pred)]
    assert list(_pairwise_tuples(items, k, _masks(items, pred))) == expected


def test_pairwise_tuples_edge_cases():
    every = [0b110, 0b100, 0]
    assert list(_pairwise_tuples([], 0, [])) == [()]
    assert list(_pairwise_tuples([], 2, [])) == []
    assert list(_pairwise_tuples([3, 1, 2], 1, every)) == [(3,), (1,), (2,)]
    assert list(_pairwise_tuples([3, 1, 2], 3, every)) == [(3, 1, 2)]
    assert list(_pairwise_tuples([3, 1, 2], 4, every)) == []
    gaps = _masks(range(4), lambda a, b: b - a != 1)
    assert list(_pairwise_tuples(range(4), 2, gaps)) == [
        (0, 2),
        (0, 3),
        (1, 3),
    ]


# ---------------------------------------------------------------------------
# the failing side: 0 (+) B_k has normality index k


@pytest.mark.parametrize("k", [3, 4, 5])
def test_zero_plus_boolean_has_index_k(k):
    s = zero_plus_boolean(k)
    assert validate_structure(s).valid
    triv = 1 << s.top
    assert len(minimal_primes_over(s, triv)) == k
    assert normality_report(s, triv).index == k
    for n in range(1, k + 2):
        v = n_normality_verdict(s, triv, n)
        assert [val for _, val in v.conditions] == [n >= k] * 7, (n, v.conditions)


@pytest.mark.parametrize("k", [4, 5])
def test_zero_plus_boolean_normality_group_passes(k):
    report = run_battery(zero_plus_boolean(k), groups=("normality",))
    assert len(report.outcomes) == 7 and report.all_passed


def test_zero_plus_boolean_three_passes_the_battery():
    assert run_battery(zero_plus_boolean(3)).all_passed


def test_first_failing_pair_is_the_witness_of_condition_one():
    """Condition one of both harnesses reports its first failing pair,
    as conditions three to seven report their first failing tuple.  On
    0 (+) B3 every pair of the three minimal primes joins below the
    carrier, so a scan that kept overwriting would report the third."""
    s = zero_plus_boolean(3)
    triv = 1 << s.top

    def named(pair):
        return ", ".join(subset_repr(s, g) for g in pair)

    mins = minimal_primes_over(s, triv)
    small = [c for c in combinations(mins, 2) if generated_filter(s, c[0] | c[1]) != s.full]
    assert len(small) == 3
    verdict = n_normality_verdict(s, triv, 1)
    assert verdict.witness["minimal-primes-with-small-join"] == named(small[0])

    members = tuple(omega_family(s, triv))
    comaximal = [
        (g, h)
        for i, g in enumerate(members)
        for h in members[i:]
        if omega_join(s, triv, g, h) == s.full and generated_filter(s, g | h) != s.full
    ]
    assert len(comaximal) > 1
    verdict = omega_sublattice_verdict(s)
    assert verdict.witness["comaximal-in-family-but-not-in-filters"] == named(comaximal[0])
