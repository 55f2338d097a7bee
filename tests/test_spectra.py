from reslat.bitsets import mask_of
from reslat.filters import all_filters, canonical_sort, generated_filter
from reslat.modelgen import SearchSpec, enumerate_residuated
from reslat.spectra import (
    is_join_closed,
    is_prime,
    join_closed_subsets,
    minimal_primes_over,
    prime_avoiding,
    prime_by_complement,
    spectrum,
)


def named_mask(s, names):
    return mask_of(s.element(x) for x in names)


def test_is_prime_examples(a6):
    assert is_prime(a6, named_mask(a6, "abd1"))
    assert is_prime(a6, named_mask(a6, "cd1"))
    assert is_prime(a6, named_mask(a6, "1"))
    # b v c = d lands in {d,1} while neither b nor c does
    assert not is_prime(a6, named_mask(a6, "d1"))
    assert not is_prime(a6, a6.full)


def test_prime_matches_complement_route(a6, chain3_luk):
    for s in (a6, chain3_luk):
        for f in all_filters(s):
            assert is_prime(s, f) == prime_by_complement(s, f)


def test_spectrum_of_a6(a6):
    rep = spectrum(a6)
    assert set(rep.primes) == {
        named_mask(a6, "1"),
        named_mask(a6, "abd1"),
        named_mask(a6, "cd1"),
    }
    assert set(rep.maximals) == {named_mask(a6, "abd1"), named_mask(a6, "cd1")}
    assert rep.minimal_primes == (named_mask(a6, "1"),)
    assert set(rep.maximals) <= set(rep.primes)


def test_spectrum_of_chains(chain2, chain3_godel):
    rep = spectrum(chain2)
    triv = 1 << chain2.top
    assert rep.primes == (triv,)
    assert rep.maximals == (triv,)
    assert rep.minimal_primes == (triv,)

    rep3 = spectrum(chain3_godel)
    m1 = mask_of([chain3_godel.element("m"), chain3_godel.top])
    assert set(rep3.primes) == {1 << chain3_godel.top, m1}
    assert rep3.minimal_primes == (1 << chain3_godel.top,)


def test_spectrum_with_base(a6):
    f2 = named_mask(a6, "d1")
    rep = spectrum(a6, f2)
    assert set(rep.primes) == {named_mask(a6, "abd1"), named_mask(a6, "cd1")}
    assert set(rep.minimal_primes) == set(rep.primes)


def test_minimal_primes_over(a6):
    f2 = named_mask(a6, "d1")
    assert set(minimal_primes_over(a6, f2)) == {
        named_mask(a6, "abd1"),
        named_mask(a6, "cd1"),
    }
    assert minimal_primes_over(a6, named_mask(a6, "1")) == (named_mask(a6, "1"),)
    # {0} generates the whole carrier, so nothing lies above it
    assert minimal_primes_over(a6, named_mask(a6, "0")) == ()


def test_every_prime_over_set_contains_a_minimal_one(a6):
    for x_set in range(1 << a6.n):
        mins = minimal_primes_over(a6, x_set)
        for p in spectrum(a6).primes:
            if x_set & ~p:
                continue
            assert any(not (m & ~p) for m in mins)


def test_is_join_closed(a6):
    assert is_join_closed(a6, named_mask(a6, "0c"))
    assert not is_join_closed(a6, named_mask(a6, "bc"))  # b v c = d
    for x in range(a6.n):
        assert is_join_closed(a6, 1 << x)
    assert not is_join_closed(a6, 0)


def test_prime_separation(a6):
    for c in join_closed_subsets(a6):
        for f in all_filters(a6):
            if c & f:
                continue
            p = prime_avoiding(a6, f, c)
            assert p is not None
            assert not (f & ~p) and not (p & c)


def test_generated_filter_equals_prime_intersections(a6):
    from reslat.spectra import generated_by_minimal_primes, generated_by_primes

    for x_set in range(1 << a6.n):
        expected = generated_filter(a6, x_set)
        assert generated_by_primes(a6, x_set) == expected
        assert generated_by_minimal_primes(a6, x_set) == expected


def test_minimal_primes_come_canonically_sorted():
    for size in range(2, 7):
        for rec in enumerate_residuated(SearchSpec(size=size)):
            s = rec.structure
            for x_set in range(1 << s.n):
                mins = minimal_primes_over(s, x_set)
                assert mins == canonical_sort(mins)
