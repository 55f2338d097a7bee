"""Census counts of subvarieties against counts that structure theorems fix.

Each class has a predicate on the tables, and its expected count is
computed here from outside the product search, never typed in:

- idempotent (x * x = x): the product is the meet of a Heyting algebra,
  so there is one class per distributive lattice of the size;
- Gödel (idempotent and prelinear): a finite Gödel algebra is a Heyting
  algebra dual to a finite forest (Horn, JSL 34, 1969), one class per
  distributive lattice of the size in which the join-irreducibles below
  each join-irreducible form a chain;
- MV (divisible, involutive, prelinear): a finite MV-algebra is a
  product of Łukasiewicz chains, one class per unordered factorization
  of the size into factors of at least 2;
- BL-chains (divisible chains): an ordinal sum of Łukasiewicz chains,
  one class per composition of size - 1;
- Boolean (idempotent and involutive): one class exactly when the size
  is a power of 2.

A product search that loses tables loses classes, and these counts see
it: `test_skipping_the_last_candidate_fails_a_count` runs the census
with each cell's last candidate dropped.
"""

import pytest
from constructions import has_no_zero_divisors, product, zero_plus

from reslat import bitsets, modelgen
from reslat.modelgen import SearchSpec, canonical_key, enumerate_lattices, enumerate_residuated
from reslat.normality import normality_report
from reslat.spectra import minimal_primes_over
from reslat.structure import validate_structure


def _pairs(s):
    return [(x, y) for x in range(s.n) for y in range(s.n)]


def _idempotent(s):
    return all(s.times[x][x] == x for x in range(s.n))


def _involutive(s):
    neg = [s.residuum[x][s.bot] for x in range(s.n)]
    return all(neg[neg[x]] == x for x in range(s.n))


def _divisible(s):
    return all(s.meet[x][y] == s.times[x][s.residuum[x][y]] for x, y in _pairs(s))


def _prelinear(s):
    return all(s.join[s.residuum[x][y]][s.residuum[y][x]] == s.top for x, y in _pairs(s))


def _chain(s):
    return all(s.join[x][y] in (x, y) for x, y in _pairs(s))


CLASSES = {
    "idempotent": _idempotent,
    "Gödel": lambda s: _idempotent(s) and _prelinear(s),
    "MV": lambda s: _divisible(s) and _involutive(s) and _prelinear(s),
    "BL-chain": lambda s: _divisible(s) and _chain(s),
    "Boolean": lambda s: _idempotent(s) and _involutive(s),
}


def _distributive(lat):
    n, join, meet = lat.n, lat.join, lat.meet
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def _forest_shaped(lat):
    """The join-irreducibles below each join-irreducible form a chain."""
    n, join, up, bot = lat.n, lat.join, lat.up, lat.bot

    def leq(x, y):
        return up[x] >> y & 1

    def strictly_below_join(j):
        out = bot
        for x in range(n):
            if x != j and leq(x, j):
                out = join[out][x]
        return out

    irreducibles = [j for j in range(n) if j != bot and strictly_below_join(j) != j]
    return all(
        leq(a, b) or leq(b, a)
        for j in irreducibles
        for a in irreducibles
        for b in irreducibles
        if leq(a, j) and leq(b, j)
    )


def _factorizations(n, least=2):
    """Unordered factorizations of n into factors of at least `least`."""
    return (n >= least) + sum(
        _factorizations(n // f, f) for f in range(least, n) if n % f == 0 and n // f >= f
    )


def _compositions(m):
    """Ordered sums of positive parts equal to m."""
    return 1 if m == 0 else sum(_compositions(m - part) for part in range(1, m + 1))


def expected_counts(n):
    distributive = [lat for lat in enumerate_lattices(n) if _distributive(lat)]
    return {
        "idempotent": len(distributive),
        "Gödel": sum(map(_forest_shaped, distributive)),
        "MV": _factorizations(n),
        "BL-chain": _compositions(n - 1),
        "Boolean": int(n & (n - 1) == 0),
    }


def census_counts(n):
    counts = dict.fromkeys(CLASSES, 0)
    for rec in enumerate_residuated(SearchSpec(size=n)):
        for name, member in CLASSES.items():
            counts[name] += member(rec.structure)
    return counts


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)]
)
def test_subvariety_counts(n):
    assert census_counts(n) == expected_counts(n)


def skip_last_candidate(monkeypatch):
    """Install the mutant product search that drops each cell's last
    candidate value."""
    search = modelgen._times_tables

    def skipping_last(lat):
        with monkeypatch.context() as m:
            m.setattr(modelgen, "bits", lambda mask: bitsets.bits(mask)[:-1])
            return search(lat)

    monkeypatch.setattr(modelgen, "_times_tables", skipping_last)


def test_skipping_the_last_candidate_fails_a_count(monkeypatch):
    skip_last_candidate(monkeypatch)
    assert any(census_counts(n) != expected_counts(n) for n in range(2, 6))


def zero_divisor_free(census, n):
    """How many size-n classes have no zero divisors."""
    return sum(map(has_no_zero_divisors, census[n]))


def missing_lifts(census, n):
    """The size-(n - 1) classes M whose 0 (+) M is not in the size-n census."""
    keys = {canonical_key(s) for s in census[n]}
    return [m for m in census[n - 1] if canonical_key(zero_plus(m)) not in keys]


def test_skipping_the_last_candidate_fails_the_cross_size_identities(monkeypatch):
    """The two identities below see the mutant of the test above.  Both
    sides of each come from the same search, so they catch only a defect
    that hits sizes n and n - 1 differently; this one loses the size-3
    class without zero divisors while it keeps the size-2 class, and
    loses one 0 (+) M at each of n = 3 and 4."""
    skip_last_candidate(monkeypatch)
    mutant = {
        n: [r.structure for r in enumerate_residuated(SearchSpec(size=n))] for n in (2, 3, 4)
    }
    assert (zero_divisor_free(mutant, 3), len(mutant[2])) == (0, 1)
    assert [len(missing_lifts(mutant, n)) for n in (3, 4)] == [1, 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_classes_without_zero_divisors_match_the_size_below(census, n):
    """The size-n classes with no zero divisors (x * y != bot whenever
    x != bot and y != bot) are as many as all the size-(n - 1) classes.

    A has no zero divisors exactly when A is the ordinal sum 0 (+) M: a
    new bottom put under M = A minus bot (Galatos, Jipsen, Kowalski &
    Ono, *Residuated Lattices*, 2007).  M is closed under the product
    and the meet, since x * y <= x meet y, and under the join, since
    x v y >= x, so it is a finite lattice with top, bounded below by the
    meet of all its elements.  M's residuum is A's, since x -> y >= y,
    which is not bot.  Conversely 0 (+) M, where x * y = bot if either
    factor is bot, is residuated for every M and has no zero divisors.
    Isomorphisms fix bot, so A and A' are isomorphic exactly when M and
    M' are.

    Both sides come from the same product search, so only a defect that
    hits sizes n and n - 1 differently shows here.  The size-8 case is
    in `test_size_eight_census_counts`, which holds the size-8 census.
    """
    count = zero_divisor_free(census, n)
    assert count == len(census[n - 1]) == {3: 1, 4: 2, 5: 7, 6: 26, 7: 129}[n]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_zero_plus_of_the_size_below_is_in_the_census(census, n):
    """0 (+) M, built by `zero_plus` rather than found by the product
    search, for every size-(n - 1) class M: the keys are distinct and all
    in the size-n census, by the lemma of the test above.

    Its index over {top} is the number of minimal primes of M over {top}.
    The primes of 0 (+) M are those of M and M itself, the up-set of M's
    bottom, which is prime since a join above it has a factor other than
    the new bottom.  So its minimal primes are M's, and M holds them all.
    """
    lifted = [zero_plus(m) for m in census[n - 1]]
    lifted_keys = {canonical_key(s) for s in lifted}
    assert len(lifted_keys) == len(lifted) == {3: 1, 4: 2, 5: 7, 6: 26, 7: 129}[n]
    assert missing_lifts(census, n) == []
    for m, s in zip(census[n - 1], lifted):
        assert validate_structure(s).valid
        index = normality_report(s, 1 << s.top).index
        assert index == len(minimal_primes_over(m, 1 << m.top))


def test_products_of_smaller_classes_are_in_the_census(census):
    """A x B for census classes A and B with |A| * |B| = n <= 7, one per
    unordered pair, since A x B and B x A are isomorphic: the keys are
    distinct and all in the size-n census.  There is 2 x 2 at n = 4, and
    2 x 3 for both 3-element classes at n = 6.

    Its index over {top} is the larger of the factors' indices.  The
    filters of A x B are the F x G, so its primes are the P x B and the
    A x Q, for P prime in A and Q prime in B; its minimal primes are the
    M x B and A x N, for M and N minimal; and the minimal primes inside
    P x B are the M x B with M inside P.
    """
    built = {}
    for k in range(2, 8):
        for m in range(k, 7 // k + 1):
            for i, a in enumerate(census[k]):
                for b in census[m][i if k == m else 0 :]:
                    built.setdefault(k * m, []).append((a, b))
    assert {n: len(pairs) for n, pairs in built.items()} == {4: 1, 6: 2}
    for n, pairs in built.items():
        assert_products_in_census(pairs, {canonical_key(s) for s in census[n]})


def assert_products_in_census(pairs, keys):
    """For the factors (A, B) of `pairs`, the products A x B have
    distinct keys, all in `keys`, are valid, and have as index over {top}
    the larger of the factors' indices."""
    built = [product(a, b) for a, b in pairs]
    built_keys = {canonical_key(s) for s in built}
    assert len(built_keys) == len(built)
    assert built_keys <= keys
    for (a, b), s in zip(pairs, built):
        assert validate_structure(s).valid
        assert normality_report(s, 1 << s.top).index == max(
            normality_report(a, 1 << a.top).index, normality_report(b, 1 << b.top).index
        )
