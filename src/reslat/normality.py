"""n-prime filters, normality indices, and the equivalence harnesses.

A structure is n-normal with respect to a base filter when no prime
filter above the base contains more than n base-minimal primes.  The
classification has several provably equivalent formulations; each
harness here evaluates all of them independently and reports whether
they agree, so a disagreement is a first-class finding rather than an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any

from .bitsets import bits
from .coann import coannihilator, coannulet_table
from .errors import BadN, ImproperFilter, NotMinimalPrime, RepresentationMismatch, SearchExhausted
from .filters import all_filters, generated_filter
from .omega import divisor, greatest_omega_within, omega_family, omega_join, sigma
from .spectra import is_prime, minimal_primes_over, primes_of
from .structure import Structure, per_structure, subset_repr


@dataclass(frozen=True)
class EquivalenceVerdict:
    conditions: tuple[tuple[str, bool], ...]
    agree: bool
    witness: Any = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class NormalityReport:
    base: int
    index: int
    per_prime: tuple[tuple[int, int], ...]


def _verdict(labelled, witness=None, notes=()):
    values = [v for _, v in labelled]
    return EquivalenceVerdict(
        conditions=tuple(labelled),
        agree=all(values) or not any(values),
        witness=witness,
        notes=tuple(notes),
    )


def _pairwise_tuples(items, k, later):
    """Ascending k-tuples of distinct items whose pairs are all related,
    in lexicographic order of their indices.

    The relation is given as masks over the indices: later[i] has bit j,
    for j > i only, set when items[j] is related to items[i].
    """
    count = len(items)
    if k == 0:
        yield ()
        return
    # Depth-first: level d holds the indices still allowed after the
    # first d choices, and one iterator over them.
    chosen = [None] * k
    allowed = [(1 << count) - 1] + [0] * (k - 1)
    levels = [iter(bits(allowed[0]))]
    last = k - 1
    while levels:
        d = len(levels) - 1
        i = next(levels[d], None)
        if i is None:
            levels.pop()
            continue
        chosen[d] = items[i]
        if d == last:
            yield tuple(chosen)
            continue
        rest = allowed[d] & later[i]
        if rest.bit_count() >= last - d:
            allowed[d + 1] = rest
            levels.append(iter(bits(rest)))


def _later_masks(items, pairpred):
    """A relation given by a predicate as masks for `_pairwise_tuples`:
    bit j > i of masks[i] is set when pairpred(items[i], items[j])."""
    masks = []
    for i, a in enumerate(items):
        m = 0
        for j in range(i + 1, len(items)):
            if pairpred(a, items[j]):
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def n_prime(s: Structure, f: int, n: int) -> bool:
    """True iff f is an intersection of at most n - 1 distinct primes."""
    if n < 2:
        raise BadN("n-prime needs n >= 2")
    if f == s.full:
        raise ImproperFilter("n-prime is defined for proper filters")
    primes = primes_of(s)
    over = [p for p in primes if not (f & ~p)]
    for k in range(1, n):
        for combo in combinations(over, k):
            inter = s.full
            for p in combo:
                inter &= p
            if inter == f:
                return True
    return False


@per_structure
def n_prime_relations(s: Structure, f: int):
    """The three relations that `is_n_prime` scans over base f, each as
    (items, later masks) for `_pairwise_tuples`: the filters other than f
    that meet at f, the filters not below f whose meets lie below f, and
    the elements outside f whose joins lie in f.  They depend only on
    (s, f), and `is_n_prime` asks for every n."""
    filters = all_filters(s)
    others = tuple(g for g in filters if g != f)
    not_below = tuple(g for g in filters if g & ~f)
    outside = tuple(x for x in range(s.n) if not (f >> x & 1))
    join = s.join
    return (
        (others, _later_masks(others, lambda a, b: a & b == f)),
        (not_below, _later_masks(not_below, lambda a, b: not (a & b & ~f))),
        (outside, _later_masks(outside, lambda a, b: f >> join[a][b] & 1)),
    )


def is_n_prime(s: Structure, f: int, n: int) -> EquivalenceVerdict:
    """Evaluate the four equivalent shapes of n-primeness independently.

    The overall answer is the prime-intersection form; the other three
    quantify over filter tuples and element tuples.  Tuples with a
    repeated entry satisfy every hypothesis trivially, so only distinct
    combinations are scanned.
    """
    if n < 2:
        raise BadN("n-prime needs n >= 2")
    if f == s.full:
        raise ImproperFilter("n-prime is defined for proper filters")
    (others, meets_at_base), (not_below, meets_below), (outside, joined_in) = (
        n_prime_relations(s, f)
    )
    witness: dict[str, str] = {}

    bad = next(_pairwise_tuples(others, n, meets_at_base), None)
    c1 = bad is None
    if bad is not None:
        witness["filters-meeting-at-base"] = ", ".join(subset_repr(s, g) for g in bad)

    bad = next(_pairwise_tuples(not_below, n, meets_below), None)
    c2 = bad is None
    if bad is not None:
        witness["filters-meeting-below-base"] = ", ".join(
            subset_repr(s, g) for g in bad
        )

    bad = next(_pairwise_tuples(outside, n, joined_in), None)
    c3 = bad is None
    if bad is not None:
        witness["elements-pairwise-joined-into-base"] = ", ".join(
            s.names[x] for x in bad
        )

    c4 = n_prime(s, f, n)

    return _verdict(
        [
            ("no-distinct-filters-meeting-at-base", c1),
            ("no-distinct-filters-meeting-below-base", c2),
            ("no-outside-elements-pairwise-joined-in", c3),
            ("intersection-of-fewer-primes", c4),
        ],
        witness=witness or None,
    )


def normality_report(s: Structure, f: int) -> NormalityReport:
    """Count the base-minimal primes inside each prime above the base.

    The index is the largest count; index 1 means normal with respect
    to the base.
    """
    if f == s.full:
        raise ImproperFilter("normality is measured against a proper filter")
    mins = minimal_primes_over(s, f)
    per = []
    for p in primes_of(s):
        if f & ~p:
            continue
        count = sum(1 for m in mins if not (m & ~p))
        per.append((p, count))
    index = max((c for _, c in per), default=0)
    return NormalityReport(base=f, index=index, per_prime=tuple(per))


def _check_minimal_prime(s: Structure, f: int, m: int) -> None:
    if not is_prime(s, m) or (f & ~m) or divisor(s, f, m) != m:
        raise NotMinimalPrime(subset_repr(s, m) + " is not base-minimal prime")


def _separating_tuple(s: Structure, f: int, ms, prefix) -> tuple[int, ...] | None:
    """The lexicographically first extension of `prefix` to a tuple with
    one element outside each ms[i], every two joining into f; None if
    there is none."""
    i = len(prefix)
    if i == len(ms):
        return prefix
    for x in range(s.n):
        if ms[i] >> x & 1:
            continue
        if all(f >> s.join[x][p] & 1 for p in prefix):
            found = _separating_tuple(s, f, ms, prefix + (x,))
            if found is not None:
                return found
    return None


def separating_elements(s: Structure, f: int, ms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Witnesses separating distinct base-minimal primes.

    Returns (a, b) with the a_i pairwise joining into the base, a_i
    outside ms[i], and b_i the product of the other a's.  The search is
    exhaustive in lexicographic element order, so the result is
    deterministic; theory guarantees it succeeds.
    """
    ms = tuple(ms)
    k = len(ms)
    if k < 2:
        raise BadN("separation needs at least two minimal primes")
    if len(set(ms)) != k:
        raise ValueError("minimal primes must be distinct")
    for m in ms:
        _check_minimal_prime(s, f, m)

    a = _separating_tuple(s, f, ms, ())
    if a is None:
        raise SearchExhausted("no separating tuple exists; theory violated")

    b = []
    for i in range(k):
        prod = s.top
        for j in range(k):
            if j != i:
                prod = s.times[prod][a[j]]
        b.append(prod)
    b = tuple(b)

    joined = s.bot
    for x in b:
        joined = s.join[joined][x]
    for i in range(k):
        if not ms[i] >> b[i] & 1:
            raise RepresentationMismatch("separator product escaped its prime")
    if not f >> joined & 1:
        raise RepresentationMismatch("separator join escaped the base filter")
    for i in range(k):
        rest = s.bot
        for j in range(k):
            if j != i:
                rest = s.join[rest][b[j]]
        if coannihilator(s, f, 1 << rest) & ~ms[i]:
            raise RepresentationMismatch("separator coannihilator escaped its prime")
    return a, b


def n_normality_verdict(s: Structure, f: int, n: int) -> EquivalenceVerdict:
    """Evaluate the seven equivalent characterizations of n-normality.

    Tuples of n + 1 objects are indexed 0..n throughout.  Condition one
    joins all n + 1 minimal primes; the variant that joins only n of
    them is evaluated as a diagnostic and any divergence is noted.
    Element joins are regrouped freely, so the join table must satisfy
    the lattice laws (as `validate_structure` checks).

    Conditions four and five range over the (n + 1)-tuples of distinct
    elements that pairwise join into the base.  Condition five asks for
    members of (F : x_0), ..., (F : x_n) with product bot.  Each (F : x)
    is a filter, so it is up(e_x) for its least element e_x, and the
    product is monotone; so such members exist exactly when
    e_0 * ... * e_n = bot, one product fold per tuple.

    Conditions six and seven range over the antichains of n + 1
    elements.  If x_i <= x_j for some i != j, dropping x_i leaves the
    join v unchanged, so the union on the right contains (F : v); every
    other term is (F : w) for some w <= v, inside (F : v) since
    coannulets grow with their element.  So the right side is (F : v)
    and condition six holds; and if v is in F, (F : v) is the carrier
    and condition seven holds.  The antichains come in the lexicographic
    order of the scan over all tuples with repetition, so the first
    failing tuple, the witness, is the one that scan finds.
    """
    if n < 1:
        raise BadN("n-normality needs n >= 1")
    if f == s.full:
        raise ImproperFilter("n-normality is measured against a proper filter")
    witness: dict[str, str] = {}
    notes: list[str] = []
    mins = minimal_primes_over(s, f)
    over = [p for p in primes_of(s) if not (f & ~p)]
    table = coannulet_table(s, f)

    c1 = True
    for combo in combinations(mins, n + 1):
        union = 0
        for m in combo:
            union |= m
        if generated_filter(s, union) != s.full:
            c1 = False
            witness["minimal-primes-with-small-join"] = ", ".join(
                subset_repr(s, m) for m in combo
            )
            break
    # The variant joins every n of the minimal primes, each set once,
    # when there are n + 1 of them to choose from.
    printed = True
    if len(mins) > n:
        for combo in combinations(mins, n):
            union = 0
            for m in combo:
                union |= m
            if generated_filter(s, union) != s.full:
                printed = False
                break
    if printed != c1:
        notes.append(
            "joining n of n+1 minimal primes diverges from joining all of them"
        )

    c2 = normality_report(s, f).index <= n

    c3 = True
    for p in over:
        if not n_prime(s, divisor(s, f, p), n + 1):
            c3 = False
            witness["prime-with-non-prime-divisor-set"] = subset_repr(s, p)
            break

    # least[x] is the least element of the filter (F : x).
    meet = s.meet
    least_of = {}
    for c in set(table):
        e = s.top
        for a in bits(c):
            e = meet[e][a]
        least_of[c] = e
    least = [least_of[c] for c in table]
    times = s.times

    c4 = True
    c5 = True
    # x v y is in F exactly when y is in (F : x).
    joined_in = [table[x] & -(2 << x) for x in range(s.n)]
    for xs in _pairwise_tuples(range(s.n), n + 1, joined_in):
        union = 0
        prod = s.top
        for x in xs:
            union |= table[x]
            prod = times[prod][least[x]]
        if generated_filter(s, union) != s.full:
            c4 = False
            witness.setdefault(
                "tuple-with-small-coannulet-join",
                ", ".join(s.names[x] for x in xs),
            )
        if prod != s.bot:
            c5 = False
            witness.setdefault(
                "tuple-without-zero-product-witnesses",
                ", ".join(s.names[x] for x in xs),
            )

    c6 = True
    c7 = True
    jn = s.join
    incomparable = [~(s.up[x] | s.down[x]) & -(2 << x) & s.full for x in range(s.n)]
    for xs in _pairwise_tuples(range(s.n), n + 1, incomparable):
        # prefix[i] joins xs[:i] and `suffix` joins xs[i + 1:], so the
        # join of all but xs[i] is prefix[i] v suffix.
        prefix = []
        total = s.bot
        for x in xs:
            prefix.append(total)
            total = jn[total][x]
        union = 0
        suffix = s.bot
        for i in range(n, -1, -1):
            union |= table[jn[prefix[i]][suffix]]
            suffix = jn[xs[i]][suffix]
        rhs = generated_filter(s, union)
        if table[total] != rhs:
            c6 = False
            witness.setdefault(
                "tuple-breaking-coannihilator-join-identity",
                ", ".join(s.names[x] for x in xs),
            )
        if f >> total & 1 and rhs != s.full:
            c7 = False
            witness.setdefault(
                "tuple-breaking-coannihilator-join-implication",
                ", ".join(s.names[x] for x in xs),
            )

    return _verdict(
        [
            ("minimal-prime-joins-full", c1),
            ("minimal-primes-per-prime-bounded", c2),
            ("divisor-sets-are-n1-prime", c3),
            ("coannulet-joins-full", c4),
            ("zero-product-witnesses-exist", c5),
            ("coannihilator-join-identity", c6),
            ("coannihilator-join-implication", c7),
        ],
        witness=witness or None,
        notes=notes,
    )


def normality_verdict(s: Structure) -> EquivalenceVerdict:
    """The trivial-base, n = 1 specialization of the n-normality harness."""
    return n_normality_verdict(s, 1 << s.top, 1)


def omega_sublattice_verdict(s: Structure) -> EquivalenceVerdict:
    """Four equivalent readings of when the trivial-base omega filters
    form a sublattice of the filter lattice.

    The paper's fifth reading, that joins of coannulets stay among the
    coannulets, is the fourth here: on a finite structure the family is
    exactly the set of coannulets (see `omega`).
    """
    triv = 1 << s.top
    fam = omega_family(s, triv)
    members = tuple(fam)
    witness: dict[str, str] = {}

    comaximal = next(
        (
            (g, h)
            for i, g in enumerate(members)
            for h in members[i:]
            if omega_join(s, triv, g, h) == s.full and generated_filter(s, g | h) != s.full
        ),
        None,
    )
    c1 = comaximal is None
    if comaximal is not None:
        witness["comaximal-in-family-but-not-in-filters"] = ", ".join(
            subset_repr(s, g) for g in comaximal
        )

    c2 = normality_report(s, triv).index == 1

    unions = {0}
    for g in members:
        unions |= {u | g for u in unions}
    c3 = True
    for u in sorted(unions):
        if generated_filter(s, u) not in fam:
            c3 = False
            witness["subfamily-join-outside-family"] = subset_repr(s, u)
            break

    c4 = True
    for i, g in enumerate(members):
        for h in members[i:]:
            if generated_filter(s, g | h) not in fam:
                c4 = False
                witness.setdefault(
                    "pair-join-outside-family",
                    subset_repr(s, g) + ", " + subset_repr(s, h),
                )

    return _verdict(
        [
            ("family-comaximal-implies-filter-comaximal", c1),
            ("normal", c2),
            ("arbitrary-joins-stay-in-family", c3),
            ("binary-joins-stay-in-family", c4),
        ],
        witness=witness or None,
    )


def sigma_greatest_check(s: Structure, f: int) -> bool:
    """Whether sigma(f) is the greatest trivial-base omega filter inside
    f, as it is in every normal structure."""
    best = greatest_omega_within(s, f)
    return best is not None and best == sigma(s, f)
