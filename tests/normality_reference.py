"""Test-side references for the n-normality harness, and a structure
builder that reaches any normality index.

`n_normality_verdict` decides condition five by one product fold over
least elements and scans conditions six and seven over antichains only.
The routines here keep the direct routes: a reachable-set search for a
zero product of coannulet members, and a scan of every tuple with
repetition.  Each returns the condition's value and the names of the
first failing tuple, as the verdict words its witness.
"""

from itertools import combinations, combinations_with_replacement

from constructions import boolean, zero_plus

from reslat.bitsets import bits
from reslat.coann import coannulet_table
from reslat.filters import generated_filter
from reslat.structure import Structure


def _names(s, xs):
    return ", ".join(s.names[x] for x in xs)


def exists_zero_product(s, cosets) -> bool:
    """Whether some members of the masks `cosets`, one from each, have
    product bot: the set of reachable products, extended one mask at a
    time."""
    reach = cosets[0]
    for c in cosets[1:]:
        members = bits(c)
        nxt = 0
        for p in bits(reach):
            row = s.times[p]
            for x in members:
                nxt |= 1 << row[x]
        reach = nxt
    return bool(reach >> s.bot & 1)


def zero_product_condition(s, f: int, n: int):
    """Condition five over every (n + 1)-combination of elements that
    pairwise join into f: (holds, first failing tuple or None)."""
    table = coannulet_table(s, f)
    for xs in combinations(range(s.n), n + 1):
        if not all(f >> s.join[a][b] & 1 for a, b in combinations(xs, 2)):
            continue
        if not exists_zero_product(s, [table[x] for x in xs]):
            return False, _names(s, xs)
    return True, None


def join_identity_conditions(s, f: int, n: int):
    """Conditions six and seven over every (n + 1)-tuple with
    repetition: (c6, first c6 failure, c7, first c7 failure)."""
    table = coannulet_table(s, f)
    jn = s.join
    c6 = c7 = None
    for xs in combinations_with_replacement(range(s.n), n + 1):
        total = s.bot
        for x in xs:
            total = jn[total][x]
        union = 0
        for i in range(n + 1):
            rest = s.bot
            for j, x in enumerate(xs):
                if j != i:
                    rest = jn[rest][x]
            union |= table[rest]
        rhs = generated_filter(s, union)
        if c6 is None and table[total] != rhs:
            c6 = _names(s, xs)
        if c7 is None and f >> total & 1 and rhs != s.full:
            c7 = _names(s, xs)
    return c6 is None, c6, c7 is None, c7


def zero_plus_boolean(k: int) -> Structure:
    """0 (+) B_k: a new bottom under the Boolean algebra of the subsets
    of k atoms, with product = meet.  A Goedel algebra whose trivial
    base has the k atoms' up-sets as its minimal primes, all inside the
    prime up(z), z the bottom of B_k; so its normality index is k.

    Element 0 is the new bottom, named "0"; element m + 1 is the subset
    m of the atoms 1..k, named by its atoms, and "z" when empty."""
    return zero_plus(boolean(k))
