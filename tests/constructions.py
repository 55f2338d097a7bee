"""Test-side builders of residuated lattices from smaller ones.

`boolean(k)` is the Boolean algebra of the subsets of k atoms,
`zero_plus(M)` the ordinal sum 0 (+) M, a new bottom put under M, and
`product(A, B)` the direct product A x B.  They tie the census of one
size to the censuses of smaller sizes (see `tests/test_subvarieties.py`)
and build the structures of any normality index that
`tests/normality_reference.py` uses.  Not public API.
"""

from reslat.structure import Structure


def boolean(k: int) -> Structure:
    """The Boolean algebra 2^k, with product = meet.  Element m is the
    subset m of the atoms 1..k, named by its atoms, and "z" when empty."""
    size = 1 << k
    full = size - 1
    names = ["".join(str(i + 1) for i in range(k) if m >> i & 1) or "z" for m in range(size)]
    meet = [[x & y for y in range(size)] for x in range(size)]
    return Structure(
        n=size,
        names=names,
        join=[[x | y for y in range(size)] for x in range(size)],
        meet=meet,
        times=meet,
        residuum=[[(full & ~x) | y for y in range(size)] for x in range(size)],
        bot=0,
        top=full,
    )


def zero_plus(m: Structure) -> Structure:
    """0 (+) M: a new bottom, element 0, under M, whose element x becomes
    x + 1.  The new bottom joins as the least element and meets as it;
    x * y = 0 if either factor is 0; 0 -> z = top, y -> 0 = 0 for y != 0,
    and the other residua are M's.  It is named "0", with primes added
    while that name is one of M's."""
    n, top = m.n + 1, m.top + 1
    zero = "0"
    while zero in m.names:
        zero += "'"

    def shift(row):
        return [v + 1 for v in row]

    return Structure(
        n=n,
        names=(zero, *m.names),
        join=[list(range(n))] + [[x, *shift(row)] for x, row in enumerate(m.join, 1)],
        meet=[[0] * n] + [[0, *shift(row)] for row in m.meet],
        times=[[0] * n] + [[0, *shift(row)] for row in m.times],
        residuum=[[top] * n] + [[0, *shift(row)] for row in m.residuum],
        bot=0,
        top=top,
    )


def product(a: Structure, b: Structure) -> Structure:
    """The direct product A x B, every operation componentwise.  The
    pair (x, y) is element x * B.n + y, named "(x,y)" by the names of x
    and y."""
    pairs = [(x, y) for x in range(a.n) for y in range(b.n)]

    def table(ta, tb):
        return [[ta[x][u] * b.n + tb[y][v] for u, v in pairs] for x, y in pairs]

    return Structure(
        n=a.n * b.n,
        names=[f"({a.names[x]},{b.names[y]})" for x, y in pairs],
        join=table(a.join, b.join),
        meet=table(a.meet, b.meet),
        times=table(a.times, b.times),
        residuum=table(a.residuum, b.residuum),
        bot=a.bot * b.n + b.bot,
        top=a.top * b.n + b.top,
    )


def has_no_zero_divisors(s: Structure) -> bool:
    """x * y != bot whenever x != bot and y != bot."""
    rest = [x for x in range(s.n) if x != s.bot]
    return all(s.times[x][y] != s.bot for x in rest for y in rest)
