"""Finite residuated lattices presented by operation tables.

A structure carries join, meet, product and residuum tables over the
carrier {0, .., n-1} together with designated bottom and top constants.
The partial order is the one derived from the join table (x <= y iff
x v y = y); every other notion in the package is defined against that
order.  Structures are immutable, so derived data and the answers of
the analyses can be kept on them, and die with them.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import eq
from weakref import WeakValueDictionary

from .bitsets import bits
from .errors import MalformedTables

Table = tuple[tuple[int, ...], ...]


def _frozen(rows) -> Table:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class Structure:
    """Operation tables of a candidate residuated lattice.

    Construction checks only shapes and index ranges; whether the tables
    satisfy the axioms is decided by `validate_structure`.

    Derived data lives in lazily built `cached_property` slots that die
    with the structure: the order masks `up`/`down`, and `memos`, the one
    store of analysis answers, filled by the routines decorated with
    `per_structure` (the filters, the ideals, the primes, generated
    filters and ideals, minimal primes over a set, and per base the
    coannulets, the coannihilator and omega tables and families).  No
    module-level table refers to a structure and no answer refers back to
    it, so a dropped structure and its answers are freed as soon as its
    last reference goes.
    """

    n: int
    names: tuple[str, ...]
    join: Table
    meet: Table
    times: Table
    residuum: Table
    bot: int
    top: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(str(x) for x in self.names))
        for attr in ("join", "meet", "times", "residuum"):
            object.__setattr__(self, attr, _frozen(getattr(self, attr)))
        if self.n < 2:
            raise MalformedTables("carrier must have at least two elements")
        if self.n > 256:
            raise MalformedTables("carrier has more than 256 elements")
        if len(self.names) != self.n:
            raise MalformedTables("name list size disagrees with carrier size")
        for attr in ("join", "meet", "times", "residuum"):
            table = getattr(self, attr)
            if len(table) != self.n or any(len(row) != self.n for row in table):
                raise MalformedTables(f"{attr} table is not {self.n}x{self.n}")
            for row in table:
                for v in row:
                    if not 0 <= v < self.n:
                        raise MalformedTables(f"{attr} table entry out of range")
        if not (0 <= self.bot < self.n and 0 <= self.top < self.n):
            raise MalformedTables("bot/top index out of range")
        if self.bot == self.top:
            raise MalformedTables("bot and top must be distinct")

    @cached_property
    def memos(self) -> defaultdict[Callable, dict]:
        """Routine -> {argument: answer}, filled by the routines
        decorated with `per_structure`."""
        _HOLDERS[id(self)] = self
        return defaultdict(dict)

    @cached_property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[x] is the bitmask of {y | x <= y}."""
        return tuple(
            sum(1 << y for y in range(self.n) if self.join[x][y] == y)
            for x in range(self.n)
        )

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[y] is the bitmask of {x | x <= y}."""
        return tuple(
            sum(1 << x for x in range(self.n) if self.join[x][y] == y)
            for y in range(self.n)
        )

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (x, y): x < y with nothing strictly between."""
        out = []
        for x in range(self.n):
            above = self.up[x] & ~(1 << x)
            for y in bits(above):
                between = self.up[x] & self.down[y] & ~(1 << x) & ~(1 << y)
                if not between:
                    out.append((x, y))
        return tuple(out)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of a longest chain from bot up to each element."""
        order = sorted(range(self.n), key=lambda x: self.down[x].bit_count())
        h = [0] * self.n
        for y in order:
            below = self.down[y] & ~(1 << y)
            h[y] = max((h[x] + 1 for x in bits(below)), default=0)
        return tuple(h)

    def element(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None


# id -> structure, for every live structure whose `memos` exists.  Keyed
# by identity: equal structures keep separate memos.
_HOLDERS: WeakValueDictionary[int, Structure] = WeakValueDictionary()


def live_memos() -> list[defaultdict[Callable, dict]]:
    """The `memos` of every live structure that has one."""
    return [s.memos for s in list(_HOLDERS.values())]


CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def per_structure(routine: Callable) -> Callable:
    """Decorate routine(s) or routine(s, arg): each answer is computed
    once per structure and argument and kept in `s.memos[routine]`, keyed
    by the argument (None for routine(s)), so it dies with the structure
    and a hit is two dict lookups.

    `routine` must depend on nothing but its arguments, and its answer
    must not refer to `s`, or the structure would outlive its last
    reference until the cyclic collector runs.  As with
    `functools.lru_cache`, the decorated routine has `cache_info()`
    (hits and misses since the last `cache_clear()`; `currsize` counts
    the answers held by live structures) and `cache_clear()`, which also
    drops the routine's answers from every live structure.
    """
    hits = misses = 0
    unary = routine.__code__.co_argcount == 1

    @wraps(routine)
    def cached(s: Structure, arg=None):
        nonlocal hits, misses
        table = s.memos[routine]
        try:
            out = table[arg]
        except KeyError:
            misses += 1
            out = table[arg] = routine(s) if unary else routine(s, arg)
            return out
        hits += 1
        return out

    def cache_info() -> CacheInfo:
        held = sum(len(memos.get(routine, ())) for memos in live_memos())
        return CacheInfo(hits, misses, None, held)

    def cache_clear() -> None:
        nonlocal hits, misses
        hits = misses = 0
        for memos in live_memos():
            memos.pop(routine, None)

    cached.cache_info = cache_info
    cached.cache_clear = cache_clear
    return cached


def subset_repr(s: Structure, mask: int) -> str:
    """Render a carrier subset as {name,name,..} in element order."""
    return "{" + ",".join(s.names[i] for i in bits(mask)) + "}"


def leq(s: Structure, x: int, y: int) -> bool:
    """The derived lattice order: x <= y iff x v y = y."""
    return s.join[x][y] == y


def is_mtl(s: Structure) -> bool:
    """True iff (x -> y) v (y -> x) = 1 for every pair."""
    for x in range(s.n):
        for y in range(s.n):
            if s.join[s.residuum[x][y]][s.residuum[y][x]] != s.top:
                return False
    return True


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]


def validate_structure(s: Structure) -> ValidationReport:
    """Check every axiom; collect the first witness per violated law.

    Each side of a law is one `bytes` string: its value at every element
    tuple, tuples in lexicographic order.  The strings are assembled from
    table rows, and composing a table with a row is one `bytes.translate`
    (the left side of join associativity, x v (y v z) for every (y, z), is
    the flat join table translated by row x), so the law is checked by
    one comparison, with the 0/1 row of x <= v standing in for the order.
    The witness of a violated law is its first differing position, read
    as an element tuple: the first failing tuple in lexicographic order,
    so the report is deterministic.  Element indices must fit in a byte,
    which is why `Structure` caps carriers at 256 elements.  Only the
    axioms are checked: laws they imply, such as the product distributing
    over joins, are checks of the battery (`run_battery`).
    """
    n, top, bot = s.n, s.top, s.bot
    rng = range(n)
    pad = bytes(256 - n)
    jn, mt, tm, rs = (
        [bytes(row) for row in table] for table in (s.join, s.meet, s.times, s.residuum)
    )
    le = [bytes(map(eq, row, rng)) for row in jn]  # le[x][v] = 1 iff x <= v
    # Row x as a translate table: the map v -> table[x][v].
    jn_of, mt_of, tm_of, le_of = (
        [row + pad for row in rows] for rows in (jn, mt, tm, le)
    )
    # Flat tables: entry (x, y) at x * n + y.
    JN, MT, TM, RS, LE = map(b"".join, (jn, mt, tm, rs, le))
    ident = bytes(rng)
    firsts = b"".join(bytes((x,)) * n for x in rng)  # x at every (x, y)

    def transpose(flat):
        return b"".join(flat[y::n] for y in rng)

    violations: list[tuple[str, tuple[int, ...]]] = []

    def law(name, arity, lhs, rhs):
        if lhs == rhs:
            return
        k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        violations.append((name, tuple(k // n**e % n for e in reversed(range(arity)))))

    law("join-commutative", 2, JN, transpose(JN))
    law(
        "join-associative",
        3,
        b"".join(map(JN.translate, jn_of)),
        b"".join(map(jn.__getitem__, JN)),
    )
    law("join-idempotent", 1, JN[:: n + 1], ident)
    law("meet-commutative", 2, MT, transpose(MT))
    law(
        "meet-associative",
        3,
        b"".join(map(MT.translate, mt_of)),
        b"".join(map(mt.__getitem__, MT)),
    )
    law("meet-idempotent", 1, MT[:: n + 1], ident)
    law(
        "absorption-join-meet",
        2,
        b"".join(map(bytes.translate, mt, jn_of)),
        firsts,
    )
    law(
        "absorption-meet-join",
        2,
        b"".join(map(bytes.translate, jn, mt_of)),
        firsts,
    )
    law("bottom-least", 1, jn[bot], ident)
    law("top-greatest", 1, JN[top::n], bytes((top,)) * n)
    law("product-commutative", 2, TM, transpose(TM))
    law(
        "product-associative",
        3,
        b"".join(map(TM.translate, tm_of)),
        b"".join(map(tm.__getitem__, TM)),
    )
    law("product-identity", 1, TM[top::n], ident)
    law(
        "adjointness",
        3,
        b"".join(map(le.__getitem__, TM)),
        b"".join(map(RS.translate, le_of)),
    )
    is_top = bytearray(256)
    is_top[top] = 1
    law("order-residuum-agreement", 2, LE, RS.translate(is_top))

    return ValidationReport(valid=not violations, violations=tuple(violations))


def order_from_pairs(n: int, pairs) -> tuple[int, ...]:
    """Upset masks of the reflexive-transitive closure of (x, y) pairs.

    Raises MalformedTables if the closure has a cycle.
    """
    up = [1 << i for i in range(n)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise MalformedTables("order pair index out of range")
        up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = up[x]
            for y in bits(up[x]):
                acc |= up[y]
            if acc != up[x]:
                up[x] = acc
                changed = True
    for x in range(n):
        for y in bits(up[x]):
            if y != x and up[y] >> x & 1:
                raise MalformedTables("order relation has a cycle")
    return tuple(up)


def order_tables(n: int, up, names=None) -> tuple[Table, Table]:
    """Join and meet tables of the bounded lattice with upset masks `up`.

    Raises MalformedTables when some pair lacks a least upper bound or a
    greatest lower bound, i.e. when the order is not a lattice.  The
    message names the pair by `names`, or by index when none are given.
    """
    names = names or range(n)
    up = tuple(up)
    down = tuple(
        sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)
    )
    join_rows = []
    meet_rows = []
    for x in range(n):
        jr = []
        mr = []
        for y in range(n):
            ub = up[x] & up[y]
            least = [m for m in bits(ub) if not (ub & ~up[m])]
            if len(least) != 1:
                raise MalformedTables(
                    f"elements {names[x]},{names[y]} have no least upper bound"
                )
            jr.append(least[0])
            lb = down[x] & down[y]
            greatest = [m for m in bits(lb) if not (lb & ~down[m])]
            if len(greatest) != 1:
                raise MalformedTables(
                    f"elements {names[x]},{names[y]} have no greatest lower bound"
                )
            mr.append(greatest[0])
        join_rows.append(tuple(jr))
        meet_rows.append(tuple(mr))
    return tuple(join_rows), tuple(meet_rows)
