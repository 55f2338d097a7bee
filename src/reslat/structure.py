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
from itertools import chain
from operator import eq
from weakref import WeakValueDictionary

from .bitsets import bits
from .errors import MalformedTables

Table = tuple[tuple[int, ...], ...]

# Element indices must fit in a byte: the axiom checks and the census
# store table rows as bytes.
MAX_ELEMENTS = 256

_INDICES = bytes(range(MAX_ELEMENTS))


def _checked_table(attr: str, rows, n: int) -> Table:
    """`rows` as an n x n tuple of tuples of indices below n, or
    `MalformedTables` naming the table `attr`: the one shape check of
    each table of a `Lattice` or a `Structure`."""
    try:
        table = tuple(map(tuple, rows))
    except TypeError:
        table = None
    if table is None or len(table) != n or {*map(len, table)} != {n}:
        raise MalformedTables(f"{attr} table is not {n}x{n}")
    # One C-level pass: bytes() takes only ints (bools too) in 0..255,
    # and deleting the indices below n must leave nothing.
    try:
        entries = bytes(chain.from_iterable(table))
    except TypeError:
        raise MalformedTables(f"{attr} table entry is not an integer") from None
    except ValueError:
        entries = None
    if entries is None or entries.translate(None, _INDICES[:n]):
        raise MalformedTables(f"{attr} table entry out of range")
    return table


@dataclass(frozen=True)
class Lattice:
    """Join and meet tables of a candidate bounded lattice, and what is
    read off them once and kept until the instance dies: the order masks
    (x <= y iff x v y = y), the incomparable pairs and the join-prime
    elements.  No residuum data: a census search keeps its own, which
    dies with its run over the lattice (`modelgen._lattice_records`).
    Construction checks only the carrier, bot and top, and the shapes
    and index ranges of the tables named in `_tables`, each by
    `_checked_table`; `lattice_violations` checks the axioms."""

    n: int
    names: tuple[str, ...]
    join: Table
    meet: Table
    bot: int
    top: int

    _tables = ("join", "meet")

    def __post_init__(self) -> None:
        n = self.n
        if not all(isinstance(v, int) for v in (n, self.bot, self.top)):
            raise MalformedTables("carrier size, bot and top must be integers")
        object.__setattr__(self, "names", tuple(map(str, self.names)))
        if n < 2:
            raise MalformedTables("carrier must have at least two elements")
        if n > MAX_ELEMENTS:
            raise MalformedTables(f"carrier has more than {MAX_ELEMENTS} elements")
        if len(self.names) != n:
            raise MalformedTables("name list size disagrees with carrier size")
        for attr in self._tables:
            object.__setattr__(self, attr, _checked_table(attr, getattr(self, attr), n))
        if not (0 <= self.bot < n and 0 <= self.top < n):
            raise MalformedTables("bot/top index out of range")
        if self.bot == self.top:
            raise MalformedTables("bot and top must be distinct")

    @cached_property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[x] is the bitmask of {y | x <= y}."""
        out = []
        for row in self.join:
            mask = 0
            for y, v in enumerate(row):
                if v == y:
                    mask |= 1 << y
            out.append(mask)
        return tuple(out)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[y] is the bitmask of {x | x <= y}."""
        out = [0] * self.n
        for x, row in enumerate(self.join):
            for y, v in enumerate(row):
                if v == y:
                    out[y] |= 1 << x
        return tuple(out)

    @cached_property
    def incomparable(self) -> tuple[tuple[int, int], ...]:
        """The pairs (x, y) with x < y (as indices) and neither x <= y
        nor y <= x, in (x, y) order."""
        n, up, down = self.n, self.up, self.down
        return tuple(
            (x, y) for x in range(n) for y in range(x + 1, n) if not (up[x] | down[x]) >> y & 1
        )

    @cached_property
    def join_primes(self) -> int:
        """The mask of the join-prime elements: the e != bot such that
        x v y >= e implies x >= e or y >= e.  That holds exactly when the
        join of the x with x not >= e is not >= e either; for bot there
        are no such x, and their join, bot, is >= bot."""
        join, up = self.join, self.up
        mask = 0
        for e in range(self.n):
            below = self.bot
            for x in bits(self.full ^ up[e]):
                below = join[below][x]
            if not up[e] >> below & 1:
                mask |= 1 << e
        return mask

    def structure(self, times, residuum) -> Structure:
        """The structure over this lattice with these product and residuum
        tables, equal to `Structure(...)` of the same eight fields.

        Only `times` and `residuum` are shape-checked, by the routine and
        with the messages of `Structure(...)`.  The lattice part (n, names,
        join, meet, bot and top) was checked when this lattice was built,
        and it is immutable, so it is copied, not checked again: the census
        builds each record this way, and each of its tables is checked once.
        The order data read off that part, `up`, `down` and `incomparable`,
        is handed over too, computed here if this lattice lacks it, so every
        structure over the lattice shares one copy.
        """
        n = self.n
        s = object.__new__(Structure)
        # A frozen dataclass refuses attribute assignment, not its __dict__.
        s.__dict__.update(
            n=n,
            names=self.names,
            join=self.join,
            meet=self.meet,
            bot=self.bot,
            top=self.top,
            times=_checked_table("times", times, n),
            residuum=_checked_table("residuum", residuum, n),
            up=self.up,
            down=self.down,
            incomparable=self.incomparable,
        )
        return s


@dataclass(frozen=True)
class Structure(Lattice):
    """Operation tables of a candidate residuated lattice: a `Lattice`
    with product and residuum tables, all four shape-checked on
    construction; `validate_structure` decides the axioms.

    Derived data lives in lazily built `cached_property` slots that die
    with the structure: the order data `up`, `down` and `incomparable` of
    `Lattice` (handed over from its lattice when the census builds it), and
    `memos`, the one store of analysis answers, filled by the routines
    decorated with `per_structure` (the filters, the ideals, the primes,
    the minimal primes over a set, the tables over every subset mask of
    those and of the generated filters, which are kept only there, and
    per base the coannulets, the coannihilator and omega tables and
    families).  No
    module-level table refers to a structure and no answer refers back to
    it, so a dropped structure and its answers are freed as soon as its
    last reference goes.
    """

    times: Table
    residuum: Table

    _tables = ("join", "meet", "times", "residuum")

    @cached_property
    def memos(self) -> defaultdict[Callable, dict]:
        """Routine -> {argument: answer}, filled by the routines
        decorated with `per_structure`."""
        _HOLDERS[id(self)] = self
        return defaultdict(dict)

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


def covers(up) -> tuple[tuple[int, int], ...]:
    """Covering pairs of the partial order with up-set masks `up`: the
    (x, y) with x < y and nothing strictly between, in (x, y) order, the
    y being the elements strictly above x and strictly above none of them."""
    out = []
    for x, mask in enumerate(up):
        above = mask & ~(1 << x)
        higher = 0
        for z in bits(above):
            higher |= up[z] & ~(1 << z)
        out += [(x, y) for y in bits(above & ~higher)]
    return tuple(out)


def leq(s: Lattice, x: int, y: int) -> bool:
    """The derived lattice order of a `Lattice` (a `Structure` included):
    x <= y iff x v y = y."""
    return s.join[x][y] == y


def is_mtl(s: Structure) -> bool:
    """True iff (x -> y) v (y -> x) = 1 for every pair.

    Only the incomparable pairs are read, each once (`s.incomparable`).
    On a valid structure x <= y gives x -> y = top, since top * x <= y,
    so a comparable pair, the diagonal included, always holds; and join
    is commutative, so the pair (y, x) gives the join that (x, y) gives.
    A chain has no pair to read.
    """
    join, residuum, top = s.join, s.residuum, s.top
    for x, y in s.incomparable:
        if join[residuum[x][y]][residuum[y][x]] != top:
            return False
    return True


Violations = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: Violations


def validate_structure(s: Structure) -> ValidationReport:
    """Check every axiom; collect the first witness per violated law.

    The violations are those of `lattice_violations(s)`, then those of
    `product_violations(s)`.  Each side of a law is one `bytes` string:
    its value at every element tuple, tuples in lexicographic order.  The
    strings are assembled from table rows, and composing a table with a
    row is one `bytes.translate` (the left side of join associativity,
    x v (y v z) for every (y, z), is the flat join table translated by
    row x), so the law is checked by one comparison, with the 0/1 row of
    x <= v standing in for the order.  The witness of a violated law is
    its first differing position, read as an element tuple: the first
    failing tuple in lexicographic order, so the report is deterministic.
    Element indices must fit in a byte, which is why `Lattice` caps
    carriers at `MAX_ELEMENTS`, 256.  Only the axioms are checked: laws
    they imply, such as the product distributing over joins, are checks
    of the battery (`run_battery`).
    """
    violations = lattice_violations(s) + product_violations(s)
    return ValidationReport(valid=not violations, violations=violations)


def require_valid(s: Structure, name: str) -> None:
    """Raise `MalformedTables` naming s, its first failing axiom and witness."""
    violations = validate_structure(s).violations
    if violations:
        axiom, witness = violations[0]
        raise MalformedTables(
            f"{name} is not a residuated lattice: {axiom} fails at "
            + ",".join(s.names[i] for i in witness)
        )


def _violations(n: int, laws) -> Violations:
    """(name, witness) for each law (name, arity, lhs, rhs) whose sides
    differ, the witness being the first differing position."""
    out = []
    for name, arity, lhs, rhs in laws:
        if lhs != rhs:
            k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            out.append((name, tuple(k // n**e % n for e in reversed(range(arity)))))
    return tuple(out)


def _transpose(flat: bytes, n: int) -> bytes:
    return b"".join(flat[y::n] for y in range(n))


def _associative_sides(flat: bytes, rows, rows_of) -> tuple[bytes, bytes]:
    """x * (y * z) and (x * y) * z at every (x, y, z), from the flat table,
    its rows and its rows as translate tables."""
    return b"".join(map(flat.translate, rows_of)), b"".join(map(rows.__getitem__, flat))


def lattice_violations(lat: Lattice) -> Violations:
    """The ten lattice axioms of `validate_structure`, on the tables of
    `lat`, whose answer every structure over it shares.  They pass exactly when
    join and meet are those of a bounded lattice with least element bot
    and greatest top (lattices as algebras; Galatos, Jipsen, Kowalski &
    Ono, *Residuated Lattices*, 2007), so they also check base lattices.
    """
    n, top, bot = lat.n, lat.top, lat.bot
    rng = range(n)
    pad = bytes(256 - n)
    jn, mt = ([bytes(row) for row in table] for table in (lat.join, lat.meet))
    # Row x as a translate table: the map v -> table[x][v].
    jn_of, mt_of = ([row + pad for row in rows] for rows in (jn, mt))
    # Flat tables: entry (x, y) at x * n + y.
    JN, MT = b"".join(jn), b"".join(mt)
    ident = bytes(rng)
    firsts = b"".join(bytes((x,)) * n for x in rng)  # x at every (x, y)
    return _violations(n, (
        ("join-commutative", 2, JN, _transpose(JN, n)),
        ("join-associative", 3, *_associative_sides(JN, jn, jn_of)),
        ("join-idempotent", 1, JN[:: n + 1], ident),
        ("meet-commutative", 2, MT, _transpose(MT, n)),
        ("meet-associative", 3, *_associative_sides(MT, mt, mt_of)),
        ("meet-idempotent", 1, MT[:: n + 1], ident),
        ("absorption-join-meet", 2, b"".join(map(bytes.translate, mt, jn_of)), firsts),
        ("absorption-meet-join", 2, b"".join(map(bytes.translate, jn, mt_of)), firsts),
        ("bottom-least", 1, jn[bot], ident),
        ("top-greatest", 1, JN[top::n], bytes((top,)) * n),
    ))


def product_violations(s: Structure) -> Violations:
    """The five axioms of `validate_structure` on the product and the
    residuum, read against the order of s.join."""
    n, top = s.n, s.top
    rng = range(n)
    pad = bytes(256 - n)
    tm = [bytes(row) for row in s.times]
    le = [bytes(map(eq, row, rng)) for row in s.join]  # le[x][v] = 1 iff x <= v
    tm_of, le_of = ([row + pad for row in rows] for rows in (tm, le))
    TM, LE = b"".join(tm), b"".join(le)
    RS = bytes(chain.from_iterable(s.residuum))
    is_top = bytearray(256)
    is_top[top] = 1
    return _violations(n, (
        ("product-commutative", 2, TM, _transpose(TM, n)),
        ("product-associative", 3, *_associative_sides(TM, tm, tm_of)),
        ("product-identity", 1, TM[top::n], bytes(rng)),
        ("adjointness", 3, b"".join(map(le.__getitem__, TM)), b"".join(map(RS.translate, le_of))),
        ("order-residuum-agreement", 2, LE, RS.translate(is_top)),
    ))


def order_from_pairs(n: int, pairs) -> tuple[int, ...]:
    """Upset masks of the reflexive-transitive closure of (x, y) pairs.

    Raises MalformedTables if the closure has a cycle, that is, when two
    elements are above each other and so have the same up-set.
    """
    up = [1 << i for i in range(n)]
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise MalformedTables("order pair index out of range")
        up[x] |= 1 << y
    for k in range(n):  # Warshall: round k adds the paths through k
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    if len(set(up)) < n:
        raise MalformedTables("order relation has a cycle")
    return tuple(up)


def order_tables(n: int, up, names=None) -> tuple[Table, Table]:
    """Join and meet tables of the bounded lattice with upset masks `up`.

    `up` must be the up-sets of a partial order, as `order_from_pairs`
    gives them; distinct elements then have distinct up-sets.  The upper
    bounds of x and y are up[x] & up[y], and they have a least one
    exactly when that mask is itself the up-set of an element, their
    join; dually for the meet on down-sets.  So each cell is one dict
    lookup.  Raises MalformedTables when some pair lacks a least upper
    bound or a greatest lower bound, i.e. when the order is not a
    lattice: for the first such pair in (x, y) order, the join before
    the meet.  The message names the pair by `names`, or by index when
    none are given.
    """
    names = names or range(n)
    up = tuple(up)
    down = tuple(
        sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)
    )
    join_of = {mask: x for x, mask in enumerate(up)}.get
    meet_of = {mask: x for x, mask in enumerate(down)}.get
    join_rows = []
    meet_rows = []
    for x in range(n):
        jr = tuple(map(join_of, [up[x] & u for u in up]))
        mr = tuple(map(meet_of, [down[x] & d for d in down]))
        if None in jr or None in mr:
            y = next(y for y in range(n) if jr[y] is None or mr[y] is None)
            what = "least upper bound" if jr[y] is None else "greatest lower bound"
            raise MalformedTables(f"elements {names[x]},{names[y]} have no {what}")
        join_rows.append(jr)
        meet_rows.append(mr)
    return tuple(join_rows), tuple(meet_rows)
