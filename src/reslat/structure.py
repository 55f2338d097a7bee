"""Finite residuated lattices presented by operation tables.

A structure carries join, meet, product and residuum tables over the
carrier {0, .., n-1} together with designated bottom and top constants.
The partial order is the one derived from the join table (x <= y iff
x v y = y); every other notion in the package is defined against that
order.  Structures are immutable and hashable, so derived data and
whole-structure analyses can be cached on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    with the structure: the order masks `up`/`down`, the hash (computed
    once, since every cached analysis hashes its structure on each
    lookup), and five memo tables.  The analyses fill the memo tables
    only on carriers of at most `SMALL_N` elements and take their
    uncached paths above that:

    - `filter_memo`: the filter generated by each subset mask, filled by
      `filters.generated_filter`;
    - `ideal_memo`: the ideal generated by each subset mask, filled by
      `filters.generated_ideal`;
    - `omega_memo`: base filter -> its coannulet unions over every
      subset mask, filled by `omega.omega_table`;
    - `coann_memo`: base filter -> its coannihilators of every subset
      mask, filled by `coann.coann_subset_table`;
    - `minimal_primes_memo`: the minimal primes over each subset mask,
      filled by `spectra.minimal_primes_over`.
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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        tables = (self.join, self.meet, self.times, self.residuum)
        return hash((self.n, self.names, *tables, self.bot, self.top))

    @cached_property
    def filter_memo(self) -> bytearray:
        """Slot m is the filter generated by mask m, or 0 while not yet
        computed (no filter is empty)."""
        return bytearray(1 << self.n)

    @cached_property
    def ideal_memo(self) -> bytearray:
        """Slot m is the ideal generated by mask m, or 0 while not yet
        computed (every ideal contains bot)."""
        return bytearray(1 << self.n)

    @cached_property
    def omega_memo(self) -> dict[int, bytes]:
        """Base filter f -> slot X is the union of (f : x) over x in X."""
        return {}

    @cached_property
    def coann_memo(self) -> dict[int, bytes]:
        """Base filter f -> slot X is (f : X), the intersection of
        (f : x) over x in X."""
        return {}

    @cached_property
    def minimal_primes_memo(self) -> dict[int, tuple[int, ...]]:
        """Mask m -> the minimal primes over m."""
        return {}

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


def negate(s: Structure, a: int) -> int:
    """The residual complement a -> 0."""
    return s.residuum[a][s.bot]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]


def validate_structure(s: Structure) -> ValidationReport:
    """Check every axiom; collect the first witness per violated law.

    Witnesses are found by lexicographic scan over element tuples, so
    the report is deterministic.  Two derived laws (product distributes
    over join; a join of products bounds the product of joins) hold in
    every residuated lattice; if every axiom passes yet one of them
    fails, the report carries an internal-consistency violation.
    """
    jn, mt, tm, rs = s.join, s.meet, s.times, s.residuum
    rng = range(s.n)
    top, bot = s.top, s.bot

    def le(x: int, y: int) -> bool:
        return jn[x][y] == y

    violations: list[tuple[str, tuple[int, ...]]] = []

    def scan1(name, pred):
        for x in rng:
            if not pred(x):
                violations.append((name, (x,)))
                return

    def scan2(name, pred):
        for x in rng:
            for y in rng:
                if not pred(x, y):
                    violations.append((name, (x, y)))
                    return

    def scan3(name, pred):
        for x in rng:
            for y in rng:
                for z in rng:
                    if not pred(x, y, z):
                        violations.append((name, (x, y, z)))
                        return

    scan2("join-commutative", lambda x, y: jn[x][y] == jn[y][x])
    scan3("join-associative", lambda x, y, z: jn[x][jn[y][z]] == jn[jn[x][y]][z])
    scan1("join-idempotent", lambda x: jn[x][x] == x)
    scan2("meet-commutative", lambda x, y: mt[x][y] == mt[y][x])
    scan3("meet-associative", lambda x, y, z: mt[x][mt[y][z]] == mt[mt[x][y]][z])
    scan1("meet-idempotent", lambda x: mt[x][x] == x)
    scan2("absorption-join-meet", lambda x, y: jn[x][mt[x][y]] == x)
    scan2("absorption-meet-join", lambda x, y: mt[x][jn[x][y]] == x)
    scan1("bottom-least", lambda x: jn[bot][x] == x)
    scan1("top-greatest", lambda x: jn[x][top] == top)
    scan2("product-commutative", lambda x, y: tm[x][y] == tm[y][x])
    scan3(
        "product-associative",
        lambda x, y, z: tm[x][tm[y][z]] == tm[tm[x][y]][z],
    )
    scan1("product-identity", lambda x: tm[x][top] == x)
    scan3(
        "adjointness",
        lambda x, y, z: le(tm[x][y], z) == le(x, rs[y][z]),
    )
    scan2(
        "order-residuum-agreement",
        lambda x, y: le(x, y) == (rs[x][y] == top),
    )

    if not violations:
        scan3(
            "internal-consistency:product-distributes-over-join",
            lambda x, y, z: tm[x][jn[y][z]] == jn[tm[x][y]][tm[x][z]],
        )
        scan3(
            "internal-consistency:join-of-products-bound",
            lambda x, y, z: le(tm[jn[x][y]][jn[x][z]], jn[x][tm[y][z]]),
        )

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


def order_tables(n: int, up) -> tuple[Table, Table]:
    """Join and meet tables of the bounded lattice with upset masks `up`.

    Raises MalformedTables when some pair lacks a least upper bound or a
    greatest lower bound, i.e. when the order is not a lattice.
    """
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
                raise MalformedTables(f"elements {x},{y} have no least upper bound")
            jr.append(least[0])
            lb = down[x] & down[y]
            greatest = [m for m in bits(lb) if not (lb & ~down[m])]
            if len(greatest) != 1:
                raise MalformedTables(
                    f"elements {x},{y} have no greatest lower bound"
                )
            mr.append(greatest[0])
        join_rows.append(tuple(jr))
        meet_rows.append(tuple(mr))
    return tuple(join_rows), tuple(meet_rows)
