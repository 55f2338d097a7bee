"""Exhaustive search for finite residuated lattices of small order.

Bounded lattices are enumerated up to isomorphism; commutative product
tables are then assigned by backtracking, each cell trying the values of
one candidate bitmask cut by the filled cells of its row and column, and
the residuum is derived from the product rather than searched (for each
pair the candidate residual is the join of all admissible arguments, and
the assignment is pruned when that join is not itself admissible).
Every emitted structure passes full validation, and isomorphic
duplicates are rejected by a canonical key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .bitsets import bits
from .errors import BadN, InvalidBaseLattice, MalformedTables, SizeOutOfRange
from .filters import all_filters
from .normality import normality_report
from .spectra import spectrum
from .structure import Structure, is_mtl, order_tables, validate_structure

MAX_SIZE = 6


@dataclass(frozen=True)
class Lattice:
    """A bounded lattice given by upset masks over {0, .., n-1}."""

    n: int
    up: tuple[int, ...]
    names: tuple[str, ...]
    bot: int
    top: int

    @cached_property
    def tables(self):
        return order_tables(self.n, self.up)

    @cached_property
    def join(self):
        return self.tables[0]

    @cached_property
    def meet(self):
        return self.tables[1]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


def lattice_from_order(names, up, bot: int, top: int) -> Lattice:
    """Build and fully check a bounded lattice; raise InvalidBaseLattice."""
    n = len(names)
    up = tuple(up)
    if len(up) != n:
        raise InvalidBaseLattice("order relation size disagrees with carrier")
    for x in range(n):
        if not up[x] >> x & 1:
            raise InvalidBaseLattice("order must be reflexive")
        for y in bits(up[x]):
            if x != y and up[y] >> x & 1:
                raise InvalidBaseLattice("order must be antisymmetric")
            if up[y] & ~up[x]:
                raise InvalidBaseLattice("order must be transitive")
    full = (1 << n) - 1
    if up[bot] != full:
        raise InvalidBaseLattice("bottom is not below every element")
    if any(not up[x] >> top & 1 for x in range(n)):
        raise InvalidBaseLattice("top is not above every element")
    lat = Lattice(n=n, up=up, names=tuple(names), bot=bot, top=top)
    try:
        lat.tables
    except MalformedTables as exc:
        raise InvalidBaseLattice(str(exc)) from None
    return lat


def lattice_of(s: Structure) -> Lattice:
    """The lattice reduct of a validated structure."""
    return Lattice(n=s.n, up=s.up, names=s.names, bot=s.bot, top=s.top)


def _default_names(n: int) -> tuple[str, ...]:
    middles = [chr(ord("a") + i) for i in range(n - 2)]
    return tuple(["0"] + middles + ["1"])


def _relabelings(n: int, bot: int, top: int):
    """Every relabeling old -> new (as a list) that sends bot to 0 and top
    to n - 1, in the permutation order of the middle elements."""
    middles = [i for i in range(n) if i not in (bot, top)]
    for perm in permutations(middles):
        pi = [0] * n
        pi[bot] = 0
        pi[top] = n - 1
        for slot, orig in enumerate(perm, start=1):
            pi[orig] = slot
        yield pi


def _lattice_key(n: int, up, bot: int, top: int) -> bytes:
    """Canonical bytes of the order relation, minimized over relabelings
    that send bot to 0 and top to n - 1."""

    def relabeled(pi):
        rows = bytearray(n * n)
        for x in range(n):
            for y in bits(up[x]):
                rows[pi[x] * n + pi[y]] = 1
        return bytes(rows)

    return min(map(relabeled, _relabelings(n, bot, top)))


def _up_masks_from_key(n: int, key: bytes) -> tuple[int, ...]:
    out = []
    for x in range(n):
        mask = 0
        for y in range(n):
            if key[x * n + y]:
                mask |= 1 << y
        out.append(mask)
    return tuple(out)


def enumerate_lattices(size: int) -> list[Lattice]:
    """All bounded lattices on `size` elements up to isomorphism.

    Middle elements are related in every consistent way; candidates that
    fail transitivity or the unique-bound test are dropped, and the
    survivors are deduplicated by canonical order key.
    """
    if not 2 <= size <= MAX_SIZE:
        raise SizeOutOfRange(f"supported sizes are 2..{MAX_SIZE}")
    n = size
    bot, top = 0, n - 1
    middles = list(range(1, n - 1))
    pairs = [(x, y) for i, x in enumerate(middles) for y in middles[i + 1 :]]
    seen: dict[bytes, None] = {}

    def candidates(assign):
        up = [0] * n
        up[bot] = (1 << n) - 1
        for x in middles:
            up[x] = (1 << x) | (1 << top)
        up[top] = 1 << top
        for (x, y), rel in zip(pairs, assign):
            if rel == 1:
                up[x] |= 1 << y
            elif rel == 2:
                up[y] |= 1 << x
        for x in middles:
            for y in middles:
                if x != y and up[x] >> y & 1:
                    if up[y] & ~up[x]:
                        return None
        return tuple(up)

    results = []
    total = 3 ** len(pairs)
    for code in range(total):
        assign = []
        c = code
        for _ in pairs:
            assign.append(c % 3)
            c //= 3
        up = candidates(assign)
        if up is None:
            continue
        try:
            order_tables(n, up)
        except MalformedTables:
            continue
        key = _lattice_key(n, up, bot, top)
        if key in seen:
            continue
        seen[key] = None
        results.append(key)
    results.sort()
    return [
        Lattice(
            n=n,
            up=_up_masks_from_key(n, key),
            names=_default_names(n),
            bot=bot,
            top=top,
        )
        for key in results
    ]


def canonical_key(s: Structure) -> bytes:
    """Isomorphism-invariant bytes of all four tables.

    Minimized over the relabelings that send bot to 0 and top to n - 1;
    two structures get equal keys exactly when some bijection carries
    all four tables of one onto the other.
    """
    n = s.n
    tables = (s.join, s.meet, s.times, s.residuum)

    def relabeled(pi):
        buf = bytearray(4 * n * n)
        for k, table in enumerate(tables):
            for x in range(n):
                row = table[x]
                base = (k * n + pi[x]) * n
                for y in range(n):
                    buf[base + pi[y]] = pi[row[y]]
        return buf

    return bytes(min(map(relabeled, _relabelings(n, s.bot, s.top))))


@dataclass(frozen=True)
class SearchSpec:
    size: int
    base_lattice: Lattice | None = None
    limit: int | None = None
    canonical_only: bool = True

    def __post_init__(self):
        if not 2 <= self.size <= MAX_SIZE:
            raise SizeOutOfRange(f"supported sizes are 2..{MAX_SIZE}")
        if self.base_lattice is not None and self.base_lattice.n != self.size:
            raise InvalidBaseLattice("base lattice size disagrees with the search size")
        if self.limit is not None and self.limit < 1:
            raise BadN(f"search limit must be at least 1, got {self.limit}")


@dataclass(frozen=True)
class CensusStats:
    filters: int
    primes: int
    minimal_primes: int
    normality_index: int
    mtl: bool


@dataclass(frozen=True)
class CensusRecord:
    structure: Structure
    canonical_key: bytes
    stats: CensusStats


def _times_tables(lat: Lattice):
    """Backtracking assignment of the product over one bounded lattice.

    The bottom and identity rows are fixed; the middle cells (x, y) of
    the upper triangle are filled in index order and mirrored.  Each tries,
    in ascending order, its candidate mask: the carrier cut to up(w) for
    every filled cell (p, y) with p below x and to down(w) for every one
    with p above x (w the cell's value), then likewise for the cells
    (x, q) against y; the identity row alone keeps it inside
    down(x meet y).  Associativity is checked on completion (triples
    touching bot or top are automatic).
    """
    n, bot, top, up = lat.n, lat.bot, lat.top, lat.up
    down = tuple(sum(1 << v for v in range(n) if up[v] >> w & 1) for w in range(n))
    mids = [i for i in range(n) if i not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    table = [[None] * n for _ in range(n)]
    for z in range(n):
        table[bot][z] = table[z][bot] = bot
        table[top][z] = table[z][top] = z

    def candidates(x, y):
        mask = (1 << n) - 1
        for a, b in ((x, y), (y, x)):
            for p in range(n):
                w = table[p][b]
                if w is None:
                    continue
                if up[p] >> a & 1:
                    mask &= up[w]
                elif up[a] >> p & 1:
                    mask &= down[w]
        return mask

    def assoc_ok():
        for x in mids:
            for y in mids:
                xy = table[x][y]
                for z in mids:
                    if table[xy][z] != table[x][table[y][z]]:
                        return False
        return True

    out = []

    def rec(i):
        if i == len(cells):
            if assoc_ok():
                out.append(tuple(tuple(row) for row in table))
            return
        x, y = cells[i]
        for v in bits(candidates(x, y)):
            table[x][y] = table[y][x] = v
            rec(i + 1)
        table[x][y] = table[y][x] = None

    rec(0)
    return out


def _derive_residuum(lat: Lattice, times) -> tuple | None:
    """residuum[y][z] = join of {x | x * y <= z}, or None when that join
    is not itself admissible (no adjoint exists)."""
    n = lat.n
    join = lat.join
    rows = []
    for y in range(n):
        row = []
        for z in range(n):
            best = None
            ok_mask = 0
            for x in range(n):
                if lat.leq(times[x][y], z):
                    ok_mask |= 1 << x
                    best = x if best is None else join[best][x]
            if best is None or not ok_mask >> best & 1:
                return None
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


def _structure_stats(s: Structure) -> CensusStats:
    spec = spectrum(s)
    return CensusStats(
        filters=len(all_filters(s).filters),
        primes=len(spec.primes),
        minimal_primes=len(spec.minimal_primes),
        normality_index=normality_report(s, 1 << s.top).index,
        mtl=is_mtl(s),
    )


def enumerate_residuated(spec: SearchSpec):
    """Census of residuated lattices matching the search spec.

    Records are emitted in canonical-key order.  With canonical_only
    (the default) one representative per isomorphism class is kept;
    otherwise every completed assignment is emitted, still sorted.
    """
    lattices = (
        [spec.base_lattice]
        if spec.base_lattice is not None
        else enumerate_lattices(spec.size)
    )
    records = []
    for lat in lattices:
        for times in _times_tables(lat):
            residuum = _derive_residuum(lat, times)
            if residuum is None:
                continue
            s = Structure(
                n=lat.n,
                names=lat.names,
                join=lat.join,
                meet=lat.meet,
                times=times,
                residuum=residuum,
                bot=lat.bot,
                top=lat.top,
            )
            if not validate_structure(s).valid:
                continue
            key = canonical_key(s)
            records.append((key, s))
    records.sort(key=lambda kv: kv[0])
    seen = set()
    emitted = 0
    for key, s in records:
        if spec.canonical_only:
            if key in seen:
                continue
            seen.add(key)
        if spec.limit is not None and emitted >= spec.limit:
            return
        yield CensusRecord(
            structure=s,
            canonical_key=key,
            stats=_structure_stats(s),
        )
        emitted += 1
