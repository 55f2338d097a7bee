"""Exhaustive search for finite residuated lattices of small order.

Bounded lattices are grown up to isomorphism from the 2-element chain,
one new atom at a time.  Commutative product tables are then assigned by
backtracking, each cell trying the values of one candidate bitmask that
the filled cells of its row and column cut so that the product preserves
joins, which on a finite lattice is exactly residuation.  The residuum is
then derived from the product rather than searched: residuum[y][z] is the
join of the x with x * y <= z.

Isomorphic duplicates are rejected by a canonical key, computed in two
stages.  The key is the least relabeling of join || meet || times ||
residuum, so its join part is the least relabeled join table, and the
relabelings that reach it form one coset of the lattice's automorphism
group (`Lattice.coset`, scanned once per lattice).  The meet table is
fixed by the join table, so on that coset its part is fixed too, and
only times || residuum is minimised, over the coset alone.  That is the
same lexicographic minimum, so the key bytes are those of a minimum
over every relabeling.  Every emitted structure passes full validation;
isomorphic structures pass or fail together, so each class is validated
once, when its representative is emitted.
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

MAX_SIZE = 8


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

    @cached_property
    def coset(self):
        """The relabelings that minimise the relabeled join table."""
        return _join_coset(self.n, self.join, self.bot, self.top)

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

    Grown from the 2-element chain by one-point extension: removing an
    atom from a finite lattice leaves a lattice, so each lattice of size
    m + 1 is one of size m plus a new atom a.  The strict up-set U of a
    is an up-closed subset of L - {bot} holding top, and a join with each
    x != bot exists exactly when U meet up(x) has a least element
    (Heitzig & Reinhold, "Counting finite lattices", Algebra Universalis
    2002).  Each size is deduplicated by canonical order key.
    """
    if not 2 <= size <= MAX_SIZE:
        raise SizeOutOfRange(f"supported sizes are 2..{MAX_SIZE}")
    keys = {_lattice_key(2, (0b11, 0b10), 0, 1)}
    for m in range(2, size):
        top, atom = m - 1, 1 << m
        grown = set()
        for key in keys:
            up = _up_masks_from_key(m, key)
            for middles in range(1 << (m - 2)):
                strict = middles << 1 | 1 << top
                if any(up[x] & ~strict for x in bits(strict)):
                    continue
                if not all(
                    any(not bounds & ~up[u] for u in bits(bounds))
                    for bounds in (strict & up[x] for x in range(1, m))
                ):
                    continue
                ext = (up[0] | atom, *up[1:], strict | atom)
                grown.add(_lattice_key(m + 1, ext, 0, top))
        keys = grown
    return [
        Lattice(
            n=size,
            up=_up_masks_from_key(size, key),
            names=_default_names(size),
            bot=0,
            top=size - 1,
        )
        for key in sorted(keys)
    ]


def _relabeled(tables, pi) -> bytearray:
    """The tables concatenated, with every element x renamed to pi[x]."""
    n = len(pi)
    buf = bytearray(len(tables) * n * n)
    for k, table in enumerate(tables):
        for x in range(n):
            row = table[x]
            base = (k * n + pi[x]) * n
            for y in range(n):
                buf[base + pi[y]] = pi[row[y]]
    return buf


def _join_coset(n: int, join, bot: int, top: int) -> tuple[list[int], ...]:
    """Every relabeling that sends bot to 0 and top to n - 1 and gives
    the least relabeled join table: one coset pi0 * Aut(L)."""
    best, coset = None, []
    for pi in _relabelings(n, bot, top):
        buf = _relabeled((join,), pi)
        if best is None or buf < best:
            best, coset = buf, [pi]
        elif buf == best:
            coset.append(pi)
    return tuple(coset)


def canonical_key(s: Structure, lat: Lattice | None = None) -> bytes:
    """Isomorphism-invariant bytes of all four tables.

    The least join || meet || times || residuum over the relabelings that
    send bot to 0 and top to n - 1; two structures get equal keys exactly
    when some bijection carries all four tables of one onto the other.
    A lexicographic minimum first minimises the join part, and the
    relabelings that do so form one coset of Aut(L), on which the meet
    part, fixed by the join table, is constant.  So the minimum is taken
    over that coset alone, for times || residuum, with the same bytes as
    a minimum over every relabeling.  `lat`, the lattice reduct of s with
    the same labels, supplies its cached coset; without it the coset is
    computed from s.join.
    """
    if lat is not None:
        coset = lat.coset
    else:
        coset = _join_coset(s.n, s.join, s.bot, s.top)
    head = _relabeled((s.join, s.meet), coset[0])
    tail = min(_relabeled((s.times, s.residuum), pi) for pi in coset)
    return bytes(head + tail)


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
    """Backtracking assignment of a residuated product over one bounded lattice.

    On a finite lattice a product is residuated exactly when it fixes bot
    and preserves binary joins in each argument, so the search enforces
    join(p, a) * b = join(p * b, a * b) while it fills the table.  The
    bottom and identity rows are fixed; the middle cells (x, y) of the
    upper triangle are filled in index order and mirrored.  Each tries, in
    ascending order, the values of one candidate mask, cut for both
    orientations (a, b) of the cell by every filled cell (p, b) of value
    w: to up(w) when p <= a, else, when the cell (join(p, a), b) holds t,
    to the values v with join(v, w) = t (down(w) when p >= a).  A cell
    (a, b) with a = join(p, q) for two filled cells (p, b) and (q, b) is
    forced to the join of their values; the census numbers each join below
    its parts, so this matters for base lattices numbered bottom up.
    Associativity is checked on completion (triples touching bot or top
    are automatic).
    """
    n, bot, top, up, join = lat.n, lat.bot, lat.top, lat.up, lat.join
    joins_to = [[0] * n for _ in range(n)]
    for w in range(n):
        for v in range(n):
            joins_to[w][join[v][w]] |= 1 << v
    splits = [[] for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if join[p][q] not in (p, q):
                splits[join[p][q]].append((p, q))
    mids = [i for i in range(n) if i not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    table = [[None] * n for _ in range(n)]
    for z in range(n):
        table[bot][z] = table[z][bot] = bot
        table[top][z] = table[z][top] = z

    def candidates(x, y):
        mask = (1 << n) - 1
        for a, b in ((x, y), (y, x)):
            column = [row[b] for row in table]
            for p, w in enumerate(column):
                if w is None:
                    continue
                pa = join[p][a]
                if pa == a:
                    mask &= up[w]
                elif column[pa] is not None:
                    mask &= joins_to[w][column[pa]]
            for p, q in splits[a]:
                if column[p] is not None and column[q] is not None:
                    mask &= 1 << join[column[p]][column[q]]
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


def _derive_residuum(lat: Lattice, times) -> tuple:
    """residuum[y][z] = join of {x | x * y <= z}.

    The product preserves joins, so that join is itself in the set: the
    residuum is the adjoint the search guaranteed.
    """
    n = lat.n
    join = lat.join
    rows = []
    for y in range(n):
        row = []
        for z in range(n):
            best = lat.bot
            for x in range(n):
                if lat.leq(times[x][y], z):
                    best = join[best][x]
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
    Validation runs on the records about to be emitted, after the
    duplicate check: structures with equal keys are isomorphic, so they
    pass or fail together.
    """
    lattices = (
        [spec.base_lattice]
        if spec.base_lattice is not None
        else enumerate_lattices(spec.size)
    )
    records = []
    for lat in lattices:
        for times in _times_tables(lat):
            s = Structure(
                n=lat.n,
                names=lat.names,
                join=lat.join,
                meet=lat.meet,
                times=times,
                residuum=_derive_residuum(lat, times),
                bot=lat.bot,
                top=lat.top,
            )
            records.append((canonical_key(s, lat), s))
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
        if not validate_structure(s).valid:
            continue
        yield CensusRecord(
            structure=s,
            canonical_key=key,
            stats=_structure_stats(s),
        )
        emitted += 1
