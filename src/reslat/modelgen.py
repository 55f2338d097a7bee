"""Exhaustive search for finite residuated lattices of small order.

Bounded lattices are grown up to isomorphism from the 2-element chain,
one new atom at a time.  A lattice with some x != (x ^ p) v (x ^ q)
where p v q = top has no product with top as identity, and is skipped
before any search (`_splits_at_top`): 8 of the 15 lattices of size 6.
On the others, commutative product tables are assigned by
backtracking, each cell trying the values of one candidate bitmask that
the filled cells of its row and column cut so that the product preserves
joins, which on a finite lattice is exactly residuation.  Each value is
kept only if every associativity triple whose four cells are now all
filled holds, so every completed table is a product table.  The residuum
is then derived from the product rather than searched: residuum[y][z] is
the join of the x with x * y <= z, read by byte lookup, and row y
depends on product row y alone, so each distinct row is derived once
per lattice (`_derive_residuum`).  The census runs one lattice at a
time, in key-head order (`enumerate_residuated`).

Isomorphic duplicates are rejected by a canonical key, computed in two
stages.  The key is the least relabeling of join || meet || times ||
residuum, so its join part is the least relabeled join table, and the
relabelings that reach it form one coset of the lattice's automorphism
group (`coset`, scanned once per lattice that passes `_splits_at_top`).
The meet table is fixed by the join table, so on that coset its part
is fixed too, and only times || residuum is minimised, over the coset
alone.  That is the same lexicographic minimum, so the key bytes are
those of a minimum over every relabeling.  A table is keyed from its
flat times and residuum bytes, before any `Structure` exists; only the
record that is emitted, one per class, gets a `Structure`, from
`Lattice.structure`, which shape-checks its product tables and not the
lattice part, checked once when the lattice was built.  At run time
only a caller's base lattice is checked for axioms, once, in
`SearchSpec`; every other axiom holds by construction (see
`enumerate_residuated`).

The stages that grow with the size read index data computed once
instead of rederiving it per node or per relabeling.  The product search
follows steps built once per lattice over the live rows of its table
(`_cut_schedule`): the cells are filled in a fixed order, so which
filled cells cut each cell, and by what masks, and which associativity
triples each cell completes, are known before the search starts; the
fixed bot and top lines fold into a constant mask per cell and one-cell
cuts, by three facts proved there.
Each relabeling is kept as index maps (`Relabeling`): an
`operator.itemgetter` that gathers one flat n x n table into its
relabeled cell order, and a `bytes.translate` table for the values.
They are built on first use, one set per size: `enumerate_lattices`
numbers top last, so the lattice keys of size n and the cosets of its
lattices read the same `_relabeling_maps(n, 0, n - 1)`.  The lattice
key, the coset scan and the canonical key relabel each table they read
with one gather, and the values with one translation.  What every table
over a lattice shares is computed once per lattice: its key head and
coset by one `coset` call in `enumerate_residuated`, its residuum
lookups and rows by `_lattice_records`, which drops them when the
lattice is done, and its order data and join-prime elements on the
`Lattice` (`structure.Lattice`, which this module re-exports).  The
census stats of a record are read off its idempotents and those
join-prime elements (`_structure_stats`), not from the filter, spectrum
and normality analyses.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from itertools import chain, permutations, repeat
from operator import itemgetter
from typing import NamedTuple

from .bitsets import bits
from .errors import InvalidBaseLattice, SizeOutOfRange
from .structure import Lattice, Structure, Table, is_mtl, lattice_violations, order_tables

MAX_SIZE = 8


def _default_names(n: int) -> tuple[str, ...]:
    middles = [chr(ord("a") + i) for i in range(n - 2)]
    return tuple(["0"] + middles + ["1"])


class Relabeling(NamedTuple):
    """A relabeling pi, as the index maps that apply it to a flat table.

    A table renamed by pi holds pi[t[x][y]] at (pi[x], pi[y]).  `one`
    gathers a flat n x n table (row-major bytes) into its renamed cell
    order, and `values` is the `bytes.translate` table of x -> pi[x], so
    pi itself is values[:n]."""

    one: Callable
    values: bytes


@cache
def _relabeling_maps(n: int, bot: int, top: int) -> tuple[Relabeling, ...]:
    """Every relabeling that sends bot to 0 and top to n - 1, as index
    maps, in the permutation order of the middle elements: (n - 2)! of
    them, built on first use for each (n, bot, top), never at import."""
    middles = [i for i in range(n) if i not in (bot, top)]
    out = []
    for perm in permutations(middles):
        inverse = [bot, *perm, top]
        pi = bytes(map(inverse.index, range(n)))
        gather = [u * n + v for u in inverse for v in inverse]
        out.append(Relabeling(itemgetter(*gather), pi + bytes(range(n, 256))))
    return tuple(out)


def _flat(table) -> bytes:
    """The table's rows concatenated, as bytes."""
    return bytes(chain.from_iterable(table))


def _lattice_key(n: int, up, bot: int, top: int) -> bytes:
    """Canonical bytes of the order relation, minimized over relabelings
    that send bot to 0 and top to n - 1."""
    order = bytes(up[x] >> y & 1 for x in range(n) for y in range(n))
    gathers = [r.one for r in _relabeling_maps(n, bot, top)]
    # The gathered tuples of 0s and 1s order as their bytes would, so
    # only the least one is made bytes.
    return bytes(min(map(itemgetter.__call__, gathers, repeat(order))))


def _check_size(size) -> None:
    """The size check of `enumerate_lattices` and `SearchSpec`."""
    if not (isinstance(size, int) and 2 <= size <= MAX_SIZE):
        raise SizeOutOfRange(f"supported sizes are 2..{MAX_SIZE}")


def _up_masks_from_key(n: int, key: bytes) -> tuple[int, ...]:
    return tuple([sum([key[x * n + y] << y for y in range(n)]) for x in range(n)])


def enumerate_lattices(size: int) -> list[Lattice]:
    """All bounded lattices on `size` elements up to isomorphism.

    Grown from the 2-element chain by one-point extension: removing an
    atom from a finite lattice leaves a lattice, so each lattice of size
    m + 1 is one of size m plus a new atom a.  The strict up-set U of a
    is an up-closed subset of L - {bot} holding top, and a join with each
    x != bot exists exactly when U meet up(x) has a least element
    (Heitzig & Reinhold, "Counting finite lattices", Algebra Universalis
    2002).  Each size is deduplicated by canonical order key.

    Each extension numbers top last: the new atom takes top's index
    m - 1 and top moves to m.  So the extensions of size m + 1 are keyed
    with `_relabeling_maps(m + 1, 0, m)`, the maps that `coset` reads on
    the lattices of that size: one map set per size, where numbering the
    atom m would build a second set, (m + 1, 0, m - 1), at the last size.
    """
    _check_size(size)
    keys = {_lattice_key(2, (0b11, 0b10), 0, 1)}
    for m in range(2, size):
        top, moved = m - 1, 1 << m  # top's index, and its bit once moved
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
                # strict | moved is the atom's up-set: bit m - 1 is now its own.
                middle = [u ^ 1 << top | moved for u in up[1:top]]
                ext = (up[0] | moved, *middle, strict | moved, moved)
                grown.add(_lattice_key(m + 1, ext, 0, m))
        keys = grown
    names = _default_names(size)
    return [
        Lattice(size, names, *order_tables(size, _up_masks_from_key(size, key)), 0, size - 1)
        for key in sorted(keys)
    ]


def coset(lat: Lattice) -> tuple[bytes, tuple[Relabeling, ...]]:
    """The head of `canonical_key` shared by every structure over the
    lattice, and the relabelings its tail is minimised over.

    The relabelings are those that send bot to 0 and top to n - 1 and
    give the least relabeled join table: one coset pi0 * Aut(L).  The
    head is the join || meet tables relabeled by the coset's first member:
    that least join table, then the meet table gathered by that member.
    """
    flat = _flat(lat.join)
    best, out = None, []
    for r in _relabeling_maps(lat.n, lat.bot, lat.top):
        image = bytes(r.one(flat)).translate(r.values)
        if best is None or image < best:
            best, out = image, [r]
        elif image == best:
            out.append(r)
    first = out[0]
    return best + bytes(first.one(_flat(lat.meet))).translate(first.values), tuple(out)


def canonical_key(s: Structure) -> bytes:
    """Isomorphism-invariant bytes of all four tables.

    The least join || meet || times || residuum over the relabelings that
    send bot to 0 and top to n - 1; two structures get equal keys exactly
    when some bijection carries all four tables of one onto the other.
    A lexicographic minimum first minimises the join part, and the
    relabelings that do so form one coset of Aut(L), on which the meet
    part, fixed by the join table, is constant.  So the minimum is taken
    over that coset alone, for times || residuum, with the same bytes as
    a minimum over every relabeling.  Each relabeling is applied as one
    gather of each flat table and one `bytes.translate` of the values.
    """
    return _table_key(*coset(s), _flat(s.times), _flat(s.residuum))


def _table_key(head: bytes, coset: tuple[Relabeling, ...], times: bytes, residuum: bytes) -> bytes:
    """`canonical_key` of the structure with flat times and residuum
    tables `times` and `residuum` over a lattice with key head `head` and
    join coset `coset`: head || the least relabeled times || residuum."""
    return head + min([bytes(r.one(times) + r.one(residuum)).translate(r.values) for r in coset])


@dataclass(frozen=True)
class SearchSpec:
    """What `enumerate_residuated` searches: every lattice of `size`
    elements, or only `base_lattice`, and one record per isomorphism
    class (`canonical_only`) or every product table.  A caller that wants
    the first N records takes them with `itertools.islice`.  The base
    lattice is a `Lattice`, whose construction has checked its shapes
    (a `Structure` serves, through its lattice part); its size and
    axioms are checked here, where every census passes."""

    size: int
    base_lattice: Lattice | None = None
    canonical_only: bool = True

    def __post_init__(self):
        _check_size(self.size)
        lat = self.base_lattice
        if lat is None:
            return
        if lat.n != self.size:
            raise InvalidBaseLattice("base lattice size disagrees with the search size")
        violations = lattice_violations(lat)
        if violations:
            axiom, witness = violations[0]
            raise InvalidBaseLattice(
                "join/meet tables are not the operations of a bounded lattice: "
                f"{axiom} fails at " + ",".join(lat.names[i] for i in witness)
            )


@dataclass(frozen=True)
class CensusStats:
    """Counts over the trivial filter {top}, which every filter holds.

    `filters` counts the filters, `primes` the prime filters and
    `minimal_primes` the primes minimal under inclusion.
    `normality_index` is the largest number of minimal primes inside one
    prime (0 when there is no prime), the index of `normality_report`
    over {top}.  `mtl` tells whether (x -> y) v (y -> x) = top for every
    x and y.
    """

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


def _cut_schedule(lat: Lattice, table):
    """The steps of the product search over `table`, in fill order.

    The middle cells (x, y) of the upper triangle are filled in index
    order, so the cells filled when one's turn comes, and the cuts they
    make through join(p, a) * b = join(p * b, a * b) on each orientation
    (a, b) (see `_times_tables`), are known before the search starts.  The
    fixed lines fold in by three facts of any bounded lattice:

    - p = top gives the constant `base` = down(x) & down(y), since
      x * y <= x * top = x and likewise x * y <= y;
    - p = bot cuts nothing, since up(bot * b) = up(bot) is the carrier;
    - a filled (p, b) with join(p, a) = top gives
      join(p * b, a * b) = top * b = b.

    A fixed value is read only at p in {bot, top}, and the cell read
    beside it is then (a, b) itself or the fixed top * b, so no cut pairs
    a fixed value with a middle cell.  Every other cut reads filled middle
    cells of column b; with v = a * b and w = p * b it is one of five:
    p <= a gives v in up(w) (`up`); a <= p gives v in down(w)
    (`lat.down`); join(p, a) = top gives join(v, w) = b (`joined_by[b]`);
    join(p, a) = c filled gives join(v, w) = c * b (`joins_to`); and
    a = join(p, q) gives v = join(w, q * b) (`join_bit`).

    A step is (row_x, y, row_y, x, base, ones, twos, known, inner, outer)
    over the live rows of `table`: the cell is row_x[y] and its mirror
    row_y[x], `ones` holds (row, p, masks) read at masks[row[p]], and
    `twos` holds (row, p, q, masks) read at masks[row[p]][row[q]].  No
    cell gets two one-cell cuts: an orientation reads each cell once, and
    the two read different cells, as (y, p) and (x, q) meet only at
    (x, y) itself.  The last three entries serve the associativity test
    of `_times_tables`, for each orientation (a, b) of the cell: known[u]
    is the mask of the w whose cell (u, w) holds its value once this cell
    is written (the fixed lines, the cells filled before it and the cell
    itself); `inner` holds (row_a, row_b, known[a], c) for each triple
    (a, b, c) with (b, c) filled before and c != a; and `outer` holds
    (row_p, q, row_q, known[p], a, b) for each triple (p, q, b) with
    (p, q) and (q, b) filled before, p != b and a <= p ^ q.
    """
    n, bot, top, up, down, join, meet = (
        lat.n, lat.bot, lat.top, lat.up, lat.down, lat.join, lat.meet
    )
    # joins_to[w][t] holds the v with join(v, w) = t.
    joins_to = [[0] * n for _ in range(n)]
    for v, row in enumerate(join):
        for w, t in enumerate(row):
            joins_to[w][t] |= 1 << v
    joined_by = tuple(zip(*joins_to))
    join_bit = tuple(tuple(1 << v for v in row) for row in join)
    mids = [i for i in range(n) if i not in (bot, top)]
    # known[u] is the mask of the w whose cell (u, w) holds its value.
    known = [(1 << n) - 1] * n
    for u in mids:
        known[u] = 1 << bot | 1 << top
    steps, done = [], []
    for x, y in [(x, y) for i, x in enumerate(mids) for y in mids[i:]]:
        cell = ((x, y),) if x == y else ((x, y), (y, x))
        filled = {b: [p for p in mids if known[b] >> p & 1] for _, b in cell}
        known[x] |= 1 << y
        known[y] |= 1 << x
        ones, twos, inner, outer = [], [], [], []
        for a, b in cell:
            row = table[b]
            for p in filled[b]:
                c = join[p][a]
                if c == a:
                    ones.append((row, p, up))
                elif c == p:
                    ones.append((row, p, down))
                elif c == top:
                    ones.append((row, p, joined_by[b]))
                elif c in filled[b]:
                    twos.append((row, p, c, joins_to))
            twos += [
                (row, p, q, join_bit)
                for p in filled[b]
                for q in filled[b]
                if p < q and join[p][q] == a
            ]
            inner += [(table[a], row, known[a], c) for c in filled[b] if c != a]
            outer += [
                (table[p], q, table[q], known[p], a, b)
                for p, q in done
                if up[a] >> meet[p][q] & 1 and p != b and q != a and known[q] >> b & 1
            ]
        steps.append(
            (table[x], y, table[y], x, down[x] & down[y], tuple(ones), tuple(twos),
             tuple(known), tuple(inner), tuple(outer))
        )
        done += cell
    return steps


def _splits_at_top(lat: Lattice) -> bool:
    """True iff x = (x ^ p) v (x ^ q) for every x and every p, q with
    p v q = top: the lattice test that every caller of `_times_tables`
    makes first, since a lattice that fails it has no product preserving
    joins with top as identity.  Proof: such a product is monotone, so
    x * p <= x * top = x and x * p <= top * p = p, that is x * p <= x ^ p.
    So when p v q = top, every x has x = x * (p v q) = (x * p) v (x * q)
    <= (x ^ p) v (x ^ q) <= x, and equality holds throughout.  It fails
    on 2 of the 5 lattices of size 5, 8 of 15 at size 6, 34 of 53 at
    size 7 and 157 of 222 at size 8."""
    join, meet, top = lat.join, lat.meet, lat.top
    for p, row in enumerate(join):
        for q in range(p + 1, lat.n):
            if row[q] == top:
                # meet is commutative: meet[p][x] = x ^ p.
                for x, (xp, xq) in enumerate(zip(meet[p], meet[q])):
                    if join[xp][xq] != x:
                        return False
    return True


def _times_tables(lat: Lattice):
    """Backtracking assignment of a residuated product over one bounded
    lattice, which its caller has tested with `_splits_at_top`.

    On a finite lattice a product is residuated exactly when it fixes bot
    and preserves binary joins in each argument, so the search enforces
    join(p, a) * b = join(p * b, a * b) while it fills the table.  The
    bottom and identity rows are fixed; the middle cells (x, y) of the
    upper triangle are filled in index order and mirrored.  Each tries, in
    ascending order, the values of down(x) & down(y) that the filled
    middle cells of its columns leave, in the five cuts `_cut_schedule`
    lists.  (The cut a * b = join(p * b, q * b) for a = join(p, q) matters
    for base lattices numbered bottom up; the census numbers each join
    below its parts.)  The table stays symmetric at every node (each cell
    is written with its mirror, and the bot and top lines are fixed), so
    column b is read as row b.

    Associativity is tested as the cells fill, so every completed table
    is a product table.  A triple touching bot or top holds at once, so
    only middle triples are read, and (a * b) * c = a * (b * c) reads
    four cells: the inner cells (a, b) and (b, c) and the outer cells
    (a * b, c) and (a, b * c); a * b <= a ^ b is never top, and when it
    is bot its outer cell is on the fixed bot line.  The mirror (c, b, a)
    reads the same cells and, the product being commutative, states the
    same equation; and a triple with a = c holds by commutativity.  When
    a cell is written with v, `associative` tests, for each orientation
    (a, b) of the cell, as `_cut_schedule` lists them:

    - inner: each (a, b, c) with (b, c) filled before and c != a, when
      (v, c) and (a, b * c) hold their values;
    - outer: each (p, q, b) with p * q = a, (p, q) and (q, b) filled
      before and p != b, when (p, q * b) holds its value.  The search
      writes only values below a meet, so a <= p ^ q, and only those
      (p, q) are listed.

    So each triple (a, b, c) with a != c is tested, itself or as its
    mirror, at the step that fills the last of its cells.  If that cell
    is inner, it is (a, b), or (b, c), which is (c, b) of the mirror; the
    other inner cell is a different cell (a != c), so filled before, and
    both outer cells hold their values: the inner role tests it.  If not,
    it is outer: (a * b, c), or (a, b * c), which is (c * b, a) of the
    mirror.  Read as the orientation (a * b, c) of the cell, the outer
    role lists (p, q) = (a, b), as (a, b) and (b, c) were filled before,
    and tests it, as (a, b * c) holds its value.  A test that fails fails
    at every node below, where its four cells keep their values, so the
    pruning drops exactly the tables a test of complete tables would
    drop, and the rest come in the same order.  Both roles are needed;
    at size 8 the search visits 81,479 nodes, where a test of complete
    tables visited 1,790,993.

    The cuts and triples are not rederived at each node: `_cut_schedule`
    builds, once per lattice, steps over the live rows of the table, so a
    node ANDs exactly the masks of its step, read at the cells' current
    values, and reads exactly the triples of its step.
    """
    n, bot, top = lat.n, lat.bot, lat.top
    table = [[0] * n for _ in range(n)]
    for z in range(n):
        table[bot][z] = table[z][bot] = bot
        table[top][z] = table[z][top] = z
    steps = _cut_schedule(lat, table)
    last = len(steps)
    out = []

    def associative(v, known, inner, outer):
        row_v, known_v = table[v], known[v]
        for row_a, row_b, known_a, c in inner:
            bc = row_b[c]
            if known_v >> c & 1 and known_a >> bc & 1 and row_v[c] != row_a[bc]:
                return False
        for row_p, q, row_q, known_p, a, b in outer:
            if row_p[q] == a:
                qb = row_q[b]
                if known_p >> qb & 1 and row_p[qb] != v:
                    return False
        return True

    def rec(i):
        if i == last:
            out.append(tuple(map(tuple, table)))
            return
        row_x, y, row_y, x, mask, ones, twos, known, inner, outer = steps[i]
        for row, p, masks in ones:
            mask &= masks[row[p]]
        for row, p, q, masks in twos:
            mask &= masks[row[p]][row[q]]
        for v in bits(mask):
            row_x[y] = row_y[x] = v
            if associative(v, known, inner, outer):
                rec(i + 1)

    rec(0)
    return out


def _residuum_state(lat: Lattice):
    """What `_derive_residuum` keeps over one lattice: each element z's
    "v <= z" column, the 0/1 bytes of its down-set, as a `bytes.translate`
    table; those down-set bytes -> z; and product row -> residuum row,
    filled as rows are derived."""
    n = lat.n
    pad = bytes(256 - n)
    downs = [bytes(mask >> v & 1 for v in range(n)) for mask in lat.down]
    return [low + pad for low in downs], {low: z for z, low in enumerate(downs)}, {}


def _derive_residuum(times, columns, element, rows) -> Table:
    """residuum[y][z] = join of {x | x * y <= z}, by byte lookup, with
    the `_residuum_state` of the lattice of `times`.

    Row y of the commutative product holds x * y at x, so translating it
    by z's column gives that set as 0/1 bytes.  The product preserves
    joins, so the set holds its own join and is that element's down-set:
    residuum[y][z] is the one dict lookup of those bytes, the adjoint the
    search guaranteed.  So residuum row y depends on product row y alone,
    and each distinct product row is derived once per lattice and kept in
    `rows`: 185 rows of the 852 over the 142 product tables of size 6.
    """
    get = element.__getitem__
    out = []
    for row in times:
        derived = rows.get(row)
        if derived is None:
            derived = rows[row] = tuple(map(get, map(bytes(row).translate, columns)))
        out.append(derived)
    return tuple(out)


def _structure_stats(s: Structure, lat: Lattice) -> CensusStats:
    """The census stats of s, read off its idempotents and the join-prime
    elements of `lat`, its lattice reduct with the same labels.

    The filters are the up(e) with e idempotent (see `filters`), and
    distinct idempotents give distinct filters, since e is the least
    element of up(e).  up(e) is proper exactly when
    e != bot, and prime exactly when e is join-prime, which is what
    `spectra.is_prime` checks of it.  Every prime holds the trivial
    filter {top}, and up(m) is inside up(p) exactly when p <= m.  So the
    primes are the join-prime idempotents, the minimal primes are the
    maximal ones among them, and the minimal primes inside up(p) are the
    maximal prime idempotents above p.
    """
    times, up = s.times, lat.up
    idempotent = 0
    for e in range(s.n):
        if times[e][e] == e:
            idempotent |= 1 << e
    prime = idempotent & lat.join_primes
    primes = bits(prime)
    maximal = 0
    for p in primes:
        if up[p] & prime == 1 << p:
            maximal |= 1 << p
    return CensusStats(
        filters=idempotent.bit_count(),
        primes=len(primes),
        minimal_primes=maximal.bit_count(),
        normality_index=max([(up[p] & maximal).bit_count() for p in primes], default=0),
        mtl=is_mtl(s),
    )


def enumerate_residuated(spec: SearchSpec):
    """Census of residuated lattices matching the search spec.

    Records are emitted in canonical-key order, with no limit: a caller
    stops the generator when it has enough.  The census runs one lattice
    at a time.  Each lattice that passes `_splits_at_top` gets its key
    head and join coset from one `coset` call, and the lattices are taken
    in head order, each searched and emitted in full by `_lattice_records`
    before the next is searched.  That is the order of one stable sort of
    every table of the census by key: a key over a lattice starts with
    its head, 2n^2 bytes, and non-isomorphic lattices have distinct
    heads, since equal least relabeled join tables mean isomorphic
    lattices.  For the same reason isomorphic tables share a lattice, so
    no duplicate spans two lattices, and memory holds one lattice's
    tables, not the census's.
    No axiom is checked here.  Each lattice searched is a lattice:
    `enumerate_lattices` builds its tables from a bounded order by
    `order_tables`, and a caller's `base_lattice` has passed
    `SearchSpec`.  The product axioms hold by construction.  On a
    finite lattice a product is residuated exactly when it fixes bot and
    preserves joins in each argument (Galatos, Jipsen, Kowalski & Ono,
    *Residuated Lattices*, 2007).  `_times_tables` fixes the bot and top
    lines (so top is the identity), writes each cell with its mirror (so
    the product commutes), keeps to join-preserving values and tests
    each associativity triple once its cells are filled;
    `_derive_residuum` then reads off the adjoint, which also gives
    x -> y = top exactly when x <= y.  The tests check every enumerated lattice of sizes 2 to 8 and validate
    every record of sizes 2 to 7, with and without canonical_only and
    over each fixture's lattice, and of size 8 in the slow census test.
    """
    base = spec.base_lattice
    lattices = [base] if base is not None else enumerate_lattices(spec.size)
    cosets = sorted(
        [(*coset(lat), lat) for lat in lattices if _splits_at_top(lat)], key=itemgetter(0)
    )
    for head, relabelings, lat in cosets:
        yield from _lattice_records(lat, head, relabelings, spec.canonical_only)


def _lattice_records(lat: Lattice, head: bytes, relabelings, canonical_only: bool):
    """The census records over one lattice, in key order, from its key
    head and join coset (`coset`).

    Each product table is keyed from its flat tables and its residuum,
    derived with a `_residuum_state` that dies with this run.  The stable
    sort puts equal keys side by side, so with canonical_only the first
    table found of each class is kept and a duplicate, a key equal to the
    one before, never gets a `Structure` (`Lattice.structure`).
    """
    state = _residuum_state(lat)
    keyed = []
    for times in _times_tables(lat):
        residuum = _derive_residuum(times, *state)
        key = _table_key(head, relabelings, _flat(times), _flat(residuum))
        keyed.append((key, times, residuum))
    keyed.sort(key=itemgetter(0))
    previous = None
    for key, times, residuum in keyed:
        if canonical_only and key == previous:
            continue
        previous = key
        s = lat.structure(times, residuum)
        yield CensusRecord(structure=s, canonical_key=key, stats=_structure_stats(s, lat))
