"""Test-side references for the census: the product search, the
relabeling routines, the residuum and the lattice tables as they read
before each became a lookup in data built once.

`modelgen._times_tables` works from steps built once per lattice, which
fold the fixed bot and top lines into constant masks, read middle cells
only and test each associativity triple as soon as its four cells are
filled.  `_lattice_key`, `coset` and `canonical_key` relabel through
`modelgen._relabeling_maps`, one set per size of precomputed gathers,
each applied to one flat table; `relabelings` below lists the same
relabelings, in the same order, as lists.  `_derive_residuum` reads each
cell with one `bytes.translate` and one dict lookup and derives each
distinct product row once per lattice, and `structure.order_tables`
finds each join and meet by one dict lookup of an up-set or a down-set.
The routines here keep the direct routes: a product search whose
`candidates` rescans both columns of each cell at every node, reading
the fixed lines like any filled cell, and which tests associativity on
complete tables only; relabelings written cell by cell; a residuum that
ORs the masks of each down-set, row by row for every table; and bounds
found by scanning the common bounds.  The census must give the same
lists, in the same order, the same key bytes, the same tables and the
same `MalformedTables` text from both.
"""

from itertools import permutations

from reslat.bitsets import bits
from reslat.errors import MalformedTables


def relabelings(n: int, bot: int, top: int):
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


def lattice_key(n: int, up, bot: int, top: int) -> bytes:
    """Canonical bytes of the order relation, minimized over relabelings
    that send bot to 0 and top to n - 1."""

    def relabeled(pi):
        rows = bytearray(n * n)
        for x in range(n):
            for y in bits(up[x]):
                rows[pi[x] * n + pi[y]] = 1
        return bytes(rows)

    return min(map(relabeled, relabelings(n, bot, top)))


def relabeled(tables, pi) -> bytearray:
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


def join_coset(n: int, join, bot: int, top: int) -> tuple[list[int], ...]:
    """Every relabeling that sends bot to 0 and top to n - 1 and gives
    the least relabeled join table: one coset pi0 * Aut(L)."""
    best, coset = None, []
    for pi in relabelings(n, bot, top):
        buf = relabeled((join,), pi)
        if best is None or buf < best:
            best, coset = buf, [pi]
        elif buf == best:
            coset.append(pi)
    return tuple(coset)


def canonical_key(s, coset=None) -> bytes:
    """The least join || meet || times || residuum over the relabelings
    that send bot to 0 and top to n - 1, taken over the join coset (of
    s.join when not given)."""
    if coset is None:
        coset = join_coset(s.n, s.join, s.bot, s.top)
    head = relabeled((s.join, s.meet), coset[0])
    tail = min(relabeled((s.times, s.residuum), pi) for pi in coset)
    return bytes(head + tail)


def times_tables(lat):
    """Backtracking assignment of a residuated product over one bounded
    lattice, each cell's candidate mask rebuilt from both columns.

    The middle cells (x, y) of the upper triangle are filled in index
    order and mirrored.  Each tries, in ascending order, the values of
    one mask, cut for both orientations (a, b) of the cell by every
    filled cell (p, b) of value w: to up(w) when p <= a, else, when the
    cell (join(p, a), b) holds t, to the values v with join(v, w) = t.
    A cell (a, b) with a = join(p, q) for two filled cells (p, b) and
    (q, b) is forced to the join of their values.  Associativity is
    checked on complete tables only, so the numbering of the lattice
    changes how much is searched but not what is found.
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
            column = table[b]
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


def derive_residuum(lat, times) -> tuple:
    """residuum[y][z] = join of {x | x * y <= z}, from principal down-sets.

    With by_value[v] the mask of the x with x * y = v (row y of the
    commutative product), that set is the union of by_value[v] over v in
    down(z), and it is the down-set of its own join.
    """
    n = lat.n
    element = {mask: x for x, mask in enumerate(lat.down)}
    below = [list(bits(mask)) for mask in lat.down]
    rows = []
    for y in range(n):
        by_value = [0] * n
        for x, v in enumerate(times[y]):
            by_value[v] |= 1 << x
        row = []
        for low in below:
            mask = 0
            for v in low:
                mask |= by_value[v]
            row.append(element[mask])
        rows.append(tuple(row))
    return tuple(rows)


def order_tables(n: int, up, names=None):
    """Join and meet tables of the bounded lattice with upset masks `up`,
    each bound the one common bound whose mask holds all the others;
    MalformedTables names the first pair in (x, y) order that lacks one,
    the join before the meet."""
    names = names or range(n)
    up = tuple(up)
    down = tuple(
        sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)
    )

    def bound(masks, x, y, what):
        common = masks[x] & masks[y]
        found = [m for m in bits(common) if not (common & ~masks[m])]
        if len(found) != 1:
            raise MalformedTables(f"elements {names[x]},{names[y]} have no {what}")
        return found[0]

    join_rows = []
    meet_rows = []
    for x in range(n):
        jr = []
        mr = []
        for y in range(n):
            jr.append(bound(up, x, y, "least upper bound"))
            mr.append(bound(down, x, y, "greatest lower bound"))
        join_rows.append(tuple(jr))
        meet_rows.append(tuple(mr))
    return tuple(join_rows), tuple(meet_rows)
