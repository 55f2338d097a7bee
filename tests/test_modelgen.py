import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from itertools import permutations, product, zip_longest
from operator import itemgetter

import modelgen_reference as ref
import pytest
from conftest import SRC
from constructions import has_no_zero_divisors
from test_subvarieties import assert_products_in_census

from reslat import modelgen, structure
from reslat.bitsets import bits
from reslat.errors import InvalidBaseLattice, MalformedTables, SizeOutOfRange
from reslat.fileformat import load_lattice, load_structure
from reslat.filters import all_filters
from reslat.modelgen import (
    MAX_SIZE,
    CensusStats,
    Lattice,
    SearchSpec,
    _derive_residuum,
    _flat,
    _lattice_key,
    _residuum_state,
    _splits_at_top,
    _table_key,
    _times_tables,
    canonical_key,
    coset,
    enumerate_lattices,
    enumerate_residuated,
)
from reslat.normality import normality_report
from reslat.spectra import is_prime, minimal_primes_over, primes_of
from reslat.structure import Structure, is_mtl, order_tables, validate_structure


def test_lattice_counts_small():
    assert len(enumerate_lattices(2)) == 1
    assert len(enumerate_lattices(3)) == 1
    assert len(enumerate_lattices(4)) == 2
    assert len(enumerate_lattices(5)) == 5
    assert len(enumerate_lattices(6)) == 15


def _bounded_orders(n):
    """Every partial order on n elements with least element 0 and greatest
    n - 1, as up-mask tuples: the middle orders, enumerated pair by pair."""
    mids = list(range(1, n - 1))
    pairs = [(x, y) for x in mids for y in mids if x != y]
    for sel in range(1 << len(pairs)):
        rel = {p for i, p in enumerate(pairs) if sel >> i & 1}
        if any((y, x) in rel for (x, y) in rel):
            continue
        if any(
            (x, z) not in rel
            for (x, y) in rel
            for (w, z) in rel
            if w == y and x != z
        ):
            continue
        up = [0] * n
        up[0] = (1 << n) - 1
        up[n - 1] = 1 << (n - 1)
        for x in mids:
            up[x] = (1 << x) | (1 << (n - 1))
        for x, y in rel:
            up[x] |= 1 << y
        yield tuple(up)


def _lattice_classes_oracle(n):
    """Independent classes: keep the bounded orders that are lattices,
    and group them by explicit isomorphism search; one up-mask tuple per
    class."""
    mids = list(range(1, n - 1))
    survivors = []
    for up in _bounded_orders(n):
        try:
            order_tables(n, up)
        except MalformedTables:
            continue
        survivors.append(up)

    def isomorphic(u, v):
        for perm in permutations(mids):
            pi = {0: 0, n - 1: n - 1}
            pi.update({x: y for x, y in zip(mids, perm)})
            image = [0] * n
            for x in range(n):
                for y in range(n):
                    if u[x] >> y & 1:
                        image[pi[x]] |= 1 << pi[y]
            if tuple(image) == v:
                return True
        return False

    classes = []
    for u in survivors:
        if not any(isomorphic(u, v) for v in classes):
            classes.append(u)
    return classes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lattice_counts_match_oracle(n):
    classes = _lattice_classes_oracle(n)
    lattices = enumerate_lattices(n)
    assert len(lattices) == len(classes)
    assert {_lattice_key(n, up, 0, n - 1) for up in classes} == {
        _lattice_key(n, lat.up, lat.bot, lat.top) for lat in lattices
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_enumerated_lattices_pass_the_lattice_axioms(n):
    """The census checks no enumerated lattice: `order_tables` gives the
    tables of a bounded order, which are a lattice's, or raises.  This
    is where that is checked, on every lattice the census searches."""
    assert not any(structure.lattice_violations(lat) for lat in enumerate_lattices(n))


def _outcome(fn, *args):
    """fn(*args), or the message of the MalformedTables it raises."""
    try:
        return fn(*args)
    except MalformedTables as exc:
        return str(exc)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_order_tables_match_reference_on_every_bounded_order(n):
    """On the candidates of `test_lattice_counts_match_oracle`, lattices
    or not, `order_tables` gives the reference's tables, or raises the
    reference's `MalformedTables` text: the same first failing pair, the
    join before the meet."""
    refused = 0
    for up in _bounded_orders(n):
        expected = _outcome(ref.order_tables, n, up)
        assert _outcome(order_tables, n, up) == expected, up
        refused += isinstance(expected, str)
    # Bounded orders of at most five elements are all lattices.
    assert (refused > 0) == (n == 6)


def test_lattice_size_bounds():
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(1)
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(9)


@pytest.mark.parametrize("size", [6.0, "6", None])
def test_search_spec_refuses_a_size_that_is_not_an_int(size):
    """A size that is not an int is refused when the spec is built, as
    `enumerate_lattices` refuses it, not on the first record."""
    with pytest.raises(SizeOutOfRange):
        SearchSpec(size=size)
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(size)


def _times_tables_oracle(lat):
    """Every commutative table with the bot and identity rows fixed, in
    the lexicographic order of its upper-triangle middle cells, kept when
    monotone, associative and residuated: {x | x * y <= z} has a maximum
    for every y and z."""
    n, bot, top = lat.n, lat.bot, lat.top
    mids = [i for i in range(n) if i not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    pairs = [(x, x2) for x in range(n) for x2 in range(n) if structure.leq(lat, x, x2)]
    out = []
    for values in product(range(n), repeat=len(cells)):
        t = [[None] * n for _ in range(n)]
        for z in range(n):
            t[bot][z] = t[z][bot] = bot
            t[top][z] = t[z][top] = z
        for (x, y), v in zip(cells, values):
            t[x][y] = t[y][x] = v
        monotone = all(structure.leq(lat, t[x][y], t[x2][y]) for x, x2 in pairs for y in range(n))
        if (
            monotone
            and all(
                t[t[x][y]][z] == t[x][t[y][z]]
                for x in range(n)
                for y in range(n)
                for z in range(n)
            )
            and all(_has_maximum(lat, t, y, z) for y in range(n) for z in range(n))
        ):
            out.append(tuple(map(tuple, t)))
    return out


def _has_maximum(lat, t, y, z):
    below = [x for x in range(lat.n) if structure.leq(lat, t[x][y], z)]
    return any(all(structure.leq(lat, x, m) for x in below) for m in below)


def _both_labelings(n):
    """Each lattice of size n as enumerated, where joins get the lower
    numbers, and with its middle elements numbered in reverse, where the
    cell of a join is filled after the cells of its parts (as in a base
    lattice file that lists elements bottom up)."""
    pi = [0, *range(n - 2, 0, -1), n - 1]
    for lat in enumerate_lattices(n):
        up = [0] * n
        for x in range(n):
            for y in range(n):
                if structure.leq(lat, x, y):
                    up[pi[x]] |= 1 << pi[y]
        yield lat
        yield Lattice(n, lat.names, *order_tables(n, up), 0, n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_times_tables_match_brute_force(n):
    for lat in _both_labelings(n):
        assert _times_tables(lat) == _times_tables_oracle(lat)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_product_table_derives_a_residuum(n):
    for lat in _both_labelings(n):
        for times in _times_tables(lat):
            assert validate_structure(_structure(lat, times)).valid


def _structure(lat, times):
    """The census structure over `lat` with product table `times`."""
    return lat.structure(times, _derive_residuum(times, *_residuum_state(lat)))


def _residuum_by_definition(lat, times):
    """residuum[y][z] as the join, folded from bot, of {x | x * y <= z}."""
    rows = []
    for y in range(lat.n):
        row = []
        for z in range(lat.n):
            best = lat.bot
            for x in range(lat.n):
                if structure.leq(lat, times[x][y], z):
                    best = lat.join[best][x]
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_residuum_matches_definition(n):
    for lat in _both_labelings(n):
        state = _residuum_state(lat)
        for times in _times_tables(lat):
            assert _derive_residuum(times, *state) == _residuum_by_definition(lat, times)


class _CountedLookups(dict):
    """A dict that counts its `[]` lookups."""

    calls = 0

    def __getitem__(self, key):
        _CountedLookups.calls += 1
        return super().__getitem__(key)


# Distinct product rows, summed over the lattices of each size: the rows
# `_derive_residuum` derives over the whole census.
RESIDUUM_ROWS = {5: 43, 6: 185, 7: 831, 8: 4328}


@pytest.mark.parametrize("n", [5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_residuum_rows_are_derived_once_per_lattice(n):
    """`_derive_residuum` derives each distinct product row once per
    lattice, in n lookups of its "v <= z" bytes, and reads it back from
    the rows of the lattice's `_residuum_state` after that.  The tables
    are taken round-robin over the lattices, so a memo shared across
    lattices, or one that keeps only the last lattice's rows, gives wrong
    residua (checked against the definition at sizes 5 and 6) or derives
    more rows."""
    lattices = enumerate_lattices(n)
    found = [_times_tables(lat) for lat in lattices]
    states = [
        (columns, _CountedLookups(element), rows)
        for columns, element, rows in map(_residuum_state, lattices)
    ]
    _CountedLookups.calls = 0
    for group in zip_longest(*found):
        for lat, state, times in zip(lattices, states, group):
            if times is not None:
                residuum = _derive_residuum(times, *state)
                if n <= 6:
                    assert residuum == _residuum_by_definition(lat, times)
    assert _CountedLookups.calls == n * RESIDUUM_ROWS[n]
    assert sum(len(rows) for _, _, rows in states) == RESIDUUM_ROWS[n]


# What a search may add to a base lattice or structure, or hand a record
# beside its tables: order data, read off the join table.
ORDER_DATA = {"full", "up", "down", "incomparable", "join_primes"}


def test_structure_shares_its_lattice_order_data():
    """A census record's structure holds its lattice's `up`, `down` and
    `incomparable` themselves, not copies, and nothing beside its tables
    but order data; every lattice of size 6 that carries a product."""
    tables = {field.name for field in fields(Structure)}
    shared = 0
    for lat in enumerate_lattices(6):
        for record in enumerate_residuated(SearchSpec(size=6, base_lattice=lat)):
            s = record.structure
            assert s.up is lat.up and s.down is lat.down
            assert s.incomparable is lat.incomparable
            assert vars(s).keys() <= tables | ORDER_DATA
            shared += 1
    assert shared == 129


def test_a_search_leaves_only_order_data_on_its_base(fixtures_dir):
    """A search over a base `Lattice` built by `load_lattice`, and over a
    base `Structure`, adds nothing to the base but order data: the
    residuum lookups and rows of the search die with its run over the
    lattice.  A `Structure` has no `residuum_*` member at all."""
    lat, _ = load_lattice(fixtures_dir / "a6.json")
    s, _ = load_structure(fixtures_dir / "a6.json")
    for base in (lat, s):
        before = vars(base).keys() - ORDER_DATA
        assert list(enumerate_residuated(SearchSpec(6, base)))
        assert vars(base).keys() - ORDER_DATA == before
    assert not [name for name in dir(s) if name.startswith("residuum_")]


def test_census_streams_one_lattice_at_a_time(monkeypatch):
    """The size-6 census searches a lattice only once the records of the
    lattice before it have all been yielded: when the first record is
    yielded exactly one lattice has been searched, each record's lattice
    is the last one searched, and each lattice's records are contiguous."""
    search, searched = _times_tables, []

    def counted(lat):
        searched.append(lat)
        return search(lat)

    monkeypatch.setattr(modelgen, "_times_tables", counted)
    at_yield = [
        (len(searched), record.structure.up)
        for record in enumerate_residuated(SearchSpec(size=6))
    ]
    assert at_yield[0][0] == 1
    assert all(searched[count - 1].up is up for count, up in at_yield)
    counts = [count for count, _ in at_yield]
    assert counts == sorted(counts) and len(set(counts)) == len(searched) == 7


def test_incomparable_pairs_match_the_order():
    for n in range(2, 8):
        for lat in enumerate_lattices(n):
            assert lat.incomparable == tuple(
                (x, y)
                for x in range(n)
                for y in range(x + 1, n)
                if not structure.leq(lat, x, y) and not structure.leq(lat, y, x)
            )


def _raw_residuated_oracle(lat):
    """No-pruning reference: enumerate every commutative table with the
    identity row fixed, derive the residuum by definition, and keep the
    assignments that validate."""
    n = lat.n
    cells = [
        (x, y)
        for x in range(n)
        for y in range(x, n)
        if x != lat.top and y != lat.top
    ]
    found = []
    for values in product(range(n), repeat=len(cells)):
        table = [[None] * n for _ in range(n)]
        for z in range(n):
            table[lat.top][z] = table[z][lat.top] = z
        for (x, y), v in zip(cells, values):
            table[x][y] = table[y][x] = v
        residuum = []
        ok = True
        for y in range(n):
            row = []
            for z in range(n):
                sset = [x for x in range(n) if structure.leq(lat, table[x][y], z)]
                best = None
                for m in sset:
                    if all(structure.leq(lat, x, m) for x in sset):
                        best = m
                        break
                if best is None:
                    ok = False
                    break
                row.append(best)
            if not ok:
                break
            residuum.append(tuple(row))
        if not ok:
            continue
        s = Structure(
            n=n,
            names=lat.names,
            join=lat.join,
            meet=lat.meet,
            times=tuple(tuple(r) for r in table),
            residuum=tuple(residuum),
            bot=lat.bot,
            top=lat.top,
        )
        if validate_structure(s).valid:
            found.append(s)
    return found


def test_three_chain_census_matches_raw_oracle():
    (chain3,) = enumerate_lattices(3)
    raw = _raw_residuated_oracle(chain3)
    keys = {canonical_key(s) for s in raw}
    assert len(keys) == 2
    fast = list(enumerate_residuated(SearchSpec(size=3)))
    assert len(fast) == 2
    assert {r.canonical_key for r in fast} == keys


def test_size_four_census_matches_raw_oracle():
    fast = {r.canonical_key for r in enumerate_residuated(SearchSpec(size=4))}
    raw = set()
    for lat in enumerate_lattices(4):
        raw |= {canonical_key(s) for s in _raw_residuated_oracle(lat)}
    assert fast == raw


def test_size_two_census():
    recs = list(enumerate_residuated(SearchSpec(size=2)))
    assert len(recs) == 1
    s = recs[0].structure
    assert s.times[s.top][s.top] == s.top


# Belohlavek & Vychodil, "Residuated lattices of size <= 12", Order 27 (2010).
@pytest.mark.parametrize("size, count", [(2, 1), (3, 2), (4, 7), (5, 26), (6, 129)])
def test_census_matches_published_counts(size, count):
    assert sum(1 for _ in enumerate_residuated(SearchSpec(size=size))) == count


def _index_mtl_counts(records):
    return Counter((r.stats.normality_index, r.stats.mtl) for r in records)


def test_size_seven_census_counts():
    counts = _index_mtl_counts(enumerate_residuated(SearchSpec(size=7)))
    assert sum(counts.values()) == 723
    assert counts == {(1, False): 258, (1, True): 451, (2, False): 1, (2, True): 13}


@pytest.mark.slow
def test_size_eight_census_counts():
    records = list(enumerate_residuated(SearchSpec(size=8)))
    _assert_stats_match_analysis(records)
    assert all(validate_structure(r.structure).valid for r in records)
    counts = _index_mtl_counts(records)
    assert sum(counts.values()) == 4712
    # The zero-divisor identity of tests/test_subvarieties.py at size 8.
    assert sum(has_no_zero_divisors(r.structure) for r in records) == 723
    # Its products: A x B for the one 2-element class A and each of the
    # seven 4-element classes B.
    [two], fours = (
        [r.structure for r in enumerate_residuated(SearchSpec(size=n))] for n in (2, 4)
    )
    assert len(fours) == 7
    assert_products_in_census([(two, b) for b in fours], {r.canonical_key for r in records})
    assert counts == {
        (1, False): 2248,
        (1, True): 2393,
        (2, False): 11,
        (2, True): 60,
    }


def _burnside_count(size):
    """Isomorphism classes of residuated products by Burnside's lemma,
    with no canonical key: over each lattice L, the classes on L number
    (1/|Aut L|) * sum of |Stab(T)| over the product tables T on L, and
    Aut(L) is found by brute force over the permutations of the middle
    elements that fix the join table."""
    total = 0
    for lat in enumerate_lattices(size):
        n, join = lat.n, lat.join
        assert (lat.bot, lat.top) == (0, n - 1)
        pairs = list(product(range(n), repeat=2))
        auts = [
            pi
            for pi in ((0, *middle, n - 1) for middle in permutations(range(1, n - 1)))
            if all(join[pi[x]][pi[y]] == pi[join[x][y]] for x, y in pairs)
        ]
        fixed = sum(
            all(t[pi[x]][pi[y]] == pi[t[x][y]] for x, y in pairs)
            for t in _times_tables(lat)
            for pi in auts
        )
        assert fixed % len(auts) == 0
        total += fixed // len(auts)
    return total


@pytest.mark.parametrize("size", range(2, 8))
def test_burnside_count_matches_census(size):
    assert _burnside_count(size) == sum(1 for _ in enumerate_residuated(SearchSpec(size=size)))


@pytest.mark.slow
def test_burnside_count_size_eight():
    assert _burnside_count(8) == 4712


def test_census_structures_validate(census, fixtures_dir):
    """The census checks no product axiom: they hold on every table by
    construction (see `enumerate_residuated`).  This is where that is
    checked, with and without canonical_only: on every record of sizes 2
    to 7 (888 classes, 1,018 tables), and on every record over each
    fixture's lattice, as labelled in its file.  Each record is built by
    `Lattice.structure`, which does not check its lattice part again; it
    equals the `Structure(...)` of the same tables, which checks all of
    them.  The size-8 census is checked in `test_size_eight_census_counts`."""
    structures = [s for n in range(2, 8) for s in census[n]]
    tables = [
        r.structure
        for n in range(2, 8)
        for r in enumerate_residuated(SearchSpec(size=n, canonical_only=False))
    ]
    assert (len(structures), len(tables)) == (888, 1018)
    structures += tables
    for path in sorted(fixtures_dir.glob("*.json")):
        s, _ = load_structure(path)
        if s.n <= MAX_SIZE:
            for canonical_only in (True, False):
                spec = SearchSpec(s.n, s, canonical_only)
                structures += [r.structure for r in enumerate_residuated(spec)]
    names = [field.name for field in fields(Structure)]
    for s in structures:
        assert validate_structure(s).valid
        assert s == Structure(**{name: getattr(s, name) for name in names})


def test_census_checks_no_axiom_and_builds_each_class_once(monkeypatch):
    """Each table is shape-checked once: the join and meet tables of each
    of the 15 size-6 lattices when it is built, and the times and residuum
    tables of each of the 129 emitted classes when `Lattice.structure`
    builds its record, which does not check the lattice part again: 288
    calls of `_checked_table`, where building each record by
    `Structure(...)` would make 546.  The search finds 142 product
    tables, and only the 7 lattices that pass `_splits_at_top` get a cut
    schedule: each of them has a product table, so it also gets its join
    coset.  No axiom is checked: the enumerated lattices are lattices and
    the products are residuated by construction, so neither
    `lattice_violations` (wrapped in both modules), `product_violations`
    nor `validate_structure` is called."""
    calls = Counter()

    def counted(part):
        def run(*args, **kwargs):
            calls[part.__name__] += 1
            return part(*args, **kwargs)

        return run

    lattice_violations = counted(structure.lattice_violations)
    monkeypatch.setattr(modelgen, "lattice_violations", lattice_violations)
    monkeypatch.setattr(structure, "lattice_violations", lattice_violations)
    checks = (structure._checked_table, structure.product_violations, structure.validate_structure)
    for part in checks:
        monkeypatch.setattr(structure, part.__name__, counted(part))
    for part in (modelgen._cut_schedule, modelgen.coset):
        monkeypatch.setattr(modelgen, part.__name__, counted(part))
    assert len(list(enumerate_residuated(SearchSpec(size=6)))) == 129
    assert calls == {"_checked_table": 2 * 15 + 2 * 129, "_cut_schedule": 7, "coset": 7}
    lattices = enumerate_lattices(6)
    assert sum(len(_times_tables(lat)) for lat in lattices) == 142
    assert sum(1 for lat in lattices if _times_tables(lat)) == 7


def test_search_spec_refuses_a_base_lattice_failing_its_axioms(bad_base_lattice, fixtures_dir):
    """`SearchSpec` checks a base lattice, once, for the library and the
    command line alike: the size range first, then the size, then the
    first axiom `lattice_violations` finds it fails, with its witness.
    The lattice of each fixture of at most `MAX_SIZE` elements passes."""
    path, axiom, witness = bad_base_lattice
    lat, _ = load_lattice(path)
    with pytest.raises(InvalidBaseLattice) as info:
        SearchSpec(lat.n, lat)
    assert str(info.value) == (
        "join/meet tables are not the operations of a bounded lattice: "
        f"{axiom} fails at {witness}"
    )
    with pytest.raises(InvalidBaseLattice, match="^base lattice size disagrees"):
        SearchSpec(lat.n - 1, lat)
    with pytest.raises(SizeOutOfRange):
        SearchSpec(MAX_SIZE + 1, lat)
    passed = [
        SearchSpec(fixture.n, fixture)
        for fixture, _ in map(load_lattice, sorted(fixtures_dir.glob("*.json")))
        if fixture.n <= MAX_SIZE
    ]
    assert len(passed) == 4


def test_canonical_only_prunes_soundly():
    full = list(enumerate_residuated(SearchSpec(size=4, canonical_only=False)))
    pruned = list(enumerate_residuated(SearchSpec(size=4)))
    assert len(full) >= len(pruned)
    seen = []
    for rec in full:
        if rec.canonical_key not in seen:
            seen.append(rec.canonical_key)
    assert seen == [r.canonical_key for r in pruned]


def test_emission_is_sorted_and_deterministic():
    first = [r.canonical_key for r in enumerate_residuated(SearchSpec(size=4))]
    second = [r.canonical_key for r in enumerate_residuated(SearchSpec(size=4))]
    assert first == second == sorted(first)


def test_canonical_key_is_relabeling_invariant(a6):
    key = canonical_key(a6)
    perm = [0, 3, 1, 4, 2, 5]  # bot and top fixed, middles shuffled

    def relabel(table):
        out = [[0] * a6.n for _ in range(a6.n)]
        for x in range(a6.n):
            for y in range(a6.n):
                out[perm[x]][perm[y]] = perm[table[x][y]]
        return tuple(tuple(r) for r in out)

    shuffled = Structure(
        n=a6.n,
        names=tuple(a6.names[perm.index(i)] for i in range(a6.n)),
        join=relabel(a6.join),
        meet=relabel(a6.meet),
        times=relabel(a6.times),
        residuum=relabel(a6.residuum),
        bot=perm[a6.bot],
        top=perm[a6.top],
    )
    assert validate_structure(shuffled).valid
    assert canonical_key(shuffled) == key


def test_census_over_a6_lattice_contains_a6(a6):
    keys = {
        r.canonical_key
        for r in enumerate_residuated(SearchSpec(size=6, base_lattice=a6))
    }
    assert canonical_key(a6) in keys


def test_base_lattice_size_must_match(a6):
    with pytest.raises(InvalidBaseLattice):
        SearchSpec(size=4, base_lattice=a6)


def test_census_stats_for_a6_lattice(a6):
    target = canonical_key(a6)
    for rec in enumerate_residuated(SearchSpec(size=6, base_lattice=a6)):
        if rec.canonical_key == target:
            assert rec.stats.filters == 5
            assert rec.stats.primes == 3
            assert rec.stats.minimal_primes == 1
            assert rec.stats.normality_index == 1
            assert rec.stats.mtl is False
            break
    else:
        raise AssertionError("fixture structure missing from its own census")


def _assert_stats_match_analysis(records):
    """Each record's stats are the counts of the analysis routines over
    the trivial filter {top}, and computing them ran none of those
    routines: the record's structure has no `memos` yet."""
    for rec in records:
        s = rec.structure
        assert "memos" not in vars(s)
        trivial = 1 << s.top
        assert rec.stats == CensusStats(
            filters=len(all_filters(s)),
            primes=len(primes_of(s)),
            minimal_primes=len(minimal_primes_over(s, trivial)),
            normality_index=normality_report(s, trivial).index,
            mtl=is_mtl(s),
        )


@pytest.mark.parametrize("canonical_only", [True, False])
@pytest.mark.parametrize("n", range(2, 8))
def test_census_stats_match_analysis(n, canonical_only):
    _assert_stats_match_analysis(
        enumerate_residuated(SearchSpec(size=n, canonical_only=canonical_only))
    )


def test_census_stats_over_fixture_lattices_match_analysis(fixtures_dir):
    """Every product table over each fixture's lattice, as labelled in
    its file."""
    for path in sorted(fixtures_dir.glob("*.json")):
        s, _ = load_structure(path)
        if s.n <= MAX_SIZE:
            spec = SearchSpec(size=s.n, base_lattice=s, canonical_only=False)
            _assert_stats_match_analysis(enumerate_residuated(spec))


@pytest.mark.parametrize("n", range(2, MAX_SIZE + 1))
def test_join_primes_match_prime_filter_test(n):
    """e is join-prime exactly when up(e) passes `spectra.is_prime`,
    which reads only the lattice reduct: the product and residuum of the
    structure built here are the meet, as placeholders."""
    for lat in _both_labelings(n):
        s = Structure(
            n=lat.n,
            names=lat.names,
            join=lat.join,
            meet=lat.meet,
            times=lat.meet,
            residuum=lat.meet,
            bot=lat.bot,
            top=lat.top,
        )
        expected = sum(1 << e for e in range(n) if is_prime(s, s.up[e]))
        assert lat.join_primes == expected


def _relabel(s, perm):
    """The structure with element x renamed to perm[x]."""
    n = s.n

    def table(rows):
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                out[perm[x]][perm[y]] = perm[rows[x][y]]
        return tuple(map(tuple, out))

    return Structure(
        n=n,
        names=tuple(s.names[perm.index(i)] for i in range(n)),
        join=table(s.join),
        meet=table(s.meet),
        times=table(s.times),
        residuum=table(s.residuum),
        bot=perm[s.bot],
        top=perm[s.top],
    )


def _isomorphic(s, t):
    """Some bijection sending bot to bot and top to top carries all four
    tables of s onto those of t."""
    if s.n != t.n:
        return False
    n = s.n
    s_mids = [i for i in range(n) if i not in (s.bot, s.top)]
    t_mids = [i for i in range(n) if i not in (t.bot, t.top)]
    pairs = list(
        zip((s.join, s.meet, s.times, s.residuum), (t.join, t.meet, t.times, t.residuum))
    )
    for image in permutations(t_mids):
        pi = {s.bot: t.bot, s.top: t.top, **dict(zip(s_mids, image))}
        if all(
            b[pi[x]][pi[y]] == pi[a[x][y]]
            for a, b in pairs
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def test_canonical_key_matches_isomorphism_oracle():
    rng = random.Random(2010)
    structures = []
    for n in range(2, 6):
        for rec in enumerate_residuated(SearchSpec(size=n, canonical_only=False)):
            perm = list(range(n))
            rng.shuffle(perm)
            structures += [rec.structure, _relabel(rec.structure, perm)]
    classes = {}
    for s in structures:
        classes.setdefault(canonical_key(s), []).append(s)
    for first, *rest in classes.values():
        assert all(_isomorphic(first, s) for s in rest)
    reps = [members[0] for members in classes.values()]
    for i, s in enumerate(reps):
        assert not any(_isomorphic(s, t) for t in reps[i + 1 :])


def _single_stage_key(s):
    """Reference key: the least join || meet || times || residuum over
    every relabeling that sends bot to 0 and top to n - 1."""
    n = s.n
    tables = (s.join, s.meet, s.times, s.residuum)

    def relabeled(pi):
        buf = bytearray(4 * n * n)
        for k, table in enumerate(tables):
            for x in range(n):
                for y in range(n):
                    buf[(k * n + pi[x]) * n + pi[y]] = pi[table[x][y]]
        return bytes(buf)

    return min(map(relabeled, ref.relabelings(n, s.bot, s.top)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_stage_key_matches_single_stage(n):
    rng = random.Random(n)
    for lat in enumerate_lattices(n):
        for times in _times_tables(lat):
            s = _structure(lat, times)
            perm = list(range(n))
            rng.shuffle(perm)
            for t in (s, _relabel(s, perm)):
                key = _single_stage_key(t)
                assert canonical_key(t) == key


def _automorphism_count(lat):
    n = lat.n
    mids = [i for i in range(n) if i not in (lat.bot, lat.top)]
    count = 0
    for image in permutations(mids):
        pi = {lat.bot: lat.bot, lat.top: lat.top, **dict(zip(mids, image))}
        if all(
            structure.leq(lat, pi[x], pi[y]) == structure.leq(lat, x, y)
            for x in range(n)
            for y in range(n)
        ):
            count += 1
    return count


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_coset_is_one_automorphism_coset(n):
    for lat in enumerate_lattices(n):
        _, relabelings = coset(lat)
        assert len(relabelings) == _automorphism_count(lat)
        images = set()
        for pi in (list(r.values[:n]) for r in relabelings):
            image = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    image[pi[x]][pi[y]] = pi[lat.join[x][y]]
            images.add(tuple(map(tuple, image)))
        assert len(images) == 1


def _assert_census_matches_reference(lat):
    """The lattice's join and meet tables, the product tables, the coset,
    the lattice key and every table's residuum and canonical key are
    those of the direct routines, lists in order."""
    n = lat.n
    assert order_tables(n, lat.up) == ref.order_tables(n, lat.up) == (lat.join, lat.meet)
    reference = ref.join_coset(n, lat.join, lat.bot, lat.top)
    head, relabelings = coset(lat)
    assert tuple(list(r.values[:n]) for r in relabelings) == reference
    assert _lattice_key(n, lat.up, lat.bot, lat.top) == ref.lattice_key(
        n, lat.up, lat.bot, lat.top
    )
    tables = _times_tables(lat)
    assert tables == ref.times_tables(lat)
    state = _residuum_state(lat)
    for times in tables:
        residuum = _derive_residuum(times, *state)
        assert residuum == ref.derive_residuum(lat, times)
        key = ref.canonical_key(lat.structure(times, residuum), reference)
        assert _table_key(head, relabelings, _flat(times), _flat(residuum)) == key
    return tables


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)]
)
def test_census_routines_match_reference(n):
    for lat in _both_labelings(n):
        _assert_census_matches_reference(lat)


def _renumbered(lat, pi):
    """`lat` with each element x renumbered pi[x]."""
    n = lat.n
    up = [0] * n
    for x in range(n):
        for y in bits(lat.up[x]):
            up[pi[x]] |= 1 << pi[y]
    return Lattice(n, lat.names, *order_tables(n, up), pi[lat.bot], pi[lat.top])


@pytest.mark.parametrize("n", [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_product_search_matches_reference_under_renumbering(n):
    """Which triples the associativity test reads at each cell, and so
    what it prunes, depends on the numbering.  Three seeded random
    renumberings of every lattice, each moving bot off 0 and top off
    n - 1, give the tables of the reference search, which tests
    associativity on complete tables only."""
    rng = random.Random(n)
    for lat in enumerate_lattices(n):
        for _ in range(3):
            pi = list(range(n))
            while pi[lat.bot] == 0 or pi[lat.top] == n - 1:
                rng.shuffle(pi)
            renumbered = _renumbered(lat, pi)
            assert _times_tables(renumbered) == ref.times_tables(renumbered)


# Lattices of each size that fail `_splits_at_top`, of all enumerated.
SPLIT_FAILURES = {
    2: (0, 1), 3: (0, 1), 4: (0, 2), 5: (2, 5), 6: (8, 15), 7: (34, 53), 8: (157, 222)
}


@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)]
)
def test_lattices_failing_the_split_test_carry_no_product(n):
    """The census searches no lattice where some x != (x ^ p) v (x ^ q)
    with p v q = top; `_splits_at_top`'s docstring proves that no product
    preserving joins with top as identity exists there.  Both searches,
    neither of which tests the split, find none on any of them, in both
    labelings.  `_splits_at_top` is read against the definition on every
    pair and every x."""
    failed = 0
    for lat in _both_labelings(n):
        rng = range(n)
        by_definition = all(
            lat.join[lat.meet[x][p]][lat.meet[x][q]] == x
            for p in rng
            for q in rng
            if lat.join[p][q] == lat.top
            for x in rng
        )
        assert _splits_at_top(lat) == by_definition
        if not by_definition:
            failed += 1
            assert _times_tables(lat) == ref.times_tables(lat) == []
    failing, lattices = SPLIT_FAILURES[n]
    assert (failed, len(enumerate_lattices(n))) == (2 * failing, lattices)


# Over the lattices of each size that pass `_splits_at_top`: the steps of
# `_cut_schedule` (one per middle cell), its one-cell cuts, its two-cell
# cuts, and the associativity triples it lists in the inner and the outer
# role.
SCHEDULE_CUTS = {
    5: (18, 24, 3, 27, 25),
    6: (70, 136, 32, 168, 205),
    7: (285, 720, 230, 950, 1444),
    8: (1365, 4206, 1644, 5850, 10025),
}


@pytest.mark.parametrize("n", [5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_cut_schedule_keeps_every_cut(n):
    """How much the schedule prunes, pinned: a change that drops a cut or
    a triple, or splits a cut into two, changes these sums, even where the
    search still finds the same tables, only more slowly."""
    sums = [0] * 5
    for lat in enumerate_lattices(n):
        if _splits_at_top(lat):
            steps = modelgen._cut_schedule(lat, [[0] * n for _ in range(n)])
            sums[0] += len(steps)
            for k, part in enumerate((5, 6, 8, 9), start=1):
                sums[k] += sum(len(step[part]) for step in steps)
    assert tuple(sums) == SCHEDULE_CUTS[n]


def test_import_builds_no_relabeling_maps():
    """The relabeling maps are built on first use, not when the package
    and its command line are imported."""
    code = (
        "import reslat, reslat.cli, reslat.modelgen as m; "
        "print(m._relabeling_maps.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "0\n"


def test_census_builds_one_map_set_per_size():
    """A census of size n builds the relabeling maps of each size 2..n
    once, `_relabeling_maps(k, 0, k - 1)`: the one-point extensions that
    grow the lattices of size k number top last, so their keys read the
    maps the cosets of size k read.  Each map is one gather and one
    translate table, nothing more."""
    code = (
        "import reslat.modelgen as m\n"
        "for n in range(4, 9):\n"
        "    m._relabeling_maps.cache_clear()\n"
        "    for _ in m.enumerate_residuated(m.SearchSpec(size=n)):\n"
        "        pass\n"
        "    built = m._relabeling_maps.cache_info().currsize\n"
        "    maps = [r for k in range(2, n + 1) for r in m._relabeling_maps(k, 0, k - 1)]\n"
        "    fields = {r._fields for r in maps}\n"
        "    print(n, built, m._relabeling_maps.cache_info().currsize, sorted(fields))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == [
        f"{n} {n - 1} {n - 1} [('one', 'values')]" for n in range(4, 9)
    ]


def test_census_over_renumbered_a6_matches_reference(a6):
    """Bot and top in the middle of the carrier: the census over a6's
    lattice emits the reference tables, keyed as the reference keys them,
    with the stats of the analysis routines."""
    perm = [2, 0, 4, 5, 1, 3]
    s = _relabel(a6, perm)
    lat = Lattice(s.n, s.names, s.join, s.meet, s.bot, s.top)
    assert (lat.bot, lat.top) == (2, 3)
    assert canonical_key(s) == ref.canonical_key(s) == canonical_key(a6)
    tables = _assert_census_matches_reference(lat)
    reference = ref.join_coset(lat.n, lat.join, lat.bot, lat.top)
    expected = sorted(
        ((ref.canonical_key(_structure(lat, t), reference), t) for t in tables),
        key=itemgetter(0),
    )
    records = list(enumerate_residuated(SearchSpec(size=6, base_lattice=lat, canonical_only=False)))
    _assert_stats_match_analysis(records)
    assert [(r.canonical_key, r.structure.times) for r in records] == expected


def test_census_stages_script_times_every_stage(capsys):
    import census_stages

    census_stages.main(["--size", "5", "--repeat", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line[:26].strip() for line in lines] == [
        "lattices",
        "product search",
        "coset",
        "residuum",
        "key",
        "sort",
        "Structure",
        "stats, lattice part",
        "stats, per class",
        "sum of stages",
        "end to end",
        "tracemalloc peak",
    ]
    assert lines[-2].endswith(" 26 records")
    assert lines[-1].endswith(" MB") and float(lines[-1].split()[-2]) > 0
    # The census keys a lattice's coset when it passes `_splits_at_top`,
    # and reads its join-prime elements only when it has a product table:
    # 3 of the 5 lattices of size 5 either way.
    calls = {line[:26].strip(): int(line.split()[-2]) for line in lines[:-3]}
    lattices = enumerate_lattices(5)
    split = sum(1 for lat in lattices if _splits_at_top(lat))
    used = sum(1 for lat in lattices if _times_tables(lat))
    assert calls["coset"] == split == 3
    assert calls["stats, lattice part"] == used == 3
