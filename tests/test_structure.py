import json
import random
from dataclasses import replace
from itertools import product

import modelgen_reference as ref
import pytest

from reslat.errors import MalformedTables, StructureFileError
from reslat.bitsets import bits
from reslat.fileformat import load_structure, parse_structure
from reslat.filters import all_filters
from reslat.modelgen import SearchSpec, enumerate_residuated
from reslat.structure import (
    Lattice,
    Structure,
    ValidationReport,
    covers,
    is_mtl,
    lattice_violations,
    leq,
    order_from_pairs,
    order_tables,
    product_violations,
    subset_repr,
    validate_structure,
)


def test_a6_is_valid(a6):
    report = validate_structure(a6)
    assert report.valid
    assert report.violations == ()


def test_two_element_chain_is_valid(chain2):
    assert validate_structure(chain2).valid


def test_validation_is_pure(a6):
    assert validate_structure(a6) == validate_structure(a6)


def test_corrupted_product_entry_reports_adjointness_witness(a6):
    # a*c changed from 0 to a (kept symmetric); the first adjointness
    # failure in lexicographic order is at (a, c, 0).
    a, c = a6.element("a"), a6.element("c")
    times = [list(row) for row in a6.times]
    times[a][c] = times[c][a] = a
    bad = Structure(
        n=a6.n,
        names=a6.names,
        join=a6.join,
        meet=a6.meet,
        times=times,
        residuum=a6.residuum,
        bot=a6.bot,
        top=a6.top,
    )
    report = validate_structure(bad)
    assert not report.valid
    assert ("adjointness", (a, c, 0)) in report.violations


def test_malformed_tables_rejected(a6):
    with pytest.raises(MalformedTables):
        Structure(
            n=2,
            names=("0", "1"),
            join=((0, 1), (1,)),
            meet=((0, 0), (0, 1)),
            times=((0, 0), (0, 1)),
            residuum=((1, 1), (0, 1)),
            bot=0,
            top=1,
        )
    with pytest.raises(MalformedTables):
        Structure(
            n=2,
            names=("0", "1"),
            join=((0, 5), (1, 1)),
            meet=((0, 0), (0, 1)),
            times=((0, 0), (0, 1)),
            residuum=((1, 1), (0, 1)),
            bot=0,
            top=1,
        )
    with pytest.raises(MalformedTables):
        Structure(
            n=2,
            names=("0", "1"),
            join=((0, 1), (1, 1)),
            meet=((0, 0), (0, 1)),
            times=((0, 0), (0, 1)),
            residuum=((1, 1), (0, 1)),
            bot=1,
            top=1,
        )


CHAIN2 = dict(
    n=2,
    names=("0", "1"),
    join=((0, 1), (1, 1)),
    meet=((0, 0), (0, 1)),
    times=((0, 0), (0, 1)),
    residuum=((1, 1), (0, 1)),
    bot=0,
    top=1,
)
TABLES = ("join", "meet", "times", "residuum")
LATTICE2 = {field: CHAIN2[field] for field in ("n", "names", "join", "meet", "bot", "top")}


def _through_lattice(**fields):
    """`Lattice.structure` of the product tables in `fields`, over the
    `Lattice` of its lattice part."""
    lattice = Lattice(**{field: fields[field] for field in LATTICE2})
    return lattice.structure(fields["times"], fields["residuum"])


def _inputs(field):
    """CHAIN2 as a `Structure` and, when `field` is one of its fields,
    LATTICE2 as a library `Lattice`: both run the one shape check.  When
    `field` is a product table, CHAIN2 through `Lattice.structure`, which
    runs that check on the product tables alone."""
    through = (Lattice, LATTICE2) if field in LATTICE2 else (_through_lattice, CHAIN2)
    return [(Structure, CHAIN2), through]


def _message(field, value):
    """The one `MalformedTables` text that every input of `_inputs(field)`
    gives with `field` set to `value`."""
    messages = set()
    for build, fields in _inputs(field):
        with pytest.raises(MalformedTables) as info:
            build(**{**fields, field: value})
        messages.add(str(info.value))
    [message] = messages
    return message


@pytest.mark.parametrize("attr", TABLES)
@pytest.mark.parametrize("entry", [1.5, "a", None, -1, 2, 256])
def test_table_entry_that_is_no_index_rejected(attr, entry):
    rows = [list(row) for row in CHAIN2[attr]]
    rows[1][0] = entry
    assert _message(attr, rows).startswith(f"{attr} table entry")


@pytest.mark.parametrize("attr", TABLES)
@pytest.mark.parametrize(
    "rows",
    [((0, 1), (1,)), ((0, 1, 1), (1,)), ((0, 1),), ((0, 1), (1, 1), (1, 1)), ((0, 1), 1), 5],
)
def test_table_of_wrong_shape_rejected(attr, rows):
    assert _message(attr, rows) == f"{attr} table is not 2x2"


@pytest.mark.parametrize(
    "field, value",
    [("bot", 0.0), ("top", 1.0), ("n", 2.0), ("bot", "0"), ("top", None), ("n", None)],
)
def test_size_bot_and_top_must_be_integers(field, value):
    assert _message(field, value) == "carrier size, bot and top must be integers"


CHAIN3 = dict(
    n=3,
    names=("0", "a", "1"),
    join=tuple(tuple(max(x, y) for y in range(3)) for x in range(3)),
    meet=tuple(tuple(min(x, y) for y in range(3)) for x in range(3)),
    bot=0,
    top=2,
)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("join", CHAIN3["join"][:2], "join table is not 3x3"),
        ("join", ((0, 1, 2), (1, 1, 9), (2, 2, 2)), "join table entry out of range"),
        ("top", 7, "bot/top index out of range"),
        ("bot", 2, "bot and top must be distinct"),
        ("names", ("0", "1"), "name list size disagrees with carrier size"),
    ],
)
def test_malformed_base_lattice_rejected_as_a_structure_is(field, value, message):
    """A library base lattice with a ragged table, an entry or top out of
    range, bot = top, or a name list of another size is refused when it
    is built, with the text a `Structure` gives, before `SearchSpec` could
    index into it or blame an axiom."""
    godel = dict(CHAIN3, times=CHAIN3["meet"], residuum=((2, 2, 2), (0, 2, 2), (0, 1, 2)))
    assert validate_structure(Structure(**godel)).valid
    with pytest.raises(MalformedTables, match=f"^{message}$"):
        Structure(**{**godel, field: value})
    with pytest.raises(MalformedTables, match=f"^{message}$"):
        SearchSpec(size=3, base_lattice=Lattice(**{**CHAIN3, field: value}))


def test_bool_table_entries_stay_accepted():
    s = Structure(**{**CHAIN2, "times": ((False, False), (False, True))})
    assert s.times == ((False, False), (False, True))
    assert validate_structure(s).valid
    built = _through_lattice(**{**CHAIN2, "times": [[False, False], [False, True]]})
    assert type(built) is Structure and built == s


def test_single_element_carrier_rejected():
    with pytest.raises(MalformedTables):
        Structure(
            n=1,
            names=("x",),
            join=((0,),),
            meet=((0,),),
            times=((0,),),
            residuum=((0,),),
            bot=0,
            top=0,
        )


def test_leq_examples(a6):
    a, b, c = (a6.element(x) for x in "abc")
    assert leq(a6, a, b)
    assert not leq(a6, b, c)
    assert not leq(a6, c, b)
    for x in range(a6.n):
        assert leq(a6, x, x)
        assert leq(a6, a6.bot, x)
        assert leq(a6, x, a6.top)


def test_order_agrees_with_residuum(a6):
    for x in range(a6.n):
        for y in range(a6.n):
            assert leq(a6, x, y) == (a6.residuum[x][y] == a6.top)


def test_is_mtl(a6, chain2, chain3_godel, chain3_luk):
    assert not is_mtl(a6)
    assert is_mtl(chain2)
    assert is_mtl(chain3_godel)
    assert is_mtl(chain3_luk)


def _is_mtl_by_definition(s):
    return all(
        s.join[s.residuum[x][y]][s.residuum[y][x]] == s.top
        for x in range(s.n)
        for y in range(s.n)
    )


def test_is_mtl_matches_its_definition(census, fixtures_dir):
    """`is_mtl` reads only the pairs y > x; the definition reads all n^2,
    on every class of sizes 2 to 7 and on each fixture."""
    structures = [s for size in census.values() for s in size]
    structures += [load_structure(p)[0] for p in sorted(fixtures_dir.glob("*.json"))]
    verdicts = [is_mtl(s) for s in structures]
    assert verdicts == [_is_mtl_by_definition(s) for s in structures]
    assert True in verdicts and False in verdicts


def test_mtl_witness_pair(a6):
    # (a -> c) v (c -> a) = c v b = d, not 1.
    a, c, d = (a6.element(x) for x in "acd")
    lhs = a6.join[a6.residuum[a][c]][a6.residuum[c][a]]
    assert lhs == d


def test_covers_of_a6(a6):
    ids = {name: a6.element(name) for name in "0abcd1"}
    expected = {
        (ids["0"], ids["a"]),
        (ids["0"], ids["c"]),
        (ids["a"], ids["b"]),
        (ids["b"], ids["d"]),
        (ids["c"], ids["d"]),
        (ids["d"], ids["1"]),
    }
    assert set(covers(a6.up)) == expected


def _element_covers_by_interval(s):
    """Covering pairs of the element order: x < y with the interval
    [x, y] holding nothing but x and y."""
    out = []
    for x in range(s.n):
        for y in bits(s.up[x] & ~(1 << x)):
            if not s.up[x] & s.down[y] & ~(1 << x) & ~(1 << y):
                out.append((x, y))
    return tuple(out)


def _filter_covers_by_scan(filters):
    """Covering pairs (i, j) of the filters under inclusion: filter i
    strictly inside filter j, and no third filter between them."""
    k = len(filters)
    out = []
    for i in range(k):
        for j in range(k):
            fi, fj = filters[i], filters[j]
            if fi == fj or fi & ~fj:
                continue
            if not any(
                l not in (i, j) and not fi & ~filters[l] and not filters[l] & ~fj
                for l in range(k)
            ):
                out.append((i, j))
    return tuple(out)


def test_covers_match_references_on_census(census):
    """`covers` on the element order and on the filter poset of every
    class of sizes 2 to 6, against the interval test and the scan over
    every third filter."""
    for s in (s for n in range(2, 7) for s in census[n]):
        assert covers(s.up) == _element_covers_by_interval(s)
        filters = all_filters(s)
        up = [sum(1 << j for j, g in enumerate(filters) if not f & ~g) for f in filters]
        assert covers(up) == _filter_covers_by_scan(filters)


def test_subset_repr(a6):
    assert subset_repr(a6, (1 << a6.element("d")) | (1 << a6.top)) == "{d,1}"


def test_order_from_pairs_detects_cycles():
    with pytest.raises(MalformedTables):
        order_from_pairs(3, [(0, 1), (1, 2), (2, 0)])


def _order_by_fixpoint(n, pairs):
    """`order_from_pairs` by closing every up-set under the up-sets of its
    members until nothing changes."""
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


def _outcome(routine, *args):
    try:
        return routine(*args)
    except MalformedTables as exc:
        return str(exc)


def test_order_from_pairs_matches_fixpoint_closure():
    """Warshall's closure gives the masks, or the error, of the fixpoint
    closure on random relations, acyclic and cyclic, some with an index
    out of range."""
    rng = random.Random(1959)
    outcomes = []
    for _ in range(2000):
        n = rng.randint(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        if rng.random() < 0.5:
            pairs = [(x, y) for x, y in pairs if x < y]
        if rng.random() < 0.05:
            pairs.append((n, 0))
        expected = _outcome(_order_by_fixpoint, n, pairs)
        assert _outcome(order_from_pairs, n, pairs) == expected, (n, pairs)
        outcomes.append(expected if isinstance(expected, str) else "order")
    assert set(outcomes) == {
        "order",
        "order relation has a cycle",
        "order pair index out of range",
    }


def test_order_tables_requires_lattice():
    # two incomparable middles with two incomparable uppers: no unique lub
    up = order_from_pairs(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    with pytest.raises(MalformedTables) as raised:
        order_tables(6, up)
    assert str(raised.value) == "elements 1,2 have no least upper bound"
    names = tuple("0abcd1")
    assert _outcome(order_tables, 6, up, names) == _outcome(ref.order_tables, 6, up, names)
    assert _outcome(order_tables, 6, up, names) == "elements a,b have no least upper bound"


def test_explicit_tables_must_match_order(fixtures_dir):
    data = json.loads((fixtures_dir / "a6.json").read_text())
    derived_join, derived_meet = order_tables(6, order_from_pairs(6, [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4), (4, 5)]))
    names = data["elements"]
    data["join"] = [[names[v] for v in row] for row in derived_join]
    data["meet"] = [[names[v] for v in row] for row in derived_meet]
    parse_structure(data)  # agreeing tables are fine

    data["join"][1][3] = names[5]  # a v c rewritten to 1 instead of d
    with pytest.raises(MalformedTables):
        parse_structure(data)

    # Ordering data the parser would otherwise ignore is rejected.
    lone_join = {**data, "join": [[names[5]] * 6 for _ in range(6)]}
    del lone_join["meet"]
    with pytest.raises(StructureFileError, match="both join and meet"):
        parse_structure(lone_join)
    lone_meet = {**data, "meet": [list(row) for row in data["meet"]]}
    del lone_meet["join"]
    with pytest.raises(StructureFileError, match="both join and meet"):
        parse_structure(lone_meet)
    both_orders = {k: v for k, v in data.items() if k not in ("join", "meet")}
    both_orders["leq"] = [[int(row[y] == y) for y in range(6)] for row in derived_join]
    with pytest.raises(StructureFileError, match="order or leq"):
        parse_structure(both_orders)


def test_load_structure_reports_bad_entries(fixtures_dir, tmp_path):
    data = json.loads((fixtures_dir / "a6.json").read_text())
    data["times"][0][0] = "zz"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(StructureFileError, match="zz"):
        load_structure(p)


def test_carrier_of_more_than_256_elements_rejected():
    n = 257
    chain = [[max(x, y) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    residuum = [[n - 1 if x <= y else y for y in range(n)] for x in range(n)]
    with pytest.raises(MalformedTables, match="more than 256"):
        Structure(
            n=n,
            names=tuple(map(str, range(n))),
            join=chain,
            meet=meet,
            times=meet,
            residuum=residuum,
            bot=0,
            top=n - 1,
        )


def _reference_validate(s):
    """The definitional scanner: every law as a predicate on element
    tuples, each scanned in lexicographic order to its first failure."""
    jn, mt, tm, rs = s.join, s.meet, s.times, s.residuum
    rng = range(s.n)
    top, bot = s.top, s.bot

    def le(x, y):
        return jn[x][y] == y

    violations = []

    def scan(name, arity, pred):
        for t in product(rng, repeat=arity):
            if not pred(*t):
                violations.append((name, t))
                return

    scan("join-commutative", 2, lambda x, y: jn[x][y] == jn[y][x])
    scan("join-associative", 3, lambda x, y, z: jn[x][jn[y][z]] == jn[jn[x][y]][z])
    scan("join-idempotent", 1, lambda x: jn[x][x] == x)
    scan("meet-commutative", 2, lambda x, y: mt[x][y] == mt[y][x])
    scan("meet-associative", 3, lambda x, y, z: mt[x][mt[y][z]] == mt[mt[x][y]][z])
    scan("meet-idempotent", 1, lambda x: mt[x][x] == x)
    scan("absorption-join-meet", 2, lambda x, y: jn[x][mt[x][y]] == x)
    scan("absorption-meet-join", 2, lambda x, y: mt[x][jn[x][y]] == x)
    scan("bottom-least", 1, lambda x: jn[bot][x] == x)
    scan("top-greatest", 1, lambda x: jn[x][top] == top)
    scan("product-commutative", 2, lambda x, y: tm[x][y] == tm[y][x])
    scan("product-associative", 3, lambda x, y, z: tm[x][tm[y][z]] == tm[tm[x][y]][z])
    scan("product-identity", 1, lambda x: tm[x][top] == x)
    scan("adjointness", 3, lambda x, y, z: le(tm[x][y], z) == le(x, rs[y][z]))
    scan("order-residuum-agreement", 2, lambda x, y: le(x, y) == (rs[x][y] == top))
    return ValidationReport(valid=not violations, violations=tuple(violations))


AXIOM_LAWS = {
    "join-commutative",
    "join-associative",
    "join-idempotent",
    "meet-commutative",
    "meet-associative",
    "meet-idempotent",
    "absorption-join-meet",
    "absorption-meet-join",
    "bottom-least",
    "top-greatest",
    "product-commutative",
    "product-associative",
    "product-identity",
    "adjointness",
    "order-residuum-agreement",
}
LATTICE_LAWS = {
    "join-commutative",
    "join-associative",
    "join-idempotent",
    "meet-commutative",
    "meet-associative",
    "meet-idempotent",
    "absorption-join-meet",
    "absorption-meet-join",
    "bottom-least",
    "top-greatest",
}


def _relabeled_off_bounds(s, rng):
    """s renamed by a seeded permutation that sends bot off 0 and top off
    n - 1."""
    n = s.n
    while True:
        pi = list(range(n))
        rng.shuffle(pi)
        if pi[s.bot] != 0 and pi[s.top] != n - 1:
            break
    inv = [0] * n
    for x in range(n):
        inv[pi[x]] = x

    def table(rows):
        return [[pi[rows[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]

    return Structure(
        n=n,
        names=tuple(s.names[inv[x]] for x in range(n)),
        join=table(s.join),
        meet=table(s.meet),
        times=table(s.times),
        residuum=table(s.residuum),
        bot=pi[s.bot],
        top=pi[s.top],
    )


def _mutant(s, rng):
    """s with one to three cells of its four tables changed, each cell
    mirrored across the diagonal half of the time."""
    tables = {
        attr: [list(row) for row in getattr(s, attr)]
        for attr in ("join", "meet", "times", "residuum")
    }
    for _ in range(rng.randint(1, 3)):
        rows = tables[rng.choice(sorted(tables))]
        x, y = rng.randrange(s.n), rng.randrange(s.n)
        v = rng.choice([u for u in range(s.n) if u != rows[x][y]])
        rows[x][y] = v
        if rng.random() < 0.5:
            rows[y][x] = v
    return replace(s, **tables)


@pytest.fixture(scope="module")
def census_2_to_6():
    return [
        record.structure
        for n in range(2, 7)
        for record in enumerate_residuated(SearchSpec(size=n))
    ]


def _validate_in_parts(s):
    """validate_structure(s), checked to be the lattice part, then the
    product part."""
    report = validate_structure(s)
    lattice, product = lattice_violations(s), product_violations(s)
    assert report.violations == lattice + product
    assert {name for name, _ in lattice} <= LATTICE_LAWS
    assert {name for name, _ in product} <= AXIOM_LAWS - LATTICE_LAWS
    return report


def test_validation_matches_reference_on_census(census_2_to_6):
    rng = random.Random(2010)
    assert len(census_2_to_6) == 1 + 2 + 7 + 26 + 129
    for s in census_2_to_6:
        for t in (s, _relabeled_off_bounds(s, rng)):
            report = _validate_in_parts(t)
            assert report.valid
            assert report == _reference_validate(t)


def test_validation_matches_reference_on_mutants(census_2_to_6, a6):
    rng = random.Random(12)
    sources = [a6, *census_2_to_6]
    sources += [_relabeled_off_bounds(s, rng) for s in sources]
    hit = set()
    for _ in range(4000):
        m = _mutant(rng.choice(sources), rng)
        report = _validate_in_parts(m)
        assert report == _reference_validate(m)
        hit.update(name for name, _ in report.violations)
    assert hit == AXIOM_LAWS
