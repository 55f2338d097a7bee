import json
import random

import pytest

from reslat import fileformat
from reslat.errors import InvalidBaseLattice, MalformedTables, StructureFileError
from reslat.fileformat import (
    _parse_table,
    dump_structure,
    load_lattice,
    load_structure,
    parse_structure,
)
from reslat.modelgen import SearchSpec, enumerate_residuated


def test_round_trip(a6):
    data = dump_structure(a6, "A6")
    again = parse_structure(data)
    assert again == a6


def test_leq_matrix_input(a6, fixtures_dir):
    data = json.loads((fixtures_dir / "a6.json").read_text())
    del data["order"]
    data["leq"] = [
        [1 if a6.join[x][y] == y else 0 for y in range(a6.n)] for x in range(a6.n)
    ]
    assert parse_structure(data) == a6


def test_missing_fields_are_reported():
    with pytest.raises(StructureFileError, match="elements"):
        parse_structure({"bot": "0", "top": "1"})
    with pytest.raises(StructureFileError, match="times"):
        parse_structure(
            {"elements": ["0", "1"], "bot": "0", "top": "1", "order": [["0", "1"]]}
        )


def test_duplicate_names_rejected():
    with pytest.raises(StructureFileError, match="duplicate"):
        parse_structure(
            {
                "elements": ["0", "0"],
                "bot": "0",
                "top": "0",
                "order": [],
                "times": [],
                "residuum": [],
            }
        )


def test_order_or_tables_required(fixtures_dir):
    data = json.loads((fixtures_dir / "a6.json").read_text())
    del data["order"]
    with pytest.raises(StructureFileError, match="order"):
        parse_structure(data)


def test_bad_bot_name(fixtures_dir):
    data = json.loads((fixtures_dir / "a6.json").read_text())
    data["bot"] = "zero"
    with pytest.raises(StructureFileError, match="zero"):
        parse_structure(data)


def test_load_structure_name_fallback(tmp_path, fixtures_dir):
    data = json.loads((fixtures_dir / "chain2.json").read_text())
    del data["name"]
    p = tmp_path / "two.json"
    p.write_text(json.dumps(data))
    _, name = load_structure(p)
    assert name == "two"


def test_load_lattice_from_structure_file(a6, fixtures_dir):
    lat, name = load_lattice(fixtures_dir / "a6.json")
    assert name == "A6"
    assert lat.n == 6
    assert lat.join[1][3] == 4  # a v c = d
    assert lat.up == a6.up


def test_load_lattice_from_tables_only(a6, tmp_path):
    data = dump_structure(a6, "A6")
    del data["order"]
    p = tmp_path / "tables.json"
    p.write_text(json.dumps(data))
    lat, _ = load_lattice(p)
    assert lat.up == a6.up
    data["meet"][1][3] = "a"  # a meet c is 0, not a
    p.write_text(json.dumps(data))
    lat, _ = load_lattice(p)
    with pytest.raises(InvalidBaseLattice, match="not the operations"):
        SearchSpec(lat.n, lat)


def test_dump_contains_cover_pairs(a6):
    data = dump_structure(a6, "A6")
    assert ["d", "1"] in data["order"]
    assert len(data["order"]) == 6


@pytest.mark.parametrize("entry", ["yes", 2, -1, True, 0.5, None, [1]])
def test_leq_entries_must_be_zero_or_one(a6, fixtures_dir, entry):
    data = json.loads((fixtures_dir / "a6.json").read_text())
    del data["order"]
    data["leq"] = [
        [1 if a6.join[x][y] == y else 0 for y in range(a6.n)] for x in range(a6.n)
    ]
    data["leq"][0][1] = entry
    with pytest.raises(StructureFileError, match="leq entries must be 0 or 1"):
        parse_structure(data)


def _reference_parse_table(data, field: str, index: dict[str, int]):
    """The per-cell loop that `_parse_table` replaced, kept as its oracle."""
    n = len(index)
    if not isinstance(data, list) or len(data) != n:
        raise StructureFileError(f"{field} must be a list of {n} rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != n:
            raise StructureFileError(f"{field} rows must have {n} entries")
        for v in row:
            if not isinstance(v, str) or v not in index:
                raise StructureFileError(f"{field} entry is not an element name: {v!r}")
        rows.append(tuple(index[v] for v in row))
    return tuple(rows)


def _outcome(parse, table, field, index):
    try:
        return parse(table, field, index)
    except StructureFileError as exc:
        return str(exc)


def _mutate(rng: random.Random, data: dict):
    """One table of `data` with one cell or one row length changed."""
    field = rng.choice(("join", "meet", "times", "residuum"))
    table = [list(row) for row in data[field]]
    row = table[rng.randrange(len(table))]
    col = rng.randrange(len(row))
    names = data["elements"]
    kind = rng.choice(
        ("name", "unknown", "int", "float", "null", "bool", "list", "dict", "short", "long")
    )
    if kind == "short":
        del row[col]
    elif kind == "long":
        row.insert(col, rng.choice(names))
    else:
        row[col] = {
            "name": lambda: rng.choice(names),
            "unknown": lambda: rng.choice(("zz", "", " a", rng.choice(names) + "'")),
            "int": lambda: rng.randrange(-2, 10),
            "float": lambda: rng.choice((0.0, 1.0, 2.5, float("nan"))),
            "null": lambda: None,
            "bool": lambda: rng.choice((True, False)),
            "list": lambda: [rng.choice(names)],
            "dict": lambda: {rng.choice(names): rng.choice(names)},
        }[kind]()
    return field, table


def test_parse_table_matches_reference_on_mutants(a6):
    files = [dump_structure(a6, "A6")] + [
        dump_structure(r.structure, "R5") for r in enumerate_residuated(SearchSpec(size=5))
    ]
    rng = random.Random(2010)
    outcomes = set()
    for _ in range(2400):
        data = rng.choice(files)
        index = {name: i for i, name in enumerate(data["elements"])}
        field, table = _mutate(rng, data)
        expected = _outcome(_reference_parse_table, table, field, index)
        assert _outcome(_parse_table, table, field, index) == expected, (field, table)
        outcomes.add(type(expected))
    assert outcomes == {tuple, str}


def test_load_lattice_names_the_failing_axiom(bad_base_lattice):
    """`load_lattice` parses a file whose tables are not a bounded
    lattice with its bot and top; `SearchSpec` refuses the lattice,
    naming its first failing axiom and the witness in the file's element
    names (the full message is pinned in `test_modelgen.py`)."""
    path, axiom, witness = bad_base_lattice
    lat, _ = load_lattice(path)
    with pytest.raises(InvalidBaseLattice, match=f": {axiom} fails at {witness}$"):
        SearchSpec(lat.n, lat)


def test_load_lattice_reports_the_order_before_bot_and_top(tmp_path):
    """`Lattice` checks bot and top once the tables are parsed, so a file
    with bot = top and a cyclic order is refused for its order."""
    data = {
        "elements": ["0", "a", "1"],
        "bot": "1",
        "top": "1",
        "order": [["0", "a"], ["a", "0"], ["a", "1"]],
    }
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(data))
    with pytest.raises(MalformedTables, match="^order relation has a cycle$"):
        load_lattice(p)
    data["order"] = [["0", "a"], ["a", "1"]]
    p.write_text(json.dumps(data))
    with pytest.raises(MalformedTables, match="^bot and top must be distinct$"):
        load_lattice(p)


def test_load_lattice_refuses_a_carrier_over_256_elements(tmp_path):
    """`lattice_violations` stores rows as bytes, so a larger carrier is
    refused while the file is parsed, as `Structure` refuses it."""
    names = [str(x) for x in range(257)]
    data = {
        "elements": names,
        "bot": names[0],
        "top": names[-1],
        "order": [[x, y] for x, y in zip(names, names[1:])],
    }
    p = tmp_path / "chain257.json"
    p.write_text(json.dumps(data))
    with pytest.raises(MalformedTables, match="^carrier has more than 256 elements$"):
        load_lattice(p)


def test_files_over_256_elements_are_refused_before_the_order_is_closed(tmp_path, monkeypatch):
    """The element list is counted before any order closure or table is
    built, so a 1,000-element chain given by its 999 covering pairs, a
    file linear in its size, is refused by both parsers with `Lattice`'s
    message, and `order_from_pairs` never runs."""
    names = [str(x) for x in range(1000)]
    data = {
        "elements": names,
        "bot": names[0],
        "top": names[-1],
        "order": [[x, y] for x, y in zip(names, names[1:])],
        "times": [],
        "residuum": [],
    }
    p = tmp_path / "chain1000.json"
    p.write_text(json.dumps(data))
    closures = []
    monkeypatch.setattr(fileformat, "order_from_pairs", lambda *args: closures.append(args))
    for load in (load_lattice, load_structure):
        with pytest.raises(MalformedTables, match="^carrier has more than 256 elements$"):
            load(p)
    assert closures == []
