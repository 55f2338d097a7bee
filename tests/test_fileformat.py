import json

import pytest

from reslat.errors import InvalidBaseLattice, StructureFileError
from reslat.fileformat import (
    dump_structure,
    load_lattice,
    load_structure,
    parse_structure,
)


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
    with pytest.raises(InvalidBaseLattice, match="not the operations"):
        load_lattice(p)


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
