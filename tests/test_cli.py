import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reslat.cli import main

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(REPO / "fixtures" / name)


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", fixture("a6.json"))
    assert code == 0
    assert "valid" in out


def test_validate_rejects_broken_structure(capsys, tmp_path):
    data = json.loads(Path(fixture("a6.json")).read_text())
    data["times"][1][3] = "a"
    data["times"][3][1] = "a"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 1
    assert "adjointness" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "filters", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_unknown_element_in_base(capsys):
    code, _, err = run_cli(capsys, "spectrum", fixture("a6.json"), "--base", "q,1")
    assert code == 2
    assert "'q'" in err


def test_non_filter_base(capsys):
    code, _, err = run_cli(capsys, "spectrum", fixture("a6.json"), "--base", "b,d,1")
    assert code == 2
    assert "not a filter" in err


def test_base_gen_prints_generated_filter(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", fixture("a6.json"), "--base-gen", "c"
    )
    assert code == 0
    assert "generated filter: {c,d,1}" in out


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("filters_a6.txt", ("filters", "a6.json")),
        ("spectrum_a6.txt", ("spectrum", "a6.json")),
        ("coann_f4_a6.txt", ("coann", "a6.json", "--base", "c,d,1")),
        ("omega_f2_a6.txt", ("omega", "a6.json", "--base", "d,1")),
        ("normality_a6.txt", ("normality", "a6.json")),
        ("verify_a6.txt", ("verify", "a6.json")),
        # Nine elements: past `SMALL_N`, so `bits` takes its loop instead of the table.
        ("verify_chain9.json", ("verify", "chain9-godel.json", "--format", "json")),
    ],
)
def test_golden_outputs(capsys, golden, argv):
    code, out, _ = run_cli(capsys, argv[0], fixture(argv[1]), *argv[2:])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_outputs_are_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "filters", fixture("a6.json"))
    _, second, _ = run_cli(capsys, "filters", fixture("a6.json"))
    assert first == second


def test_coann_of_single_set(capsys):
    code, out, _ = run_cli(
        capsys, "coann", fixture("a6.json"), "--base", "c,d,1", "--of", "a"
    )
    assert code == 0
    assert out.splitlines()[-1] == "{c,d,1}"


def test_analysis_commands_reject_invalid_structure(capsys, tmp_path):
    data = json.loads(Path(fixture("a6.json")).read_text())
    data["times"][1][3] = "a"
    data["times"][3][1] = "a"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "filters", str(p))
    assert code == 2
    assert "not a residuated lattice" in err


def test_json_reports_round_trip(capsys):
    for argv in (
        ("filters", fixture("a6.json")),
        ("spectrum", fixture("a6.json")),
        ("coann", fixture("a6.json"), "--base", "c,d,1"),
        ("omega", fixture("a6.json"), "--base", "d,1"),
        ("normality", fixture("a6.json")),
        ("validate", fixture("a6.json")),
        ("verify", fixture("a6.json"), "--battery", "normality"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "reslat"
        assert doc["version"]
        assert doc["command"] == argv[0]
        assert doc["structure"] == "A6"
        rendered = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert rendered == out


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("a6.json"), "--battery", "all")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture("chain2.json"), "--battery", "omega")
    assert code == 0
    assert "PASS omega-routes-agree" in out
    assert "PASS product-distributes-over-join" not in out


def test_search_stdout(capsys):
    code, out, _ = run_cli(capsys, "search", "--size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    tail = json.loads(lines[-1])
    assert tail == {"census_counts": {"3": 2}, "total": 2}
    for line in lines[:-1]:
        doc = json.loads(line)
        assert set(doc) == {"structure", "canonical_key", "stats"}
        assert doc["stats"]["filters"] >= 2


def test_search_to_file_and_limit(capsys, tmp_path):
    out_path = tmp_path / "census.ndjson"
    code, _, _ = run_cli(
        capsys, "search", "--size", "4", "--out", str(out_path), "--limit", "3"
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1])["total"] == 3


def test_search_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "search", "--size", "5")
    assert code == 0
    assert out.encode() == (GOLDEN / "search_5.ndjson").read_bytes()


@pytest.mark.parametrize("where", ["missing-dir/census.ndjson", "."])
def test_search_unwritable_out_is_usage_error(capsys, tmp_path, where):
    out_path = tmp_path / where
    code, out, err = run_cli(capsys, "search", "--size", "3", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("reslat: error: cannot write ") and err.count("\n") == 1


def test_search_records_parse_back(capsys):
    from reslat.fileformat import parse_structure
    from reslat.structure import validate_structure

    code, out, _ = run_cli(capsys, "search", "--size", "4")
    assert code == 0
    lines = out.strip().splitlines()[:-1]
    for line in lines:
        doc = json.loads(line)
        s = parse_structure(doc["structure"])
        assert validate_structure(s).valid


def test_search_with_base_lattice_finds_fixture(capsys, a6):
    from reslat.modelgen import canonical_key

    code, out, _ = run_cli(
        capsys, "search", "--base-lattice", fixture("a6.json")
    )
    assert code == 0
    keys = {
        json.loads(line)["canonical_key"]
        for line in out.strip().splitlines()[:-1]
    }
    assert canonical_key(a6).hex() in keys


def _join_all_top(data):
    data["join"] = [["1"] * len(data["elements"]) for _ in data["elements"]]


def _lone_join(data):
    del data["meet"]


@pytest.mark.parametrize("corrupt", [_join_all_top, _lone_join])
def test_search_rejects_bad_base_lattice_tables(capsys, tmp_path, a6, corrupt):
    from reslat.fileformat import dump_structure

    data = dump_structure(a6, "A6")
    corrupt(data)
    p = tmp_path / "lattice.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "search", "--base-lattice", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("reslat: error: ") and err.count("\n") == 1


def _set_bot(data):
    data["bot"] = ["0"]


def _set_times_entry(data):
    data["times"][0][0] = ["0"]


def _set_order(data):
    data["order"] = 5


@pytest.mark.parametrize("corrupt", [_set_bot, _set_times_entry, _set_order])
def test_wrongly_typed_field_is_usage_error(capsys, tmp_path, corrupt):
    data = json.loads(Path(fixture("a6.json")).read_text())
    corrupt(data)
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("reslat: error: ") and err.count("\n") == 1


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert out == ""
    assert "too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_search_rejects_non_positive_limit(capsys, limit):
    code, out, err = run_cli(capsys, "search", "--size", "3", "--limit", limit)
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_search_usage_error(capsys):
    code, _, err = run_cli(capsys, "search")
    assert code == 2
    assert "size" in err


def test_export_dot_hasse_edges(capsys):
    code, out, _ = run_cli(capsys, "export-dot", fixture("a6.json"), "--what", "hasse")
    assert code == 0
    assert out == (GOLDEN / "hasse_a6.dot").read_text()
    edges = {line.strip().rstrip(";") for line in out.splitlines() if "--" in line}
    assert edges == {
        "e0 -- e1",
        "e0 -- e3",
        "e1 -- e2",
        "e2 -- e4",
        "e3 -- e4",
        "e4 -- e5",
    }
    assert out.count("label=") == 6


def test_export_dot_filters(capsys):
    code, out, _ = run_cli(capsys, "export-dot", fixture("a6.json"), "--what", "filters")
    assert code == 0
    assert out.count("label=") == 5
    assert '"{d,1}"' in out


@pytest.mark.parametrize(
    "argv", [("search", "--size", "5"), ("normality", fixture("a6.json"))]
)
def test_closed_stdout_ends_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reslat", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reslat", "validate", fixture("a6.json")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout
