import errno
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from reslat.bitsets import bits
from reslat.cli import build_parser, main
from reslat.fileformat import load_structure
from reslat.filters import all_filters

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parents[1]
SUBPROCESS_ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}


def _run_module(*argv, **kw):
    return subprocess.run([sys.executable, "-m", "reslat", *argv], env=SUBPROCESS_ENV, **kw)


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


def test_family_outputs_match_golden(capsys):
    """`omega` and `coann` in JSON on every filter base of every fixture."""
    lines = []
    for path in sorted((REPO / "fixtures").glob("*.json")):
        s, _ = load_structure(path)
        for f in all_filters(s):
            base = ",".join(s.names[x] for x in bits(f))
            for command in ("omega", "coann"):
                code, out, _ = run_cli(
                    capsys, command, str(path), "--base", base, "--format", "json"
                )
                assert code == 0
                lines.append(out)
    assert "".join(lines) == (GOLDEN / "families.ndjson").read_text()


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


# SHA-256 of `reslat search --size N` stdout; size 5 is the golden above.
SEARCH_SHA256 = {
    6: "f0322eba0007bf261268759d05eaaa44a1bbb2aa9337e43f25098db30353e183",
    7: "1ae66d1cc5e00ae517c29b1a58ef0f1d8686ace76172cb7aa6f448fef3c00535",
    8: "e5ab15a70c5e7f780df542141eeee8b26a84f072c11db7105f34a371b53c9ae3",
}


@pytest.mark.parametrize(
    "size", [6, 7, pytest.param(8, marks=pytest.mark.slow)]
)
def test_search_stdout_digest(capsys, size):
    code, out, _ = run_cli(capsys, "search", "--size", str(size))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_SHA256[size]


# SHA-256 of `reslat search --base-lattice <fixture> --all-labelings`
# stdout: every product table over the fixture's lattice, as labelled
# in the file, isomorphic duplicates kept.
ALL_LABELINGS_SHA256 = {
    "a6": "52361f290ad1bc7ea1e3069e8472a4bed408fb1b7f008fdc7b3c183f1e6387ff",
    "chain3-godel": "35ef160bebd86515ff1a3c50f7d67e448d3f7f5946772c2008023f13c723dd0a",
    "chain3-luk": "35ef160bebd86515ff1a3c50f7d67e448d3f7f5946772c2008023f13c723dd0a",
}


@pytest.mark.parametrize("name", sorted(ALL_LABELINGS_SHA256))
def test_search_all_labelings_stdout_digest(capsys, name):
    s, _ = load_structure(fixture(f"{name}.json"))
    code, out, _ = run_cli(
        capsys,
        "search",
        "--size",
        str(s.n),
        "--base-lattice",
        fixture(f"{name}.json"),
        "--all-labelings",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_LABELINGS_SHA256[name]


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


def test_search_names_the_axiom_a_base_lattice_fails(capsys, tmp_path, bad_base_lattice):
    path, axiom, witness = bad_base_lattice
    code, out, err = run_cli(capsys, "search", "--base-lattice", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("reslat: error: ") and err.count("\n") == 1
    assert err.endswith(f": {axiom} fails at {witness}\n")
    # The lattice is refused before --out is opened.
    out_path = tmp_path / "census.ndjson"
    again = run_cli(capsys, "search", "--base-lattice", str(path), "--out", str(out_path))
    assert again == (code, out, err)
    assert not out_path.exists()


def test_search_reports_the_size_before_the_axioms(capsys, bad_base_lattice):
    """`SearchSpec` checks a base lattice's size before its axioms."""
    path, _, _ = bad_base_lattice
    code, out, err = run_cli(capsys, "search", "--size", "2", "--base-lattice", str(path))
    assert (code, out) == (2, "")
    assert err == "reslat: error: base lattice size disagrees with the search size\n"


def test_each_input_is_checked_once(capsys):
    """`search --base-lattice` checks the lattice axioms of its file once,
    in `SearchSpec`, and `verify` validates its structure once, in
    `run_battery`.  Calls are counted by code object, so a check reached
    through any module's binding is counted."""
    from reslat import structure

    names = {
        routine.__code__: routine.__name__
        for routine in (structure.lattice_violations, structure.validate_structure)
    }
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    def checks(*argv):
        calls.clear()
        sys.setprofile(profile)
        try:
            assert run_cli(capsys, *argv)[0] == 0
        finally:
            sys.setprofile(None)
        return dict(calls)

    assert checks("search", "--base-lattice", fixture("a6.json")) == {"lattice_violations": 1}
    assert checks("verify", fixture("a6.json")) == {
        "validate_structure": 1,
        "lattice_violations": 1,
    }


@pytest.mark.parametrize("command", [("validate",), ("search", "--base-lattice")])
def test_bot_equal_to_top_is_usage_error(capsys, tmp_path, command):
    """A base-lattice file is refused as a structure file is, before its
    lattice axioms are checked."""
    data = json.loads(Path(fixture("a6.json")).read_text())
    data["bot"] = data["top"]
    p = tmp_path / "bot-is-top.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *command, str(p))
    assert (code, out, err) == (2, "", "reslat: error: bot and top must be distinct\n")


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


def _ragged_leq(data):
    del data["order"]
    data["leq"] = [[1] * 6 for _ in range(6)]
    data["leq"][2].pop()
    return json.dumps(data)


def _order_entry_no_name(data):
    data["order"][-1][1] = "zz"
    return json.dumps(data)


def _non_string_name(data):
    data["elements"][0] = 0
    return json.dumps(data)


@pytest.mark.parametrize(
    "write, message",
    [
        (_ragged_leq, "leq must be a 6x6 0/1 matrix"),
        (_order_entry_no_name, "order entry is not an element name: 'zz'"),
        (lambda data: "[1, 2]", "structure file must hold a JSON object"),
        (_non_string_name, "element names must be strings"),
        (
            lambda data: '{"elements": [',
            "{path} is not valid JSON: Expecting value: line 1 column 15 (char 14)",
        ),
    ],
)
def test_malformed_file_is_refused_in_one_line(capsys, tmp_path, write, message):
    p = tmp_path / "malformed.json"
    p.write_text(write(json.loads(Path(fixture("a6.json")).read_text())))
    code, out, err = run_cli(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err == "reslat: error: " + message.format(path=p) + "\n"


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert out == ""
    assert "too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [("validate",), ("search", "--base-lattice")])
def test_non_utf8_file_is_usage_error(capsys, tmp_path, command):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *command, str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("reslat: error: ") and err.count("\n") == 1
    assert "is not UTF-8 text" in err


def test_carrier_over_256_elements_is_usage_error(tmp_path):
    n = 257
    names = [str(x) for x in range(n)]

    def table(op):
        return [[names[op(x, y)] for y in range(n)] for x in range(n)]

    data = {
        "elements": names,
        "bot": names[0],
        "top": names[-1],
        "join": table(max),
        "meet": table(min),
        "times": table(min),
        "residuum": table(lambda x, y: n - 1 if x <= y else y),
    }
    p = tmp_path / "chain257.json"
    p.write_text(json.dumps(data))
    proc = _run_module("validate", str(p), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "reslat: error: carrier has more than 256 elements\n"


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


@pytest.mark.parametrize(
    "argv", [("search", "--size", "3"), ("export-dot", fixture("a6.json"))]
)
def test_format_is_refused_by_commands_without_a_report(capsys, argv):
    """`search` writes JSON records and `export-dot` writes DOT, whatever
    was asked, so `--format` there is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --format json" in err


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
    assert out == (GOLDEN / "filters_a6.dot").read_text()
    assert out.count("label=") == 5
    assert '"{d,1}"' in out


# SHA-256 of `reslat export-dot <fixture> --what <graph>` stdout; a6's
# graphs are the goldens above.
EXPORT_DOT_SHA256 = {
    ("chain2", "hasse"): "83bdafcecd27cb9be60411a9cd3b41f1d5e58dc7371d18fea9da55d9c2fa364a",
    ("chain2", "filters"): "9d53e5549cbfc61b5dae3bc7e545cd9e6f2bcc283e1309b580bc2b5bf8638c06",
    ("chain3-godel", "hasse"): "aee0c79a1b0ccd199674db1a0a837f81b431ed9a42a43cefe8fcfb476c03b061",
    ("chain3-godel", "filters"): "ff8c74b6a7bfac9ca6c7041e0fd6b8cdbaff7f617bcd60979f6d749c54d8c507",
    ("chain3-luk", "hasse"): "2b9793d2b7197d5245b47edea3b0d042088ca35560b508542b9d0b1a2057f48e",
    ("chain3-luk", "filters"): "70abb80b7699b121eb41b273da0fadb0e7ae9215fb18f8e57ec4261b20a64de4",
    ("chain9-godel", "hasse"): "ae5b5451ca676ad464e5678c6b3dd2add8c74118d7c9abc4fd8d1959511a6d41",
    ("chain9-godel", "filters"): "80335fb13f0fb8450abef16096f27baa638e003f477f37b0894694d376b9a762",
}


@pytest.mark.parametrize("name, what", sorted(EXPORT_DOT_SHA256))
def test_export_dot_stdout_digest(capsys, name, what):
    code, out, _ = run_cli(capsys, "export-dot", fixture(f"{name}.json"), "--what", what)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_DOT_SHA256[name, what]


@pytest.mark.parametrize(
    "what, labels",
    [
        ("hasse", ['label="x\\"0"', 'label="1\\\\"']),
        ("filters", ['label="{1\\\\}"', 'label="{x\\"0,1\\\\}"']),
    ],
)
def test_export_dot_escapes_labels(capsys, tmp_path, what, labels):
    text = Path(fixture("chain2.json")).read_text()
    p = tmp_path / "quoted.json"
    p.write_text(text.replace('"0"', json.dumps('x"0')).replace('"1"', json.dumps("1\\")))
    code, out, _ = run_cli(capsys, "export-dot", str(p), "--what", what)
    assert code == 0
    found = [line.split("[", 1)[1].rstrip("];") for line in out.splitlines() if "label=" in line]
    assert found == labels


@pytest.mark.parametrize(
    "argv", [("search", "--size", "5"), ("normality", fixture("a6.json"))]
)
def test_closed_stdout_ends_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = _run_module(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_console_entry_point():
    proc = _run_module("validate", fixture("a6.json"), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full on this system"
)
NO_SPACE = os.strerror(errno.ENOSPC)


@needs_dev_full
@pytest.mark.parametrize(
    "argv", [("validate", fixture("a6.json")), ("search", "--size", "3")]
)
def test_full_stdout_is_usage_error(argv):
    with open("/dev/full", "w") as full:
        proc = _run_module(*argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"reslat: error: cannot write stdout: {NO_SPACE}\n"


@needs_dev_full
def test_full_out_file_is_usage_error():
    proc = _run_module(
        "search", "--size", "3", "--out", "/dev/full", capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"reslat: error: cannot write /dev/full: {NO_SPACE}\n"


# Calls `main` once with a stdout on fd 1 whose writes fail as on a full
# disk, then once with the process's own stdout.
_FAILED_WRITE_THEN_CALL = """
import contextlib, errno, io, os, sys
from reslat.cli import main

class FullStdout(io.StringIO):
    def fileno(self):
        return 1

    def write(self, s):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

with contextlib.redirect_stdout(FullStdout()):
    first = main(sys.argv[1:])
second = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"{first} {second}\\n")
"""


def test_failed_write_leaves_stdout_to_the_next_call():
    argv = ["validate", fixture("a6.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _FAILED_WRITE_THEN_CALL, *argv],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    fresh = _run_module(*argv, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == f"reslat: error: cannot write stdout: {NO_SPACE}\n2 0\n"
    assert proc.stdout == fresh.stdout != ""


@pytest.mark.parametrize(
    "command,order,message",
    [
        (("validate",), [], "elements a,b have no least upper bound"),
        (("validate",), [["a", "c"], ["b", "c"]], "elements a,b have no greatest lower bound"),
        (("search", "--base-lattice"), [], "elements a,b have no least upper bound"),
    ],
)
def test_lattice_errors_name_elements(capsys, tmp_path, command, order, message):
    data = {
        "elements": ["a", "b", "c"],
        "bot": "a",
        "top": "c",
        "order": order,
        "times": [],
        "residuum": [],
    }
    p = tmp_path / "not-a-lattice.json"
    p.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *command, str(p))
    assert code == 2
    assert out == ""
    assert err == f"reslat: error: {message}\n"


# Runs each argv of a JSON list through `main` in one interpreter and
# prints [exit code, stdout, stderr] per call as JSON.
_CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from reslat.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _calls_in_one_process(*argvs):
    proc = subprocess.run(
        [sys.executable, "-c", _CALLS_IN_ONE_PROCESS, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "first,second,first_code",
    [
        (
            ["coann", fixture("a6.json"), "--base", "d,1", "--of", "b"],
            ["coann", fixture("a6.json")],
            0,
        ),
        (
            ["spectrum", fixture("a6.json"), "--base-gen", "a"],
            ["spectrum", fixture("a6.json")],
            0,
        ),
        (
            # --base and --base-gen exclude each other: a usage error
            ["spectrum", fixture("a6.json"), "--base", "d,1", "--base-gen", "a"],
            ["validate", fixture("a6.json")],
            2,
        ),
        (["--version"], ["filters", fixture("a6.json")], 0),
    ],
)
def test_repeated_calls_are_independent(first, second, first_code):
    before, again = _calls_in_one_process(first, second)
    [fresh] = _calls_in_one_process(second)
    assert before[0] == first_code
    assert again == fresh
    assert fresh[0] == 0 and fresh[1] and not fresh[2]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_help_wraps_to_the_width_of_each_call(capsys, monkeypatch):
    def help_at(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    narrow, wide, narrow_again = help_at(40), help_at(200), help_at(40)
    assert narrow == narrow_again
    assert len(narrow.splitlines()) > len(wide.splitlines())
    assert max(map(len, narrow.splitlines())) < max(map(len, wide.splitlines()))
