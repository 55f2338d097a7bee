"""Malformed structure files never crash the CLI.

Each example mutates `fixtures/a6.json` once: a field dropped, a field
replaced by a value of the wrong type, one table entry replaced, or a
`leq` matrix or an `order` pair added.  Every command then exits 0, 1
or 2 and writes no traceback.  The seed is fixed and the examples are
few, so the test is repeatable and fast.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from reslat.cli import main

from conftest import FIXTURES

A6 = json.loads((FIXTURES / "a6.json").read_text())
ELEMENTS = A6["elements"]
FIELDS = ("name", "elements", "bot", "top", "order", "times", "residuum")
TABLES = ("times", "residuum")
COMMANDS = (
    ("validate", "{}"),
    ("filters", "{}"),
    ("spectrum", "{}"),
    ("spectrum", "{}", "--base-gen", "a"),
    ("coann", "{}", "--base", "d,1", "--of", "b"),
    ("omega", "{}", "--base", "d,1"),
    ("normality", "{}", "--format", "json"),
    ("verify", "{}"),
    ("export-dot", "{}", "--what", "filters"),
    ("search", "--size", "6", "--base-lattice", "{}"),
)

wrong_type = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.lists(st.sampled_from(ELEMENTS), max_size=7),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
)
zero_one_matrix = st.lists(
    st.lists(st.integers(0, 1), min_size=6, max_size=6), min_size=6, max_size=6
)


@st.composite
def mutated_a6(draw):
    data = json.loads(json.dumps(A6))
    kind = draw(st.sampled_from(("drop", "retype", "name", "entry", "leq", "order")))
    if kind == "drop":
        del data[draw(st.sampled_from(FIELDS))]
    elif kind == "retype":
        data[draw(st.sampled_from(FIELDS))] = draw(wrong_type)
    elif kind in ("name", "entry"):
        row = data[draw(st.sampled_from(TABLES))][draw(st.integers(0, 5))]
        value = st.sampled_from(ELEMENTS) if kind == "name" else wrong_type
        row[draw(st.integers(0, 5))] = draw(value)
    elif kind == "leq":
        if draw(st.booleans()):
            del data["order"]
        data["leq"] = draw(st.one_of(zero_one_matrix, wrong_type))
    else:
        pair = st.lists(st.sampled_from(ELEMENTS), min_size=2, max_size=2)
        data["order"].append(draw(st.one_of(pair, wrong_type)))
    return data


@given(mutated_a6())
@seed(2010)
@settings(max_examples=60, deadline=None, database=None)
def test_mutated_a6_never_crashes_the_cli(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(data))
        for command in COMMANDS:
            argv = [arg.format(path) for arg in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue(), argv
