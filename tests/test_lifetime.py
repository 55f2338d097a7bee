"""No structure outlives its caller.

The analyses keep their answers in the structure's own `memos`, so once
the caller drops a structure (and the cyclic collector has run, since a
filter lattice or family in the memo points back at its structure),
nothing keeps it or its answers alive.
"""

import gc
import json
import weakref
from dataclasses import replace

import pytest

from reslat import cli
from reslat.battery import run_battery
from reslat.fileformat import dump_structure, load_structure
from reslat.modelgen import SearchSpec, enumerate_residuated


def test_battery_run_frees_its_structure(a6):
    s = replace(a6, names=a6.names)
    ref = weakref.ref(s)
    report = run_battery(s)
    assert report.all_passed
    del s
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "command",
    ["validate", "filters", "spectrum", "coann", "omega", "normality", "export-dot"],
)
def test_cli_command_frees_its_structure(command, a6, tmp_path, monkeypatch, capsys):
    # Renamed, so that the copy equals no structure of another test.
    renamed = replace(a6, names=tuple(f"{x}-{command}" for x in a6.names))
    path = tmp_path / "a6-copy.json"
    path.write_text(json.dumps(dump_structure(renamed, "a6-copy")))
    refs = []

    def load(path):
        s, name = load_structure(path)
        refs.append(weakref.ref(s))
        return s, name

    monkeypatch.setattr(cli, "load_structure", load)
    argv = [command, str(path)]
    if command != "export-dot":
        argv += ["--format", "json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(refs) == 1
    gc.collect()
    assert refs[0]() is None


def test_dropped_census_frees_its_structures():
    records = list(enumerate_residuated(SearchSpec(size=5)))
    refs = [weakref.ref(rec.structure) for rec in records]
    assert len(refs) == 26
    del records
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
