"""No structure outlives its caller, and the structure's memo is the only cache.

The analyses keep their answers in the structure's own `memos`, and no
answer refers back to its structure, so once the caller drops a
structure its reference count reaches zero and it is freed with its
answers at once.  The lifetime tests run with the cyclic collector
switched off, so that a reference cycle through a structure fails them.
"""

import gc
import json
import sys
import weakref
from dataclasses import replace

import pytest

from reslat import cli
from reslat.battery import run_battery
from reslat.fileformat import dump_structure, load_structure
from reslat.modelgen import SearchSpec, enumerate_residuated
from reslat.structure import CacheInfo

COMMANDS = [
    "validate",
    "filters",
    "spectrum",
    "coann",
    "omega",
    "normality",
    "verify",
    "export-dot",
]


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects during the test."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_cli_on_copy(command, a6, tmp_path, monkeypatch, capsys, loaded):
    """Run `command` through `cli.main` on a renamed copy of a6 written
    to a file; `loaded(s)` receives the structure the command loads and
    returns what to keep of it."""
    # Renamed, so that the copy equals no structure of another test.
    renamed = replace(a6, names=tuple(f"{x}-{command}" for x in a6.names))
    path = tmp_path / "a6-copy.json"
    path.write_text(json.dumps(dump_structure(renamed, "a6-copy")))
    kept = []

    def load(path):
        s, name = load_structure(path)
        kept.append(loaded(s))
        return s, name

    monkeypatch.setattr(cli, "load_structure", load)
    argv = [command, str(path)]
    if command != "export-dot":
        argv += ["--format", "json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(kept) == 1
    return kept[0]


def test_battery_run_frees_its_structure(a6, no_cyclic_gc):
    s = replace(a6, names=a6.names)
    ref = weakref.ref(s)
    report = run_battery(s)
    assert report.all_passed
    del s
    assert ref() is None


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_command_frees_its_structure(
    command, a6, tmp_path, monkeypatch, capsys, no_cyclic_gc
):
    ref = run_cli_on_copy(command, a6, tmp_path, monkeypatch, capsys, weakref.ref)
    assert ref() is None


def test_dropped_census_frees_its_structures(no_cyclic_gc):
    records = list(enumerate_residuated(SearchSpec(size=5)))
    refs = [weakref.ref(rec.structure) for rec in records]
    assert len(refs) == 26
    del records
    assert [ref for ref in refs if ref() is not None] == []


def test_census_frees_each_record_the_caller_dropped(no_cyclic_gc):
    """The generator keeps no emitted record: a structure the caller let
    go is freed while the census is still being consumed."""
    census = enumerate_residuated(SearchSpec(size=5))
    refs = []
    for rec in census:
        refs.append(weakref.ref(rec.structure))
        del rec
        if len(refs) == 3:
            break
    rec = next(census)
    assert [ref() for ref in refs] == [None, None, None]
    assert rec is not None and sum(1 for _ in census) == 26 - 4


def per_structure_routines() -> set:
    """The undecorated routine of every `per_structure` routine of the
    package: those whose `cache_info()` is a `structure.CacheInfo` (a
    `functools` cache answers with its own type)."""
    return {
        value.__wrapped__
        for name, module in list(sys.modules.items())
        if name == "reslat" or name.startswith("reslat.")
        for value in vars(module).values()
        if hasattr(value, "cache_info") and type(value.cache_info()) is CacheInfo
    }


def test_per_structure_routines_are_found():
    assert {routine.__name__ for routine in per_structure_routines()} == {
        "all_filters",
        "all_ideals",
        "generated_filter_table",
        "primes_of",
        "maximal_filters",
        "minimal_primes_over",
        "minimal_primes_table",
        "join_closed_subsets",
        "coannulet_table",
        "coann_subset_table",
        "coann_family",
        "omega_table",
        "omega_family",
        "n_prime_relations",
    }


def test_battery_answers_are_per_structure_answers(a6):
    s = replace(a6, names=a6.names)
    assert run_battery(s).all_passed
    assert s.memos
    assert set(s.memos) <= per_structure_routines()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_answers_are_per_structure_answers(command, a6, tmp_path, monkeypatch, capsys):
    s = run_cli_on_copy(command, a6, tmp_path, monkeypatch, capsys, lambda s: s)
    assert set(vars(s).get("memos", ())) <= per_structure_routines()
