"""The witnesses of failing checks, pinned.

The `verify` goldens show only passing checks.  Here the battery runs
under each mutant of `test_battery_mutants.py`, `test_closure.py` and
`test_filters.py`, over the census of sizes 2 to 5 plus a6, and on a6
with meet as its product (validation bypassed).  Every failing outcome
(check name, witness with its key order, and notes) must match
`golden/battery_failures.ndjson` line for line, so a rewrite of a check
that changes which instance it reports, or how, shows here.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from reslat import battery

import test_battery_mutants
import test_closure
import test_filters
from test_closure import census, forgotten_answers

GOLDEN = Path(__file__).parent / "golden" / "battery_failures.ndjson"


def product_is_meet(monkeypatch):
    """Not a code mutant: lets a6 with meet as its product past
    validation (see `test_derived_laws_fail_on_a_product_that_does_not_preserve_joins`)."""
    monkeypatch.setattr(battery, "require_valid", lambda s, name: None)


MUTANTS = (
    *test_battery_mutants.MUTANTS,
    *test_closure.MUTANTS,
    *test_filters.MUTANTS,
    product_is_meet,
)


def structures(install, a6):
    """(label, structure) pairs the battery runs on under `install`."""
    if install is product_is_meet:
        return [("a6", replace(a6, times=a6.meet))]
    out = [
        (f"census-{size}/{i}", s)
        for size in (2, 3, 4, 5)
        for i, s in enumerate(census(size))
    ]
    return out + [("a6", a6)]


def failure_lines(install, a6) -> list[str]:
    """One JSON line per failing outcome under `install`, each structure
    rebuilt first so that it starts with an empty memo."""
    labelled = structures(install, a6)
    lines = []
    with pytest.MonkeyPatch.context() as mp, forgotten_answers():
        install(mp)
        for label, s in labelled:
            for o in battery.run_battery(replace(s, names=s.names)).failures():
                record = {
                    "mutant": install.__name__,
                    "structure": label,
                    "name": o.name,
                    "witness": o.witness,
                    "notes": list(o.notes),
                }
                lines.append(json.dumps(record, ensure_ascii=False))
    return lines


def golden_lines(install) -> list[str]:
    wanted = install.__name__
    return [
        line
        for line in GOLDEN.read_text().splitlines()
        if json.loads(line)["mutant"] == wanted
    ]


@pytest.mark.parametrize("install", MUTANTS, ids=lambda install: install.__name__)
def test_failing_outcomes_match_golden(install, a6):
    expected = golden_lines(install)
    assert expected, "every mutant makes some check fail"
    assert failure_lines(install, a6) == expected
