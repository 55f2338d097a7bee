"""Every public function is reached by a command or a battery check.

Under a profiler, the test runs the battery on every fixture, every
command on a6 and a small census, and then asserts that each function
named in `reslat.__all__` was entered.  A public routine that nothing
reaches either gets a command or check that uses it, or leaves.
"""

import inspect
import sys

import reslat
from reslat.battery import run_battery
from reslat.cli import main
from reslat.fileformat import load_structure

from conftest import FIXTURES

A6 = str(FIXTURES / "a6.json")

COMMANDS = (
    ["validate", A6],
    ["filters", A6],
    ["spectrum", A6],
    ["coann", A6],
    ["coann", A6, "--of", "a,c"],
    ["omega", A6],
    ["normality", A6],
    ["verify", A6],
    ["export-dot", A6, "--what", "hasse"],
    ["export-dot", A6, "--what", "filters"],
    ["search", "--size", "4"],
)


def public_functions():
    for name in reslat.__all__:
        obj = getattr(reslat, name)
        if not inspect.isclass(obj):
            yield name, getattr(obj, "__wrapped__", obj).__code__


def test_every_public_function_is_reached(capsys):
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        # Fresh loads, so that no memoized answer skips a routine body.
        for path in sorted(FIXTURES.glob("*.json")):
            s, name = load_structure(path)
            assert run_battery(s, name=name).all_passed
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = [name for name, code in public_functions() if code not in entered]
    assert unreached == []
