"""The names `perfbench/tracer.py` rebinds still exist in `reslat`, and
the metrics it reports are the ones `BENCHMARK.json` declares.

The tracer wraps functions by name from outside the package; a rename or
a removed cache would otherwise only show when a traced benchmark run
fails.  These tests read the tracer's tables and `BENCHMARK.json` and
change nothing there.
"""

import importlib
import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "perfbench" / "tracer.py"
BENCHMARK = REPO / "BENCHMARK.json"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(short: str, attr: str):
    return getattr(importlib.import_module(f"reslat.{short}"), attr, None)


def test_spanned_functions_exist():
    tracer = _tracer()
    missing = [
        f"{short}.{attr}"
        for short, attrs in tracer.SPANNED.items()
        for attr in attrs
        if not callable(_resolve(short, attr))
    ]
    assert not missing
    assert callable(_resolve("bitsets", "bits"))
    assert all(callable(fn) for _group, _name, fn in _resolve("battery", "CHECKS"))


def test_cached_functions_expose_cache_info():
    tracer = _tracer()
    for name in tracer.CACHED:
        fn = _resolve(*name.split("."))
        assert hasattr(fn, "cache_info"), name
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0, name


def test_layer_metrics_match_benchmark_declaration():
    """A traced run reports exactly the per-layer metrics that
    `BENCHMARK.json` declares, in order, with the same unit and
    direction; per-check names come from `battery.CHECKS`, so a check
    added, removed or renamed without the declaration shows here."""
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    checks = [(group, name) for group, name, _fn in _resolve("battery", "CHECKS")]
    reported = _tracer().layer_metric_specs(checks)
    assert reported == [(m["name"], m["unit"], m["better"]) for m in declared]
