"""The names `perfbench/tracer.py` rebinds still exist in `reslat`.

The tracer wraps functions by name from outside the package; a rename or
a removed cache would otherwise only show when a traced benchmark run
fails.  This test reads the tracer's tables and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
