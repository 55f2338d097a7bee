"""A traced benchmark pass runs to its result line.

`perfbench/tracer.py` wraps `reslat` functions by name and, at the end
of a traced pass, reads `cache_info()` from the cached analyses.  A
change that breaks either only shows when the pass fails to print its
result line, so one pass of two workloads runs here, in a subprocess,
exactly as `perfbench/run.py` starts it; in the battery pass every
check must have a span, so a registry the tracer cannot wrap shows.
Nothing under `perfbench/` is changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PASSES = REPO / "perfbench" / "passes.py"
BENCHMARK = REPO / "BENCHMARK.json"


@pytest.mark.parametrize("workload", ["census-6", "battery-census"])
def test_traced_pass_ends_with_result_line(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PASSES), workload, "1", "1", str(tmp_path / "x.spans")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    declared = [
        m["name"]
        for m in json.loads(BENCHMARK.read_text())["per_layer"]
        if not m["name"].startswith(("trace.", "host."))
    ]
    assert [name for name, _unit, _value in result["layers"]] == declared
    if workload == "battery-census":
        # A check the tracer no longer wraps would read 0 here.
        checks = {n: v for n, _u, v in result["layers"] if n.startswith("battery.check.")}
        assert len(checks) == 64
        assert [n for n, v in checks.items() if not v > 0] == []
