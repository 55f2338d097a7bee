"""Benchmark entry point for reslat.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each pass of a workload runs in a
fresh interpreter (`passes.py`), one pass at a time: the analyses cache
per structure for the life of the process, so in-process repeats would
measure warm caches.  Passes are started while the next one is expected
to end within `--seconds`; at least `MIN_PASSES` run, or one round of an
untraced and a traced pass with `--trace 1`.

With `--trace 0` the last line of stdout is one JSON object with the
end-to-end metrics.  With `--trace 1` untraced and traced passes
alternate, and the metrics are the per-layer values (median over the
traced passes) plus the tracing overhead.  The process exits 1 without
a result line when a pass cannot run at all, for instance when the
program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACES = ROOT / ".bench_traces"
WORK = ROOT / ".bench_work"
WORKLOADS = ("census-6", "battery-census", "cli-queries")
MIN_PASSES = 3
DEADLINE_S = 170.0


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, remaining: float) -> dict:
    """Run one pass in a fresh interpreter; return its result plus `setup_s`,
    timed from here and scaled to the reference host speed."""
    spans = TRACES / f"{workload}.spans"
    argv = [sys.executable, str(HERE / "passes.py"), workload, str(seed), str(int(traced)), str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result["ready"] - start) * result["setup_scale"]
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Alternate untraced and (with `trace`) traced passes for `seconds`."""
    t0 = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while True:
        r0 = time.monotonic()
        remaining = DEADLINE_S - (r0 - t0)
        untraced.append(run_pass(workload, seed, False, remaining))
        if trace:
            traced.append(run_pass(workload, seed, True, DEADLINE_S - (time.monotonic() - t0)))
        rounds.append(time.monotonic() - r0)
        elapsed = time.monotonic() - t0
        expected = statistics.median(rounds)
        if len(rounds) >= (1 if trace else MIN_PASSES) and elapsed + expected > seconds:
            break
        if elapsed + 2 * max(rounds) > DEADLINE_S:
            break
    return untraced, traced


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict]) -> dict:
    item_ms = [t * 1000 for p in passes for t in p["item_s"]]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "items_per_s": (
            statistics.median((p["attempted"] - p["failed"]) / p["wall_s"] for p in passes),
            "1/s",
        ),
        "item_ms_p50": (quantile(item_ms, 50), "ms"),
        "item_ms_p90": (quantile(item_ms, 90), "ms"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for i, (name, unit, _value) in enumerate(traced[0]["layers"]):
        value = statistics.median(p["layers"][i][2] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    metrics["host.reference_ms"] = {
        "value": statistics.median(p["ref_s"] for p in untraced) * 1000,
        "unit": "ms",
    }
    metrics["host.raw_wall_s"] = {
        "value": statistics.median(p["raw_wall_s"] for p in untraced),
        "unit": "s",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        untraced, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for message in p["errors"]:
            sys.stderr.write(f"run.py: {args.workload}: {message}\n")
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
