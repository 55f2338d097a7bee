"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/passes.py <workload> <seed> <trace: 0|1> <spans file>

A pass sets up its inputs, runs the timed section once, checks every
answer and prints one JSON line: `ready` (time.monotonic() when set-up
ended, compared by the parent with the time it started this process),
`setup_scale`, `wall_s`, `raw_wall_s`, per-item latencies `item_s`,
`ref_s`, `attempted` and `failed` items, the first few failure
messages, `rss_mb` (ru_maxrss of this process) and, when traced, the
per-layer values of the pass.  The spans of a traced pass are written
to the spans file.  The exit code is 0 whenever the pass ran to the
end, whether or not its answers were right.

Every time but `raw_wall_s` is scaled to the reference host speed (see
`hostspeed.py`): the host is probed before the first item and after
every `PROBE_EVERY_S` of work, and each item's time is multiplied by
`REFERENCE_S` over the mean of the probes on either side of it.
`setup_scale` is that factor for the first probe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
WORK = ROOT / ".bench_work"

# Classes of residuated lattices by size, as published by Belohlavek and
# Vychodil, "Residuated lattices of size <= 12", Order 27 (2010).
PUBLISHED = {5: 26, 6: 129}
COMMANDS = ("validate", "filters", "spectrum", "coann", "omega", "normality", "export-dot")
BASED = frozenset({"spectrum", "coann", "omega", "normality"})
CLI_REPEATS = 3
MAX_ERRORS = 5
PROBE_EVERY_S = 0.25

sys.path.insert(0, str(ROOT / "src"))


def key_digest(keys) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


def load_census(size: int) -> list[dict]:
    """The committed census records of one size, checked against the
    published class count and the committed key digest."""
    path = DATA / f"census-{size}.ndjson"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    manifest = json.loads((DATA / "census.json").read_text())[str(size)]
    if len(records) != PUBLISHED[size]:
        raise SystemExit(f"{path}: {len(records)} classes, published {PUBLISHED[size]}")
    if key_digest(r["key"] for r in records) != manifest["key_digest"]:
        raise SystemExit(f"{path}: canonical keys do not match the committed digest")
    return records


def cli_argv(command: str, path: Path, base: str | None) -> list[str]:
    argv = [command, str(path)]
    if base is not None:
        argv += ["--base", base]
    if command != "export-dot":
        argv += ["--format", "json"]
    return argv


def run_cli(main, argv) -> tuple[int, str, str]:
    """Call the CLI in-process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Pass:
    """The state of one pass: its seed, tracer, item times and failures."""

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.item_s: list[float] = []
        self.raw_item_s: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, items: int = 1) -> None:
        self.failed += items
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def ready(self) -> None:
        """End of set-up: install tracing, then note the time."""
        if self.tracer is not None:
            self.tracer.install()
        self.ready_at = time.monotonic()

    def run_items(self, items, fn) -> list:
        """The timed section: call `fn` on each item, timing each call.

        Returns the results, with an exception in place of a result
        when the call raised one.
        """
        results = []
        self.refs.append(hostspeed.probe())
        first, work = 0, 0.0
        for i, item in enumerate(items):
            if self.tracer is not None:
                self.tracer.item = i
            t = time.perf_counter()
            try:
                results.append(fn(item))
            except Exception as exc:  # a failing item, not a failing benchmark
                results.append(exc)
            dt = time.perf_counter() - t
            self.raw_item_s.append(dt)
            work += dt
            if work >= PROBE_EVERY_S or i == len(items) - 1:
                self.refs.append(hostspeed.probe())
                scale = 2 * hostspeed.REFERENCE_S / (self.refs[-2] + self.refs[-1])
                self.item_s.extend(x * scale for x in self.raw_item_s[first:])
                first, work = i + 1, 0.0
        return results


def census_6(p: Pass) -> None:
    """`reslat search --size 6`: the full census, 129 classes, as one item.

    The census takes no input, so the seed changes nothing here.
    """
    modelgen = sys.modules["reslat.modelgen"]
    digest = json.loads((DATA / "census.json").read_text())["6"]["key_digest"]
    p.ready()
    [records] = p.run_items(
        [modelgen.SearchSpec(size=6)], lambda spec: list(modelgen.enumerate_residuated(spec))
    )
    p.attempted = PUBLISHED[6]
    if isinstance(records, Exception):
        p.fail(f"census 6 raised {records!r}", PUBLISHED[6])
    elif len(records) != PUBLISHED[6]:
        p.fail(f"census 6 has {len(records)} classes, published {PUBLISHED[6]}", PUBLISHED[6])
    elif key_digest(r.canonical_key.hex() for r in records) != digest:
        p.fail("census 6 canonical keys do not match the committed digest", PUBLISHED[6])


def battery_census(p: Pass) -> None:
    """`run_battery` (all groups) on every size-5 and size-6 class, each
    relabeled at random."""
    import reslat
    from relabel import Relabeling

    battery = sys.modules["reslat.battery"]
    structures = []
    for rec in load_census(5) + load_census(6):
        r = Relabeling(rec, p.rng)
        structures.append(
            reslat.Structure(n=r.n, names=r.names, bot=r.bot, top=r.top, **r.tables)
        )
    n_checks = len(battery.CHECKS)
    p.ready()
    reports = p.run_items(structures, battery.run_battery)
    p.attempted = len(structures)
    for i, rep in enumerate(reports):
        if isinstance(rep, Exception):
            p.fail(f"structure {i}: run_battery raised {rep!r}")
        elif len(rep.outcomes) != n_checks:
            p.fail(f"structure {i}: {len(rep.outcomes)} outcomes, {n_checks} checks")
        elif not rep.all_passed:
            bad = [o.name for o in rep.outcomes if not o.passed]
            p.fail(f"structure {i}: failed {bad}")
        elif any(isinstance(o.witness, dict) and "error" in o.witness for o in rep.outcomes):
            p.fail(f"structure {i}: a check returned an error witness")


def cli_queries(p: Pass) -> None:
    """Seven CLI commands, three times per size-5 and size-6 class; every
    query reads its own relabeled structure file.

    The files depend only on the seed.  The first pass of a run writes
    them and later passes read the same files, so that set-up time
    is not dominated by creating 3255 files, whose cost on the defining
    host varied between 1.4 and 2.0 s.
    """
    from relabel import Relabeling

    cli = sys.modules["reslat.cli"]
    reference = json.loads((DATA / "cli-reference.json").read_text())
    work = WORK / f"cli-{p.seed}"
    written = work / "complete"
    write = not written.exists()
    if write:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
    queries = []
    for rec in load_census(5) + load_census(6):
        ref = reference[rec["key"]]
        bases = sorted(int(b) for b in ref["bases"])
        for _ in range(CLI_REPEATS):
            for command in COMMANDS:
                r = Relabeling(rec, p.rng)
                path = work / f"q{len(queries)}.json"
                if write:
                    path.write_text(json.dumps(r.structure_file(path.stem)))
                base = p.rng.choice(bases) if command in BASED else None
                argv = cli_argv(command, path, None if base is None else r.element_list(base))
                expected = ref[command] if base is None else ref["bases"][str(base)][command]
                queries.append((command, argv, r, expected))
    written.touch()
    p.rng.shuffle(queries)
    p.ready()
    main = cli.main
    answers = p.run_items([q[1] for q in queries], lambda argv: run_cli(main, argv))
    p.attempted = len(queries)
    for (command, argv, r, expected), answer in zip(queries, answers):
        if isinstance(answer, Exception):
            p.fail(f"{' '.join(argv)}: raised {answer!r}")
            continue
        code, out, err = answer
        if code != 0:
            p.fail(f"{' '.join(argv)}: exit {code}: {err.strip()}")
            continue
        try:
            got = json.loads(json.dumps(r.answer(command, out)))
        except (ValueError, KeyError) as exc:
            p.fail(f"{' '.join(argv)}: unreadable answer: {exc!r}")
            continue
        if got != expected:
            p.fail(f"{' '.join(argv)}: answer differs from the reference")


WORKLOADS = {
    "census-6": census_6,
    "battery-census": battery_census,
    "cli-queries": cli_queries,
}


def main(argv) -> int:
    workload, seed, trace, spans_file = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    import reslat.cli  # noqa: F401  (imports every other reslat module)

    if Path(reslat.__file__).resolve().parent != ROOT / "src" / "reslat":
        raise SystemExit(f"reslat was imported from {reslat.__file__}, not from src/")

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    p = Pass(seed, tracer)
    WORKLOADS[workload](p)
    wall, raw_wall = sum(p.item_s), sum(p.raw_item_s)
    result = {
        "ready": p.ready_at,
        "setup_scale": hostspeed.REFERENCE_S / p.refs[0],
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "ref_s": statistics.median(p.refs),
        "item_s": p.item_s,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall / raw_wall)
        tracer.write(Path(spans_file))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
