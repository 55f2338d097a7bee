"""Spans around the public functions of `reslat`, recorded from outside.

`Tracer.install()` rebinds each traced function in every `reslat.*`
module that holds it, whether the module defined it or imported it, and
wraps the battery's checks by rebinding `battery.CHECKS`.  Modules are
reached through `sys.modules`: the package attribute `reslat.omega` is
the function `omega`, not the module.

Every call of a traced function appends one span (name, start, end,
parent span, item id) to in-memory arrays.  `bits` is only counted,
since it is called millions of times per pass.  `layer_metrics()` turns
the spans and the public `cache_info()` of the cached functions into the
per-layer metrics that `layer_metric_specs()` lists; `write()` stores
the raw spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

SPANNED = {
    "modelgen": ("enumerate_lattices", "enumerate_residuated", "canonical_key"),
    "structure": ("validate_structure", "is_mtl"),
    "filters": ("all_filters", "all_ideals", "generated_filter"),
    "spectra": ("spectrum", "primes_of", "maximal_filters", "join_closed_subsets"),
    "coann": ("coannulet_table", "coann_family"),
    "omega": ("omega_family", "omega", "dense_set"),
    "normality": ("normality_report", "n_normality_verdict"),
    "fileformat": ("load_structure",),
    "cli": ("main",),
}
CACHED = (
    "filters.all_filters",
    "filters.all_ideals",
    "spectra.primes_of",
    "spectra.maximal_filters",
    "spectra.join_closed_subsets",
    "coann.coannulet_table",
    "coann.coann_family",
    "omega.omega_family",
)
# Public functions that `enumerate_residuated` calls for the census stats.
STATS_CALLS = (
    "filters.all_filters",
    "spectra.spectrum",
    "normality.normality_report",
    "structure.is_mtl",
)


def layer_metric_specs(checks) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    `checks` lists the battery's (group, check name) pairs in order.
    """
    seconds = lambda name: (name, "s", "lower")  # noqa: E731
    count = lambda name: (name, "count", "lower")  # noqa: E731
    ratio = lambda name: (name, "ratio", "higher")  # noqa: E731
    specs = [
        seconds("modelgen.enumerate_lattices.s"),
        ("modelgen.lattices", "count", "higher"),
        seconds("modelgen.search.self_s"),
        seconds("modelgen.canonical_key.s"),
        count("modelgen.canonical_key.calls"),
        ("modelgen.records", "count", "higher"),
        count("modelgen.duplicates"),
        ratio("modelgen.yield"),
        seconds("modelgen.stats.s"),
    ]
    specs += [seconds(f"battery.group.{g}.s") for g in dict.fromkeys(g for g, _ in checks)]
    specs += [seconds(f"battery.check.{name}.s") for _, name in checks]
    specs += [
        seconds("filters.all_filters.s"),
        count("filters.all_filters.calls"),
        ratio("filters.all_filters.hit_ratio"),
        count("filters.all_filters.currsize"),
        ratio("filters.all_ideals.hit_ratio"),
        seconds("filters.generated_filter.s"),
        count("filters.generated_filter.calls"),
        seconds("spectra.spectrum.s"),
        count("spectra.spectrum.calls"),
        ratio("spectra.primes_of.hit_ratio"),
        ratio("spectra.maximal_filters.hit_ratio"),
        ratio("spectra.join_closed_subsets.hit_ratio"),
        seconds("coann.coannulet_table.s"),
        count("coann.coannulet_table.calls"),
        ratio("coann.coannulet_table.hit_ratio"),
        count("coann.coannulet_table.currsize"),
        seconds("coann.coann_family.s"),
        ratio("coann.coann_family.hit_ratio"),
        seconds("omega.omega_family.s"),
        ratio("omega.omega_family.hit_ratio"),
        count("omega.omega_family.currsize"),
        seconds("omega.omega.s"),
        count("omega.omega.calls"),
        seconds("omega.dense_set.s"),
        seconds("normality.normality_report.s"),
        count("normality.normality_report.calls"),
        seconds("normality.n_normality_verdict.s"),
        count("bitsets.bits.calls"),
        seconds("fileformat.load_structure.s"),
        count("fileformat.load_structure.calls"),
        seconds("structure.validate_structure.s"),
        count("structure.validate_structure.calls"),
        seconds("cli.main.self_s"),
        seconds("trace.wall_s"),
        seconds("trace.overhead_s"),
        ("host.reference_ms", "ms", "lower"),
        seconds("host.raw_wall_s"),
    ]
    return specs


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.item = -1
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def spanned(self, name: str, fn):
        name_id = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def spanned_generator(self, name: str, fn, counter: str):
        """The span runs from the first item to exhaustion; `counter`
        counts the items yielded."""
        name_id = self._id(name)
        counts = self.counts
        counts[counter] = 0

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                for item in fn(*args, **kwargs):
                    counts[counter] += 1
                    yield item
            finally:
                self._close(idx)

        return traced

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for short in (*SPANNED, "bitsets", "battery"):
            importlib.import_module(f"reslat.{short}")
        for short, attrs in SPANNED.items():
            for attr in attrs:
                name = f"{short}.{attr}"
                orig = getattr(sys.modules[f"reslat.{short}"], attr)
                self.originals[name] = orig
                if name == "modelgen.enumerate_residuated":
                    wrapper = self.spanned_generator(name, orig, "modelgen.records")
                elif name == "modelgen.enumerate_lattices":
                    wrapper = self.spanned(name, self._counting_lattices(orig))
                else:
                    wrapper = self.spanned(name, orig)
                self._rebind(orig, wrapper)
        bits = sys.modules["reslat.bitsets"].bits
        self._rebind(bits, self.counted("bitsets.bits.calls", bits))
        battery = sys.modules["reslat.battery"]
        battery.CHECKS = tuple(
            (group, check, self.spanned(f"battery.check.{check}", fn))
            for group, check, fn in battery.CHECKS
        )
        self.checks = [(group, check) for group, check, _fn in battery.CHECKS]

    def _counting_lattices(self, fn):
        counts = self.counts
        counts["modelgen.lattices"] = 0

        def lattices(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["modelgen.lattices"] += len(out)
            return out

        return lattices

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "reslat" and not modname.startswith("reslat."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, scale: float) -> list[tuple[str, str, float]]:
        """(name, unit, value) of each per-layer metric of the pass, in
        report order, with times multiplied by `scale`; the `trace.*` and
        `host.*` metrics are left to the caller."""
        n_spans = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n_spans)]
        child = [0.0] * n_spans
        stats_child = [0.0] * n_spans
        stats_ids = {self.name_id[name] for name in STATS_CALLS if name in self.name_id}
        names, parents = self.span_name, self.span_parent
        for i in range(n_spans):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                if names[i] in stats_ids:
                    stats_child[p] += dur[i]
        total = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        stats_s = 0.0
        search = self.name_id.get("modelgen.enumerate_residuated")
        for i in range(n_spans):
            name = self.names[names[i]]
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            if names[i] == search:
                stats_s += stats_child[i]

        out: dict[str, float] = {}
        for short, attrs in SPANNED.items():
            for attr in attrs:
                out[f"{short}.{attr}.s"] = total[f"{short}.{attr}"]
                out[f"{short}.{attr}.calls"] = calls[f"{short}.{attr}"]
        key_calls = calls["modelgen.canonical_key"]
        records = self.counts["modelgen.records"]
        out["modelgen.lattices"] = self.counts["modelgen.lattices"]
        out["modelgen.search.self_s"] = self_s["modelgen.enumerate_residuated"]
        out["modelgen.records"] = records
        out["modelgen.duplicates"] = key_calls - records
        out["modelgen.yield"] = records / key_calls if key_calls else 0.0
        out["modelgen.stats.s"] = stats_s
        for group, check in self.checks:
            t = total.get(f"battery.check.{check}", 0.0)
            out[f"battery.check.{check}.s"] = t
            out[f"battery.group.{group}.s"] = out.get(f"battery.group.{group}.s", 0.0) + t
        for name in CACHED:
            info = self.originals[name].cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            out[f"{name}.currsize"] = info.currsize
        out["bitsets.bits.calls"] = self.counts["bitsets.bits.calls"]
        out["cli.main.self_s"] = self_s["cli.main"]
        return [
            (name, unit, out[name] * scale if unit == "s" else out[name])
            for name, unit, _better in layer_metric_specs(self.checks)
            if not name.startswith(("trace.", "host."))
        ]

    def write(self, path: Path) -> None:
        """Store the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["item", self.span_item.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            "spans": len(self.span_name),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (
                self.span_name,
                self.span_parent,
                self.span_item,
                self.span_start,
                self.span_end,
            ):
                arr.tofile(f)
