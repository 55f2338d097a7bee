"""Command line entry point binding all analysis modules.

Exit codes: 0 on success (all checks passed), 1 when a verification
condition failed or a predicate answered no, 2 on input or usage
errors.  Diagnostics go to stderr, data to stdout.  A reader that
closes stdout early (`reslat search --size 5 | head -1`) ends the run
with exit 0 and nothing on stderr; any other failed write (a full disk)
ends it with exit 2 and one `cannot write` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from itertools import islice

from . import __version__
from .battery import GROUPS, run_battery
from .bitsets import bits
from .coann import coann_family, coannihilator, coannulet_table
from .errors import (
    ImproperFilter,
    InvalidBaseLattice,
    MalformedTables,
    SizeOutOfRange,
    StructureFileError,
)
from .fileformat import dump_structure, load_lattice, load_structure
from .filters import all_filters, generated_filter, is_filter
from .modelgen import SearchSpec, enumerate_residuated
from .normality import normality_report
from .omega import dense_set, omega_family
from .spectra import spectrum
from .structure import Structure, covers, require_valid, subset_repr, validate_structure

TOOL = "reslat"


class CliError(ValueError):
    pass


def _names(s: Structure, mask: int) -> list[str]:
    return [s.names[i] for i in bits(mask)]


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(fmt: str, command: str, name: str, payload: dict, human: list[str]) -> None:
    if fmt == "json":
        doc = {"tool": TOOL, "version": __version__, "command": command, "structure": name}
        doc.update(payload)
        sys.stdout.write(_json_line(doc))
    else:
        sys.stdout.write(f"[{TOOL} {__version__}] {command} {name}\n")
        for line in human:
            sys.stdout.write(line + "\n")


def _parse_elements(s: Structure, text: str) -> int:
    mask = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            mask |= 1 << s.element(token)
        except KeyError:
            raise CliError(f"unknown element: {token!r}") from None
    return mask


def _base_filter(s: Structure, args) -> tuple[int, list[str]]:
    """Resolve --base/--base-gen into a filter mask plus preamble lines."""
    if getattr(args, "base_gen", None) is not None:
        gens = _parse_elements(s, args.base_gen)
        f = generated_filter(s, gens)
        return f, [f"generated filter: {subset_repr(s, f)}"]
    if getattr(args, "base", None) is not None:
        mask = _parse_elements(s, args.base)
        if not is_filter(s, mask):
            raise CliError(f"not a filter: {subset_repr(s, mask)}")
        return mask, []
    return 1 << s.top, []


def _load_validated(path) -> tuple[Structure, str]:
    s, name = load_structure(path)
    require_valid(s, name)
    return s, name


def cmd_validate(args) -> int:
    s, name = load_structure(args.path)
    report = validate_structure(s)
    payload = {
        "valid": report.valid,
        "violations": [
            {"axiom": axiom, "witness": [s.names[i] for i in witness]}
            for axiom, witness in report.violations
        ],
    }
    human = ["valid"] if report.valid else [
        f"violation: {axiom} at ({','.join(s.names[i] for i in witness)})"
        for axiom, witness in report.violations
    ]
    _emit(args.format, "validate", name, payload, human)
    return 0 if report.valid else 1


def cmd_filters(args) -> int:
    s, name = _load_validated(args.path)
    filters = all_filters(s)
    payload = {"filters": [_names(s, f) for f in filters]}
    human = [f"{len(filters)} filters"] + [subset_repr(s, f) for f in filters]
    _emit(args.format, "filters", name, payload, human)
    return 0


def cmd_spectrum(args) -> int:
    s, name = _load_validated(args.path)
    base, pre = _base_filter(s, args)
    rep = spectrum(s, base)
    payload = {
        "base": _names(s, base),
        "primes": [_names(s, p) for p in rep.primes],
        "maximals": [_names(s, p) for p in rep.maximals],
        "minimal_primes": [_names(s, p) for p in rep.minimal_primes],
    }
    human = pre + [
        f"base: {subset_repr(s, base)}",
        "primes: " + ", ".join(subset_repr(s, p) for p in rep.primes),
        "maximals: " + ", ".join(subset_repr(s, p) for p in rep.maximals),
        "minimal primes: " + ", ".join(subset_repr(s, p) for p in rep.minimal_primes),
    ]
    if not rep.minimal_primes:
        human.append("note: the base generates the whole carrier; no primes above it")
    _emit(args.format, "spectrum", name, payload, human)
    return 0


def cmd_coann(args) -> int:
    s, name = _load_validated(args.path)
    base, pre = _base_filter(s, args)
    if args.of is not None:
        of_mask = _parse_elements(s, args.of)
        value = coannihilator(s, base, of_mask)
        payload = {
            "base": _names(s, base),
            "of": _names(s, of_mask),
            "coannihilator": _names(s, value),
        }
        human = pre + [subset_repr(s, value)]
        _emit(args.format, "coann", name, payload, human)
        return 0
    fam = coann_family(s, base)
    table = coannulet_table(s, base)
    payload = {
        "base": _names(s, base),
        "coannulets": {s.names[x]: _names(s, table[x]) for x in range(s.n)},
        "members": [_names(s, g) for g in fam],
    }
    human = pre + [f"base: {subset_repr(s, base)}"]
    human += [
        f"(base : {s.names[x]}) = {subset_repr(s, table[x])}" for x in range(s.n)
    ]
    human.append("members: " + ", ".join(subset_repr(s, g) for g in fam))
    _emit(args.format, "coann", name, payload, human)
    return 0


def cmd_omega(args) -> int:
    s, name = _load_validated(args.path)
    base, pre = _base_filter(s, args)
    fam = omega_family(s, base)
    dense = dense_set(s, base)
    payload = {
        "base": _names(s, base),
        "members": [_names(s, g) for g in fam],
        "witness_ideals": [_names(s, w) for w in fam.values()],
        "dense": _names(s, dense),
    }
    human = pre + [f"base: {subset_repr(s, base)}"]
    human += [
        f"member {subset_repr(s, g)} from ideal {subset_repr(s, w)}"
        for g, w in fam.items()
    ]
    human.append(f"dense elements: {subset_repr(s, dense)}")
    _emit(args.format, "omega", name, payload, human)
    return 0


def cmd_normality(args) -> int:
    s, name = _load_validated(args.path)
    base, pre = _base_filter(s, args)
    rep = normality_report(s, base)
    payload = {
        "base": _names(s, base),
        "index": rep.index,
        "per_prime": [
            {"prime": _names(s, p), "minimal_primes": c} for p, c in rep.per_prime
        ],
    }
    human = pre + [
        f"base: {subset_repr(s, base)}",
        f"index: {rep.index}" + ("  (normal)" if rep.index == 1 else ""),
    ]
    human += [
        f"prime {subset_repr(s, p)} holds {c} base-minimal prime(s)"
        for p, c in rep.per_prime
    ]
    _emit(args.format, "normality", name, payload, human)
    return 0


def cmd_verify(args) -> int:
    s, name = load_structure(args.path)  # run_battery refuses an invalid s
    groups = GROUPS if args.battery == "all" else (args.battery,)
    report = run_battery(s, groups=groups, name=name)
    payload = {
        "battery": args.battery,
        "checks": [
            {
                "name": o.name,
                "group": o.group,
                "passed": o.passed,
                "witness": o.witness,
                "notes": list(o.notes),
            }
            for o in report.outcomes
        ],
        "all_passed": report.all_passed,
    }
    human = []
    for o in report.outcomes:
        human.append(("PASS " if o.passed else "FAIL ") + o.name)
        if not o.passed and o.witness is not None:
            human.append(f"  witness: {o.witness}")
        for note in o.notes:
            human.append(f"  note: {note}")
    human.append(
        f"{sum(o.passed for o in report.outcomes)}/{len(report.outcomes)} checks passed"
    )
    _emit(args.format, "verify", name, payload, human)
    return 0 if report.all_passed else 1


def _write_census(out, spec: SearchSpec, limit: int | None) -> None:
    count = 0
    for count, record in enumerate(islice(enumerate_residuated(spec), limit), 1):
        s = record.structure
        doc = {
            "structure": dump_structure(s, f"R{s.n}-{count:03d}"),
            "canonical_key": record.canonical_key.hex(),
            "stats": asdict(record.stats),
        }
        out.write(_json_line(doc))
    out.write(_json_line({"census_counts": {str(spec.size): count}, "total": count}))


def cmd_search(args) -> int:
    base = None
    size = args.size
    if args.base_lattice is not None:
        base, _ = load_lattice(args.base_lattice)
        if size is None:
            size = base.n
    if size is None:
        raise CliError("give --size or --base-lattice")
    spec = SearchSpec(size=size, base_lattice=base, canonical_only=not args.all_labelings)
    if args.limit is not None and args.limit < 1:
        raise CliError(f"search limit must be at least 1, got {args.limit}")
    if not args.out:
        _write_census(sys.stdout, spec, args.limit)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            _write_census(out, spec, args.limit)
    except BrokenPipeError:
        raise  # a reader that went away ends the run quietly, as on stdout
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


def _dot_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _dot_label(text: str) -> str:
    """A quoted DOT string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export_dot(args) -> int:
    s, name = _load_validated(args.path)
    if args.what == "hasse":
        prefix, labels, up, ranks = "e", s.names, s.up, s.heights
    else:
        filters = all_filters(s)
        prefix = "f"
        labels = [subset_repr(s, f) for f in filters]
        # up[i] has bit j when filter i is inside filter j.
        up = [sum(1 << j for j, g in enumerate(filters) if not f & ~g) for f in filters]
        ranks = [f.bit_count() for f in filters]
    lines = [f"graph {args.what}_{_dot_name(name)} {{"]
    lines += [f"  {prefix}{i} [label={_dot_label(text)}];" for i, text in enumerate(labels)]
    by_rank: dict[int, list[int]] = {}
    for i, rank in enumerate(ranks):
        by_rank.setdefault(rank, []).append(i)
    for rank in sorted(by_rank):
        row = "; ".join(f"{prefix}{i}" for i in by_rank[rank])
        lines.append(f"  {{ rank=same; {row}; }}")
    lines += [f"  {prefix}{x} -- {prefix}{y};" for x, y in covers(up)]
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `reslat` argument parser, built on the first call.

    Every later call returns the same parser object, which `main` shares
    across calls in one process: do not add arguments to it or change
    its defaults.  `parse_args` returns a fresh namespace each time, and
    `--help` reads the terminal width when it formats, not here.
    """
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Analyze finite residuated lattices given by operation tables.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, report=True, **kw):
        """A subcommand; `report` gives it `--format`, which only the
        commands that print a report read."""
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        if report:
            p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("validate", cmd_validate, help="check the axioms of a structure file")
    p.add_argument("path")

    p = add("filters", cmd_filters, help="enumerate all filters")
    p.add_argument("path")

    def base_opts(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--base", help="base filter as comma separated elements")
        group.add_argument(
            "--base-gen",
            help="generators; the generated filter is used and printed first",
        )

    p = add("spectrum", cmd_spectrum, help="prime, maximal and minimal prime filters")
    p.add_argument("path")
    base_opts(p)

    p = add("coann", cmd_coann, help="coannihilators of a base filter")
    p.add_argument("path")
    base_opts(p)
    p.add_argument("--of", help="elements whose coannihilator to compute")

    p = add("omega", cmd_omega, help="omega filter family of a base filter")
    p.add_argument("path")
    base_opts(p)

    p = add("normality", cmd_normality, help="normality index of a base filter")
    p.add_argument("path")
    base_opts(p)

    p = add("verify", cmd_verify, help="run the law battery")
    p.add_argument("path")
    p.add_argument("--battery", choices=("all",) + GROUPS, default="all")

    p = add("search", cmd_search, report=False, help="census of residuated lattices")
    p.add_argument("--size", type=int)
    p.add_argument("--base-lattice", help="structure file fixing the lattice reduct")
    p.add_argument("--out", help="write newline delimited records here")
    p.add_argument("--limit", type=int)
    p.add_argument(
        "--all-labelings",
        action="store_true",
        help="emit every completed assignment, not one per isomorphism class",
    )

    p = add(
        "export-dot",
        cmd_export_dot,
        report=False,
        help="DOT graph of the order or the filters",
    )
    p.add_argument("path")
    p.add_argument("--what", choices=("hasse", "filters"), default="hasse")

    return parser


def main(argv=None) -> int:
    """Run one `reslat` command in process and return its exit code.

    A failed write to stdout ends the command: a reader that closed the
    pipe gives exit 0 and no message, any other failure (a full disk)
    exit 2 and one `cannot write stdout` line.  `sys.stdout` is left as
    the caller set it, so a later call writes to it as usual.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 0
    except OSError as exc:
        # Every file a command opens turns its own OSError into an error
        # that names the file, so what reaches here is a write to stdout.
        sys.stderr.write(f"{TOOL}: error: cannot write stdout: {exc.strerror}\n")
        return 2
    except (
        CliError,
        StructureFileError,
        MalformedTables,
        InvalidBaseLattice,
        SizeOutOfRange,
        ImproperFilter,
    ) as exc:
        sys.stderr.write(f"{TOOL}: error: {exc}\n")
        return 2


def console_main() -> None:
    """Entry point of the `reslat` script and of `python -m reslat`.

    What `main` could not write stays in the stdout buffer; if it still
    cannot be flushed, stdout is pointed at devnull so that the flush at
    interpreter exit is silent too.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
