"""Regenerate the committed inputs and reference answers under data/.

    python3 perfbench/make_data.py

Runs the program of the checkout it sits in: the census of sizes 5 and
6 (checked against the published class counts), then every query the
cli-queries workload can ask, on the original labels and with every
proper filter of each class as the base.  The answers are stored in
original indices, keyed by canonical key, so that a relabeled query can
be checked after mapping its answer back.
"""

from __future__ import annotations

import json
import shutil
import sys

from passes import (
    BASED,
    COMMANDS,
    DATA,
    PUBLISHED,
    WORK,
    cli_argv,
    key_digest,
    run_cli,
)
from relabel import TABLES, Relabeling


def census_records(size: int) -> list[dict]:
    from reslat.modelgen import SearchSpec, enumerate_residuated

    out = []
    for rec in enumerate_residuated(SearchSpec(size=size)):
        s = rec.structure
        doc = {"key": rec.canonical_key.hex(), "n": s.n, "names": list(s.names)}
        doc.update(bot=s.bot, top=s.top)
        doc.update({t: [list(row) for row in getattr(s, t)] for t in TABLES})
        out.append(doc)
    if len(out) != PUBLISHED[size]:
        raise SystemExit(f"census {size}: {len(out)} classes, published {PUBLISHED[size]}")
    return out


def answer(r: Relabeling, command: str, path, base: int | None):
    from reslat.cli import main

    argv = cli_argv(command, path, None if base is None else r.element_list(base))
    code, out, err = run_cli(main, argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {code}: {err.strip()}")
    return r.answer(command, out)


def main() -> int:
    manifest, reference = {}, {}
    work = WORK / "make-data"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for size in PUBLISHED:
            records = census_records(size)
            lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
            (DATA / f"census-{size}.ndjson").write_text("\n".join(lines) + "\n")
            manifest[str(size)] = {
                "classes": len(records),
                "key_digest": key_digest(rec["key"] for rec in records),
            }
            for rec in records:
                r = Relabeling(rec)
                path = work / f"{rec['key'][:16]}.json"
                path.write_text(json.dumps(r.structure_file(path.stem)))
                ref = {c: answer(r, c, path, None) for c in COMMANDS if c not in BASED}
                full = (1 << rec["n"]) - 1
                ref["bases"] = {
                    str(base): {c: answer(r, c, path, base) for c in COMMANDS if c in BASED}
                    for base in ref["filters"]["filters"]
                    if base != full
                }
                reference[rec["key"]] = ref
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (DATA / "census.json").write_text(json.dumps(manifest, indent=1) + "\n")
    (DATA / "cli-reference.json").write_text(
        json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
