"""Seconds per stage of the census, `reslat search --size N`.

    python tests/census_stages.py --size 6 [--repeat 5]

Runs the stages of `modelgen.enumerate_residuated` one after another
over the whole census, each over all its inputs, so that each is timed
alone (the census itself runs them lattice by lattice, in
`modelgen._lattice_records`): lattice enumeration, the product search
(`modelgen._times_tables`, which tests associativity as the cells fill)
and the key heads and join cosets (`modelgen.coset`, which the census
sorts by key head), each over the lattices that pass `_splits_at_top`,
as in the census (7 of 15 at size 6; the split test itself is cheap and
not timed), then per product table the residuum (each lattice's
`_residuum_state` built on its first table, and each distinct product
row derived once per lattice into it) and the canonical key of its flat
times and residuum tables, sorting and deduplication (the sort is
stable and puts equal keys side by side, so, as in the census, a record
is dropped when its key equals the one before), then per class
`Structure` construction by `Lattice.structure`, which shape-checks the
product and residuum tables only and hands over the lattice's order
data, and the census stats.
The census checks no axiom (the lattices and the products are what they
should be by construction), and neither does this script.  The stats
have a lattice part, the join-prime elements, read only for the
lattices with at least one product table, and a part read off the
idempotents, run once per class.  Each lattice's join and meet tables
are built and shape-checked with it, once, in the "lattices" stage; its
other data is built by the first stage that reads it, as in the census.
Each stage prints the least of its times over `--repeat` fresh runs
(new lattices, relabeling maps rebuilt) and how many calls it made.
Then come the sum of the stages and the end-to-end census,
`list(enumerate_residuated(...))`, also the least over the repeats.
The last line is the tracemalloc peak of one more end-to-end census,
run apart and not timed, whose records are dropped as they come, as
`reslat search` writes them: the memory the census itself holds, which
its lattice-by-lattice run bounds by the largest lattice's tables.

Stdlib only; not collected by pytest.
"""

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reslat import modelgen  # noqa: E402


def timed(stages, name, fn, items):
    """Run fn over items, append (name, seconds, calls) to stages and
    return the results."""
    t = time.perf_counter()
    out = [fn(item) for item in items]
    stages.append((name, time.perf_counter() - t, len(items)))
    return out


def census_stages(size):
    """[(stage, seconds, calls)] of one census of `size`, stage by stage."""
    modelgen._relabeling_maps.cache_clear()
    stages = []
    [lats] = timed(stages, "lattices", modelgen.enumerate_lattices, [size])
    split = [lat for lat in lats if modelgen._splits_at_top(lat)]
    found = timed(stages, "product search", modelgen._times_tables, split)
    tables = [(lat, t) for lat, ts in zip(split, found) for t in ts]
    used = [lat for lat, ts in zip(split, found) if ts]
    heads = dict(zip(map(id, split), timed(stages, "coset", modelgen.coset, split)))
    states = {}

    def residuum(lt):
        lat, times = lt
        if id(lat) not in states:
            states[id(lat)] = modelgen._residuum_state(lat)
        return modelgen._derive_residuum(times, *states[id(lat)])

    residua = timed(stages, "residuum", residuum, tables)
    records = [(lat, t, r) for (lat, t), r in zip(tables, residua)]
    keys = timed(
        stages,
        "key",
        lambda ltr: modelgen._table_key(
            *heads[id(ltr[0])], modelgen._flat(ltr[1]), modelgen._flat(ltr[2])
        ),
        records,
    )

    def first_of_each_class(records):
        records.sort(key=lambda kv: kv[0])
        out, previous = [], None
        for key, ltr in records:
            if key != previous:
                out.append(ltr)
            previous = key
        return out

    [kept] = timed(stages, "sort", first_of_each_class, [list(zip(keys, records))])
    structures = timed(stages, "Structure", lambda ltr: ltr[0].structure(*ltr[1:]), kept)
    classes = [(s, lat) for s, (lat, _, _) in zip(structures, kept)]
    timed(stages, "stats, lattice part", lambda lat: lat.join_primes, used)
    timed(stages, "stats, per class", lambda sl: modelgen._structure_stats(*sl), classes)
    return stages


def end_to_end(size):
    modelgen._relabeling_maps.cache_clear()
    t = time.perf_counter()
    records = list(modelgen.enumerate_residuated(modelgen.SearchSpec(size=size)))
    return time.perf_counter() - t, len(records)


def peak_memory(size):
    """tracemalloc's peak, in bytes, over one census of `size` whose
    records are dropped as they come."""
    modelgen._relabeling_maps.cache_clear()
    tracemalloc.start()
    for _ in modelgen.enumerate_residuated(modelgen.SearchSpec(size=size)):
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    runs = [census_stages(args.size) for _ in range(args.repeat)]
    best = [min(run[i][1] for run in runs) for i in range(len(runs[0]))]
    for (name, _, calls), seconds in zip(runs[0], best):
        print(f"{name:26} {seconds:9.4f} s  {calls:7d} calls")
    print(f"{'sum of stages':26} {sum(best):9.4f} s")
    ends = [end_to_end(args.size) for _ in range(args.repeat)]
    print(f"{'end to end':26} {min(t for t, _ in ends):9.4f} s  {ends[0][1]:7d} records")
    print(f"{'tracemalloc peak':26} {peak_memory(args.size) / 1e6:9.4f} MB")


if __name__ == "__main__":
    main()
