from itertools import permutations, product

import pytest

from reslat.errors import BadN, InvalidBaseLattice, MalformedTables, SizeOutOfRange
from reslat.modelgen import (
    SearchSpec,
    canonical_key,
    enumerate_lattices,
    enumerate_residuated,
    lattice_from_order,
    lattice_of,
)
from reslat.structure import Structure, order_tables, validate_structure


def test_lattice_counts_small():
    assert len(enumerate_lattices(2)) == 1
    assert len(enumerate_lattices(3)) == 1
    assert len(enumerate_lattices(4)) == 2


def _lattice_classes_oracle(n):
    """Independent count: enumerate middle orders pair by pair, keep the
    bounded lattices, and group by explicit isomorphism search."""
    mids = list(range(1, n - 1))
    pairs = [(x, y) for x in mids for y in mids if x != y]
    survivors = []
    for sel in range(1 << len(pairs)):
        rel = {p for i, p in enumerate(pairs) if sel >> i & 1}
        if any((y, x) in rel for (x, y) in rel):
            continue
        if any(
            (x, z) not in rel
            for (x, y) in rel
            for (w, z) in rel
            if w == y and x != z
        ):
            continue
        up = [0] * n
        up[0] = (1 << n) - 1
        up[n - 1] = 1 << (n - 1)
        for x in mids:
            up[x] = (1 << x) | (1 << (n - 1))
        for x, y in rel:
            up[x] |= 1 << y
        try:
            order_tables(n, up)
        except MalformedTables:
            continue
        survivors.append(tuple(up))

    def isomorphic(u, v):
        for perm in permutations(mids):
            pi = {0: 0, n - 1: n - 1}
            pi.update({x: y for x, y in zip(mids, perm)})
            image = [0] * n
            for x in range(n):
                for y in range(n):
                    if u[x] >> y & 1:
                        image[pi[x]] |= 1 << pi[y]
            if tuple(image) == v:
                return True
        return False

    classes = []
    for u in survivors:
        if not any(isomorphic(u, v) for v in classes):
            classes.append(u)
    return len(classes)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lattice_counts_match_oracle(n):
    assert len(enumerate_lattices(n)) == _lattice_classes_oracle(n)


def test_lattice_size_bounds():
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(1)
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(7)


def _raw_residuated_oracle(lat):
    """No-pruning reference: enumerate every commutative table with the
    identity row fixed, derive the residuum by definition, and keep the
    assignments that validate."""
    n = lat.n
    cells = [
        (x, y)
        for x in range(n)
        for y in range(x, n)
        if x != lat.top and y != lat.top
    ]
    found = []
    for values in product(range(n), repeat=len(cells)):
        table = [[None] * n for _ in range(n)]
        for z in range(n):
            table[lat.top][z] = table[z][lat.top] = z
        for (x, y), v in zip(cells, values):
            table[x][y] = table[y][x] = v
        residuum = []
        ok = True
        for y in range(n):
            row = []
            for z in range(n):
                sset = [x for x in range(n) if lat.leq(table[x][y], z)]
                best = None
                for m in sset:
                    if all(lat.leq(x, m) for x in sset):
                        best = m
                        break
                if best is None:
                    ok = False
                    break
                row.append(best)
            if not ok:
                break
            residuum.append(tuple(row))
        if not ok:
            continue
        s = Structure(
            n=n,
            names=lat.names,
            join=lat.join,
            meet=lat.meet,
            times=tuple(tuple(r) for r in table),
            residuum=tuple(residuum),
            bot=lat.bot,
            top=lat.top,
        )
        if validate_structure(s).valid:
            found.append(s)
    return found


def test_three_chain_census_matches_raw_oracle():
    (chain3,) = enumerate_lattices(3)
    raw = _raw_residuated_oracle(chain3)
    keys = {canonical_key(s) for s in raw}
    assert len(keys) == 2
    fast = list(enumerate_residuated(SearchSpec(size=3)))
    assert len(fast) == 2
    assert {r.canonical_key for r in fast} == keys


def test_size_four_census_matches_raw_oracle():
    fast = {r.canonical_key for r in enumerate_residuated(SearchSpec(size=4))}
    raw = set()
    for lat in enumerate_lattices(4):
        raw |= {canonical_key(s) for s in _raw_residuated_oracle(lat)}
    assert fast == raw


def test_size_two_census():
    recs = list(enumerate_residuated(SearchSpec(size=2)))
    assert len(recs) == 1
    s = recs[0].structure
    assert s.times[s.top][s.top] == s.top


# Belohlavek & Vychodil, "Residuated lattices of size <= 12", Order 27 (2010).
@pytest.mark.parametrize("size, count", [(2, 1), (3, 2), (4, 7), (5, 26), (6, 129)])
def test_census_matches_published_counts(size, count):
    assert sum(1 for _ in enumerate_residuated(SearchSpec(size=size))) == count


def test_census_structures_validate():
    for n in (2, 3, 4, 5):
        for rec in enumerate_residuated(SearchSpec(size=n)):
            assert validate_structure(rec.structure).valid


def test_canonical_only_prunes_soundly():
    full = list(enumerate_residuated(SearchSpec(size=4, canonical_only=False)))
    pruned = list(enumerate_residuated(SearchSpec(size=4)))
    assert len(full) >= len(pruned)
    seen = []
    for rec in full:
        if rec.canonical_key not in seen:
            seen.append(rec.canonical_key)
    assert seen == [r.canonical_key for r in pruned]


def test_limit_caps_emission():
    recs = list(enumerate_residuated(SearchSpec(size=5, limit=3)))
    assert len(recs) == 3


@pytest.mark.parametrize("limit", [0, -1])
def test_non_positive_limit_rejected(limit):
    with pytest.raises(BadN, match="limit"):
        SearchSpec(size=3, limit=limit)


def test_emission_is_sorted_and_deterministic():
    first = [r.canonical_key for r in enumerate_residuated(SearchSpec(size=4))]
    second = [r.canonical_key for r in enumerate_residuated(SearchSpec(size=4))]
    assert first == second == sorted(first)


def test_canonical_key_is_relabeling_invariant(a6):
    key = canonical_key(a6)
    perm = [0, 3, 1, 4, 2, 5]  # bot and top fixed, middles shuffled

    def relabel(table):
        out = [[0] * a6.n for _ in range(a6.n)]
        for x in range(a6.n):
            for y in range(a6.n):
                out[perm[x]][perm[y]] = perm[table[x][y]]
        return tuple(tuple(r) for r in out)

    shuffled = Structure(
        n=a6.n,
        names=tuple(a6.names[perm.index(i)] for i in range(a6.n)),
        join=relabel(a6.join),
        meet=relabel(a6.meet),
        times=relabel(a6.times),
        residuum=relabel(a6.residuum),
        bot=perm[a6.bot],
        top=perm[a6.top],
    )
    assert validate_structure(shuffled).valid
    assert canonical_key(shuffled) == key


def test_census_over_a6_lattice_contains_a6(a6):
    base = lattice_of(a6)
    keys = {
        r.canonical_key
        for r in enumerate_residuated(SearchSpec(size=6, base_lattice=base))
    }
    assert canonical_key(a6) in keys


def test_base_lattice_size_must_match(a6):
    with pytest.raises(InvalidBaseLattice):
        SearchSpec(size=4, base_lattice=lattice_of(a6))


def test_lattice_from_order_validates():
    with pytest.raises(InvalidBaseLattice):
        lattice_from_order(["0", "x", "1"], (0b111, 0b010, 0b100), 0, 2)
    # diamond of 4 is fine
    lat = lattice_from_order(
        ["0", "x", "y", "1"],
        (0b1111, 0b1010, 0b1100, 0b1000),
        0,
        3,
    )
    assert lat.join[1][2] == 3


def test_census_stats_for_a6_lattice(a6):
    base = lattice_of(a6)
    target = canonical_key(a6)
    for rec in enumerate_residuated(SearchSpec(size=6, base_lattice=base)):
        if rec.canonical_key == target:
            assert rec.stats.filters == 5
            assert rec.stats.primes == 3
            assert rec.stats.minimal_primes == 1
            assert rec.stats.normality_index == 1
            assert rec.stats.mtl is False
            break
    else:
        raise AssertionError("fixture structure missing from its own census")
