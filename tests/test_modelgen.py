import random
from collections import Counter
from itertools import permutations, product

import pytest

from reslat.errors import BadN, InvalidBaseLattice, MalformedTables, SizeOutOfRange
from reslat.modelgen import (
    SearchSpec,
    _derive_residuum,
    _lattice_key,
    _relabelings,
    _times_tables,
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
    assert len(enumerate_lattices(5)) == 5
    assert len(enumerate_lattices(6)) == 15


def _lattice_classes_oracle(n):
    """Independent classes: enumerate middle orders pair by pair, keep the
    bounded lattices, and group by explicit isomorphism search; one up-mask
    tuple per class."""
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
    return classes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lattice_counts_match_oracle(n):
    classes = _lattice_classes_oracle(n)
    lattices = enumerate_lattices(n)
    assert len(lattices) == len(classes)
    assert {_lattice_key(n, up, 0, n - 1) for up in classes} == {
        _lattice_key(n, lat.up, lat.bot, lat.top) for lat in lattices
    }


def test_lattice_size_bounds():
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(1)
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(9)


def _times_tables_oracle(lat):
    """Every commutative table with the bot and identity rows fixed, in
    the lexicographic order of its upper-triangle middle cells, kept when
    monotone, associative and residuated: {x | x * y <= z} has a maximum
    for every y and z."""
    n, bot, top = lat.n, lat.bot, lat.top
    mids = [i for i in range(n) if i not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    pairs = [(x, x2) for x in range(n) for x2 in range(n) if lat.leq(x, x2)]
    out = []
    for values in product(range(n), repeat=len(cells)):
        t = [[None] * n for _ in range(n)]
        for z in range(n):
            t[bot][z] = t[z][bot] = bot
            t[top][z] = t[z][top] = z
        for (x, y), v in zip(cells, values):
            t[x][y] = t[y][x] = v
        monotone = all(lat.leq(t[x][y], t[x2][y]) for x, x2 in pairs for y in range(n))
        if (
            monotone
            and all(
                t[t[x][y]][z] == t[x][t[y][z]]
                for x in range(n)
                for y in range(n)
                for z in range(n)
            )
            and all(_has_maximum(lat, t, y, z) for y in range(n) for z in range(n))
        ):
            out.append(tuple(map(tuple, t)))
    return out


def _has_maximum(lat, t, y, z):
    below = [x for x in range(lat.n) if lat.leq(t[x][y], z)]
    return any(all(lat.leq(x, m) for x in below) for m in below)


def _both_labelings(n):
    """Each lattice of size n as enumerated, where joins get the lower
    numbers, and with its middle elements numbered in reverse, where the
    cell of a join is filled after the cells of its parts (as in a base
    lattice file that lists elements bottom up)."""
    pi = [0, *range(n - 2, 0, -1), n - 1]
    for lat in enumerate_lattices(n):
        up = [0] * n
        for x in range(n):
            for y in range(n):
                if lat.leq(x, y):
                    up[pi[x]] |= 1 << pi[y]
        yield lat
        yield lattice_from_order(lat.names, up, 0, n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_times_tables_match_brute_force(n):
    for lat in _both_labelings(n):
        assert _times_tables(lat) == _times_tables_oracle(lat)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_product_table_derives_a_residuum(n):
    for lat in _both_labelings(n):
        for times in _times_tables(lat):
            s = Structure(
                n=n,
                names=lat.names,
                join=lat.join,
                meet=lat.meet,
                times=times,
                residuum=_derive_residuum(lat, times),
                bot=lat.bot,
                top=lat.top,
            )
            assert validate_structure(s).valid


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


def _index_mtl_counts(size):
    return Counter(
        (r.stats.normality_index, r.stats.mtl)
        for r in enumerate_residuated(SearchSpec(size=size))
    )


def test_size_seven_census_counts():
    counts = _index_mtl_counts(7)
    assert sum(counts.values()) == 723
    assert counts == {(1, False): 258, (1, True): 451, (2, False): 1, (2, True): 13}


@pytest.mark.slow
def test_size_eight_census_counts():
    counts = _index_mtl_counts(8)
    assert sum(counts.values()) == 4712
    assert counts == {
        (1, False): 2248,
        (1, True): 2393,
        (2, False): 11,
        (2, True): 60,
    }


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


def _relabel(s, perm):
    """The structure with element x renamed to perm[x]."""
    n = s.n

    def table(rows):
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                out[perm[x]][perm[y]] = perm[rows[x][y]]
        return tuple(map(tuple, out))

    return Structure(
        n=n,
        names=tuple(s.names[perm.index(i)] for i in range(n)),
        join=table(s.join),
        meet=table(s.meet),
        times=table(s.times),
        residuum=table(s.residuum),
        bot=perm[s.bot],
        top=perm[s.top],
    )


def _isomorphic(s, t):
    """Some bijection sending bot to bot and top to top carries all four
    tables of s onto those of t."""
    if s.n != t.n:
        return False
    n = s.n
    s_mids = [i for i in range(n) if i not in (s.bot, s.top)]
    t_mids = [i for i in range(n) if i not in (t.bot, t.top)]
    pairs = list(
        zip((s.join, s.meet, s.times, s.residuum), (t.join, t.meet, t.times, t.residuum))
    )
    for image in permutations(t_mids):
        pi = {s.bot: t.bot, s.top: t.top, **dict(zip(s_mids, image))}
        if all(
            b[pi[x]][pi[y]] == pi[a[x][y]]
            for a, b in pairs
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def test_canonical_key_matches_isomorphism_oracle():
    rng = random.Random(2010)
    structures = []
    for n in range(2, 6):
        for rec in enumerate_residuated(SearchSpec(size=n, canonical_only=False)):
            perm = list(range(n))
            rng.shuffle(perm)
            structures += [rec.structure, _relabel(rec.structure, perm)]
    classes = {}
    for s in structures:
        classes.setdefault(canonical_key(s), []).append(s)
    for first, *rest in classes.values():
        assert all(_isomorphic(first, s) for s in rest)
    reps = [members[0] for members in classes.values()]
    for i, s in enumerate(reps):
        assert not any(_isomorphic(s, t) for t in reps[i + 1 :])


def _single_stage_key(s):
    """Reference key: the least join || meet || times || residuum over
    every relabeling that sends bot to 0 and top to n - 1."""
    n = s.n
    tables = (s.join, s.meet, s.times, s.residuum)

    def relabeled(pi):
        buf = bytearray(4 * n * n)
        for k, table in enumerate(tables):
            for x in range(n):
                for y in range(n):
                    buf[(k * n + pi[x]) * n + pi[y]] = pi[table[x][y]]
        return bytes(buf)

    return min(map(relabeled, _relabelings(n, s.bot, s.top)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_stage_key_matches_single_stage(n):
    rng = random.Random(n)
    for lat in enumerate_lattices(n):
        for times in _times_tables(lat):
            s = Structure(
                n=n,
                names=lat.names,
                join=lat.join,
                meet=lat.meet,
                times=times,
                residuum=_derive_residuum(lat, times),
                bot=lat.bot,
                top=lat.top,
            )
            perm = list(range(n))
            rng.shuffle(perm)
            for t in (s, _relabel(s, perm)):
                key = _single_stage_key(t)
                assert canonical_key(t) == key
                assert canonical_key(t, lattice_of(t)) == key


def _automorphism_count(lat):
    n = lat.n
    mids = [i for i in range(n) if i not in (lat.bot, lat.top)]
    count = 0
    for image in permutations(mids):
        pi = {lat.bot: lat.bot, lat.top: lat.top, **dict(zip(mids, image))}
        if all(
            lat.leq(pi[x], pi[y]) == lat.leq(x, y) for x in range(n) for y in range(n)
        ):
            count += 1
    return count


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_coset_is_one_automorphism_coset(n):
    for lat in enumerate_lattices(n):
        assert len(lat.coset) == _automorphism_count(lat)
        images = set()
        for pi in lat.coset:
            image = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    image[pi[x]][pi[y]] = pi[lat.join[x][y]]
            images.add(tuple(map(tuple, image)))
        assert len(images) == 1
