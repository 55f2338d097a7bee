"""Law checks over randomly drawn subsets of a structure corpus."""

from hypothesis import given, settings, strategies as st

from reslat.coann import coannihilator
from reslat.fileformat import load_structure
from reslat.filters import (
    all_filters,
    generated_filter,
    generated_ideal,
    is_filter,
    is_ideal,
)
from reslat.modelgen import SearchSpec, canonical_key, enumerate_residuated
from reslat.omega import omega
from reslat.structure import leq, validate_structure

from conftest import FIXTURES


def _corpus():
    structures = []
    for fx in ("a6", "chain2", "chain3-godel", "chain3-luk"):
        s, _ = load_structure(FIXTURES / f"{fx}.json")
        structures.append(s)
    structures.extend(
        rec.structure for rec in enumerate_residuated(SearchSpec(size=4))
    )
    return structures


CORPUS = _corpus()

structures = st.sampled_from(CORPUS)


@st.composite
def structure_and_subset(draw, nonempty=False):
    s = draw(structures)
    low = 1 if nonempty else 0
    return s, draw(st.integers(low, s.full))


@st.composite
def structure_filter_subset(draw, nonempty=False):
    s = draw(structures)
    f = draw(st.sampled_from(all_filters(s)))
    low = 1 if nonempty else 0
    return s, f, draw(st.integers(low, s.full))


@given(structure_and_subset())
@settings(max_examples=150, deadline=None)
def test_generated_filter_is_a_closure(case):
    s, x_set = case
    out = generated_filter(s, x_set)
    assert is_filter(s, out)
    assert not (x_set & ~out)
    assert generated_filter(s, out) == out


@given(structure_and_subset())
@settings(max_examples=150, deadline=None)
def test_generated_ideal_is_a_closure(case):
    s, x_set = case
    out = generated_ideal(s, x_set)
    assert is_ideal(s, out)
    assert not (x_set & ~out)
    assert generated_ideal(s, out) == out


@given(structure_and_subset(), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_generated_filter_monotone(case, other):
    s, x_set = case
    y_set = x_set | (other & s.full)
    assert not (generated_filter(s, x_set) & ~generated_filter(s, y_set))


@given(structure_filter_subset(), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_coannihilator_flip_and_antitone(case, other):
    s, f, x_set = case
    y_set = other & s.full
    cox = coannihilator(s, f, x_set)
    coy = coannihilator(s, f, y_set)
    if not (x_set & ~coy):
        assert not (y_set & ~cox)
    if not (x_set & ~y_set):
        assert not (coy & ~cox)


@given(structure_filter_subset(nonempty=True))
@settings(max_examples=150, deadline=None)
def test_omega_bounds(case):
    s, f, x_set = case
    out = omega(s, f, x_set)
    assert not (f & ~out)
    assert (out == s.full) == bool(f & x_set)


@given(structures)
@settings(max_examples=20, deadline=None)
def test_order_is_residuum_top(s):
    for x in range(s.n):
        for y in range(s.n):
            assert leq(s, x, y) == (s.residuum[x][y] == s.top)


@given(structures)
@settings(max_examples=20, deadline=None)
def test_validation_deterministic(s):
    assert validate_structure(s) == validate_structure(s)


@given(structures, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_canonical_key_survives_relabeling(s, rng):
    from reslat.structure import Structure

    mids = [i for i in range(s.n) if i not in (s.bot, s.top)]
    shuffled = mids[:]
    rng.shuffle(shuffled)
    perm = list(range(s.n))
    for old, new in zip(mids, shuffled):
        perm[old] = new

    def relabel(table):
        out = [[0] * s.n for _ in range(s.n)]
        for x in range(s.n):
            for y in range(s.n):
                out[perm[x]][perm[y]] = perm[table[x][y]]
        return tuple(tuple(r) for r in out)

    inverse = [perm.index(i) for i in range(s.n)]
    other = Structure(
        n=s.n,
        names=tuple(s.names[inverse[i]] for i in range(s.n)),
        join=relabel(s.join),
        meet=relabel(s.meet),
        times=relabel(s.times),
        residuum=relabel(s.residuum),
        bot=perm[s.bot],
        top=perm[s.top],
    )
    assert canonical_key(other) == canonical_key(s)
