from reslat.bitsets import mask_of
from reslat.coann import (
    coann_family,
    coann_subset_table,
    coannihilator,
    coannulet_table,
    gamma_join,
)
from reslat.filters import all_filters


def named_mask(s, names):
    return mask_of(s.element(x) for x in names)


def test_known_coannulet_values(a6):
    f4 = named_mask(a6, "cd1")
    table = coannulet_table(a6, f4)
    for x in "0ab":
        assert table[a6.element(x)] == f4
    for x in "cd1":
        assert table[a6.element(x)] == a6.full


def test_coannihilator_examples(a6):
    f4 = named_mask(a6, "cd1")
    f1 = named_mask(a6, "1")
    assert coannihilator(a6, f4, named_mask(a6, "a")) == f4
    assert coannihilator(a6, f4, named_mask(a6, "c")) == a6.full
    assert coannihilator(a6, f1, named_mask(a6, "d")) == f1
    # the empty set has the whole carrier as coannihilator
    assert coannihilator(a6, f4, 0) == a6.full


def test_coannihilator_full_iff_contained(a6):
    for f in all_filters(a6):
        for x_set in range(1 << a6.n):
            full = coannihilator(a6, f, x_set) == a6.full
            assert full == (not (x_set & ~f))


def test_family_members(a6):
    f4 = named_mask(a6, "cd1")
    fam = coann_family(a6, f4)
    assert fam == (f4, a6.full)
    assert set(coannulet_table(a6, f4)) == set(fam)

    f1 = named_mask(a6, "1")
    fam1 = coann_family(a6, f1)
    assert fam1 == (f1, a6.full)

    fam_full = coann_family(a6, a6.full)
    assert fam_full == (a6.full,)

    f2 = named_mask(a6, "d1")
    fam2 = coann_family(a6, f2)
    assert fam2 == (
        f2,
        named_mask(a6, "cd1"),
        named_mask(a6, "abd1"),
        a6.full,
    )


def test_gamma_join_examples(a6):
    f2 = named_mask(a6, "d1")
    table = coannulet_table(a6, f2)
    b, c = a6.element("b"), a6.element("c")
    assert gamma_join(a6, f2, table[b], table[c]) == a6.full
    for g in coann_family(a6, f2):
        assert gamma_join(a6, f2, g, f2) == g
        assert gamma_join(a6, f2, g, g) == g


def test_gamma_complement_examples(a6):
    f2 = named_mask(a6, "d1")
    f3 = named_mask(a6, "abd1")
    f4 = named_mask(a6, "cd1")
    assert coannihilator(a6, f2, f4) == f3
    assert f3 & f4 == f2
    assert coannihilator(a6, f2, f2) == a6.full
    assert coannihilator(a6, f2, a6.full) == f2
    for g in coann_family(a6, f2):
        assert coannihilator(a6, f2, coannihilator(a6, f2, g)) == g


def test_family_matches_subset_scan(a6, chain2, chain3_godel, chain3_luk):
    for s in (a6, chain2, chain3_godel, chain3_luk):
        for f in all_filters(s):
            assert set(coann_family(s, f)) == set(coann_subset_table(s, f))


def test_family_is_boolean(a6):
    for f in all_filters(a6):
        fam = coann_family(a6, f)
        for g in fam:
            comp = coannihilator(a6, f, g)
            assert g & comp == f
            assert gamma_join(a6, f, g, comp) == a6.full
        for g in fam:
            for h in fam:
                assert g & h in fam
        for g in fam:
            for h in fam:
                for k in fam:
                    assert g & gamma_join(a6, f, h, k) == gamma_join(a6, f, g & h, g & k)


def test_coannihilator_is_relative_pseudocomplement(a6):
    from reslat.filters import generated_filter

    filters = all_filters(a6)
    for f in filters:
        co = coann_subset_table(a6, f)
        for x_set in range(1 << a6.n):
            gen = generated_filter(a6, x_set)
            assert not (co[x_set] & gen & ~f)
            for g in filters:
                if not (g & gen & ~f):
                    assert not (g & ~co[x_set])


def test_flip_rule(a6):
    for f in all_filters(a6):
        co = coann_subset_table(a6, f)
        for x_set in range(1 << a6.n):
            for y_set in range(1 << a6.n):
                if not (x_set & ~co[y_set]):
                    assert not (y_set & ~co[x_set])
