"""The coannihilator family and the omega family of a base filter, built
from the distinct coannulets, against the routes they replace: closing
the coannulets under intersection, and taking omega of every ideal."""

from reslat.bitsets import union_over
from reslat.coann import coann_family, coannihilator, coannulet_table, gamma_join
from reslat.filters import all_filters, all_ideals, canonical_sort, is_ideal
from reslat.omega import omega_family

from test_filters import oracle_structures  # noqa: F401


def reference_coann_family(s, f):
    """Members, joins and complements, from the coannulets and the
    carrier closed under intersection: the join of g and h is the least
    member above both, and the complement of g the largest member that
    meets g in the base."""
    members = set(coannulet_table(s, f))
    members.add(s.full)
    worklist = list(members)
    while worklist:
        g = worklist.pop()
        for h in list(members):
            gh = g & h
            if gh not in members:
                members.add(gh)
                worklist.append(gh)
    ordered = canonical_sort(members)

    def least_above(mask):
        out = s.full
        for g in ordered:
            if not (mask & ~g):
                out &= g
        return out

    def largest_meeting_in_base(g):
        return max((h for h in ordered if g & h == f), key=int.bit_count)

    joins = [[least_above(g | h) for h in ordered] for g in ordered]
    complements = [largest_meeting_in_base(g) for g in ordered]
    return ordered, joins, complements


def reference_omega_family(s, f):
    """(member, witness) pairs and notes, from omega of every ideal; a member
    whose union of witness ideals is not an ideal falls back to its
    largest single witness, with a note."""
    table = coannulet_table(s, f)
    by_member: dict[int, int] = {}
    best_single: dict[int, int] = {}
    for ideal in all_ideals(s):
        h = union_over(table, ideal)
        by_member[h] = by_member.get(h, 0) | ideal
        prev = best_single.get(h)
        if prev is None or (ideal.bit_count(), ideal) > (prev.bit_count(), prev):
            best_single[h] = ideal
    members = canonical_sort(by_member)
    witnesses, notes = [], []
    for h in members:
        union = by_member[h]
        if is_ideal(s, union) and union_over(table, union) == h:
            witnesses.append(union)
        else:
            witnesses.append(best_single[h])
            notes.append(h)
    return list(zip(members, witnesses)), notes


def test_families_match_reference_routes(oracle_structures):  # noqa: F811
    for s in oracle_structures:
        for f in all_filters(s):
            co = coann_family(s, f)
            om = omega_family(s, f)
            joins = [[gamma_join(s, f, g, h) for h in co] for g in co]
            complements = [coannihilator(s, f, g) for g in co]
            assert (co, joins, complements) == reference_coann_family(s, f)
            assert (list(om.items()), []) == reference_omega_family(s, f)
            assert tuple(om) == co
