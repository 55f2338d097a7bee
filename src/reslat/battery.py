"""The executable law battery.

Every analysis module contributes universally quantified statements that
hold in all finite residuated lattices.  Each one is realized here as a
check that scans a concrete structure exhaustively and either passes or
returns a witness.  Checks are grouped so the command line can run the
filter/spectral/coannihilator laws, the omega laws, or the normality
laws separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

from . import coann as can
from . import filters as flt
from . import normality as nrm
from . import spectra as spc
from .bitsets import bits, submasks
from .errors import NotMinimalPrime, RepresentationMismatch, SearchExhausted
from .omega import (
    dense_set,
    divisor,
    omega_family,
    omega_join,
    omega_table,
    sigma,
)
from .structure import Structure, leq, subset_repr, validate_structure


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    group: str
    passed: bool
    witness: Any = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    structure_name: str
    outcomes: tuple[CheckOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.passed)

    def notes(self) -> tuple[str, ...]:
        out: list[str] = []
        for o in self.outcomes:
            out.extend(f"{o.name}: {note}" for note in o.notes)
        return tuple(out)


def _fmt(s: Structure, m: int) -> str:
    return subset_repr(s, m)


def _fail(**kw):
    return kw, ()


def _pass(notes=()):
    return None, tuple(notes)


# ---------------------------------------------------------------------------
# core: residuation laws, filters, spectra, coannihilators


def _product_distributes_over_join(s):
    for x in range(s.n):
        tx = s.times[x]
        for y in range(s.n):
            for z in range(s.n):
                if tx[s.join[y][z]] != s.join[tx[y]][tx[z]]:
                    return _fail(x=s.names[x], y=s.names[y], z=s.names[z])
    return _pass()


def _join_of_products_bound(s):
    for x in range(s.n):
        for y in range(s.n):
            for z in range(s.n):
                lhs = s.times[s.join[x][y]][s.join[x][z]]
                if not leq(s, lhs, s.join[x][s.times[y][z]]):
                    return _fail(x=s.names[x], y=s.names[y], z=s.names[z])
    return _pass()


def _order_matches_residuum(s):
    for x in range(s.n):
        for y in range(s.n):
            if leq(s, x, y) != (s.residuum[x][y] == s.top):
                return _fail(x=s.names[x], y=s.names[y])
    return _pass()


def _product_monotone(s):
    for x in range(s.n):
        for y in range(s.n):
            if not leq(s, x, y):
                continue
            for z in range(s.n):
                if not leq(s, s.times[x][z], s.times[y][z]):
                    return _fail(x=s.names[x], y=s.names[y], z=s.names[z])
    return _pass()


def _maximal_filters_are_prime(s):
    primes = set(spc.primes_of(s))
    for m in spc.maximal_filters(s):
        if m not in primes:
            return _fail(maximal=_fmt(s, m))
    return _pass()


def _filter_enumeration_oracle(s):
    fast = flt.all_filters(s)
    slow = flt.filters_by_subset_scan(s)
    if fast != slow:
        return _fail(fast=len(fast), scan=len(slow))
    return _pass()


def _ideal_enumeration_oracle(s):
    fast = flt.all_ideals(s)
    slow = flt.ideals_by_subset_scan(s)
    if fast != slow:
        return _fail(fast=len(fast), scan=len(slow))
    return _pass()


def _generated_filter_idempotent(s):
    for x_set in range(1 << s.n):
        once = flt.generated_filter(s, x_set)
        if x_set & ~once or flt.generated_filter(s, once) != once:
            return _fail(generators=_fmt(s, x_set))
    return _pass()


def _filter_extension_antitone(s):
    for f in flt.all_filters(s):
        ext = [flt.filter_extension(s, f, x) for x in range(s.n)]
        for x in range(s.n):
            for y in range(s.n):
                if not leq(s, x, y):
                    continue
                if ext[y] & ~ext[x]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _filter_extension_meet_rule(s):
    for f in flt.all_filters(s):
        ext = [flt.filter_extension(s, f, x) for x in range(s.n)]
        for x in range(s.n):
            for y in range(s.n):
                if ext[x] & ext[y] != ext[s.join[x][y]]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _filter_extension_join_rule(s):
    for f in flt.all_filters(s):
        ext = [flt.filter_extension(s, f, x) for x in range(s.n)]
        for x in range(s.n):
            for y in range(s.n):
                joined = flt.generated_filter(s, ext[x] | ext[y])
                if joined != ext[s.times[x][y]]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _principal_filters_sublattice(s):
    principal = {flt.principal_filter(s, x) for x in range(s.n)}
    for x in range(s.n):
        for y in range(s.n):
            px, py = flt.principal_filter(s, x), flt.principal_filter(s, y)
            if flt.generated_filter(s, px | py) not in principal:
                return _fail(kind="join", x=s.names[x], y=s.names[y])
            if px & py not in principal:
                return _fail(kind="meet", x=s.names[x], y=s.names[y])
    return _pass()


def _filter_lattice_distributive(s):
    filters = flt.all_filters(s)
    for f in filters:
        for g in filters:
            for h in filters:
                lhs = f & flt.generated_filter(s, g | h)
                rhs = flt.generated_filter(s, (f & g) | (f & h))
                if lhs != rhs:
                    return _fail(f=_fmt(s, f), g=_fmt(s, g), h=_fmt(s, h))
    return _pass()


def _principal_ideal_meet_rule(s):
    for x in range(s.n):
        for y in range(s.n):
            if s.down[x] & s.down[y] != s.down[s.meet[x][y]]:
                return _fail(x=s.names[x], y=s.names[y])
    return _pass()


def _principal_ideal_join_rule(s):
    for x in range(s.n):
        for y in range(s.n):
            if flt.ideal_join(s, s.down[x], s.down[y]) != s.down[s.join[x][y]]:
                return _fail(x=s.names[x], y=s.names[y])
    return _pass()


def _prime_iff_complement_join_closed(s):
    for f in flt.all_filters(s):
        if spc.is_prime(s, f) != spc.prime_by_complement(s, f):
            return _fail(filter=_fmt(s, f))
    return _pass()


def _spectrum_matches_subset_scan(s):
    scan = tuple(
        f
        for f in flt.filters_by_subset_scan(s)
        if spc.prime_by_complement(s, f)
    )
    if spc.primes_of(s) != scan:
        return _fail(fast=len(spc.primes_of(s)), scan=len(scan))
    return _pass()


def _prime_separation(s):
    for c in spc.join_closed_subsets(s):
        for f in flt.all_filters(s):
            if c & f:
                continue
            p = spc.prime_avoiding(s, f, c)
            if p is None:
                return _fail(separator=_fmt(s, c), filter=_fmt(s, f))
    return _pass()


def _minimal_prime_iff_maximal_complement(s):
    jc = spc.join_closed_subsets(s)
    above: dict[int, list[int]] = {}

    def strictly_above(c):
        """The join-closed sets strictly above c, in the order of jc."""
        if c not in above:
            above[c] = [d for d in jc if d != c and not (c & ~d)]
        return above[c]

    for f in flt.all_filters(s):
        mins = set(spc.minimal_primes_over(s, f))
        for m in mins:
            comp = s.full ^ m
            if not spc.is_join_closed(s, comp) or comp & f:
                return _fail(minimal=_fmt(s, m), base=_fmt(s, f))
            for c in strictly_above(comp):
                if not (c & f):
                    return _fail(minimal=_fmt(s, m), larger=_fmt(s, c))
        for c in jc:
            if c & f:
                continue
            grows = any(not (d & f) for d in strictly_above(c))
            if not grows and (s.full ^ c) not in mins:
                return _fail(maximal_separator=_fmt(s, c), base=_fmt(s, f))
    return _pass()


def _prime_over_set_contains_minimal(s):
    for x_set in range(1 << s.n):
        mins = spc.minimal_primes_over(s, x_set)
        for p in spc.primes_of(s):
            if x_set & ~p:
                continue
            if not any(not (m & ~p) for m in mins):
                return _fail(set=_fmt(s, x_set), prime=_fmt(s, p))
    return _pass()


def _generated_filter_is_prime_intersection(s):
    for x_set in range(1 << s.n):
        if flt.generated_filter(s, x_set) != spc.generated_by_primes(s, x_set):
            return _fail(set=_fmt(s, x_set))
    return _pass()


def _generated_filter_is_minimal_prime_intersection(s):
    for x_set in range(1 << s.n):
        if flt.generated_filter(s, x_set) != spc.generated_by_minimal_primes(s, x_set):
            return _fail(set=_fmt(s, x_set))
    return _pass()


def _coannihilator_is_filter_above_base(s):
    for f in flt.all_filters(s):
        co = can.coann_subset_table(s, f)
        bad = {g for g in set(co) if f & ~g or not flt.is_filter(s, g)}
        if bad:
            x_set = next(x for x in range(1 << s.n) if co[x] in bad)
            return _fail(base=_fmt(s, f), set=_fmt(s, x_set))
    return _pass()


def _coannihilator_flip_rule(s):
    """X inside (F : Y) implies Y inside (F : X), for all X and Y.

    The premise depends on Y only through g = (F : Y), so each value g
    carries the intersection of (F : X) over every X inside g, and Y is
    tested against that once.
    """
    for f in flt.all_filters(s):
        co = can.coann_subset_table(s, f)
        below = {}
        for g in set(co):
            acc = s.full
            for x_set in submasks(g):
                acc &= co[x_set]
            below[g] = acc
        for y_set in range(1 << s.n):
            if y_set & ~below[co[y_set]]:
                x_set = next(x for x in submasks(co[y_set]) if y_set & ~co[x])
                return _fail(base=_fmt(s, f), x=_fmt(s, x_set), y=_fmt(s, y_set))
    return _pass()


def _coannihilator_full_iff_contained(s):
    for f in flt.all_filters(s):
        co = can.coann_subset_table(s, f)
        for x_set in range(1 << s.n):
            if (co[x_set] == s.full) != (not (x_set & ~f)):
                return _fail(base=_fmt(s, f), set=_fmt(s, x_set))
    return _pass()


def _coannulet_monotone(s):
    for f in flt.all_filters(s):
        table = can.coannulet_table(s, f)
        for x in range(s.n):
            for y in range(s.n):
                if leq(s, x, y) and table[x] & ~table[y]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _coannulet_meet_is_product_coannulet(s):
    for f in flt.all_filters(s):
        table = can.coannulet_table(s, f)
        for x in range(s.n):
            for y in range(s.n):
                if table[x] & table[y] != table[s.times[x][y]]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _double_coannihilator_join_rule(s):
    for f in flt.all_filters(s):
        table = can.coannulet_table(s, f)
        co = can.coann_subset_table(s, f)
        for x in range(s.n):
            for y in range(s.n):
                if co[table[x]] & co[table[y]] != co[table[s.join[x][y]]]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _coannulet_join_bound(s):
    for f in flt.all_filters(s):
        table = can.coannulet_table(s, f)
        lets = set(table)
        joins = {(g, h): can.gamma_join(s, f, g, h) for g in lets for h in lets}
        for x in range(s.n):
            for y in range(s.n):
                in_lattice = flt.generated_filter(s, table[x] | table[y])
                gamma = joins[table[x], table[y]]
                if in_lattice & ~gamma or gamma != table[s.join[x][y]]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _coann_family_boolean(s):
    for f in flt.all_filters(s):
        members = can.coann_family(s, f)
        mset = set(members)
        if f not in mset or s.full not in mset:
            return _fail(base=_fmt(s, f), missing="bounds")
        for g in members:
            comp = can.coannihilator(s, f, g)
            if g & comp != f:
                return _fail(base=_fmt(s, f), member=_fmt(s, g), law="meet-complement")
            if can.gamma_join(s, f, g, comp) != s.full:
                return _fail(base=_fmt(s, f), member=_fmt(s, g), law="join-complement")
            if can.coannihilator(s, f, comp) != g:
                return _fail(base=_fmt(s, f), member=_fmt(s, g), law="involution")
            for h in members:
                if g & h not in mset:
                    return _fail(base=_fmt(s, f), law="meet-closure")
        joins = {(h, k): can.gamma_join(s, f, h, k) for h in members for k in members}
        for g in members:
            for h in members:
                for k in members:
                    if g & joins[h, k] != joins[g & h, g & k]:
                        return _fail(base=_fmt(s, f), law="distributivity")
    return _pass()


def _coannulets_form_sublattice(s):
    for f in flt.all_filters(s):
        lets = flt.canonical_sort(set(can.coannulet_table(s, f)))
        let_set = set(lets)
        for g in lets:
            for h in lets:
                if g & h not in let_set or can.gamma_join(s, f, g, h) not in let_set:
                    return _fail(base=_fmt(s, f), g=_fmt(s, g), h=_fmt(s, h))
    return _pass()


def _coannihilator_relative_pseudocomplement(s):
    filters = flt.all_filters(s)
    for f in filters:
        co = can.coann_subset_table(s, f)
        for x_set in range(1 << s.n):
            gen = flt.generated_filter(s, x_set)
            best = co[x_set]
            if best & gen & ~f:
                return _fail(base=_fmt(s, f), set=_fmt(s, x_set), law="bound")
            for g in filters:
                if not (g & gen & ~f) and g & ~best:
                    return _fail(base=_fmt(s, f), set=_fmt(s, x_set), larger=_fmt(s, g))
    return _pass()


def _coann_family_matches_subset_scan(s):
    for f in flt.all_filters(s):
        fam = can.coann_family(s, f)
        scan = set(can.coann_subset_table(s, f))
        if set(fam) != scan:
            return _fail(base=_fmt(s, f), fast=len(fam), scan=len(scan))
    return _pass()


# ---------------------------------------------------------------------------
# omega: coannulet unions, dense sets, families, divisors


def _omega_routes_agree(s):
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        table = can.coannulet_table(s, f)
        # By definition a is in omega_F(X) iff x v a is in F for some x in
        # X; hits is {x : x v a in F}, taken from the join table.
        routes = [
            (1 << a, table[a], sum(1 << x for x in range(s.n) if f >> s.join[x][a] & 1))
            for a in range(s.n)
        ]
        for x_set in range(1, 1 << s.n):
            by_member = by_def = 0
            for bit, member, hits in routes:
                if member & x_set:
                    by_member |= bit
                if hits & x_set:
                    by_def |= bit
            if om[x_set] != by_member or om[x_set] != by_def:
                return _fail(base=_fmt(s, f), set=_fmt(s, x_set))
    return _pass()


def _omega_contains_base(s):
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        for x_set in range(1, 1 << s.n):
            if f & ~om[x_set]:
                return _fail(base=_fmt(s, f), set=_fmt(s, x_set))
    return _pass()


def _omega_monotone_in_set(s):
    """Tested on the pairs (Y minus one element, Y) with both sides
    nonempty; inclusion is transitive, so these give every pair X inside Y."""
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        for y_set in range(1, 1 << s.n):
            oy = om[y_set]
            for x in bits(y_set):
                x_set = y_set ^ 1 << x
                if x_set and om[x_set] & ~oy:
                    return _fail(base=_fmt(s, f), x=_fmt(s, x_set), y=_fmt(s, y_set))
    return _pass()


def _omega_monotone_in_base(s):
    filters = flt.all_filters(s)
    for f in filters:
        om_f = omega_table(s, f)
        for g in filters:
            if f & ~g:
                continue
            om_g = omega_table(s, g)
            for x_set in range(1, 1 << s.n):
                if om_f[x_set] & ~om_g[x_set]:
                    return _fail(small=_fmt(s, f), large=_fmt(s, g), set=_fmt(s, x_set))
    return _pass()


def _omega_full_iff_meets_base(s):
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        for x_set in range(1, 1 << s.n):
            if (om[x_set] == s.full) != bool(f & x_set):
                return _fail(base=_fmt(s, f), set=_fmt(s, x_set))
    return _pass()


def _omega_fixes_base_iff_dense(s):
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        dense = dense_set(s, f)
        for x_set in range(1, 1 << s.n):
            if (om[x_set] == f) != (not (x_set & ~dense)):
                return _fail(base=_fmt(s, f), set=_fmt(s, x_set))
    return _pass()


def _dense_elements_form_ideal(s):
    for f in flt.all_filters(s):
        dense = dense_set(s, f)
        if not flt.is_ideal(s, dense):
            return _fail(base=_fmt(s, f), dense=_fmt(s, dense))
    return _pass()


def _omega_of_join_closed_is_filter(s):
    jc = spc.join_closed_subsets(s)
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        bad = {w for w in {om[c] for c in jc} if not flt.is_filter(s, w)}
        if bad:
            c = next(c for c in jc if om[c] in bad)
            return _fail(base=_fmt(s, f), separator=_fmt(s, c))
    return _pass()


def _omega_properness_equivalences(s):
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        for c in spc.join_closed_subsets(s):
            w = om[c]
            a = not (f & c)
            b = w != s.full
            d = not (w & c)
            if not (a == b == d):
                return _fail(base=_fmt(s, f), separator=_fmt(s, c))
    return _pass()


def _omega_family_lattice(s):
    ideals = flt.all_ideals(s)
    for f in flt.all_filters(s):
        fam = omega_family(s, f)
        table = omega_table(s, f)
        if f not in fam or s.full not in fam:
            return _fail(base=_fmt(s, f), missing="bounds")
        items = list(fam.items())
        for i, (g, wg) in enumerate(items):
            for h, wh in items[i:]:
                if g & h not in fam:
                    return _fail(base=_fmt(s, f), law="meet-closure")
                if table[wg & wh] != g & h:
                    return _fail(base=_fmt(s, f), law="meet-formula")
        # Joins only once every meet has passed, so a broken witness
        # fails the meet formula rather than the join's cross-check.
        members = list(fam)
        joins = {}
        for i, g in enumerate(members):
            for h in members[i:]:
                joins[(g, h)] = joins[(h, g)] = omega_join(s, f, g, h)
        for g in fam:
            for h in fam:
                for w in fam:
                    if g & joins[(h, w)] != joins[(g & h, g & w)]:
                        return _fail(base=_fmt(s, f), law="distributivity")
        values = {ideal: table[ideal] for ideal in ideals}
        for i_a in ideals:
            for i_b in ideals:
                lhs = table[flt.ideal_join(s, i_a, i_b)]
                # None when a table value is not a family member.
                rhs = joins.get((values[i_a], values[i_b]))
                if lhs != rhs:
                    return _fail(
                        base=_fmt(s, f),
                        law="representation-independence",
                        i=_fmt(s, i_a),
                        j=_fmt(s, i_b),
                    )
    return _pass()


def _omega_joins(s, f):
    """omega_join(s, f, g, h) for coannulets g and h, each distinct pair
    computed once, on its first use; so a check that reads the pairs in
    its own order meets the same first failure or error as when it
    called omega_join on every pair."""
    joins = {}

    def join(g, h):
        out = joins.get((g, h))
        if out is None:
            out = joins[(g, h)] = omega_join(s, f, g, h)
        return out

    return join


def _coannulets_inside_omega_family(s):
    for f in flt.all_filters(s):
        fam = omega_family(s, f)
        table = can.coannulet_table(s, f)
        for x in range(s.n):
            if table[x] not in fam:
                return _fail(base=_fmt(s, f), element=s.names[x])
        join = _omega_joins(s, f)
        for x in range(s.n):
            for y in range(s.n):
                if join(table[x], table[y]) != table[s.join[x][y]]:
                    return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _coannulet_join_full_when_base_join(s):
    for f in flt.all_filters(s):
        table = can.coannulet_table(s, f)
        join = _omega_joins(s, f)
        for x in range(s.n):
            for y in range(s.n):
                if f >> s.join[x][y] & 1:
                    if join(table[x], table[y]) != s.full:
                        return _fail(base=_fmt(s, f), x=s.names[x], y=s.names[y])
    return _pass()


def _divisor_set_forms(s):
    filters = flt.all_filters(s)
    for f in filters:
        table = can.coannulet_table(s, f)
        for h in filters:
            if h == s.full:
                continue
            d = divisor(s, f, h)
            by_escape = sum(1 << a for a in range(s.n) if table[a] & ~h)
            if d != by_escape or f & ~d:
                return _fail(base=_fmt(s, f), filter=_fmt(s, h))
            if (d == s.full) != bool(f & ~h):
                return _fail(base=_fmt(s, f), filter=_fmt(s, h), law="full-iff")
    return _pass()


def _divisor_of_prime_is_omega_member(s):
    for f in flt.all_filters(s):
        fam = omega_family(s, f)
        for p in spc.primes_of(s):
            d = divisor(s, f, p)
            if d not in fam:
                return _fail(base=_fmt(s, f), prime=_fmt(s, p))
            if not (f & ~p) and d & ~p:
                return _fail(base=_fmt(s, f), prime=_fmt(s, p), law="containment")
    return _pass()


def _minimal_prime_divisor_fixpoint(s):
    for f in flt.all_filters(s):
        mins = spc.minimal_primes_over(s, f)
        if not mins:
            continue
        d_base = divisor(s, f, f) if f != s.full else None
        for m in mins:
            if divisor(s, f, m) != m:
                return _fail(base=_fmt(s, f), minimal=_fmt(s, m))
            if d_base is not None and m & ~d_base:
                return _fail(base=_fmt(s, f), minimal=_fmt(s, m), law="inside-base-divisors")
    return _pass()


def _minimal_prime_divisor_trichotomy(s):
    for f in flt.all_filters(s):
        mins = set(spc.minimal_primes_over(s, f))
        table = can.coannulet_table(s, f)
        for p in spc.primes_of(s):
            if f & ~p:
                continue
            b1 = p in mins
            b2 = divisor(s, f, p) == p
            b3 = all(
                bool(p >> x & 1) != (not (table[x] & ~p)) for x in range(s.n)
            )
            if not (b1 == b2 == b3):
                return _fail(base=_fmt(s, f), prime=_fmt(s, p))
    return _pass()


def _minimal_primes_family_comaximal(s):
    for f in flt.all_filters(s):
        fam = omega_family(s, f)
        mins = spc.minimal_primes_over(s, f)
        for m1, m2 in combinations(mins, 2):
            if m1 not in fam or m2 not in fam:
                return _fail(base=_fmt(s, f), minimal=_fmt(s, m1 if m1 not in fam else m2))
            if omega_join(s, f, m1, m2) != s.full:
                return _fail(base=_fmt(s, f), first=_fmt(s, m1), second=_fmt(s, m2))
    return _pass()


def _omega_minimal_primes_avoid_set(s):
    for f in flt.all_filters(s):
        om = omega_table(s, f)
        for c in spc.join_closed_subsets(s):
            for m in spc.minimal_primes_over(s, om[c]):
                if m & c:
                    return _fail(base=_fmt(s, f), separator=_fmt(s, c), minimal=_fmt(s, m))
    return _pass()


def _divisor_minimal_primes_inside_prime(s):
    for f in flt.all_filters(s):
        for p in spc.primes_of(s):
            d = divisor(s, f, p)
            for m in spc.minimal_primes_over(s, d):
                if m & ~p:
                    return _fail(base=_fmt(s, f), prime=_fmt(s, p), minimal=_fmt(s, m))
    return _pass()


def _omega_minimal_primes_characterized(s):
    for f in flt.all_filters(s):
        mins_f = spc.minimal_primes_over(s, f)
        om = omega_table(s, f)
        for c in spc.join_closed_subsets(s):
            lhs = set(spc.minimal_primes_over(s, om[c]))
            rhs = {m for m in mins_f if not (m & c)}
            if lhs != rhs:
                return _fail(base=_fmt(s, f), separator=_fmt(s, c))
    return _pass()


def _divisor_minimal_primes_characterized(s):
    for f in flt.all_filters(s):
        mins_f = spc.minimal_primes_over(s, f)
        for p in spc.primes_of(s):
            d = divisor(s, f, p)
            lhs = set(spc.minimal_primes_over(s, d))
            rhs = {m for m in mins_f if not (m & ~p)}
            if lhs != rhs:
                return _fail(base=_fmt(s, f), prime=_fmt(s, p))
    return _pass()


def _omega_is_minimal_prime_intersection(s):
    for f in flt.all_filters(s):
        mins_f = spc.minimal_primes_over(s, f)
        om = omega_table(s, f)
        for c in spc.join_closed_subsets(s):
            expected = spc.intersection_of(
                (m for m in mins_f if not (m & c)), s.full
            )
            if om[c] != expected:
                return _fail(base=_fmt(s, f), separator=_fmt(s, c))
    return _pass()


def _divisor_is_minimal_prime_intersection(s):
    for f in flt.all_filters(s):
        mins_f = spc.minimal_primes_over(s, f)
        for p in spc.primes_of(s):
            expected = spc.intersection_of(
                (m for m in mins_f if not (m & ~p)), s.full
            )
            if divisor(s, f, p) != expected:
                return _fail(base=_fmt(s, f), prime=_fmt(s, p))
    return _pass()


def _omega_family_matches_filter_scan(s):
    ideals = flt.all_ideals(s)
    for f in flt.all_filters(s):
        fam = omega_family(s, f)
        table = omega_table(s, f)
        scan = tuple(
            h
            for h in flt.all_filters(s)
            if any(table[ideal] == h for ideal in ideals)
        )
        if set(fam) != set(scan):
            return _fail(base=_fmt(s, f), fast=len(fam), scan=len(scan))
    return _pass()


# ---------------------------------------------------------------------------
# normality


def _n_prime_agreement(s):
    n_primes = len(spc.primes_of(s))
    for f in flt.all_filters(s):
        if f == s.full:
            continue
        for n in range(2, n_primes + 2):
            verdict = nrm.is_n_prime(s, f, n)
            if not verdict.agree:
                return _fail(base=_fmt(s, f), n=n, conditions=dict(verdict.conditions))
    return _pass()


def _separating_elements_exist(s):
    for f in flt.all_filters(s):
        if f == s.full:
            continue
        mins = spc.minimal_primes_over(s, f)
        for k in range(2, len(mins) + 1):
            for combo in combinations(mins, k):
                try:
                    nrm.separating_elements(s, f, combo)
                except (SearchExhausted, RepresentationMismatch) as exc:
                    return _fail(base=_fmt(s, f), size=k, error=str(exc))
    return _pass()


def _n_normality_agreement(s):
    notes: list[str] = []
    for f in flt.all_filters(s):
        if f == s.full:
            continue
        top_n = len(spc.minimal_primes_over(s, f)) + 1
        for n in range(1, top_n + 1):
            verdict = nrm.n_normality_verdict(s, f, n)
            notes.extend(
                f"base {_fmt(s, f)}, n={n}: {note}" for note in verdict.notes
            )
            if not verdict.agree:
                return _fail(base=_fmt(s, f), n=n, conditions=dict(verdict.conditions))
    return _pass(notes)


def _normal_agreement(s):
    verdict = nrm.normality_verdict(s)
    if not verdict.agree:
        return _fail(conditions=dict(verdict.conditions))
    return _pass(verdict.notes)


def _omega_sublattice_agreement(s):
    verdict = nrm.omega_sublattice_verdict(s)
    if not verdict.agree:
        return _fail(conditions=dict(verdict.conditions))
    return _pass()


def _sigma_is_omega_member_within(s):
    fam = omega_family(s, 1 << s.top)
    for f in flt.all_filters(s):
        sg = sigma(s, f)
        if sg not in fam or sg & ~f:
            return _fail(filter=_fmt(s, f), sigma=_fmt(s, sg))
    return _pass()


def _sigma_greatest_when_normal(s):
    if nrm.normality_report(s, 1 << s.top).index != 1:
        holds = all(
            nrm.sigma_greatest_check(s, f)
            for f in flt.all_filters(s)
        )
        return _pass(
            (
                "structure is not normal; greatest-omega identity skipped "
                f"(holds anyway: {holds})",
            )
        )
    for f in flt.all_filters(s):
        if not nrm.sigma_greatest_check(s, f):
            return _fail(filter=_fmt(s, f))
    return _pass()


# ---------------------------------------------------------------------------
# registry and runner

Check = Callable[[Structure], tuple[Any, tuple[str, ...]]]

CHECKS: tuple[tuple[str, str, Check], ...] = (
    ("core", "product-distributes-over-join", _product_distributes_over_join),
    ("core", "join-of-products-bound", _join_of_products_bound),
    ("core", "order-matches-residuum", _order_matches_residuum),
    ("core", "product-monotone", _product_monotone),
    ("core", "maximal-filters-are-prime", _maximal_filters_are_prime),
    ("core", "filter-enumeration-matches-subset-scan", _filter_enumeration_oracle),
    ("core", "ideal-enumeration-matches-subset-scan", _ideal_enumeration_oracle),
    ("core", "generated-filter-idempotent", _generated_filter_idempotent),
    ("core", "filter-extension-antitone", _filter_extension_antitone),
    ("core", "filter-extension-meet-rule", _filter_extension_meet_rule),
    ("core", "filter-extension-join-rule", _filter_extension_join_rule),
    ("core", "principal-filters-sublattice", _principal_filters_sublattice),
    ("core", "filter-lattice-distributive", _filter_lattice_distributive),
    ("core", "principal-ideal-meet-rule", _principal_ideal_meet_rule),
    ("core", "principal-ideal-join-rule", _principal_ideal_join_rule),
    ("core", "prime-iff-complement-join-closed", _prime_iff_complement_join_closed),
    ("core", "spectrum-matches-subset-scan", _spectrum_matches_subset_scan),
    ("core", "prime-separation", _prime_separation),
    ("core", "minimal-prime-iff-maximal-complement", _minimal_prime_iff_maximal_complement),
    ("core", "prime-over-set-contains-minimal", _prime_over_set_contains_minimal),
    ("core", "generated-filter-is-prime-intersection", _generated_filter_is_prime_intersection),
    (
        "core",
        "generated-filter-is-minimal-prime-intersection",
        _generated_filter_is_minimal_prime_intersection,
    ),
    ("core", "coannihilator-is-filter-above-base", _coannihilator_is_filter_above_base),
    ("core", "coannihilator-flip-rule", _coannihilator_flip_rule),
    ("core", "coannihilator-full-iff-contained", _coannihilator_full_iff_contained),
    ("core", "coannulet-monotone", _coannulet_monotone),
    ("core", "coannulet-meet-is-product-coannulet", _coannulet_meet_is_product_coannulet),
    ("core", "double-coannihilator-join-rule", _double_coannihilator_join_rule),
    ("core", "coannulet-join-bound", _coannulet_join_bound),
    ("core", "coannihilator-family-boolean", _coann_family_boolean),
    ("core", "coannulets-form-sublattice", _coannulets_form_sublattice),
    (
        "core",
        "coannihilator-relative-pseudocomplement",
        _coannihilator_relative_pseudocomplement,
    ),
    ("core", "coannihilator-family-matches-subset-scan", _coann_family_matches_subset_scan),
    ("omega", "omega-routes-agree", _omega_routes_agree),
    ("omega", "omega-contains-base", _omega_contains_base),
    ("omega", "omega-monotone-in-set", _omega_monotone_in_set),
    ("omega", "omega-monotone-in-base", _omega_monotone_in_base),
    ("omega", "omega-full-iff-meets-base", _omega_full_iff_meets_base),
    ("omega", "omega-fixes-base-iff-dense", _omega_fixes_base_iff_dense),
    ("omega", "dense-elements-form-ideal", _dense_elements_form_ideal),
    ("omega", "omega-of-join-closed-is-filter", _omega_of_join_closed_is_filter),
    ("omega", "omega-properness-equivalences", _omega_properness_equivalences),
    ("omega", "omega-family-lattice", _omega_family_lattice),
    ("omega", "coannulets-inside-omega-family", _coannulets_inside_omega_family),
    ("omega", "coannulet-join-full-when-base-join", _coannulet_join_full_when_base_join),
    ("omega", "divisor-set-forms", _divisor_set_forms),
    ("omega", "divisor-of-prime-is-omega-member", _divisor_of_prime_is_omega_member),
    ("omega", "minimal-prime-divisor-fixpoint", _minimal_prime_divisor_fixpoint),
    ("omega", "minimal-prime-divisor-trichotomy", _minimal_prime_divisor_trichotomy),
    ("omega", "minimal-primes-family-comaximal", _minimal_primes_family_comaximal),
    ("omega", "omega-minimal-primes-avoid-set", _omega_minimal_primes_avoid_set),
    ("omega", "divisor-minimal-primes-inside-prime", _divisor_minimal_primes_inside_prime),
    ("omega", "omega-minimal-primes-characterized", _omega_minimal_primes_characterized),
    ("omega", "divisor-minimal-primes-characterized", _divisor_minimal_primes_characterized),
    ("omega", "omega-is-minimal-prime-intersection", _omega_is_minimal_prime_intersection),
    ("omega", "divisor-is-minimal-prime-intersection", _divisor_is_minimal_prime_intersection),
    ("omega", "omega-family-matches-filter-scan", _omega_family_matches_filter_scan),
    ("normality", "n-prime-characterizations-agree", _n_prime_agreement),
    ("normality", "separating-elements-exist", _separating_elements_exist),
    ("normality", "n-normality-characterizations-agree", _n_normality_agreement),
    ("normality", "normal-characterizations-agree", _normal_agreement),
    ("normality", "omega-sublattice-characterizations-agree", _omega_sublattice_agreement),
    ("normality", "sigma-is-omega-member-within", _sigma_is_omega_member_within),
    ("normality", "sigma-greatest-when-normal", _sigma_greatest_when_normal),
)

GROUPS = ("core", "omega", "normality")

AGREEMENT_CHECKS = tuple(
    name for _, name, _fn in CHECKS if name.endswith("-agree")
)


def run_battery(
    s: Structure,
    groups=GROUPS,
    name: str | None = None,
) -> VerificationReport:
    """Run every selected check against a validated structure.

    A check that raises fails with the witness {"error": message}: the
    message of a domain error (no minimal prime, a family that misses
    its base, an exhausted search), "<ExceptionType>: <message>" for any
    other exception.  So one broken check never ends the run.
    """
    report = validate_structure(s)
    if not report.valid:
        raise ValueError(f"structure fails validation: {report.violations[0][0]}")
    wanted = set(groups)
    outcomes = []
    for group, check_name, fn in CHECKS:
        if group not in wanted:
            continue
        try:
            witness, notes = fn(s)
        except (NotMinimalPrime, RepresentationMismatch, SearchExhausted) as exc:
            witness, notes = {"error": str(exc)}, ()
        except Exception as exc:
            witness, notes = {"error": f"{type(exc).__name__}: {exc}"}, ()
        outcomes.append(
            CheckOutcome(
                name=check_name,
                group=group,
                passed=witness is None,
                witness=witness,
                notes=notes,
            )
        )
    return VerificationReport(
        structure_name=name if name is not None else "structure",
        outcomes=tuple(outcomes),
    )
