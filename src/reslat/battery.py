"""The executable law battery.

Every analysis module contributes universally quantified statements that
hold in all finite residuated lattices.  Each one is realized here as a
check that scans a concrete structure exhaustively and either passes or
returns a witness.  Checks are grouped so the command line can run the
filter/spectral/coannihilator laws, the omega laws, or the normality
laws separately.

Adding a check: write its law under `@law(group, name, ...)`, which
appends it to `CHECKS`; checks run in the order they are defined.  A
law about one base filter takes `(s, f)` and `bases="all"` (or
`"proper"`): it runs on each filter of `flt.all_filters(s)` in order,
and `base` comes first in its witness.  Scans run in a fixed order and
the first failing instance is the witness; they stay inline loops,
since a predicate called per instance costs more than most laws.  A
domain error (`NotMinimalPrime`, `RepresentationMismatch`,
`SearchExhausted`) fails the check with its message as the witness;
any other exception is a crash, which also sets `crashed`.  Analyses
are read through their modules (`flt.`, `spc.`, `can.`) or module
globals, so that rebinding one reaches every check.

A scan over subset masks reads a per-structure table rather than
calling a routine once per mask: `flt.generated_filter_table` for
generated filters and filter joins, `spc.minimal_primes_table` for
minimal primes over a set.  A table is built through the routine it
stands for, through that routine's module global, so a rebinding of
the routine reaches the checks that read its table: one call per mask
for generated filters, and one per element for minimal primes, read at
each mask's meet, since the primes over a set are those over its meet.
A scan whose law is about the primes over a set likewise reads one
answer per element at each mask's meet (`_meets`).  The
generated filters are kept only in their table; `flt.generated_filter`
itself keeps no answer.
Only a value that does not change within a scan is read once before
its loop (the filters, the primes, the principal filters).  Scans read
the order as join[x][y] == y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Any, Callable

from . import coann as can
from . import filters as flt
from . import normality as nrm
from . import spectra as spc
from .bitsets import bits, subset_fold, submasks
from .errors import NotMinimalPrime, RepresentationMismatch, SearchExhausted
from .omega import dense_set, divisor, omega_family, omega_join, omega_table, sigma
from .structure import Structure, leq, require_valid, subset_repr


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    group: str
    passed: bool
    witness: Any = None
    notes: tuple[str, ...] = ()
    # Whether the check raised an exception other than a domain error.
    crashed: bool = False


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


# ---------------------------------------------------------------------------
# registration

Check = Callable[[Structure], tuple[Any, tuple[str, ...]]]

CHECKS: tuple[tuple[str, str, Check], ...] = ()


def law(group, name, bases=None, elements=None, subsets=None, notes=False):
    """Register the decorated law as the check `name` of `group`.

    A law returns its witness, a dict, or None when it holds.  With
    `elements` or `subsets` (keys split on spaces) it returns its first
    failing instance instead, a tuple (a bare value for one key) of
    elements or masks, and the check names it by the keys.  With `notes`
    it returns (that result, notes).  The check returns (witness, notes),
    with the notes of all its bases, or none if it fails.
    """

    def register(fn):
        global CHECKS
        keys = tuple((elements or subsets or "").split())
        check = partial(_check, fn, bases, keys, elements is not None, notes)
        CHECKS += ((group, name, check),)
        return fn

    return register


def _check(fn, bases, keys, by_element, notes, s):
    """Run the law `fn` as `law` registered it; (witness, notes)."""
    found = []
    for f in flt.all_filters(s) if bases else (None,):
        if bases == "proper" and f == s.full:
            continue
        result = fn(s) if f is None else fn(s, f)
        if notes:
            result, more = result
            found.extend(more)
        if keys and result is not None:
            name_of = s.names.__getitem__ if by_element else partial(subset_repr, s)
            values = result if len(keys) > 1 else (result,)
            result = dict(zip(keys, map(name_of, values)))
        if result is not None:
            base = {} if f is None else {"base": subset_repr(s, f)}
            return {**base, **result}, ()
    return None, tuple(found)


# ---------------------------------------------------------------------------
# core: residuation laws, filters, spectra, coannihilators


@law("core", "product-distributes-over-join", elements="x y z")
def _product_distributes_over_join(s):
    for x in range(s.n):
        tx = s.times[x]
        for y, z in product(range(s.n), repeat=2):
            if tx[s.join[y][z]] != s.join[tx[y]][tx[z]]:
                return x, y, z


@law("core", "join-of-products-bound", elements="x y z")
def _join_of_products_bound(s):
    join, times = s.join, s.times
    for x, y, z in product(range(s.n), repeat=3):
        rhs = join[x][times[y][z]]
        if join[times[join[x][y]][join[x][z]]][rhs] != rhs:
            return x, y, z


@law("core", "order-matches-residuum", elements="x y")
def _order_matches_residuum(s):
    for x, y in product(range(s.n), repeat=2):
        if leq(s, x, y) != (s.residuum[x][y] == s.top):
            return x, y


@law("core", "product-monotone", elements="x y z")
def _product_monotone(s):
    join, times = s.join, s.times
    for x, y in product(range(s.n), repeat=2):
        if join[x][y] == y:
            tx, ty = times[x], times[y]
            for z in range(s.n):
                if join[tx[z]][ty[z]] != ty[z]:
                    return x, y, z


@law("core", "maximal-filters-are-prime", subsets="maximal")
def _maximal_filters_are_prime(s):
    primes = set(spc.primes_of(s))
    return next((m for m in spc.maximal_filters(s) if m not in primes), None)


@law("core", "filter-enumeration-matches-subset-scan")
def _filter_enumeration_oracle(s):
    fast = flt.all_filters(s)
    slow = flt.filters_by_subset_scan(s)
    if fast != slow:
        return {"fast": len(fast), "scan": len(slow)}


@law("core", "ideal-enumeration-matches-subset-scan")
def _ideal_enumeration_oracle(s):
    fast = flt.all_ideals(s)
    slow = flt.ideals_by_subset_scan(s)
    if fast != slow:
        return {"fast": len(fast), "scan": len(slow)}


@law("core", "generated-filter-idempotent", subsets="generators")
def _generated_filter_idempotent(s):
    gen = flt.generated_filter_table(s)
    for x_set, once in enumerate(gen):
        if x_set & ~once or gen[once] != once:
            return x_set


@law("core", "filter-extension-antitone", bases="all", elements="x y")
def _filter_extension_antitone(s, f):
    ext = [flt.filter_extension(s, f, x) for x in range(s.n)]
    join = s.join
    for x, y in product(range(s.n), repeat=2):
        if join[x][y] == y and ext[y] & ~ext[x]:
            return x, y


@law("core", "filter-extension-meet-rule", bases="all", elements="x y")
def _filter_extension_meet_rule(s, f):
    ext = [flt.filter_extension(s, f, x) for x in range(s.n)]
    for x, y in product(range(s.n), repeat=2):
        if ext[x] & ext[y] != ext[s.join[x][y]]:
            return x, y


@law("core", "filter-extension-join-rule", bases="all", elements="x y")
def _filter_extension_join_rule(s, f):
    ext = [flt.filter_extension(s, f, x) for x in range(s.n)]
    gen = flt.generated_filter_table(s)
    for x, y in product(range(s.n), repeat=2):
        if gen[ext[x] | ext[y]] != ext[s.times[x][y]]:
            return x, y


@law("core", "principal-filters-sublattice")
def _principal_filters_sublattice(s):
    principals = [flt.principal_filter(s, x) for x in range(s.n)]
    principal = set(principals)
    gen = flt.generated_filter_table(s)
    for x, y in product(range(s.n), repeat=2):
        px, py = principals[x], principals[y]
        if gen[px | py] not in principal:
            return {"kind": "join", "x": s.names[x], "y": s.names[y]}
        if px & py not in principal:
            return {"kind": "meet", "x": s.names[x], "y": s.names[y]}


@law("core", "filter-lattice-distributive", subsets="f g h")
def _filter_lattice_distributive(s):
    gen = flt.generated_filter_table(s)
    for f, g, h in product(flt.all_filters(s), repeat=3):
        if f & gen[g | h] != gen[(f & g) | (f & h)]:
            return f, g, h


@law("core", "principal-ideal-meet-rule", elements="x y")
def _principal_ideal_meet_rule(s):
    for x, y in product(range(s.n), repeat=2):
        if s.down[x] & s.down[y] != s.down[s.meet[x][y]]:
            return x, y


@law("core", "principal-ideal-join-rule", elements="x y")
def _principal_ideal_join_rule(s):
    for x, y in product(range(s.n), repeat=2):
        if flt.ideal_join(s, s.down[x], s.down[y]) != s.down[s.join[x][y]]:
            return x, y


@law("core", "prime-iff-complement-join-closed", subsets="filter")
def _prime_iff_complement_join_closed(s):
    for f in flt.all_filters(s):
        if spc.is_prime(s, f) != spc.prime_by_complement(s, f):
            return f


@law("core", "spectrum-matches-subset-scan")
def _spectrum_matches_subset_scan(s):
    scan = tuple(f for f in flt.filters_by_subset_scan(s) if spc.prime_by_complement(s, f))
    if spc.primes_of(s) != scan:
        return {"fast": len(spc.primes_of(s)), "scan": len(scan)}


@law("core", "prime-separation", subsets="separator filter")
def _prime_separation(s):
    filters = flt.all_filters(s)
    for c in spc.join_closed_subsets(s):
        for f in filters:
            if not (c & f) and spc.prime_avoiding(s, f, c) is None:
                return c, f


@law("core", "minimal-prime-iff-maximal-complement")
def _minimal_prime_iff_maximal_complement(s):
    jc = spc.join_closed_subsets(s)
    index = {c: i for i, c in enumerate(jc)}
    above: dict[int, list[int]] = {}

    def strictly_above(c):
        """The join-closed sets strictly above c, in the order of jc:
        jc is sorted by size, so they all come after c."""
        if c not in above:
            above[c] = [d for d in jc[index[c] + 1 :] if not (c & ~d)]
        return above[c]

    for f in flt.all_filters(s):
        mins = set(spc.minimal_primes_over(s, f))
        for m in mins:
            comp = s.full ^ m
            if not spc.is_join_closed(s, comp) or comp & f:
                return {"minimal": subset_repr(s, m), "base": subset_repr(s, f)}
            for c in strictly_above(comp):
                if not (c & f):
                    return {"minimal": subset_repr(s, m), "larger": subset_repr(s, c)}
        for c in jc:
            if c & f:
                continue
            grows = any(not (d & f) for d in strictly_above(c))
            if not grows and (s.full ^ c) not in mins:
                return {"maximal_separator": subset_repr(s, c), "base": subset_repr(s, f)}


@law("core", "prime-over-set-contains-minimal", subsets="set prime")
def _prime_over_set_contains_minimal(s):
    primes = spc.primes_of(s)
    for x_set, mins in enumerate(spc.minimal_primes_table(s)):
        for p in primes:
            if not (x_set & ~p) and not any(not (m & ~p) for m in mins):
                return x_set, p


def _meets(s):
    """The meet of each subset mask, top for the empty one."""
    return subset_fold(range(s.n), s.top, lambda x, y: s.meet[x][y])


@law("core", "generated-filter-is-prime-intersection", subsets="set")
def _generated_filter_is_prime_intersection(s):
    """A prime up(e) holds X exactly when e <= meet(X), so the primes over
    X are those over its meet (top for X empty): one intersection per
    element, read at each mask's meet, which one meet fold gives."""
    over = [spc.generated_by_primes(s, 1 << e) for e in range(s.n)]
    meets = _meets(s)
    for x_set, gen in enumerate(flt.generated_filter_table(s)):
        if gen != over[meets[x_set]]:
            return x_set


@law("core", "generated-filter-is-minimal-prime-intersection", subsets="set")
def _generated_filter_is_minimal_prime_intersection(s):
    """The minimal primes over X are those over its meet, as for the
    primes above: one intersection per element, read at each mask's meet."""
    over = [spc.generated_by_minimal_primes(s, 1 << e) for e in range(s.n)]
    meets = _meets(s)
    for x_set, gen in enumerate(flt.generated_filter_table(s)):
        if gen != over[meets[x_set]]:
            return x_set


@law("core", "coannihilator-is-filter-above-base", bases="all", subsets="set")
def _coannihilator_is_filter_above_base(s, f):
    co = can.coann_subset_table(s, f)
    bad = {g for g in set(co) if f & ~g or not flt.is_filter(s, g)}
    if bad:
        return next(x for x in range(1 << s.n) if co[x] in bad)


@law("core", "coannihilator-flip-rule", bases="all", subsets="x y")
def _coannihilator_flip_rule(s, f):
    """X inside (F : Y) implies Y inside (F : X), for all X and Y.

    The premise depends on Y only through g = (F : Y), so each value g
    carries the intersection of (F : X) over every X inside g, and Y is
    tested against that once.
    """
    co = can.coann_subset_table(s, f)
    below = {}
    for g in set(co):
        acc = s.full
        for x_set in submasks(g):
            acc &= co[x_set]
        below[g] = acc
    for y_set in range(1 << s.n):
        if y_set & ~below[co[y_set]]:
            return next(x for x in submasks(co[y_set]) if y_set & ~co[x]), y_set


@law("core", "coannihilator-full-iff-contained", bases="all", subsets="set")
def _coannihilator_full_iff_contained(s, f):
    co = can.coann_subset_table(s, f)
    for x_set in range(1 << s.n):
        if (co[x_set] == s.full) != (not (x_set & ~f)):
            return x_set


@law("core", "coannulet-monotone", bases="all", elements="x y")
def _coannulet_monotone(s, f):
    table = can.coannulet_table(s, f)
    join = s.join
    for x, y in product(range(s.n), repeat=2):
        if join[x][y] == y and table[x] & ~table[y]:
            return x, y


@law("core", "coannulet-meet-is-product-coannulet", bases="all", elements="x y")
def _coannulet_meet_is_product_coannulet(s, f):
    table = can.coannulet_table(s, f)
    for x, y in product(range(s.n), repeat=2):
        if table[x] & table[y] != table[s.times[x][y]]:
            return x, y


@law("core", "double-coannihilator-join-rule", bases="all", elements="x y")
def _double_coannihilator_join_rule(s, f):
    table = can.coannulet_table(s, f)
    co = can.coann_subset_table(s, f)
    for x, y in product(range(s.n), repeat=2):
        if co[table[x]] & co[table[y]] != co[table[s.join[x][y]]]:
            return x, y


@law("core", "coannulet-join-bound", bases="all", elements="x y")
def _coannulet_join_bound(s, f):
    table = can.coannulet_table(s, f)
    lets = set(table)
    joins = {(g, h): can.gamma_join(s, f, g, h) for g in lets for h in lets}
    gen = flt.generated_filter_table(s)
    for x, y in product(range(s.n), repeat=2):
        in_lattice = gen[table[x] | table[y]]
        gamma = joins[table[x], table[y]]
        if in_lattice & ~gamma or gamma != table[s.join[x][y]]:
            return x, y


@law("core", "coannihilator-family-boolean", bases="all")
def _coann_family_boolean(s, f):
    members = can.coann_family(s, f)
    mset = set(members)
    if f not in mset or s.full not in mset:
        return {"missing": "bounds"}
    for g in members:
        comp = can.coannihilator(s, f, g)
        if g & comp != f:
            return {"member": subset_repr(s, g), "law": "meet-complement"}
        if can.gamma_join(s, f, g, comp) != s.full:
            return {"member": subset_repr(s, g), "law": "join-complement"}
        if can.coannihilator(s, f, comp) != g:
            return {"member": subset_repr(s, g), "law": "involution"}
        if any(g & h not in mset for h in members):
            return {"law": "meet-closure"}
    joins = {(h, k): can.gamma_join(s, f, h, k) for h in members for k in members}
    for g, h, k in product(members, repeat=3):
        if g & joins[h, k] != joins[g & h, g & k]:
            return {"law": "distributivity"}


@law("core", "coannulets-form-sublattice", bases="all", subsets="g h")
def _coannulets_form_sublattice(s, f):
    lets = flt.canonical_sort(set(can.coannulet_table(s, f)))
    let_set = set(lets)
    for g, h in product(lets, repeat=2):
        if g & h not in let_set or can.gamma_join(s, f, g, h) not in let_set:
            return g, h


@law("core", "coannihilator-relative-pseudocomplement", bases="all")
def _coannihilator_relative_pseudocomplement(s, f):
    filters = flt.all_filters(s)
    co = can.coann_subset_table(s, f)
    for x_set, gen in enumerate(flt.generated_filter_table(s)):
        best = co[x_set]
        if best & gen & ~f:
            return {"set": subset_repr(s, x_set), "law": "bound"}
        for g in filters:
            if not (g & gen & ~f) and g & ~best:
                return {"set": subset_repr(s, x_set), "larger": subset_repr(s, g)}


@law("core", "coannihilator-family-matches-subset-scan", bases="all")
def _coann_family_matches_subset_scan(s, f):
    fam = can.coann_family(s, f)
    scan = set(can.coann_subset_table(s, f))
    if set(fam) != scan:
        return {"fast": len(fam), "scan": len(scan)}


# ---------------------------------------------------------------------------
# omega: coannulet unions, dense sets, families, divisors


@law("omega", "omega-routes-agree", bases="all", subsets="set")
def _omega_routes_agree(s, f):
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
            return x_set


@law("omega", "omega-contains-base", bases="all", subsets="set")
def _omega_contains_base(s, f):
    om = omega_table(s, f)
    return next((x_set for x_set in range(1, 1 << s.n) if f & ~om[x_set]), None)


@law("omega", "omega-monotone-in-set", bases="all", subsets="x y")
def _omega_monotone_in_set(s, f):
    """Tested on the pairs (Y minus one element, Y) with both sides
    nonempty; inclusion is transitive, so these give every pair X inside Y."""
    om = omega_table(s, f)
    for y_set in range(1, 1 << s.n):
        oy = om[y_set]
        for x in bits(y_set):
            x_set = y_set ^ 1 << x
            if x_set and om[x_set] & ~oy:
                return x_set, y_set


@law("omega", "omega-monotone-in-base", subsets="small large set")
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
                    return f, g, x_set


@law("omega", "omega-full-iff-meets-base", bases="all", subsets="set")
def _omega_full_iff_meets_base(s, f):
    om = omega_table(s, f)
    for x_set in range(1, 1 << s.n):
        if (om[x_set] == s.full) != bool(f & x_set):
            return x_set


@law("omega", "omega-fixes-base-iff-dense", bases="all", subsets="set")
def _omega_fixes_base_iff_dense(s, f):
    om = omega_table(s, f)
    dense = dense_set(s, f)
    for x_set in range(1, 1 << s.n):
        if (om[x_set] == f) != (not (x_set & ~dense)):
            return x_set


@law("omega", "dense-elements-form-ideal", bases="all", subsets="dense")
def _dense_elements_form_ideal(s, f):
    dense = dense_set(s, f)
    if not flt.is_ideal(s, dense):
        return dense


@law("omega", "omega-of-join-closed-is-filter", bases="all", subsets="separator")
def _omega_of_join_closed_is_filter(s, f):
    jc = spc.join_closed_subsets(s)
    om = omega_table(s, f)
    bad = {w for w in {om[c] for c in jc} if not flt.is_filter(s, w)}
    if bad:
        return next(c for c in jc if om[c] in bad)


@law("omega", "omega-properness-equivalences", bases="all", subsets="separator")
def _omega_properness_equivalences(s, f):
    om = omega_table(s, f)
    for c in spc.join_closed_subsets(s):
        w = om[c]
        a = not (f & c)
        b = w != s.full
        d = not (w & c)
        if not (a == b == d):
            return c


@law("omega", "omega-family-lattice", bases="all")
def _omega_family_lattice(s, f):
    fam = omega_family(s, f)
    table = omega_table(s, f)
    if f not in fam or s.full not in fam:
        return {"missing": "bounds"}
    items = list(fam.items())
    for i, (g, wg) in enumerate(items):
        for h, wh in items[i:]:
            if g & h not in fam:
                return {"law": "meet-closure"}
            if table[wg & wh] != g & h:
                return {"law": "meet-formula"}
    # Joins only once every meet has passed, so a broken witness
    # fails the meet formula rather than the join's cross-check.
    members = list(fam)
    joins = {}
    for i, g in enumerate(members):
        for h in members[i:]:
            joins[(g, h)] = joins[(h, g)] = omega_join(s, f, g, h)
    for g, h, w in product(fam, repeat=3):
        if g & joins[(h, w)] != joins[(g & h, g & w)]:
            return {"law": "distributivity"}
    ideals = flt.all_ideals(s)
    values = {ideal: table[ideal] for ideal in ideals}
    for i_a, i_b in product(ideals, repeat=2):
        lhs = table[flt.ideal_join(s, i_a, i_b)]
        # None when a table value is not a family member.
        if lhs != joins.get((values[i_a], values[i_b])):
            i, j = subset_repr(s, i_a), subset_repr(s, i_b)
            return {"law": "representation-independence", "i": i, "j": j}


def _omega_joins(s, f):
    """omega_join(s, f, g, h), each pair computed on its first use, so a
    scan meets the same first failure or error as a call per pair."""
    joins = {}

    def join(g, h):
        if (g, h) not in joins:
            joins[g, h] = omega_join(s, f, g, h)
        return joins[g, h]

    return join


@law("omega", "coannulets-inside-omega-family", bases="all")
def _coannulets_inside_omega_family(s, f):
    fam = omega_family(s, f)
    table = can.coannulet_table(s, f)
    for x in range(s.n):
        if table[x] not in fam:
            return {"element": s.names[x]}
    join = _omega_joins(s, f)
    for x, y in product(range(s.n), repeat=2):
        if join(table[x], table[y]) != table[s.join[x][y]]:
            return {"x": s.names[x], "y": s.names[y]}


@law("omega", "coannulet-join-full-when-base-join", bases="all", elements="x y")
def _coannulet_join_full_when_base_join(s, f):
    table = can.coannulet_table(s, f)
    join = _omega_joins(s, f)
    for x, y in product(range(s.n), repeat=2):
        if f >> s.join[x][y] & 1 and join(table[x], table[y]) != s.full:
            return x, y


@law("omega", "divisor-set-forms", bases="all")
def _divisor_set_forms(s, f):
    table = can.coannulet_table(s, f)
    for h in flt.all_filters(s):
        if h == s.full:
            continue
        d = divisor(s, f, h)
        by_escape = sum(1 << a for a in range(s.n) if table[a] & ~h)
        if d != by_escape or f & ~d:
            return {"filter": subset_repr(s, h)}
        if (d == s.full) != bool(f & ~h):
            return {"filter": subset_repr(s, h), "law": "full-iff"}


@law("omega", "divisor-of-prime-is-omega-member", bases="all")
def _divisor_of_prime_is_omega_member(s, f):
    fam = omega_family(s, f)
    for p in spc.primes_of(s):
        d = divisor(s, f, p)
        if d not in fam:
            return {"prime": subset_repr(s, p)}
        if not (f & ~p) and d & ~p:
            return {"prime": subset_repr(s, p), "law": "containment"}


@law("omega", "minimal-prime-divisor-fixpoint", bases="all")
def _minimal_prime_divisor_fixpoint(s, f):
    mins = spc.minimal_primes_over(s, f)
    d_base = divisor(s, f, f) if mins and f != s.full else None
    for m in mins:
        if divisor(s, f, m) != m:
            return {"minimal": subset_repr(s, m)}
        if d_base is not None and m & ~d_base:
            return {"minimal": subset_repr(s, m), "law": "inside-base-divisors"}


@law("omega", "minimal-prime-divisor-trichotomy", bases="all", subsets="prime")
def _minimal_prime_divisor_trichotomy(s, f):
    mins = set(spc.minimal_primes_over(s, f))
    table = can.coannulet_table(s, f)
    for p in spc.primes_of(s):
        if f & ~p:
            continue
        b1 = p in mins
        b2 = divisor(s, f, p) == p
        b3 = all(bool(p >> x & 1) != (not (table[x] & ~p)) for x in range(s.n))
        if not (b1 == b2 == b3):
            return p


@law("omega", "minimal-primes-family-comaximal", bases="all")
def _minimal_primes_family_comaximal(s, f):
    fam = omega_family(s, f)
    for m1, m2 in combinations(spc.minimal_primes_over(s, f), 2):
        if m1 not in fam or m2 not in fam:
            return {"minimal": subset_repr(s, m1 if m1 not in fam else m2)}
        if omega_join(s, f, m1, m2) != s.full:
            return {"first": subset_repr(s, m1), "second": subset_repr(s, m2)}


@law("omega", "omega-minimal-primes-avoid-set", bases="all", subsets="separator minimal")
def _omega_minimal_primes_avoid_set(s, f):
    om = omega_table(s, f)
    mins = spc.minimal_primes_table(s)
    for c in spc.join_closed_subsets(s):
        for m in mins[om[c]]:
            if m & c:
                return c, m


@law("omega", "divisor-minimal-primes-inside-prime", bases="all", subsets="prime minimal")
def _divisor_minimal_primes_inside_prime(s, f):
    for p in spc.primes_of(s):
        for m in spc.minimal_primes_over(s, divisor(s, f, p)):
            if m & ~p:
                return p, m


@law("omega", "omega-minimal-primes-characterized", bases="all", subsets="separator")
def _omega_minimal_primes_characterized(s, f):
    mins_f = spc.minimal_primes_over(s, f)
    om = omega_table(s, f)
    mins = spc.minimal_primes_table(s)
    for c in spc.join_closed_subsets(s):
        lhs = set(mins[om[c]])
        if lhs != {m for m in mins_f if not (m & c)}:
            return c


@law("omega", "divisor-minimal-primes-characterized", bases="all", subsets="prime")
def _divisor_minimal_primes_characterized(s, f):
    mins_f = spc.minimal_primes_over(s, f)
    for p in spc.primes_of(s):
        lhs = set(spc.minimal_primes_over(s, divisor(s, f, p)))
        if lhs != {m for m in mins_f if not (m & ~p)}:
            return p


@law("omega", "omega-is-minimal-prime-intersection", bases="all", subsets="separator")
def _omega_is_minimal_prime_intersection(s, f):
    mins_f = spc.minimal_primes_over(s, f)
    om = omega_table(s, f)
    for c in spc.join_closed_subsets(s):
        if om[c] != spc.intersection_of((m for m in mins_f if not (m & c)), s.full):
            return c


@law("omega", "divisor-is-minimal-prime-intersection", bases="all", subsets="prime")
def _divisor_is_minimal_prime_intersection(s, f):
    mins_f = spc.minimal_primes_over(s, f)
    for p in spc.primes_of(s):
        expected = spc.intersection_of((m for m in mins_f if not (m & ~p)), s.full)
        if divisor(s, f, p) != expected:
            return p


@law("omega", "omega-family-matches-filter-scan", bases="all")
def _omega_family_matches_filter_scan(s, f):
    ideals = flt.all_ideals(s)
    fam = omega_family(s, f)
    table = omega_table(s, f)
    scan = tuple(h for h in flt.all_filters(s) if any(table[i] == h for i in ideals))
    if set(fam) != set(scan):
        return {"fast": len(fam), "scan": len(scan)}


# ---------------------------------------------------------------------------
# normality


@law("normality", "n-prime-characterizations-agree", bases="proper")
def _n_prime_agreement(s, f):
    for n in range(2, len(spc.primes_of(s)) + 2):
        verdict = nrm.is_n_prime(s, f, n)
        if not verdict.agree:
            return {"n": n, "conditions": dict(verdict.conditions)}


@law("normality", "separating-elements-exist", bases="proper")
def _separating_elements_exist(s, f):
    mins = spc.minimal_primes_over(s, f)
    for k in range(2, len(mins) + 1):
        for combo in combinations(mins, k):
            try:
                nrm.separating_elements(s, f, combo)
            except (SearchExhausted, RepresentationMismatch) as exc:
                return {"size": k, "error": str(exc)}


@law("normality", "n-normality-characterizations-agree", bases="proper", notes=True)
def _n_normality_agreement(s, f):
    notes: list[str] = []
    for n in range(1, len(spc.minimal_primes_over(s, f)) + 2):
        verdict = nrm.n_normality_verdict(s, f, n)
        notes.extend(f"base {subset_repr(s, f)}, n={n}: {note}" for note in verdict.notes)
        if not verdict.agree:
            return {"n": n, "conditions": dict(verdict.conditions)}, ()
    return None, notes


@law("normality", "normal-characterizations-agree", notes=True)
def _normal_agreement(s):
    verdict = nrm.normality_verdict(s)
    if not verdict.agree:
        return {"conditions": dict(verdict.conditions)}, ()
    return None, verdict.notes


@law("normality", "omega-sublattice-characterizations-agree")
def _omega_sublattice_agreement(s):
    verdict = nrm.omega_sublattice_verdict(s)
    if not verdict.agree:
        return {"conditions": dict(verdict.conditions)}


@law("normality", "sigma-is-omega-member-within", subsets="filter sigma")
def _sigma_is_omega_member_within(s):
    fam = omega_family(s, 1 << s.top)
    for f in flt.all_filters(s):
        sg = sigma(s, f)
        if sg not in fam or sg & ~f:
            return f, sg


@law("normality", "sigma-greatest-when-normal", subsets="filter", notes=True)
def _sigma_greatest_when_normal(s):
    if nrm.normality_report(s, 1 << s.top).index != 1:
        holds = all(nrm.sigma_greatest_check(s, f) for f in flt.all_filters(s))
        return None, (
            "structure is not normal; greatest-omega identity skipped "
            f"(holds anyway: {holds})",
        )
    bad = (f for f in flt.all_filters(s) if not nrm.sigma_greatest_check(s, f))
    return next(bad, None), ()


# ---------------------------------------------------------------------------
# runner

GROUPS = ("core", "omega", "normality")

AGREEMENT_CHECKS = tuple(name for _, name, _fn in CHECKS if name.endswith("-agree"))


def run_battery(
    s: Structure,
    groups=GROUPS,
    name: str | None = None,
) -> VerificationReport:
    """Run every selected check against s, once `require_valid(s, name)`
    has passed it; `name` defaults to "structure".

    A check that raises fails with the witness {"error": message}, the
    message prefixed by "<ExceptionType>: " and `crashed` set unless the
    exception is a domain error.  So one broken check never ends the run.
    """
    name = "structure" if name is None else name
    require_valid(s, name)
    wanted = set(groups)
    outcomes = []
    for group, check_name, fn in CHECKS:
        if group not in wanted:
            continue
        crashed = False
        try:
            witness, notes = fn(s)
        except (NotMinimalPrime, RepresentationMismatch, SearchExhausted) as exc:
            witness, notes = {"error": str(exc)}, ()
        except Exception as exc:
            witness, notes = {"error": f"{type(exc).__name__}: {exc}"}, ()
            crashed = True
        passed = witness is None
        outcomes.append(CheckOutcome(check_name, group, passed, witness, notes, crashed))
    return VerificationReport(
        structure_name=name,
        outcomes=tuple(outcomes),
    )
