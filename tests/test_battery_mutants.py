"""The battery's power to catch broken memo tables.

Each mutant breaks one table that the table-driven checks read, and the
census of sizes 2 to 5 plus a6 must make the named checks fail.  Every
run starts from rebuilt structures (an empty memo), and `cold_caches`
empties the memo of every live structure before and after each test, so
no broken result outlives its test.

Each mutant is installed by a module-level function of a monkeypatch,
so that `test_battery_failures.py` can run the battery under it too.
"""

import importlib
from collections import defaultdict
from dataclasses import replace

from reslat import coann, spectra
from reslat.structure import Structure

from test_closure import census, cold_caches, failed_checks, patch_everywhere  # noqa: F401

# The package attribute `reslat.omega` is the function, not the module.
omega_module = importlib.import_module("reslat.omega")


def census_and_a6(a6):
    structures = census(2, 3, 4, 5) + [a6]
    assert len(structures) == 1 + 2 + 7 + 26 + 1
    return structures


def coann_table_with_one_slot_changed(monkeypatch):
    orig = coann.coann_subset_table

    def bot_slot_gains_bot(s, f):
        co = list(orig(s, f))
        co[1 << s.bot] |= 1 << s.bot
        return co

    patch_everywhere(monkeypatch, orig, bot_slot_gains_bot)


def coann_table_with_carrier_slot_full(monkeypatch):
    orig = coann.coann_subset_table

    def carrier_slot_is_carrier(s, f):
        co = list(orig(s, f))
        co[s.full] = s.full
        return co

    patch_everywhere(monkeypatch, orig, carrier_slot_is_carrier)


def non_monotone_omega_table(monkeypatch):
    orig = omega_module.omega_table

    def carrier_slot_is_base(s, f):
        unions = list(orig(s, f))
        unions[s.full] = f
        return unions

    patch_everywhere(monkeypatch, orig, carrier_slot_is_base)


def omega_table_slot_without_top(monkeypatch):
    orig = omega_module.omega_table

    def bot_slot_loses_top(s, f):
        unions = list(orig(s, f))
        unions[1 << s.bot] &= ~(1 << s.top)
        return unions

    patch_everywhere(monkeypatch, orig, bot_slot_loses_top)


def omega_table_of_another_base(monkeypatch):
    orig = omega_module.omega_table

    def carrier_reads_trivial_base(s, f):
        return orig(s, 1 << s.top if f == s.full else f)

    patch_everywhere(monkeypatch, orig, carrier_reads_trivial_base)


def stale_minimal_primes_memo(monkeypatch):
    def stale_memos(s):
        # Every mask already has a minimal-primes slot holding the empty
        # tuple, a valid answer, so `minimal_primes_over` never computes
        # and answers stale.  Kept on the structure, under the real name,
        # so that the other memoised answers are still computed once.
        if "memos" not in vars(s):
            stale = dict.fromkeys(range(1 << s.n), ())
            vars(s)["memos"] = defaultdict(
                dict, {spectra.minimal_primes_over.__wrapped__: stale}
            )
        return vars(s)["memos"]

    monkeypatch.setattr(Structure, "memos", property(stale_memos))


def minimal_primes_over_returning_every_prime(monkeypatch):
    def every_prime_over(s, x_set):
        return tuple(p for p in spectra.primes_of(s) if not (x_set & ~p))

    patch_everywhere(monkeypatch, spectra.minimal_primes_over, every_prime_over)


def omega_family_with_bottom_witnesses(monkeypatch):
    orig = omega_module.omega_family

    def bottom_witnesses(s, f):
        return {h: 1 << s.bot for h in orig(s, f)}

    patch_everywhere(monkeypatch, orig, bottom_witnesses)


def coann_family_one_member_short(monkeypatch):
    orig = coann.coann_family

    def drop_second_member(s, f):
        fam = orig(s, f)
        return fam[:1] + fam[2:]

    patch_everywhere(monkeypatch, orig, drop_second_member)


MUTANTS = (
    coann_table_with_one_slot_changed,
    coann_table_with_carrier_slot_full,
    non_monotone_omega_table,
    omega_table_slot_without_top,
    omega_table_of_another_base,
    stale_minimal_primes_memo,
    minimal_primes_over_returning_every_prime,
    omega_family_with_bottom_witnesses,
    coann_family_one_member_short,
)


def test_coann_table_with_one_slot_changed(a6, monkeypatch, cold_caches):
    coann_table_with_one_slot_changed(monkeypatch)
    failed = failed_checks(census_and_a6(a6))
    assert {"coannihilator-flip-rule", "coannihilator-is-filter-above-base"} <= failed


def test_coann_table_with_carrier_slot_full(a6, monkeypatch, cold_caches):
    coann_table_with_carrier_slot_full(monkeypatch)
    failed = failed_checks(census_and_a6(a6))
    # (F : (F : x)) reads the carrier slot whenever (F : x) is the carrier.
    assert "double-coannihilator-join-rule" in failed


def test_non_monotone_omega_table(a6, monkeypatch, cold_caches):
    non_monotone_omega_table(monkeypatch)
    failed = failed_checks(census_and_a6(a6))
    assert {
        "omega-monotone-in-set",
        "omega-routes-agree",
        "omega-full-iff-meets-base",
        "omega-fixes-base-iff-dense",
        "omega-properness-equivalences",
        "omega-minimal-primes-avoid-set",
        "omega-minimal-primes-characterized",
        "omega-is-minimal-prime-intersection",
    } <= failed


def test_omega_table_slot_without_top(a6, monkeypatch, cold_caches):
    omega_table_slot_without_top(monkeypatch)
    failed = failed_checks(census_and_a6(a6))
    assert {"omega-contains-base", "omega-of-join-closed-is-filter"} <= failed


def test_omega_table_of_another_base(a6, monkeypatch, cold_caches):
    omega_table_of_another_base(monkeypatch)
    failed = failed_checks(census_and_a6(a6))
    assert {"omega-monotone-in-base", "omega-contains-base"} <= failed


def test_stale_minimal_primes_memo(a6, monkeypatch, cold_caches):
    stale_minimal_primes_memo(monkeypatch)
    # A rebuilt copy, so that the shared a6 keeps its own memo.
    fresh = replace(a6, names=a6.names)
    assert spectra.minimal_primes_over(fresh, 1 << fresh.top) == ()
    failed = failed_checks(census_and_a6(a6))
    assert {
        "minimal-prime-iff-maximal-complement",
        "prime-over-set-contains-minimal",
        "generated-filter-is-minimal-prime-intersection",
        "omega-is-minimal-prime-intersection",
        "divisor-is-minimal-prime-intersection",
        "n-normality-characterizations-agree",
    } <= failed


def test_minimal_primes_over_returning_every_prime(a6, monkeypatch, cold_caches):
    minimal_primes_over_returning_every_prime(monkeypatch)
    # A prime over the base that is not minimal reaches the separation
    # search, which raises NotMinimalPrime; the battery reports a failed
    # check instead of stopping.
    failed = failed_checks(census_and_a6(a6))
    assert "separating-elements-exist" in failed


def test_omega_family_with_bottom_witnesses(a6, monkeypatch, cold_caches):
    omega_family_with_bottom_witnesses(monkeypatch)
    assert "omega-family-lattice" in failed_checks(census_and_a6(a6))


def test_coann_family_one_member_short(a6, monkeypatch, cold_caches):
    coann_family_one_member_short(monkeypatch)
    assert "coannihilator-family-matches-subset-scan" in failed_checks(census_and_a6(a6))
