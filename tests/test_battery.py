import json
from dataclasses import replace

import pytest

from reslat import battery, cli, filters, spectra
from reslat.battery import AGREEMENT_CHECKS, CHECKS, GROUPS, run_battery
from reslat.errors import MalformedTables, SearchExhausted
from reslat.structure import Structure, validate_structure

from test_closure import patch_everywhere


def test_battery_passes_on_fixtures(a6, chain2, chain3_godel, chain3_luk):
    for s in (a6, chain2, chain3_godel, chain3_luk):
        report = run_battery(s)
        assert report.all_passed, report.failures()


def test_battery_reads_mask_tables_not_one_call_per_mask(a6, monkeypatch):
    """The scans over masks read `generated_filter_table` and
    `minimal_primes_table`, each built with one call per mask of a6; a
    scan that calls the routine once per instance raises the counts."""
    calls = {"generated_filter": 0, "minimal_primes_over": 0}

    def counted(name, routine):
        def count(s, arg):
            calls[name] += 1
            return routine(s, arg)

        return count

    for module, name in ((filters, "generated_filter"), (spectra, "minimal_primes_over")):
        routine = getattr(module, name)
        patch_everywhere(monkeypatch, routine, counted(name, routine))
    assert run_battery(replace(a6, names=a6.names)).all_passed
    assert calls == {"generated_filter": 323, "minimal_primes_over": 228}


def test_battery_group_selection(a6):
    core_only = run_battery(a6, groups=("core",))
    assert core_only.outcomes
    assert all(o.group == "core" for o in core_only.outcomes)
    full = run_battery(a6)
    assert {o.group for o in full.outcomes} == set(GROUPS)
    assert len(full.outcomes) == len(CHECKS)


def test_battery_reports_reading_divergence_note(a6):
    report = run_battery(a6, groups=("normality",))
    assert report.all_passed
    assert any("diverges" in note for note in report.notes())


def test_agreement_checks_are_registered():
    assert "n-prime-characterizations-agree" in AGREEMENT_CHECKS
    assert "n-normality-characterizations-agree" in AGREEMENT_CHECKS
    assert "normal-characterizations-agree" in AGREEMENT_CHECKS
    assert "omega-sublattice-characterizations-agree" in AGREEMENT_CHECKS


def test_battery_rejects_invalid_structure():
    broken = Structure(
        n=2,
        names=("0", "1"),
        join=((0, 1), (1, 1)),
        meet=((0, 0), (0, 1)),
        times=((0, 1), (1, 1)),  # 0 is not absorbing, 1 not an identity
        residuum=((1, 1), (0, 1)),
        bot=0,
        top=1,
    )
    # The refusal of `require_valid`, still a ValueError for the library.
    assert issubclass(MalformedTables, ValueError)
    with pytest.raises(MalformedTables) as info:
        run_battery(broken)
    assert str(info.value) == (
        "structure is not a residuated lattice: product-identity fails at 0"
    )
    with pytest.raises(MalformedTables, match="^broken is not a residuated lattice: "):
        run_battery(broken, name="broken")


def test_battery_names_are_unique_and_grouped():
    names = [name for _, name, _ in CHECKS]
    assert len(names) == len(set(names))
    assert {group for group, _, _ in CHECKS} == set(GROUPS)


def test_check_that_raises_fails_alone(a6, fixtures_dir, monkeypatch, capsys):
    """An exception escaping a check is that check's failure, not the
    run's: the other checks still run and pass, and `verify` exits 1
    with its JSON report and no traceback."""
    k = 5
    group, name, _fn = CHECKS[k]

    def broken(s):
        raise KeyError("no such slot")

    checks = list(CHECKS)
    checks[k] = (group, name, broken)
    monkeypatch.setattr(battery, "CHECKS", tuple(checks))

    report = battery.run_battery(a6)
    assert len(report.outcomes) == len(CHECKS) == 64
    [failed] = report.failures()
    assert failed.name == name
    assert failed.witness == {"error": "KeyError: 'no such slot'"}
    assert [o.name for o in report.outcomes if o.crashed] == [name]

    code = cli.main(["verify", str(fixtures_dir / "a6.json"), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert not doc["all_passed"]
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == [name]


def test_domain_error_fails_without_crashing(a6, monkeypatch):
    """A domain error is a law's failure, not a crash: its message, with
    no type prefix, is the witness, and `crashed` stays False."""
    k = 5
    group, name, _fn = CHECKS[k]

    def exhausted(s):
        raise SearchExhausted("no separating tuple exists; theory violated")

    checks = list(CHECKS)
    checks[k] = (group, name, exhausted)
    monkeypatch.setattr(battery, "CHECKS", tuple(checks))

    [failed] = battery.run_battery(a6).failures()
    assert failed.name == name
    assert failed.witness == {"error": "no separating tuple exists; theory violated"}
    assert not failed.crashed


def test_derived_laws_fail_on_a_product_that_does_not_preserve_joins(a6, monkeypatch):
    """`validate_structure` checks the axioms only; the two laws they
    imply are the battery's first checks, and those can fail.  a6 with
    meet as its product is commutative, but its lattice is not
    distributive: b * (a v c) = b and (b * a) v (b * c) = a."""
    s = replace(a6, times=a6.meet)
    assert not validate_structure(s).valid
    monkeypatch.setattr(battery, "require_valid", lambda s, name: None)
    witness = {o.name: o.witness for o in run_battery(s).failures()}
    assert witness["product-distributes-over-join"] == {"x": "b", "y": "a", "z": "c"}
    # (a v b) * (a v c) = b is not below a v (b * c) = a.
    assert witness["join-of-products-bound"] == {"x": "a", "y": "b", "z": "c"}
