"""Acceptance suite.

Each test exercises one acceptance criterion end to end, measures its
runtime against the stated budget, and prints a single PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from reslat.battery import AGREEMENT_CHECKS, run_battery
from reslat.bitsets import mask_of
from reslat.coann import coann_family, coann_subset_table, coannulet_table
from reslat.fileformat import load_structure
from reslat.filters import all_filters, all_ideals, filters_by_subset_scan
from reslat.modelgen import (
    SearchSpec,
    canonical_key,
    enumerate_residuated,
)
from reslat.normality import normality_report
from reslat.omega import omega, omega_family, sigma
from reslat.spectra import spectrum
from reslat.structure import validate_structure

from conftest import FIXTURES


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def named_mask(s, names):
    return mask_of(s.element(x) for x in names)


def test_criterion_1_fixture_fidelity():
    t0 = time.perf_counter()
    problems = []
    s, name = load_structure(FIXTURES / "a6.json")
    if not validate_structure(s).valid:
        problems.append("fixture does not validate")

    expected_filters = {
        named_mask(s, "1"),
        named_mask(s, "d1"),
        named_mask(s, "abd1"),
        named_mask(s, "cd1"),
        s.full,
    }
    if set(all_filters(s)) != expected_filters:
        problems.append("filter enumeration differs from the known five")

    f4 = named_mask(s, "cd1")
    table = coannulet_table(s, f4)
    for x in "0ab":
        if table[s.element(x)] != f4:
            problems.append(f"coannulet of {x} is wrong")
    for x in "cd1":
        if table[s.element(x)] != s.full:
            problems.append(f"coannulet of {x} is wrong")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(
        1,
        "fixture parses, yields the five known filters and six coannulets",
        not problems,
        f"{elapsed:.2f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_2_spectral_golden_values():
    t0 = time.perf_counter()
    problems = []
    s, _ = load_structure(FIXTURES / "a6.json")
    f1 = named_mask(s, "1")
    f2 = named_mask(s, "d1")
    f3 = named_mask(s, "abd1")
    f4 = named_mask(s, "cd1")

    rep = spectrum(s)
    if set(rep.primes) != {f1, f3, f4}:
        problems.append("prime filters differ")
    if set(rep.maximals) != {f3, f4}:
        problems.append("maximal filters differ")
    if rep.minimal_primes != (f1,):
        problems.append("minimal primes differ")

    for f in all_filters(s):
        if f != s.full and normality_report(s, f).index != 1:
            problems.append(f"normality index above 1 for {f:#x}")

    if sigma(s, f3) != f1:
        problems.append("sigma of the upper prime differs")
    if tuple(omega_family(s, f1)) != (f1, s.full):
        problems.append("trivial-base omega family differs")
    if tuple(omega_family(s, f2)) != (f2, f4, f3, s.full):
        problems.append("omega family over {d,1} differs")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(
        2,
        "derived spectral golden values all match",
        not problems,
        f"{elapsed:.2f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_3_battery_on_fixture():
    t0 = time.perf_counter()
    s, name = load_structure(FIXTURES / "a6.json")
    report = run_battery(s, name=name)
    elapsed = time.perf_counter() - t0
    failures = [o.name for o in report.outcomes if not o.passed]
    ok = not failures and elapsed < 5.0
    _report(
        3,
        f"full battery on the fixture: {len(report.outcomes)} checks, zero failures",
        ok,
        f"{elapsed:.2f}s" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_4_census_battery():
    problems = []
    t_small = time.perf_counter()
    counts = {}
    for n in (2, 3, 4):
        for rec in enumerate_residuated(SearchSpec(size=n)):
            counts[n] = counts.get(n, 0) + 1
            if not validate_structure(rec.structure).valid:
                problems.append(f"size {n} emitted an invalid structure")
            rep = run_battery(rec.structure)
            for o in rep.outcomes:
                if not o.passed:
                    problems.append(f"size {n}: {o.name} failed")
                if o.name in AGREEMENT_CHECKS and not o.passed:
                    problems.append(f"size {n}: equivalence disagreement in {o.name}")
    elapsed_small = time.perf_counter() - t_small
    if counts.get(3) != 2:
        problems.append(f"three-chain census is {counts.get(3)}, expected 2")
    if elapsed_small >= 60.0:
        problems.append(f"sizes up to 4 took {elapsed_small:.1f}s, budget 60s")

    t5 = time.perf_counter()
    count5 = 0
    for rec in enumerate_residuated(SearchSpec(size=5)):
        count5 += 1
        if not validate_structure(rec.structure).valid:
            problems.append("size 5 emitted an invalid structure")
        rep = run_battery(rec.structure)
        for o in rep.outcomes:
            if not o.passed:
                problems.append(f"size 5: {o.name} failed")
    elapsed5 = time.perf_counter() - t5
    if elapsed5 >= 900.0:
        problems.append(f"size 5 took {elapsed5:.1f}s, budget 900s")

    _report(
        4,
        f"census battery clean over sizes 2..5 ({sum(counts.values()) + count5} structures)",
        not problems,
        f"sizes<=4: {elapsed_small:.1f}s, size 5: {elapsed5:.1f}s"
        + ("; " + "; ".join(problems[:5]) if problems else ""),
    )


def test_criterion_5_oracle_equivalences():
    problems = []
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3, 4, 5):
        for rec in enumerate_residuated(SearchSpec(size=n)):
            s = rec.structure
            checked += 1
            if all_filters(s) != filters_by_subset_scan(s):
                problems.append(f"size {n}: filter scan mismatch")
            for f in all_filters(s):
                if set(coann_family(s, f)) != set(coann_subset_table(s, f)):
                    problems.append(f"size {n}: coannihilator scan mismatch")
                members_by_scan = {
                    h
                    for h in all_filters(s)
                    if any(omega(s, f, ideal) == h for ideal in all_ideals(s))
                }
                if set(omega_family(s, f)) != members_by_scan:
                    problems.append(f"size {n}: omega scan mismatch")
    elapsed = time.perf_counter() - t0
    _report(
        5,
        f"filter, coannihilator and omega enumerations match subset scans on {checked} structures",
        not problems,
        f"{elapsed:.1f}s" + ("; " + "; ".join(problems[:5]) if problems else ""),
    )


def test_criterion_6_fixture_appears_in_census():
    t0 = time.perf_counter()
    s, _ = load_structure(FIXTURES / "a6.json")
    keys = {
        rec.canonical_key
        for rec in enumerate_residuated(SearchSpec(size=6, base_lattice=s))
    }
    ok = canonical_key(s) in keys
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "fixture structure appears in the census over its own lattice",
        ok,
        f"{elapsed:.2f}s, {len(keys)} classes",
    )
