"""Acceptance criteria, one test per criterion, each printing a pass/fail
line; run with `pytest tests/test_acceptance.py -v -s`.

All assertions are exact (tolerance zero); the stated wall-clock budgets are
asserted as upper bounds.
"""

import dataclasses
import io
import time
from contextlib import redirect_stdout

import pytest

from quiverhom.cli import main
from quiverhom.harness import Config, run_suite

CFG = Config(master_seed=42)


def _run(name, trials):
    t0 = time.time()
    reports = run_suite(name, dataclasses.replace(CFG, trials=trials))
    dt = time.time() - t0
    failures = [r for r in reports if not r.ok]
    return reports, failures, dt


def _report(criterion, ok, detail, dt, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail} ({dt:.1f}s, budget {budget}s)")


def test_criterion_1_rootedness():
    reports, failures, dt = _run("rootedness", 501)
    ok = not failures and dt < 5
    _report(1, ok, f"rootedness vs cycle detection on {len(reports) - 1} random quivers + loop fixture, {len(failures)} disagreements", dt, 5)
    assert not failures, failures[:3]
    assert dt < 5


def test_criterion_2_purity_bridge():
    reports, failures, dt = _run("purity_bridge", 303)
    fixture_reports, fixture_failures, dt2 = _run("nonpure_fixture", CFG.trials)
    ok = not failures and not fixture_failures and (dt + dt2) < 60
    _report(
        2,
        ok,
        f"three-way purity agreement on {len(reports) - 3} sequences + fixture replays, "
        f"{len(failures) + len(fixture_failures)} disagreements",
        dt + dt2,
        60,
    )
    assert not failures, failures[:3]
    assert not fixture_failures
    assert dt + dt2 < 60


def test_criterion_3_classification():
    reports, failures, dt = _run("classification", 300)
    ok = not failures and dt < 60
    _report(3, ok, f"injective/sfp/fp classification vs oracles on {len(reports)} representations, {len(failures)} disagreements", dt, 60)
    assert not failures, failures[:3]
    assert dt < 60


def test_criterion_4_gorenstein():
    reports, failures, dt = _run("gorenstein", 200)
    ok = not failures and dt < 60
    _report(4, ok, f"Gorenstein characterization vs certificates on {len(reports)} representations, {len(failures)} disagreements", dt, 60)
    assert not failures, failures[:3]
    assert dt < 60


def test_criterion_5_closure_suites():
    t0 = time.time()
    all_failures = []
    counts = {}
    for name in ("closure", "stability", "products"):
        reports, failures, _ = _run(name, 200)
        counts[name] = len(reports)
        all_failures.extend(failures)
    # the closure suite appends its negative control; it must detect the corruption
    closure_reports = run_suite("closure", dataclasses.replace(CFG, trials=2))
    control = [r for r in closure_reports if r.suite == "closure_negative_control"]
    control_ok = bool(control) and all(r.ok for r in control)
    dt = time.time() - t0
    ok = not all_failures and control_ok and dt < 60
    _report(5, ok, f"closure/stability/products suites {counts}, {len(all_failures)} violations, negative control detected={control_ok}", dt, 60)
    assert not all_failures, all_failures[:3]
    assert control_ok
    assert dt < 60


def test_criterion_6_adjunctions():
    reports, failures, dt = _run("adjunction", 100)
    ok = not failures and dt < 30
    _report(6, ok, f"restriction and tensor-hom adjunctions on {len(reports)} instance pairs, {len(failures)} failures", dt, 30)
    assert not failures, failures[:3]
    assert dt < 30


def test_criterion_7_ext_engine():
    reports, failures, dt = _run("ext_engine", 101)
    oracle_checked = sum(1 for r in reports if "oracle_agrees" in r.verdicts)
    shift_checked = sum(1 for r in reports if "dimension_shift" in r.verdicts)
    ok = not failures and dt < 60 and shift_checked >= 100
    _report(
        7,
        ok,
        f"Ext engine: named A2 values, {oracle_checked} enumeration-oracle agreements, "
        f"{shift_checked} dimension shifts, {len(failures)} failures",
        dt,
        60,
    )
    assert not failures, failures[:3]
    assert shift_checked >= 100
    assert dt < 60


def test_criterion_8_determinism():
    t0 = time.time()

    def capture():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["verify", "all", "--seed", "42", "--trials", "10", "--json"])
        return code, buf.getvalue()

    code1, out1 = capture()
    code2, out2 = capture()
    dt = time.time() - t0
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    _report(8, ok, f"two `verify all --seed 42` runs: exit codes {code1},{code2}, byte-identical={out1 == out2}", dt, 300)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
