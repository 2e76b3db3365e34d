"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; tolerances are zero (exact equality) unless a criterion states a
floating tolerance.
"""

import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from zdx.cli import cli
from zdx.density import (
    audit_balance,
    baseline_curves,
    continuity_check,
    crossover,
    exponent_curve,
    optimize,
    regions_for,
)
from zdx.exact import Interval, LinFrac
from zdx.hecke import verify_table
from zdx.pairs import ExponentPair, generate_pairs
from zdx.probes import hm_random_trials, mellin_probe
from oracles import bound_E, e_num, exponent_value, fraction_grid, term_value, tau_at

F = Fraction
KAPPA_LIMIT = F(1, 3)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def depth3():
    return generate_pairs(3)


@pytest.fixture(scope="module")
def depth12():
    return generate_pairs(12)


def test_criterion_1_headline_bound_reproduction(depth3):
    start = time.perf_counter()
    bound = optimize(depth3, Interval(F(17, 18), F(1)))
    elapsed = time.perf_counter() - start
    ok = (
        len(bound.segments) == 2
        and bound.segments[0].region == Interval(F(17, 18), F(21, 22))
        and bound.segments[0].curve.A == LinFrac(0, 2, 13, -11)
        and bound.segments[0].curve.provenance.pair.key == (F(1, 14), F(11, 14))
        and bound.segments[1].region == Interval(F(21, 22), F(1))
        and bound.segments[1].curve.A == LinFrac(0, 4, 4, -1)
        and bound.segments[1].curve.provenance.pair.key == (F(1, 14), F(11, 14))
        and elapsed < 1.0
    )
    report(1, ok, f"two exact segments from (1/14,11/14) in {elapsed:.3f}s")


def test_criterion_2_crossover_certificates():
    pair = ExponentPair(F(1, 14), F(11, 14), "AAB")
    region2 = exponent_curve(pair, 2)
    region1 = exponent_curve(pair, 1)
    ivic92 = baseline_curves()[1]
    cx_a = crossover(region2, ivic92)
    cx_b = crossover(region1, region2)
    ok = cx_a.points == (F(17, 18),) and cx_b.points == (F(21, 22),)
    report(2, ok, "crossovers exactly 17/18 and 21/22")


def test_criterion_3_improvement_claim(depth3):
    interval = Interval(F(17, 18), F(1))
    bound = optimize(depth3, interval)

    def ivic92(sigma):
        return 4 * (1 - sigma) / (8 * sigma - 5)

    lo, hi = F(17, 18), F(1)
    step = (hi - lo) / 201
    strict = all(
        bound_E(bound, lo + k * step) < ivic92(lo + k * step) for k in range(1, 201)
    )
    ties = bound_E(bound, lo) == ivic92(lo) and bound_E(bound, hi) == ivic92(hi) == 0
    ok = strict and ties
    report(3, ok, "E strictly below 4(1-s)/(8s-5) at 200 interior points, ties at ends")


def test_criterion_4_audit_suite(depth12):
    start = time.perf_counter()
    audited = 0
    all_pass = True
    for pair in depth12:
        if not 0 < pair.kappa < KAPPA_LIMIT:
            continue  # kappa >= 1/3 out of range; kappa = 0 degenerate (seed only)
        for region, interval in zip((1, 2), regions_for(pair)):
            if interval.is_empty:
                continue
            rep = audit_balance(pair, region)
            all_pass &= rep.passed
            audited += 1
            # 1000-point rational grid: max of the term numerators equals the
            # E numerator (shared positive denominator)
            nums = [t.num for t in rep.terms]
            for sigma in fraction_grid(rep.region, 1000):
                all_pass &= max(q.eval(sigma) for q in nums) == e_num(rep).eval(sigma)
    spot = audit_balance(ExponentPair(F(1, 14), F(11, 14), "AAB"), 1)
    s = F(24, 25)
    spot_ok = (
        term_value(spot, "class1_main", s) == F(4, 71)
        and term_value(spot, "class1_subdivision", s) == F(1, 71)
        and term_value(spot, "class2_moment", s) == F(4, 71)
        and exponent_value(spot, s) == F(4, 71)
    )
    elapsed = time.perf_counter() - start
    ok = all_pass and spot_ok and elapsed < 30.0
    report(4, ok, f"{audited} pair-regions certified exactly in {elapsed:.2f}s; spot value 4/71,1/71,4/71")


def test_criterion_5_continuity_and_admissibility(depth12):
    ok = True
    checked = 0
    for pair in depth12:
        if pair.kappa >= KAPPA_LIMIT:
            continue
        region1, region2 = regions_for(pair)
        # nonemptiness equivalences, exact
        ok &= (not region2.is_empty) == (pair.kappa + 1 <= 4 * pair.lam)
        ok &= (not region1.is_empty) == (pair.lam + 2 * pair.kappa <= 1)
        # branch continuity at sigma_star (kappa = 0 seed is degenerate: skipped)
        if pair.kappa > 0 and not region1.is_empty and not region2.is_empty:
            rep = continuity_check(pair)
            ok &= rep.status == "ok"
            k, l = pair.kappa, pair.lam
            ok &= rep.shared_value == 4 * (2 - 6 * k) / (2 + 4 * l - 10 * k)
            checked += 1
    report(5, ok, f"continuity exact for {checked} pairs; emptiness equivalences exact")


def test_criterion_6_hecke_suite():
    start = time.perf_counter()
    rep = verify_table(10_000)
    values_ok = [tau_at(rep.table, n) for n in range(2, 6)] == [-24, 252, -1472, 4830]
    conv_ok = rep.convolution_failures == []
    mult_ok = rep.multiplicativity_failures == []
    rec_ok = rep.recursion_failures == []
    deligne_ok = rep.deligne.ok
    elapsed = time.perf_counter() - start
    ok = values_ok and conv_ok and mult_ok and rec_ok and deligne_ok and elapsed < 60.0
    report(6, ok, f"tau table to 10^4 with zero failures in {elapsed:.2f}s")


def test_criterion_7_hm_harness():
    start = time.perf_counter()
    rep = hm_random_trials(10_000, seed=1)
    elapsed = time.perf_counter() - start
    ok = rep.max_rel_slack <= 1e-10 and elapsed < 10.0
    report(7, ok, f"max relative slack {rep.max_rel_slack:.3e} over 10^4 systems in {elapsed:.2f}s")


def test_criterion_8_mellin_probe():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        res = mellin_probe(x)
        ok &= res.abs_error < 1e-6 and res.imag_residual < 1e-8
        worst = max(worst, res.abs_error)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(8, ok, f"max |error| {worst:.2e} at 4000 panels in {elapsed:.2f}s")


DETERMINISM_INVOCATIONS = [
    ("pairs", "--depth", "6"),
    ("bound", "--pair", "1/14,11/14", "--sigma", "39/40"),
    ("optimize", "--depth", "3", "--interval", "17/18,1", "--resolution", "64"),
    ("compare", "--depth", "3", "--interval", "17/18,1", "--format", "csv"),
    ("audit", "--pair", "1/14,11/14", "--format", "json"),
    ("hecke-verify", "--limit", "400"),
    ("hm-test", "--trials", "400", "--seed", "11"),
    ("mellin-probe",),
    ("zeta-probe",),
    ("plot", "--depth", "2", "--interval", "17/18,1"),
    ("audit-family", "--depth", "9", "--verbose"),
]


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    ok = True
    for argv in DETERMINISM_INVOCATIONS:
        name = argv[0]
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.out"
            # audit-family takes no --out, so its stdout is compared
            to_file = name != "audit-family"
            extra = ["--out", str(out)] if to_file else []
            res = runner.invoke(cli, list(argv) + extra, catch_exceptions=False)
            assert res.exit_code == 0, (argv, res.output)
            outputs.append(out.read_bytes() if to_file else res.stdout_bytes)
        same = outputs[0] == outputs[1]
        ok &= same
        if not same:
            print(f"  nondeterministic output from {name}")
    report(9, ok, f"{len(DETERMINISM_INVOCATIONS)} subcommands byte-identical across runs")
