"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from stepaudit import bounds as bnd
from stepaudit import engine
from stepaudit import instances as inst
from stepaudit import schedules as sched
from stepaudit.cli import main as cli_main

SQRT21 = sched.sqrt_decay(2, 1)
PHI = bnd.log_envelope()
HORIZONS = (8, 64, 256, 1024, 4096)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def maxlinear_runs():
    runs = {}
    elapsed_large = None
    for T in HORIZONS:
        built = inst.build_maxlinear(SQRT21, T, PHI)
        times = sorted({1, T // 2, T})
        t0 = time.perf_counter()
        record = engine.run(built.convex, SQRT21, T, snapshots=times)
        dt = time.perf_counter() - t0
        if T == 4096:
            elapsed_large = dt
        runs[T] = (built, record, times)
    return runs, elapsed_large


def test_criterion_1_trajectory_oracle_equivalence(maxlinear_runs):
    runs, elapsed_large = maxlinear_runs
    worst = 0.0
    for T, (built, record, times) in runs.items():
        for t in times:
            dev = float(np.max(np.abs(record.snapshots[t] - built.closed_form_iterate(t))))
            worst = max(worst, dev)
    ok = worst <= 1e-9 and elapsed_large < 60.0
    report(1, ok, f"max coordinate deviation {worst:.3e} (tol 1e-9), T=4096 run {elapsed_large:.2f}s (< 60s)")


def test_criterion_2_certified_bound_dominance(maxlinear_runs):
    runs, _ = maxlinear_runs
    worst_margin = math.inf
    worst_rel = 0.0
    for T, (built, record, _) in runs.items():
        measured = record.error_at(T)
        cert = built.certified_bound()
        analytic = bnd.maxlinear_bound(SQRT21, T, PHI)
        worst_margin = min(worst_margin, measured - cert)
        worst_rel = max(worst_rel, abs(cert - analytic) / analytic)
    ok = worst_margin >= -1e-12 and worst_rel <= 1e-12
    report(2, ok, f"min(measured - certified) {worst_margin:.3e}, certificate vs analytic rel diff {worst_rel:.3e}")


def test_criterion_3_condition_suite():
    schedules = (SQRT21, sched.constant(0.5), sched.constant(0.1))
    envelopes = (PHI, bnd.constant_envelope(16.0))
    slack_floor = 0.5 - math.pi**2 / 1536
    checked = 0
    min_slack = math.inf
    for s in schedules:
        for phi in envelopes:
            for t in range(1, 1025):
                a, b = inst.coupling_weights(s, t, phi)
                rep = inst.check_weight_conditions(a, b, s, t)
                assert rep.ok, (s.label, phi.label, t, rep)
                min_slack = min(min_slack, rep.sum_sq.slack)
                checked += 1
    ok = min_slack >= slack_floor
    report(3, ok, f"{checked} weight checks passed; min mass slack {min_slack:.6f} >= {slack_floor:.6f}")


def test_criterion_4_one_dimensional_closed_forms():
    q = inst.build_quadratic(sched.constant(1), 2)
    err_q = engine.run(q.convex, sched.constant(1), 2).error_at(2)
    quad_ok = abs(err_q - 81 / 2048) <= 1e-12 * (81 / 2048) and err_q >= math.exp(-2) / (4 * q.S)

    vshape_ok = True
    details = []
    for s, target in ((SQRT21, 8), (sched.constant(0.5), 6)):
        v = inst.build_vshape(s, target)
        rec = engine.run(v.convex, s, target, snapshots=[target - 1, target])
        eta_exit = s.rate(target - 1)
        expected = eta_exit - v.epsilon + v.c_eps * v.epsilon
        err_gap = abs(rec.error_at(target) - expected)
        landing = abs(float(rec.snapshots[target - 1][0]))
        vshape_ok &= err_gap <= 1e-6 * eta_exit and landing <= 1e-12 * v.epsilon
        details.append(f"{s.label}@t={target}: err gap {err_gap:.2e}, kink residual {landing:.2e}")
    ok = quad_ok and vshape_ok
    report(4, ok, f"quadratic err {err_q:.10f} == 81/2048; " + "; ".join(details))


def test_criterion_5_averaging_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        table = sched.from_table(rng.uniform(0.0, 2.0, size=512))
        for T in (8, 64, 512):
            closed = bnd.averaged_quartic_floor(table, T)
            eta = table.rates(T)
            j = np.arange(T, dtype=np.float64)
            w = j * eta * eta
            brute = sum(float(np.sum(w[:t] / (t + 1.0 - j[:t]))) for t in range(1, T + 1)) / T
            worst = max(worst, abs(closed - brute) / max(abs(brute), 1e-300))
    ok = worst <= 1e-12
    report(5, ok, f"closed form vs double sum: worst rel diff {worst:.3e} over 100 schedules x 3 horizons")


def test_criterion_6_envelope_consistency():
    quartic_ok = all(
        128.0 * PHI(t + 1) ** 4 >= bnd.quartic_floor(SQRT21, t) for t in range(1, 10_001)
    )

    worst_ratio = 0.0
    m = inst.build_maxlinear(SQRT21, 1024, PHI)
    errs = engine.run(m.convex, SQRT21, 1024).errors
    scaled = np.sqrt(np.arange(1, 1025, dtype=np.float64)) * errs
    phis = np.array([PHI(t) for t in range(1, 1025)])
    worst_ratio = max(worst_ratio, float(np.max(scaled / phis)))
    for target in (4, 8, 16, 64, 256):
        v = inst.build_vshape(SQRT21, target)
        err = engine.run(v.convex, SQRT21, target).error_at(target)
        worst_ratio = max(worst_ratio, math.sqrt(target) * err / PHI(target))
    for target in (1, 2, 4, 16, 64, 256, 1024):
        q = inst.build_quadratic(SQRT21, target)
        err = engine.run(q.convex, SQRT21, target).error_at(target)
        worst_ratio = max(worst_ratio, math.sqrt(target) * err / PHI(target))
    measured_ok = worst_ratio <= 1.0

    rng = np.random.default_rng(77)
    sums_ok = True
    for _ in range(50):
        t1 = int(rng.integers(1, 9_999))
        t2 = int(rng.integers(t1 + 1, 10_001))
        # sum_{j=t1}^{t2} eta_j <= 2 phi(t2+1) (sqrt(t2) - sqrt(t1))
        total = SQRT21.prefix_sum(t2 + 1) - SQRT21.prefix_sum(t1)
        sums_ok &= total <= 2.0 * PHI(t2 + 1) * (math.sqrt(t2) - math.sqrt(t1)) + 1e-12
    ok = quartic_ok and measured_ok and sums_ok
    report(
        6,
        ok,
        f"quartic consistency t<=1e4: {quartic_ok}; max scaled-err/phi ratio {worst_ratio:.4f} <= 1; "
        f"50 step-sum caps: {sums_ok}",
    )


def test_criterion_7_projection_inactivity(maxlinear_runs):
    runs, _ = maxlinear_runs
    worst_norm = max(record.max_norm_seen for _, record, _ in runs.values())
    activations = sum(record.projection_activations for _, record, _ in runs.values())
    ok = worst_norm <= 1.0 and activations == 0
    report(7, ok, f"max iterate norm {worst_norm:.6f} <= 1, projection activations {activations}")


def test_criterion_8_determinism_and_density(tmp_path):
    out_a = tmp_path / "a"
    args = (
        "density", "--schedule", "sqrt_decay:D=2,G=1", "--T", "256",
        "--thresholds", "0,0.001,0.01,1", "--out", str(out_a),
    )
    assert cli_main(list(args)) == 0
    first = (out_a / "density.csv").read_bytes()
    first_profile = (out_a / "density_profile.csv").read_bytes()
    assert cli_main(list(args)) == 0
    identical = (out_a / "density.csv").read_bytes() == first
    identical &= (out_a / "density_profile.csv").read_bytes() == first_profile

    rows = [
        line.split(",")
        for line in first.decode().splitlines()
        if line and not line.startswith("#") and not line.startswith("c,")
    ]
    at_zero = [float(r[3]) for r in rows if float(r[0]) == 0.0]
    densities = [float(r[3]) for r in rows]
    edge_ok = all(d == 1.0 for d in at_zero)
    mono_ok = densities == sorted(densities, reverse=True)

    out_b = tmp_path / "b"
    assert cli_main(list(args)[:-1] + [str(out_b), "--per-t"]) == 0

    def last_err(path):
        for line in (path / "density_profile.csv").read_text().splitlines():
            if line.startswith("256,256,"):
                return line
        raise AssertionError("profile row for t=T missing")

    agree = last_err(out_a) == last_err(out_b)
    ok = identical and edge_ok and mono_ok and agree
    report(
        8,
        ok,
        f"byte-identical reruns: {identical}; density(c=0)=1: {edge_ok}; "
        f"non-increasing in c: {mono_ok}; per-t == single-run at t=T: {agree}",
    )


def test_criterion_9_chain_check(tmp_path):
    import json

    code = cli_main([
        "bounds", "--schedule", "sqrt_decay:D=2,G=1", "--phi", "log",
        "--T", str(2**14), "--out", str(tmp_path),
    ])
    chain = json.loads((tmp_path / "chain_report.json").read_text())
    statuses = {s["status"] for s in chain["steps"]}
    evaluable_ok = "fail" not in statuses
    inconclusive_ok = set(chain["inconclusive"]) == {"tail_sum_floor", "cutoff_margin"}
    ok = code == 0 and chain["passed"] and evaluable_ok and inconclusive_ok
    report(
        9,
        ok,
        f"exit {code}; every evaluable step passed: {evaluable_ok}; "
        f"cutoff-dependent steps inconclusive at T=2^14: {inconclusive_ok}",
    )
