import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepaudit import bounds as bnd
from stepaudit import cli, engine
from stepaudit import instances as inst
from stepaudit import schedules as sched
from stepaudit.errors import ConstructionError, InvalidParameterError
from stepaudit.harness import Tolerances

from envelopes import step_envelope

PHI = bnd.log_envelope()
SQRT21 = sched.sqrt_decay(2, 1)


@pytest.mark.parametrize("build", [inst.build_vshape, inst.build_quadratic, inst.build_maxlinear])
def test_builders_refuse_a_horizon_that_is_not_an_integer(build):
    with pytest.raises(InvalidParameterError, match="^horizon 8.7 is not an integer$"):
        build(SQRT21, 8.7, *((PHI,) if build is inst.build_maxlinear else ()))


class TestVShape:
    def test_example_parameters(self):
        v = inst.build_vshape(sched.constant(0.5), 2)
        assert v.epsilon == pytest.approx(5e-7, rel=1e-12)
        assert v.c_eps == pytest.approx(1e-6, rel=1e-9)
        assert 0 < v.c_eps < 1

    def test_example_run(self):
        s = sched.constant(0.5)
        v = inst.build_vshape(s, 2)
        rec = engine.run(v.convex, s, 2, snapshots=range(1, 3))
        assert abs(rec.snapshots[1][0]) <= 1e-12 * v.epsilon
        assert rec.snapshots[2][0] == pytest.approx(0.5, rel=1e-9)
        expected = 0.5 - v.epsilon + v.c_eps * v.epsilon
        assert rec.error_at(2) == pytest.approx(expected, rel=1e-12)

    def test_error_approaches_exit_step_as_shrink_vanishes(self, monkeypatch):
        s = sched.constant(0.5)
        gaps = []
        for shrink in (1e-4, 1e-6, 1e-8):
            monkeypatch.setattr(inst, "_SHRINK", shrink)
            v = inst.build_vshape(s, 6)
            err = engine.run(v.convex, s, 6).error_at(6)
            gaps.append(abs(err - 0.5))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8

    def test_shrink_is_fixed(self):
        assert inst._SHRINK == 1e-6
        with pytest.raises(TypeError, match="shrink"):
            inst.build_vshape(sched.constant(0.5), 2, shrink=1e-6)

    def test_landing_is_clean(self):
        for t in (4, 8, 64, 512):
            v = inst.build_vshape(SQRT21, t)
            assert v.landing <= 0
            assert abs(v.landing) <= 1e-12 * v.epsilon
            assert v.certified

    @pytest.mark.parametrize(
        "s, T",
        [
            (SQRT21, 8),
            (SQRT21, 512),
            (SQRT21, 16384),
            # ramps ending in zero steps reach the kink before the last step
            (sched.from_table([1.0, 0.5, 0.0, 0.0, 0.3]), 5),
            (sched.from_table([0.5, 0.0, 0.25, 0.0, 0.0, 1.0]), 6),
        ],
    )
    def test_landing_is_the_runs_iterate(self, s, T):
        v = inst.build_vshape(s, T)
        want = engine.run(v.convex, s, T, snapshots=[T - 1]).snapshots[T - 1][0]
        assert np.float64(v.landing).tobytes() == want.tobytes()

    def test_closed_form_matches_simulation(self):
        v = inst.build_vshape(SQRT21, 16)
        rec = engine.run(v.convex, SQRT21, 16, snapshots=range(1, 17))
        for t in range(1, 17):
            cf = v.closed_form_iterate(t)
            assert abs(rec.snapshots[t][0] - cf[0]) <= 1e-6

    def test_closed_form_hits_zero_before_target(self):
        v = inst.build_vshape(SQRT21, 32)
        assert abs(v.closed_form_iterate(31)[0]) <= 1e-12 * v.epsilon

    def test_preconditions(self):
        with pytest.raises(ConstructionError, match="vshape needs a target >= 2"):
            inst.build_vshape(SQRT21, 1)
        with pytest.raises(ConstructionError):
            inst.build_vshape(sched.constant(0), 3)
        with pytest.raises(ConstructionError):
            inst.build_vshape(sched.from_table([0.0, 1.0, 1.0]), 2)  # empty ramp

    def test_range_checks(self):
        v = inst.build_vshape(SQRT21, 8)
        with pytest.raises(InvalidParameterError):
            v.closed_form_iterate(0)
        with pytest.raises(InvalidParameterError):
            v.closed_form_iterate(9)

    def test_dump(self):
        v = inst.build_vshape(SQRT21, 8)
        assert v.to_dict() == {"T": 8, "schedule_label": SQRT21.label, "epsilon": v.epsilon, "c_eps": v.c_eps}


class TestQuadratic:
    def test_closed_form_values(self):
        q = inst.build_quadratic(sched.constant(1), 2)
        assert q.S == 2.0
        assert q.closed_form_iterate(2)[0] == pytest.approx(9 / 16, rel=1e-15)
        assert q.closed_form_error(2) == pytest.approx(81 / 2048, rel=1e-15)

    def test_single_step(self):
        q = inst.build_quadratic(sched.constant(1), 1)
        assert q.closed_form_iterate(1)[0] == 0.5
        assert q.closed_form_error(1) == pytest.approx(1 / 16, rel=1e-15)
        assert q.closed_form_error(1) >= q.certified_bound()

    def test_lipschitz_precondition(self):
        with pytest.raises(ConstructionError, match="S >= 1/2"):
            inst.build_quadratic(sched.constant(0.2), 2)

    def test_simulation_matches_closed_form(self):
        q = inst.build_quadratic(SQRT21, 64)
        rec = engine.run(q.convex, SQRT21, 64, snapshots=range(1, 65))
        for t in range(1, 65):
            assert abs(rec.snapshots[t][0] - q.closed_form_iterate(t)[0]) <= 1e-9

    def test_measured_beats_certificate(self):
        q = inst.build_quadratic(SQRT21, 128)
        err = engine.run(q.convex, SQRT21, 128).error_at(128)
        assert err >= q.certified_bound() - 1e-12

    def test_dump(self):
        q = inst.build_quadratic(sched.constant(1), 2)
        assert q.to_dict() == {
            "T": 2,
            "schedule_label": "constant(c=1)",
            "S": 2.0,
        }


class TestCouplingWeights:
    def test_example_values(self):
        a, b = inst.coupling_weights(sched.constant(1), 1, PHI)
        phi2 = 8 + 4 * math.log(2)
        assert a[0] == pytest.approx(min(1, math.sqrt(2)) / (16 * phi2 * 2), rel=1e-15)
        assert b[0] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-15)

    def test_zero_step_branches(self):
        a, b = inst.coupling_weights(sched.from_table([0.0, 1.0, 0.0]), 2, PHI)
        assert a[0] == 0.0 and a[2] == 0.0
        assert b[0] == 0.5 and b[2] == 0.5

    def test_sum_sq_headroom(self):
        # the weights keep a fixed distance below the admissible mass
        cap = (1 / 256) * (math.pi**2 / 6)
        for s in (SQRT21, sched.constant(0.5)):
            for t in (1, 7, 63, 255):
                a, _ = inst.coupling_weights(s, t, PHI)
                assert float(np.sum(a * a)) <= cap < 0.5

    def test_envelope_below_one_rejected(self):
        # the envelope checks its own values: phi(5) is where this one dips below 1
        bad = step_envelope(2.0, 0.5, 5, label="bad")
        with pytest.raises(InvalidParameterError, match=r"envelope bad is 0\.5 at t=5"):
            inst.coupling_weights(sched.constant(1), 4, bad)


class TestConditionChecks:
    def test_zero_weights_pass(self):
        s = sched.constant(1)
        rep = inst.check_weight_conditions(np.zeros(3), np.zeros(3), s, 2)
        assert rep.ok

    def test_built_weights_pass(self):
        a, b = inst.coupling_weights(SQRT21, 64, PHI)
        rep = inst.check_weight_conditions(a, b, SQRT21, 64)
        assert rep.ok
        assert rep.sum_sq.slack >= 0.5 - math.pi**2 / 1536

    def test_crafted_failure(self):
        s = sched.constant(1)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.5, 0.5, 0.5])
        rep = inst.check_weight_conditions(a, b, s, 2)
        assert not rep.ok
        assert not rep.tail_coupling.passed
        assert rep.tail_coupling.worst_index == 0

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            inst.check_weight_conditions(np.zeros(2), np.zeros(3), sched.constant(1), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        for a, b in ((np.array([0.0, bad, 0.0]), np.zeros(3)), (np.zeros(3), np.array([0.5, 0.5, bad]))):
            with pytest.raises(InvalidParameterError, match="^weights must be finite and nonnegative$"):
                inst.check_weight_conditions(a, b, sched.constant(1), 2)


class TestMaxLinear:
    def test_subgradient_at_origin_uses_minimal_index(self):
        # every piece scores 0 at the origin: piece 0 wins, so g = -b_0 e_0
        m = inst.build_maxlinear(SQRT21, 3, PHI)
        rec = engine.run(m.convex, SQRT21, 3, snapshots=[1])
        assert rec.argmax_trace[0] == 0
        expected = np.zeros(4)
        expected[0] = SQRT21.rate(0) * m.b[0]
        assert np.array_equal(rec.snapshots[1], expected)

    def test_first_iterate(self):
        m = inst.build_maxlinear(SQRT21, 3, PHI)
        assert m.b[0] == 0.125
        assert np.array_equal(m.closed_form_iterate(1), np.array([0.25, 0.0, 0.0, 0.0]))

    def test_argmax_identity_along_trajectory(self):
        m = inst.build_maxlinear(SQRT21, 40, PHI)
        rec = engine.run(m.convex, SQRT21, 40)
        assert np.array_equal(rec.argmax_trace, np.arange(41))

    def test_coordinates_stay_in_half_band(self):
        m = inst.build_maxlinear(SQRT21, 64, PHI)
        eta = SQRT21.rates(64)
        for t in (1, 13, 40, 64):
            x = m.closed_form_iterate(t)
            hi = m.b[:t] * eta[:t]
            assert np.all(x[:t] <= hi + 1e-15)
            assert np.all(x[:t] >= 0.5 * hi - 1e-15)
            assert np.all(x[t:] == 0.0)

    def test_measured_error_dominates_certificate(self):
        for T in (8, 32, 128):
            m = inst.build_maxlinear(SQRT21, T, PHI)
            err = engine.run(m.convex, SQRT21, T).error_at(T)
            assert err >= m.certified_bound() - 1e-12

    def test_certificate_equals_analytic_bound(self):
        for s in (SQRT21, sched.constant(0.5), sched.constant(0.1)):
            for phi in (PHI, bnd.constant_envelope(16.0)):
                for T in (8, 64, 256):
                    m = inst.build_maxlinear(s, T, phi)
                    analytic = bnd.maxlinear_bound(s, T, phi)
                    assert m.certified_bound() == pytest.approx(analytic, rel=1e-12)

    def test_linear_pieces_are_unit_bounded(self):
        m = inst.build_maxlinear(SQRT21, 64, PHI)
        sq_prefix = np.concatenate(([0.0], np.cumsum(m.a * m.a)))
        norms = np.sqrt(sq_prefix[:-1] + m.b * m.b)  # piece i couples a_0..a_{i-1} and -b_i
        assert float(np.max(norms)) <= 1.0

    def test_condition_failure_aborts_construction(self):
        # a constant envelope of 1 cannot absorb large constant steps
        schedule, phi = sched.constant(2), bnd.constant_envelope(1.0)
        with pytest.raises(ConstructionError, match="maxlinear weight conditions failed") as exc:
            inst.build_maxlinear(schedule, 512, phi)
        report = inst.check_weight_conditions(*inst.coupling_weights(schedule, 512, phi), schedule, 512)
        assert not report.ok
        # the message names the first failing condition, where it is worst and by how much
        bad = report.tail_coupling
        assert report.sum_sq.passed and report.step_cap.passed and not bad.passed
        assert str(exc.value).endswith(f": tail_coupling has slack {bad.slack!r} at worst_index={bad.worst_index}")

    def test_zero_step_gates_certificate(self, tmp_path):
        # with a zero step the argmax can tie away from the active piece,
        # so the instance builds but refuses to certify its floor
        s = sched.from_table([0.0, 1.0, 1.0])
        m = inst.build_maxlinear(s, 2, bnd.constant_envelope(16.0))
        assert inst.check_weight_conditions(m.a, m.b, s, 2).ok
        assert not m.certified
        measured = engine.run(m.convex, s, 2).error_at(2)
        assert measured < m.certified_bound()  # the gate is load-bearing
        # audit measures the instance but asserts nothing about it
        table = tmp_path / "steps.csv"
        table.write_text("t,eta\n0,0\n1,1\n2,1\n")
        argv = ["audit", "--schedule", f"table:{table}", "--T", "2", "--families", "maxlinear", "--phi", "const:c=16"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bound_report.csv").read_text().splitlines()
        header, row = (line.split(",") for line in lines[1:])
        assert float(row[header.index("err_maxlinear")]) == measured
        assert json.loads((tmp_path / "audit_summary.json").read_text())["assertions"] == []

    def test_ball_projection_never_activates(self):
        m = inst.build_maxlinear(SQRT21, 100, PHI)
        rec = engine.run(m.convex, SQRT21, 100)
        assert rec.projection_activations == 0
        assert rec.max_norm_seen <= 1.0

    def test_dump_roundtrip(self):
        m = inst.build_maxlinear(SQRT21, 4, PHI)
        d = m.to_dict()
        assert set(d) == {"T", "schedule_label", "a", "b"} and d["T"] == 4
        assert d["a"] is m.a and d["b"] is m.b  # the writer turns them into lists

    def test_range_checks(self):
        m = inst.build_maxlinear(SQRT21, 4, PHI)
        with pytest.raises(InvalidParameterError):
            m.closed_form_iterate(0)
        with pytest.raises(InvalidParameterError):
            m.closed_form_iterate(5)


# tables as in tests/test_schedules.py: positive steps with runs of zeros,
# magnitudes 1e-8 .. 1e3; few of them pass the weight conditions
_magnitudes = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)
_wild_tables = st.lists(
    st.one_of(
        st.lists(st.just(0.0), min_size=1, max_size=12),
        st.lists(_magnitudes, min_size=1, max_size=40),
    ),
    min_size=1,
    max_size=12,
).map(lambda blocks: [v for block in blocks for v in block][:512])


def _decaying_table(c, n, seed):
    # admissible tables: eta_t = c / sqrt(t + 1) * U[0.5, 1]
    return (c / np.sqrt(np.arange(n) + 1.0) * np.random.default_rng(seed).uniform(0.5, 1.0, n)).tolist()


_decaying_tables = st.builds(
    _decaying_table,
    st.floats(0.01, 4.0),
    st.floats(0.0, 9.0).map(lambda e: int(2.0**e)),  # lengths log-uniform in 1 .. 512
    st.integers(0, 2**32 - 1),
)
_envelopes = st.one_of(
    st.builds(bnd.log_envelope, st.floats(1.0, 16.0), st.floats(0.0, 8.0)),
    st.builds(bnd.constant_envelope, st.floats(1.0, 64.0)),
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_wild_tables, _decaying_tables), _envelopes)
def test_measured_error_dominates_certificate_on_generated_tables(table, phi):
    s = sched.from_table(table + [1.0])
    T = len(table)
    built = []
    for build in (lambda: inst.build_maxlinear(s, T, phi), lambda: inst.build_vshape(s, T)):
        try:
            built.append(build())
        except ConstructionError:
            pass
    assume(built)
    for m in built:
        if isinstance(m, inst.VShapeInstance):
            assert m.landing <= 0  # VShapeInstance.certified tests only its size
        if m.certified:
            assert engine.run(m.convex, s, T).error_at(T) >= m.certified_bound() - Tolerances().bound_slack


def _saturated_table(t, spread, seed):
    # eta_j sqrt(t+1) = m_j >= 1 for every j <= t, m_j log-uniform in [1, 10^spread];
    # one ulp up keeps the product >= 1 after rounding
    root = math.sqrt(t + 1.0)
    m = 10.0 ** np.random.default_rng(seed).uniform(0.0, spread, t + 1)
    return t, np.nextafter(m / root, np.inf).tolist()


_saturated_tables = st.builds(_saturated_table, st.integers(1, 700), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_saturated_tables, _envelopes)
def test_saturated_weighted_sum_does_not_depend_on_the_schedule(case, phi):
    # sum_{j<t} a_j b_j eta_j = (H_{t+1} - 1) / (32 phi(t+1) sqrt(t+1)) where
    # eta_j sqrt(t+1) >= 1 for every j < t
    t, table = case
    s = sched.from_table(table)
    a, b = inst.coupling_weights(s, t, phi)
    eta = s.rates(t)
    root = math.sqrt(t + 1.0)
    assert np.all(eta * root >= 1.0)
    got = float(np.sum(a[:t] * b[:t] * eta))
    want = math.fsum(1.0 / k for k in range(2, t + 2)) / (32.0 * phi(t + 1) * root)
    # each term rounds 7 times, the sum t - 1 times at most, the harmonic side 4 times
    assert abs(got - want) <= (t + 11) * 2.0**-53 * want
