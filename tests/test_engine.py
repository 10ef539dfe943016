import dataclasses
import math

import numpy as np
import pytest

from stepaudit import build_maxlinear, build_quadratic, build_vshape, log_envelope
from stepaudit import engine
from stepaudit import schedules as sched
from stepaudit.errors import InvalidParameterError, NumericFaultError


def _generic(instance):
    """A copy with neither fast-path field, so ``engine.run`` takes the generic loop."""
    return dataclasses.replace(instance, kernel_data=None, scalar=None)


def _toy_instance(value=None, subgradient=None):
    return engine.ConvexInstance(
        dim=1,
        initial_point=np.array([1.0]),
        value=value or (lambda x: float(x[0]) ** 2),
        subgradient=subgradient or (lambda x: np.array([2.0 * float(x[0])])),
        project=lambda x: engine.project_interval(x, -1.0, 1.0),
    )


class TestProjections:
    def test_ball_inside(self):
        x = np.array([0.3, 0.4])
        assert np.array_equal(engine.project_ball(x, 1.0), x)

    def test_ball_outside(self):
        out = engine.project_ball(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_ball_origin(self):
        z = np.zeros(4)
        assert np.array_equal(engine.project_ball(z, 1.0), z)

    def test_ball_bad_radius(self):
        with pytest.raises(InvalidParameterError):
            engine.project_ball(np.zeros(2), 0.0)

    def test_interval(self):
        assert engine.project_interval(1.5, -1, 1) == 1.0
        assert engine.project_interval(0.2, -1, 1) == 0.2
        assert engine.project_interval(-3.0, -1, 1) == -1.0

    def test_interval_empty(self):
        with pytest.raises(InvalidParameterError):
            engine.project_interval(0.0, 1.0, -1.0)


class TestRun:
    def test_zero_schedule_stays_put(self):
        inst = _toy_instance()
        rec = engine.run(inst, sched.constant(0), 5, snapshots=range(1, 6))
        assert rec.horizon == 5
        assert np.all(rec.errors == 1.0)
        for t in range(1, 6):
            assert np.array_equal(rec.snapshots[t], inst.initial_point)

    def test_quadratic_hand_iteration(self):
        q = build_quadratic(sched.constant(1), 2)
        rec = engine.run(q.convex, sched.constant(1), 2, snapshots=range(1, 3))
        assert rec.snapshots[1][0] == 0.75
        assert rec.snapshots[2][0] == 0.5625
        assert rec.error_at(2) == pytest.approx(81 / 2048, rel=1e-15)

    def test_maxlinear_first_step(self):
        s = sched.sqrt_decay(2, 1)
        m = build_maxlinear(s, 3, log_envelope())
        rec = engine.run(m.convex, s, 3, snapshots=[1])
        assert np.array_equal(rec.snapshots[1], np.array([0.25, 0.0, 0.0, 0.0]))

    def test_determinism_bit_identical(self):
        s = sched.sqrt_decay(2, 1)
        m = build_maxlinear(s, 32, log_envelope())
        r1 = engine.run(m.convex, s, 32, snapshots=[16, 32])
        r2 = engine.run(m.convex, s, 32, snapshots=[16, 32])
        assert np.array_equal(r1.errors, r2.errors)
        assert r1.max_norm_seen == r2.max_norm_seen
        for t in (16, 32):
            assert np.array_equal(r1.snapshots[t], r2.snapshots[t])

    def test_kernel_matches_generic_loop(self):
        s = sched.sqrt_decay(2, 1)
        m = build_maxlinear(s, 24, log_envelope())
        fast = engine.run(m.convex, s, 24, snapshots=range(1, 25))
        slow = engine.run(_generic(m.convex), s, 24, snapshots=range(1, 25))
        assert np.array_equal(fast.errors, slow.errors)
        for t in range(1, 25):
            assert np.array_equal(fast.snapshots[t], slow.snapshots[t])

    def test_errors_never_negative_on_families(self):
        s = sched.sqrt_decay(2, 1)
        for built in (build_maxlinear(s, 16, log_envelope()), build_vshape(s, 16), build_quadratic(s, 16)):
            rec = engine.run(built.convex, s, 16)
            assert rec.errors.shape == (16,)
            assert rec.errors.min() >= -1e-12

    def test_snapshot_policies(self):
        inst = _toy_instance()
        s = sched.constant(0.1)
        assert engine.run(inst, s, 4).snapshots == {}
        assert engine.run(inst, s, 4, snapshots=[]).snapshots == {}
        assert sorted(engine.run(inst, s, 4, snapshots=range(1, 5)).snapshots) == [1, 2, 3, 4]
        assert sorted(engine.run(inst, s, 4, snapshots=[4, 2, 4]).snapshots) == [2, 4]
        with pytest.raises(InvalidParameterError):
            engine.run(inst, s, 4, snapshots=[0])
        with pytest.raises(InvalidParameterError):
            engine.run(inst, s, 4, snapshots=[5])

    def test_bad_horizon(self):
        with pytest.raises(InvalidParameterError):
            engine.run(_toy_instance(), sched.constant(0.1), 0)

    def test_numeric_fault_names_step(self):
        def bad_value(x):
            return float("nan") if float(x[0]) < 0.9 else float(x[0])

        inst = _toy_instance(value=bad_value, subgradient=lambda x: np.array([1.0]))
        with pytest.raises(NumericFaultError, match="step 2"):
            engine.run(inst, sched.constant(0.1), 5)

    def test_numeric_fault_in_subgradient(self):
        inst = _toy_instance(subgradient=lambda x: np.array([float("inf")]))
        with pytest.raises(NumericFaultError, match="step 0"):
            engine.run(inst, sched.constant(0.1), 3)


def _scalar_toy(value, subgradient, lo=-1.0, hi=1.0, x0=1.0):
    """A 1-d toy whose array oracles wrap its float ones, as the 1-d families do."""
    return engine.ConvexInstance(
        dim=1,
        initial_point=np.array([x0]),
        value=lambda x: value(float(x[0])),
        subgradient=lambda x: np.array([subgradient(float(x[0]))]),
        project=lambda x: engine.project_interval(x, lo, hi),
        scalar=(value, subgradient, lo, hi),
    )


class TestScalarPath:
    # from x_0 = 1 with eta = 0.1 and g = 2x the iterates are 0.8^t, below 0.3 at t = 6
    @pytest.mark.parametrize(
        "value, subgradient, message",
        [
            (lambda v: v * v, lambda v: 2.0 * v if v > 0.3 else math.nan, "non-finite subgradient at step 6"),
            (lambda v: v * v if v > 0.3 else math.inf, lambda v: 2.0 * v, "non-finite objective value at step 6"),
        ],
    )
    def test_fault_messages_match_array_path(self, value, subgradient, message):
        inst = _scalar_toy(value, subgradient)
        for instance in (inst, _generic(inst)):
            with pytest.raises(NumericFaultError) as exc:
                engine.run(instance, sched.constant(0.1), 20)
            assert str(exc.value) == message

    def test_nan_iterate_counts_as_projection(self):
        # the first step overflows x to inf, the second gives y = inf - inf = NaN;
        # np.clip keeps a NaN that np.array_equal finds unequal to itself
        inst = _scalar_toy(lambda v: 0.0, lambda v: -1e300 if v < 2.0 else 1e300, -math.inf, math.inf)
        s = sched.constant(1e100)
        with np.errstate(over="ignore", invalid="ignore"):
            fast, slow = (engine.run(i, s, 4, snapshots=range(1, 5)) for i in (inst, _generic(inst)))
        assert fast.projection_activations == slow.projection_activations == 3
        assert fast.max_norm_seen == slow.max_norm_seen == math.inf
        assert fast.errors.tobytes() == slow.errors.tobytes()
        for t in range(1, 5):
            assert fast.snapshots[t].tobytes() == slow.snapshots[t].tobytes()
        assert math.isnan(fast.snapshots[4][0])

    # np.linalg.norm of one element is sqrt(y * y), not abs(y): y * y underflows
    # to 0 at 1e-200 and overflows to inf at 1e200
    @pytest.mark.parametrize("x0, g, expected", [(1e-200, 0.0, 0.0), (1.0, -1e200, math.inf)])
    def test_max_norm_is_the_array_norm(self, x0, g, expected):
        inst = _scalar_toy(lambda v: 0.0, lambda v: g, -math.inf, math.inf, x0=x0)
        with np.errstate(over="ignore"):
            fast, slow = (engine.run(i, sched.constant(1.0), 2) for i in (inst, _generic(inst)))
        assert fast.max_norm_seen == slow.max_norm_seen == expected

    @pytest.mark.parametrize("build", [build_vshape, build_quadratic])
    def test_families_take_the_scalar_path(self, build):
        s = sched.sqrt_decay(2, 1)
        built = build(s, 64)

        def stub(x):
            raise RuntimeError("array oracle called")

        built.convex.value = built.convex.subgradient = stub
        assert engine.run(built.convex, s, 64).errors.shape == (64,)
        with pytest.raises(RuntimeError, match="array oracle called"):
            engine.run(_generic(built.convex), s, 64)

    def test_scalar_hook_needs_one_dimension(self):
        inst = dataclasses.replace(_toy_instance(), dim=2, initial_point=np.zeros(2), scalar=(abs, abs, -1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="1-d"):
            engine.run(inst, sched.constant(0.1), 3)


class TestRunRecord:
    def test_error_at_bounds(self):
        rec = engine.RunRecord("s", 3, np.array([1.0, 2.0, 3.0]))
        assert rec.error_at(2) == 2.0
        with pytest.raises(InvalidParameterError):
            rec.error_at(0)
        with pytest.raises(InvalidParameterError):
            rec.error_at(4)


def _sample_interval(rng, dim):
    """A uniform point of ``[-1, 1]``, the domain of the 1-d families."""
    return rng.uniform(-1.0, 1.0, size=1)


def _sample_ball(rng, dim):
    """A uniform point of the unit ball, the max-of-linear domain."""
    z = rng.normal(size=dim)
    r = rng.uniform() ** (1.0 / dim)
    return z * (r / float(np.linalg.norm(z)))


def _validate_instance(instance, sample, rng, trials=1000, rel_tol=1e-12):
    """Spot-check convexity, subgradient validity, and projection idempotence.

    Samples point pairs from the instance's domain with ``sample(rng,
    dim)`` and counts violations of ``f(y) >= f(x) + g(x).(y-x)``, of
    convexity along segments, of the unit bound on subgradient norms (every
    family here is 1-Lipschitz), and of ``project(project(x)) ==
    project(x)``.
    """
    report = {
        "trials": trials,
        "subgradient_violations": 0,
        "convexity_violations": 0,
        "lipschitz_violations": 0,
        "projection_violations": 0,
        "worst_subgradient_gap": 0.0,
    }
    for _ in range(trials):
        x = sample(rng, instance.dim)
        y = sample(rng, instance.dim)
        fx = instance.value(x)
        fy = instance.value(y)
        g = instance.subgradient(x)
        scale = max(1.0, abs(fx), abs(fy))
        gap = (fx + float(np.dot(g, y - x))) - fy
        if gap > rel_tol * scale:
            report["subgradient_violations"] += 1
            report["worst_subgradient_gap"] = max(report["worst_subgradient_gap"], gap / scale)
        if float(np.linalg.norm(g)) > 1.0 + rel_tol:
            report["lipschitz_violations"] += 1
        lam = float(rng.uniform())
        z = lam * x + (1 - lam) * y
        if instance.value(z) > lam * fx + (1 - lam) * fy + rel_tol * scale:
            report["convexity_violations"] += 1
        p = np.asarray(instance.project(x))
        if not np.allclose(instance.project(p), p, rtol=0, atol=1e-15):
            report["projection_violations"] += 1
    report["passed"] = not any(
        report[k]
        for k in (
            "subgradient_violations",
            "convexity_violations",
            "lipschitz_violations",
            "projection_violations",
        )
    )
    return report


class TestInstanceValidation:
    @pytest.mark.parametrize("family", ["maxlinear", "vshape", "quadratic"])
    def test_oracles_are_valid(self, family):
        s = sched.sqrt_decay(2, 1)
        built, sample = {
            "maxlinear": lambda: (build_maxlinear(s, 12, log_envelope()), _sample_ball),
            "vshape": lambda: (build_vshape(s, 12), _sample_interval),
            "quadratic": lambda: (build_quadratic(s, 12), _sample_interval),
        }[family]()
        rng = np.random.default_rng(123)
        report = _validate_instance(built.convex, sample, rng, trials=1000)
        assert report["passed"], report
