"""Adversarial convex instances with closed-form trajectory oracles.

Three families are provided, each targeted at a step count where the
descent run realizes a certified error floor:

* a one-dimensional piecewise-linear valley whose minimum the iterates
  reach exactly one step before the target, so the next step overshoots
  by the full stepsize;
* a one-dimensional quadratic scaled by the step-sum, realizing the
  ``1/(4 e^2 sum eta)`` floor;
* a high-dimensional max-of-linear objective on the unit ball whose
  deterministic minimal-index subgradient rule walks the iterate through
  one fresh coordinate per step.

Each family's instance class extends one base, which embeds a
:class:`~stepaudit.engine.ConvexInstance`, exposes ``closed_form_iterate``
for independent trajectory verification and dumps the instance with
``to_dict``; each class carries the analytic error floor it certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .bounds import GuaranteeEnvelope
from .engine import ConvexInstance, scalar_descent
from .errors import ConstructionError, InvalidParameterError, step_count
from .schedules import StepSchedule

__all__ = [
    "VShapeInstance",
    "QuadraticInstance",
    "MaxLinearInstance",
    "build_vshape",
    "build_quadratic",
    "build_maxlinear",
    "coupling_weights",
    "check_weight_conditions",
    "ConditionCheck",
    "ConditionReport",
]


# -- shared base -------------------------------------------------------------


@dataclass
class _Instance:
    """A built instance: its schedule, target step ``T`` and convex problem.

    Subclasses give ``_iterate(t)``, the closed-form iterate after ``t``
    steps, and ``_dumped``, the fields ``to_dict`` writes besides ``T`` and
    the schedule's label.
    """

    schedule: StepSchedule
    T: int
    convex: ConvexInstance
    _dumped: ClassVar[tuple[str, ...]] = ()

    def closed_form_iterate(self, t: int) -> np.ndarray:
        t = step_count(t, 1, "step")
        if t > self.T:
            raise InvalidParameterError(f"step {t} is above {self.T}")
        return self._iterate(t)

    def closed_form_error(self, t: int) -> float:
        return float(self.convex.value(self.closed_form_iterate(t)))

    def to_dict(self) -> dict:
        return {"T": self.T, "schedule_label": self.schedule.label, **{k: getattr(self, k) for k in self._dumped}}


# -- valley (piecewise-linear) family -------------------------------------


@dataclass
class VShapeInstance(_Instance):
    """1-d valley with a shallow ramp of slope ``c_eps`` on ``(0, eps]``.

    Starting at ``x_0 = eps``, the ramp steps shrink the iterate to the
    minimum at exactly ``T - 1`` steps; the consistent subgradient ``-1``
    at the minimum then throws step ``T`` a full stepsize up the right
    branch.
    """

    epsilon: float
    c_eps: float
    landing: float  # simulated iterate value one step before the target
    _dumped = ("epsilon", "c_eps")

    def certified_bound(self) -> float:
        """Predicted error at the target step (domain-capped exit)."""
        exit_step = min(self.schedule.rate(self.T - 1), 1.0)
        return exit_step - self.epsilon + self.c_eps * self.epsilon

    @property
    def certified(self) -> bool:
        return abs(self.landing) <= 1e-12 * self.epsilon  # build_vshape ensures landing <= 0

    def _iterate(self, t: int) -> np.ndarray:
        if t < self.T:
            return np.array([self.epsilon - self.c_eps * self.schedule.prefix_sum(t)])
        pre = self.epsilon - self.c_eps * self.schedule.prefix_sum(self.T - 1)
        return np.array([float(np.clip(pre + self.schedule.rate(self.T - 1), -1.0, 1.0))])


def _interval_instance(scalar: tuple) -> ConvexInstance:
    """1-d instance on ``[-1, 1]`` whose array ``value`` wraps the float one."""
    return ConvexInstance(value=lambda x: scalar[0](float(x[0])), scalar=scalar)


def _vshape_scalar(eps: float, c: float) -> tuple:
    """The valley's ``scalar`` tuple: its float oracles, ramp fold and array objective."""

    def value(v: float) -> float:
        if v < 0:
            return -v
        if v <= eps:
            return c * v
        return v - eps + c * eps

    def subgradient(v: float) -> float:
        if v <= 0:
            return -1.0
        if v <= eps:
            return c
        return 1.0

    def fold(x0, steps):
        # the pre-projection iterates v[0..k] from x0, k the first at or below
        # the kink: on the ramp a step is fl(v - fl(s c)) = fl(v + fl(s * -c)),
        # one sequential fold.  It never rises, so k < len(steps) only if v[-2] <= 0.
        v = np.empty(len(steps) + 1)
        v[0] = x0
        np.multiply(steps, -c, out=v[1:])
        np.add.accumulate(v, out=v)
        return v, len(steps) if v[-2] > 0.0 else int(np.argmax(v <= 0.0))

    def values(x):  # value at each iterate, in one array
        out = x - eps
        out += c * eps
        np.multiply(x, c, out=out, where=x <= eps)
        return np.negative(x, out=out, where=x < 0)

    return value, subgradient, -1.0, 1.0, eps, fold, values


_SHRINK = 1e-6  # eps as a fraction of min(1, the exit step, the ramp's step sum)


def build_vshape(schedule: StepSchedule, T: int) -> VShapeInstance:
    """Build the valley instance targeted at step ``T``.

    ``eps = _SHRINK * min(1, eta_{t-1}, sum_{j<t-1} eta_j)`` and the ramp
    slope is ``eps`` divided by that prefix sum.  The slope is nudged up
    by at most a few ulps so that, in float64, the simulated iterate one
    step before the target lands at or below the minimum and the exit
    step takes the ``-1`` branch exactly as in real arithmetic.
    """
    T = step_count(T, -math.inf, "horizon")  # any integer below 2 is a ConstructionError
    if T < 2:
        raise ConstructionError("vshape needs a target >= 2")
    eta_exit = schedule.rate(T - 1)
    ramp_sum = schedule.prefix_sum(T - 1)
    if eta_exit <= 0:
        raise ConstructionError(f"vshape needs eta_{T - 1} > 0")
    if ramp_sum <= 0:
        raise ConstructionError("vshape needs a positive stepsize sum before the target")
    eps = _SHRINK * min(1.0, eta_exit, ramp_sum)
    c = eps / ramp_sum
    steps = schedule.rates(T - 1)
    bump = 2.0**-50
    for _ in range(65):  # the slope as computed, then up to 64 nudges
        scalar = _vshape_scalar(eps, c)
        landing = scalar_descent(scalar, steps)[0]
        if landing <= 0:
            break
        c = c * (1.0 + bump)
        bump *= 2.0
    else:
        raise ConstructionError("vshape ramp slope could not be settled onto the minimum")
    if not 0 < c < 1:
        raise ConstructionError(f"vshape ramp slope c={c} outside (0, 1)")

    convex = _interval_instance(scalar)
    return VShapeInstance(schedule=schedule, T=T, convex=convex, epsilon=eps, c_eps=c, landing=landing)


# -- quadratic family ------------------------------------------------------


@dataclass
class QuadraticInstance(_Instance):
    """1-d quadratic ``x^2 / (4 S)`` with ``S`` the step sum to the target."""

    S: float
    _dumped = ("S",)

    def certified_bound(self) -> float:
        return math.exp(-2.0) / (4.0 * self.S)

    @property
    def certified(self) -> bool:
        return True

    def _iterate(self, t: int) -> np.ndarray:
        factors = 1.0 - self.schedule.rates(t) / (2.0 * self.S)
        return np.array([float(np.prod(factors))])


def build_quadratic(schedule: StepSchedule, T: int) -> QuadraticInstance:
    """Build the quadratic instance targeted at step ``T``.

    Requires the step sum ``S`` over the first ``T`` steps to be at least
    1/2 so the objective is 1-Lipschitz on ``[-1, 1]``.
    """
    T = step_count(T, 1, "horizon")
    S = schedule.prefix_sum(T)
    if S < 0.5:
        raise ConstructionError(f"quadratic instance needs step sum S >= 1/2 at t={T}, got S={S}")
    inv, d = 1.0 / (4.0 * S), 2.0 * S

    def fold(x0, eta):  # the whole run, with the subgradient x / d inline
        def step(y, s):
            x = 1.0 if y > 1.0 else -1.0 if y < -1.0 else y
            return x - s * (x / d)

        return np.fromiter(accumulate(memoryview(eta), step, initial=x0), float, len(eta) + 1), len(eta)

    def values(x):
        out = x * x
        out *= inv
        return out

    convex = _interval_instance((lambda v: v * v * inv, lambda v: v / d, -1.0, 1.0, 1.0, fold, values))
    return QuadraticInstance(schedule=schedule, T=T, convex=convex, S=S)


# -- max-of-linear family ---------------------------------------------------


def coupling_weights(
    schedule: StepSchedule, t: int, phi: GuaranteeEnvelope
) -> tuple[np.ndarray, np.ndarray]:
    """Weight sequences ``(a, b)`` of length ``t + 1`` for the construction.

    ``a_j = min(1, eta_j sqrt(t+1)) / (16 phi(t+1) (t+1-j))`` couples
    coordinate ``j+1`` into later linear pieces, and
    ``b_j = min(1/2, 1/(2 eta_j sqrt(t+1)))`` is the depth of the fresh
    coordinate opened at step ``j``.  A zero stepsize yields ``a_j = 0``
    and ``b_j = 1/2``.  Where ``eta_j sqrt(t+1) >= 1`` for every ``j < t``
    (a saturated schedule), ``b_j eta_j = 1 / (2 sqrt(t+1))`` and the
    certified sum does not depend on the schedule:
    ``sum_{j<t} a_j b_j eta_j = (H_{t+1} - 1) / (32 phi(t+1) sqrt(t+1))``.
    """
    t = step_count(t, 1, "horizon")
    return _coupling(schedule.rates(t + 1), t, phi(t + 1))


def _coupling(eta: np.ndarray, t: int, pt: float) -> tuple[np.ndarray, np.ndarray]:
    """``coupling_weights`` from the rates ``eta_0 .. eta_t`` and ``pt = phi(t + 1)``."""
    root = math.sqrt(t + 1.0)
    a = np.minimum(1.0, eta * root) / (16.0 * pt * np.arange(t + 1.0, 0.0, -1.0))  # t + 1 - j
    with np.errstate(divide="ignore", over="ignore"):  # a zero step's 1/0 and a subnormal one's 1/eta are inf
        b = np.minimum(0.5, 1.0 / (2.0 * eta * root))
    return a, b


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    slack: float
    worst_index: int | None = None


@dataclass
class ConditionReport:
    """Outcome of the three admissibility conditions on ``(a, b)``."""

    sum_sq: ConditionCheck
    step_cap: ConditionCheck
    tail_coupling: ConditionCheck

    @property
    def ok(self) -> bool:
        return self.sum_sq.passed and self.step_cap.passed and self.tail_coupling.passed


def check_weight_conditions(
    a: np.ndarray, b: np.ndarray, schedule: StepSchedule, T: int, *, eta: np.ndarray | None = None
) -> ConditionReport:
    """Check the admissibility conditions that make the error floor sound.

    (1) ``sum a_j^2 <= 1/2``; (2) each ``b_j`` at most
    ``min(1/2, 1/(2 eta_j sqrt(T+1)))``; (3) each coupling tail
    ``a_j * sum_{k>j}^{T} eta_k`` at most ``eta_j b_j / 2``.  Slacks are
    reported as ``rhs - lhs``; a condition passes only with nonnegative
    slack.  ``eta``, if given, is ``schedule.rates(T + 1)``, read only.
    """
    T = step_count(T, 0, "horizon")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (T + 1,) or b.shape != (T + 1,):
        raise InvalidParameterError(f"weight arrays must have length T+1 = {T + 1}")
    ab = np.concatenate((a, b))
    if not (ab[ab.argmin()] >= 0.0 and ab[ab.argmax()] < math.inf):  # both pick a NaN, which fails both
        raise InvalidParameterError("weights must be finite and nonnegative")
    if eta is None:
        eta = schedule.rates(T + 1)
    root = math.sqrt(T + 1.0)

    slack1 = 0.5 - float(np.add.reduce(a * a))
    c1 = ConditionCheck("sum_sq", slack1 >= 0, slack1)

    with np.errstate(divide="ignore", over="ignore"):  # a zero or subnormal step has no cap (inf)
        gap2 = np.minimum(0.5, 1.0 / (2.0 * eta * root)) - b
    w2 = int(gap2.argmin())
    c2 = ConditionCheck("step_cap", float(gap2[w2]) >= 0, float(gap2[w2]), w2)

    tail = np.zeros(T + 1)  # tail[j] = sum_{k=j+1}^{T} eta_k, added from k = T down
    np.add.accumulate(eta[:0:-1], out=tail[:T][::-1])
    gap3 = 0.5 * eta * b - a * tail
    w3 = int(gap3.argmin())
    c3 = ConditionCheck("tail_coupling", float(gap3[w3]) >= 0, float(gap3[w3]), w3)

    return ConditionReport(sum_sq=c1, step_cap=c2, tail_coupling=c3)


@dataclass
class MaxLinearInstance(_Instance):
    """Max-of-linear objective on the unit ball in dimension ``T + 1``.

    The deterministic oracle returns the linear piece of minimal index
    among those attaining the maximum; under positive stepsizes this is
    piece ``t`` at iterate ``t``, which drives the closed-form trajectory.
    Only ``build_maxlinear`` makes one, after the weights pass
    ``check_weight_conditions``.
    """

    a: np.ndarray
    b: np.ndarray
    _dumped = ("a", "b")

    def certified_bound(self) -> float:
        eta = self.schedule.rates(self.T)
        return 0.5 * float(np.sum(self.a[: self.T] * self.b[: self.T] * eta))

    @property
    def certified(self) -> bool:
        # zero stepsizes allow argmax ties that break the trajectory
        # argument, so the floor is only certified for strictly positive
        # steps (or when it is vacuously zero)
        eta = self.schedule.rates(self.T)
        return bool(np.all(eta > 0)) or self.certified_bound() == 0.0

    def _iterate(self, t: int) -> np.ndarray:
        eta = self.schedule.rates(t)
        x = np.zeros(self.T + 1)
        rev = np.cumsum(eta[::-1])[::-1]
        tail = np.append(rev[1:], 0.0)  # tail[m] = sum_{k=m+1}^{t-1} eta_k
        x[:t] = self.b[:t] * eta - self.a[:t] * tail
        return x


def build_maxlinear(schedule: StepSchedule, T: int, phi: GuaranteeEnvelope) -> MaxLinearInstance:
    """Build the max-of-linear instance for horizon ``T`` shaped by ``phi``.

    The admissibility conditions are checked on the generated weights and
    a failure aborts construction; the certified floor rests on that
    check, not on ``phi`` being a true guarantee envelope.  Descent runs
    from the origin on the weights ``(a, b)`` through the kernel; ``value``
    costs O(T) via a running prefix sum over the coupled coordinates.
    """
    T = step_count(T, 1, "horizon")
    eta = schedule.rates(T + 1)  # the weights and their check share it
    a, b = _coupling(eta, T, phi(T + 1))
    report = check_weight_conditions(a, b, schedule, T, eta=eta)
    if not report.ok:
        bad = next(c for c in vars(report).values() if not c.passed)
        raise ConstructionError(
            f"maxlinear weight conditions failed for {schedule.label} at T={T}: "
            f"{bad.name} has slack {bad.slack!r} at worst_index={bad.worst_index}"
        )

    def value(x: np.ndarray) -> float:
        ax = a * x
        cum = np.empty(T + 1)
        cum[0] = 0.0
        np.cumsum(ax[:-1], out=cum[1:])
        return float(np.max(cum - b * x))

    convex = ConvexInstance(value=value, kernel_data=(a, b))
    return MaxLinearInstance(schedule=schedule, T=T, convex=convex, a=a, b=b)
