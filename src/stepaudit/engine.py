"""Generic projected subgradient descent over a convex instance.

The update is ``x_{t+1} = project(x_t - eta_t * g_t)`` with ``g_t`` taken
from the instance's deterministic subgradient oracle.  :func:`run` has
three paths:

* the kernel path: instances carrying ``kernel_data`` run through the
  prefix-only numpy kernel with certified blocks in ``_kernels``;
* the scalar path: 1-d instances carrying a ``scalar`` hook run through
  :func:`scalar_descent` on Python floats;
* the generic path: a numpy loop over the instance's array oracles, taken
  by every instance with neither field set; tests clear both fields (with
  ``dataclasses.replace``) to keep it as the oracle for the other two.

All paths are pure functions of their inputs, so repeated runs are
bit-identical.  The scalar path performs the generic loop's float64
operations in the same order, so its errors, snapshots, projection count
and ``max_norm_seen`` equal the generic path's bit for bit.  The kernel's
iterates, snapshots, projection count and its errors at snapshot times and
at ``t = T`` equal those of a full score recompute each step bit for bit;
inside its certified blocks the other errors and ``max_norm_seen`` are
tracked, and agree to rounding.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidParameterError, NumericFaultError
from .schedules import StepSchedule

__all__ = [
    "ConvexInstance",
    "RunRecord",
    "run",
    "scalar_descent",
    "project_ball",
    "project_interval",
]


@dataclass
class ConvexInstance:
    """A convex objective bundled with its oracles and domain.

    Errors are objective values measured from 0, a level at or above the
    domain minimum of every family here.  Two optional fields select a
    fast path in :func:`run`: ``kernel_data`` holds the max-of-linear
    weights ``(a, b)`` of the kernel path, and ``scalar`` holds the
    float-to-float oracles ``(value, subgradient, lo, hi)`` of a 1-d
    instance on the interval ``[lo, hi]``, for the scalar path.
    ``value``, ``subgradient`` and ``project`` must be those oracles on
    1-element arrays, so that the generic path stays a bitwise oracle for
    the scalar one.
    """

    dim: int
    initial_point: np.ndarray
    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    kernel_data: tuple | None = None
    scalar: tuple | None = None


@dataclass
class RunRecord:
    """Per-step errors and optional iterate snapshots from one descent run."""

    schedule_label: str
    horizon: int
    errors: np.ndarray
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    max_norm_seen: float = 0.0
    projection_activations: int = 0
    argmax_trace: np.ndarray | None = None

    def error_at(self, t: int) -> float:
        """Return ``err(t)`` for ``1 <= t <= horizon``."""
        if not 1 <= t <= self.horizon:
            raise InvalidParameterError(f"t={t} outside 1..{self.horizon}")
        return float(self.errors[t - 1])


def project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Project onto the Euclidean ball of the given radius."""
    if radius <= 0:
        raise InvalidParameterError("ball radius must be positive")
    nrm = float(np.linalg.norm(x))
    if nrm <= radius:
        return x
    return x * (radius / nrm)


def project_interval(x, lo: float, hi: float):
    """Clamp to ``[lo, hi]`` (works on scalars and arrays)."""
    if lo > hi:
        raise InvalidParameterError(f"empty interval [{lo}, {hi}]")
    return np.clip(x, lo, hi)


def _snapshot_times(snapshots, T: int) -> np.ndarray:
    times = sorted({int(s) for s in (() if snapshots is None else snapshots)})
    if times and (times[0] < 1 or times[-1] > T):
        raise InvalidParameterError(f"snapshot times must lie in 1..{T}")
    return np.asarray(times, dtype=np.int64)


def run(
    instance: ConvexInstance,
    schedule: StepSchedule,
    T: int,
    snapshots: Iterable[int] | None = None,
) -> RunRecord:
    """Run ``T`` projected subgradient steps and record per-step errors.

    ``snapshots`` lists the step indices in ``1..T`` whose iterates are
    kept (``None`` keeps none).  With no snapshots the working memory stays
    O(dim) regardless of ``T``.
    """
    T = int(T)
    if T < 1:
        raise InvalidParameterError("horizon T must be >= 1")
    if instance.dim < 1:
        raise InvalidParameterError("instance dimension must be >= 1")
    snap_times = _snapshot_times(snapshots, T)
    eta = schedule.rates(T)

    if instance.kernel_data is not None:
        a, b = instance.kernel_data
        errors, trace, max_norm, hits, snaps, fault = _kernels.maxlinear_descent(a, b, eta, snap_times)
        if fault >= 0:
            raise NumericFaultError(f"non-finite objective value at step {fault}")
        return RunRecord(
            schedule_label=schedule.label,
            horizon=T,
            errors=errors,
            snapshots={int(t): snaps[k].copy() for k, t in enumerate(snap_times)},
            max_norm_seen=float(max_norm),
            projection_activations=int(hits),
            argmax_trace=trace,
        )

    x = np.array(instance.initial_point, dtype=np.float64, copy=True)
    if x.shape != (instance.dim,):
        raise InvalidParameterError("initial point does not match instance dimension")
    if instance.scalar is not None:
        if instance.dim != 1:
            raise InvalidParameterError("scalar oracles need a 1-d instance")
        _, errors, stored, max_norm, hits = scalar_descent(instance.scalar, float(x[0]), eta, snap_times)
    else:
        errors, stored, max_norm, hits = _array_descent(instance, x, eta, snap_times)
    return RunRecord(
        schedule_label=schedule.label,
        horizon=T,
        errors=errors,
        snapshots=stored,
        max_norm_seen=max_norm,
        projection_activations=hits,
    )


def _array_descent(instance: ConvexInstance, x: np.ndarray, eta: np.ndarray, snap_times: np.ndarray):
    # the generic path: the instance's array oracles, one numpy step at a time
    errors = np.empty(len(eta))
    stored: dict[int, np.ndarray] = {}
    wanted = set(int(t) for t in snap_times)
    max_norm = 0.0
    hits = 0
    for t in range(len(eta)):
        g = instance.subgradient(x)
        if not np.all(np.isfinite(g)):
            raise NumericFaultError(f"non-finite subgradient at step {t}")
        y = x - eta[t] * g
        nrm = float(np.linalg.norm(y))
        if nrm > max_norm:
            max_norm = nrm
        x_new = np.asarray(instance.project(y), dtype=np.float64)
        if not np.array_equal(x_new, y):
            hits += 1
        x = x_new
        fv = float(instance.value(x))
        if not np.isfinite(fv):
            raise NumericFaultError(f"non-finite objective value at step {t + 1}")
        errors[t] = fv
        if t + 1 in wanted:
            stored[t + 1] = x.copy()
    return errors, stored, max_norm, hits


def scalar_descent(scalar: tuple, x: float, eta: np.ndarray, snap_times: Iterable[int] = ()):
    """Run projected subgradient steps of a 1-d instance on Python floats.

    ``scalar = (value, subgradient, lo, hi)`` as in :class:`ConvexInstance`,
    ``x`` is the start point and ``eta`` the float64 stepsizes, streamed
    through a memoryview rather than a Python list.  Returns ``(x, errors,
    snapshots, max_norm, hits)``: the last iterate, the per-step errors, the
    iterates at the sorted step indices ``snap_times``, the largest
    pre-projection norm and the projection count.

    Each step performs the generic loop's float64 operations in the same
    order, fault checks included: ``math.sqrt(y * y)`` is what
    ``np.linalg.norm`` computes for one element, and a NaN ``y`` counts as a
    projection hit because ``np.array_equal`` finds NaN unequal to itself.
    """
    value, subgradient, lo, hi = scalar
    errors = np.empty(len(eta))
    out = memoryview(errors)
    snapshots: dict[int, np.ndarray] = {}
    pending = map(int, snap_times)
    nxt = next(pending, 0)
    max_norm = 0.0
    hits = 0
    for t, s in enumerate(memoryview(eta)):
        g = subgradient(x)
        if not math.isfinite(g):
            raise NumericFaultError(f"non-finite subgradient at step {t}")
        y = x - s * g
        nrm = math.sqrt(y * y)
        if nrm > max_norm:
            max_norm = nrm
        if lo <= y <= hi:
            x = y
        else:
            hits += 1
            x = hi if y > hi else lo if y < lo else y  # np.clip keeps NaN
        fv = value(x)
        if not math.isfinite(fv):
            raise NumericFaultError(f"non-finite objective value at step {t + 1}")
        out[t] = fv
        if t + 1 == nxt:
            snapshots[nxt] = np.array([x])
            nxt = next(pending, 0)
    return x, errors, snapshots, max_norm, hits
