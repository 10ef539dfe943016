"""Projected subgradient descent over a convex instance.

The update is ``x_{t+1} = project(x_t - eta_t * g_t)`` with ``g_t`` taken
from the instance's deterministic subgradient oracle.  An instance carries
one of two paths, and :func:`run` takes it:

* ``kernel_data``: max-of-linear weights, run from the origin through the
  prefix-only numpy kernel with certified blocks in ``_kernels``;
* ``scalar``: the float oracles and start point of a 1-d instance, run
  through :func:`scalar_descent` on Python floats.

Both paths raise :class:`~stepaudit.errors.NumericFaultError` naming the
step of a fault, return their snapshots as ``{t: x}``, and are pure
functions of their inputs, so repeated runs are bit-identical; :func:`run`
makes one :class:`RunRecord` of either.  The scalar path performs a numpy
array loop's float64 operations in the same order, so its errors,
snapshots, projection count and ``max_norm_seen`` equal that loop's bit
for bit.  The kernel's snapshots, projection count and its errors at
snapshot times equal those of a full score recompute each step bit for
bit; inside its certified blocks the other errors and ``max_norm_seen``
are tracked, and agree to rounding.  So does ``err(T)`` when a run
without a snapshot at ``T`` ends in a certified tail block, which skips
forming the iterates; ``RunRecord.final_error_bound`` then bounds its
distance from the recomputed value, and is ``0.0`` where ``err(T)`` is
that recompute, bit for bit (always with a snapshot at ``T``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidParameterError, NumericFaultError, step_count
from .schedules import StepSchedule

__all__ = [
    "ConvexInstance",
    "RunRecord",
    "run",
    "scalar_descent",
]


@dataclass
class ConvexInstance:
    """A convex objective and the one descent path :func:`run` takes.

    Errors are objective values measured from 0, a level at or above the
    domain minimum of every family here; ``value`` is the objective on
    arrays.  Exactly one of two fields must be set: ``kernel_data`` holds
    the max-of-linear weights ``(a, b)`` of the kernel path, which starts
    at the origin, and ``scalar`` holds ``(value, subgradient, lo, hi,
    x0)``: the float-to-float oracles of a 1-d instance on the interval
    ``[lo, hi]`` and its start point, for the scalar path.
    """

    value: Callable[[np.ndarray], float]
    kernel_data: tuple | None = None
    scalar: tuple | None = None

    def __post_init__(self) -> None:
        if (self.kernel_data is None) == (self.scalar is None):
            raise InvalidParameterError("an instance needs exactly one of kernel_data and scalar")


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
    final_error_bound: float = 0.0  # |errors[-1] - err(T)| at most this; 0.0 where err(T) is recomputed exactly

    def error_at(self, t: int) -> float:
        """Return ``err(t)`` for ``1 <= t <= horizon``."""
        t = step_count(t, 1, "step")
        if t > self.horizon:
            raise InvalidParameterError(f"step {t} is above {self.horizon}")
        return float(self.errors[t - 1])


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
    T = step_count(T, 1, "horizon")
    snap_times = sorted({step_count(s, 1, "snapshot time") for s in (() if snapshots is None else snapshots)})
    if snap_times and snap_times[-1] > T:
        raise InvalidParameterError(f"snapshot time {snap_times[-1]} is above {T}")
    eta = schedule.rates(T)
    if instance.kernel_data is not None:
        errors, trace, max_norm, hits, snaps, bound = _kernels.maxlinear_descent(*instance.kernel_data, eta, snap_times)
    else:
        _, errors, snaps, max_norm, hits = scalar_descent(instance.scalar, eta, snap_times)
        trace, bound = None, 0.0
    return RunRecord(schedule.label, T, errors, snaps, max_norm, hits, trace, bound)


def scalar_descent(scalar: tuple, eta: np.ndarray, snap_times: Iterable[int] = ()):
    """Run projected subgradient steps of a 1-d instance on Python floats.

    ``scalar = (value, subgradient, lo, hi, x0)`` as in
    :class:`ConvexInstance` and ``eta`` the float64 stepsizes, streamed
    through a memoryview rather than a Python list.  Returns ``(x, errors,
    snapshots, max_norm, hits)``: the last iterate, the per-step errors, the
    iterates at the sorted step indices ``snap_times`` as ``{t: x}``, the
    largest pre-projection norm and the projection count.  A non-finite
    subgradient or objective value raises :class:`NumericFaultError`
    naming its step.

    Each step performs the float64 operations of a numpy loop over 1-element
    arrays (``np.clip`` as the projection) in the same order, fault checks
    included: ``math.sqrt(y * y)`` is what
    ``np.linalg.norm`` computes for one element, and a NaN ``y`` counts as a
    projection hit because ``np.array_equal`` finds NaN unequal to itself.
    """
    value, subgradient, lo, hi, x = scalar
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
