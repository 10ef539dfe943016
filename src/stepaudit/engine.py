"""Projected subgradient descent over a convex instance.

The update is ``x_{t+1} = project(x_t - eta_t * g_t)`` with ``g_t`` taken
from the instance's deterministic subgradient oracle.  An instance carries
one of two paths, and :func:`run` takes it:

* ``kernel_data``: max-of-linear weights, run from the origin through the
  prefix-only numpy kernel with certified blocks in ``_kernels``;
* ``scalar``: the oracles and start point of a 1-d instance, run through
  :func:`scalar_descent`: one sequential recurrence, then array passes.

Both paths raise :class:`~stepaudit.errors.NumericFaultError` naming the
step of a fault, return their snapshots as ``{t: x}``, and are pure
functions of their inputs, so repeated runs are bit-identical; :func:`run`
makes one :class:`RunRecord` of either.  The scalar path performs a numpy
loop's float64 operations, so its errors, snapshots, projection count and
``max_norm_seen`` equal that loop's bit for bit, and its
``final_error_bound`` is ``0.0``.  The kernel's snapshots, projection count and its errors at
snapshot times equal those of a full score recompute each step bit for
bit; inside its certified blocks the other errors and ``max_norm_seen``
are tracked, and agree to rounding.  So does ``err(T)`` when a run
without a snapshot at ``T`` ends in a certified block that reaches ``T``,
which skips forming its iterates; ``RunRecord.final_error_bound`` then bounds its
distance from the recomputed value, and is ``0.0`` where ``err(T)`` is
that recompute, bit for bit (always with a snapshot at ``T``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import accumulate

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
    ``[lo, hi]`` and its start point in it, for the scalar path.  A family
    may append ``(fold, values)``: ``fold(x0, eta)`` returns ``(y, k)``, an
    array of ``len(eta) + 1`` floats whose first ``k + 1`` are the run's
    first pre-projection iterates, and ``values(x)`` the float ``value``
    at each entry of ``x``, bit for bit.
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
    """Run projected subgradient steps of a 1-d instance: one recurrence, then array passes.

    ``scalar`` is as in :class:`ConvexInstance`.  Returns ``(x, errors,
    snapshots, max_norm, hits)``: the last iterate, the per-step errors, the
    iterates at the sorted steps ``snap_times`` as ``{t: x}``, the largest
    pre-projection norm and the projection count.  A non-finite subgradient
    or value raises :class:`NumericFaultError` naming its step.

    Only the pre-projection iterates ``y`` are sequential: a family's
    ``fold``, then the plain step in one ``itertools.accumulate``.  Numpy
    passes give the rest with a numpy loop's bits: ``max_norm`` is ``sqrt``
    of the largest ``y * y`` (``np.linalg.norm`` of one element; ``sqrt`` is
    monotone, and NaN is skipped as that loop's ``>`` skips it), and a NaN
    ``y`` is a projection, as ``np.array_equal`` finds NaN unequal to
    itself.  A non-finite subgradient makes ``y`` non-finite, so it is
    evaluated again only at the iterate before a non-finite ``y``, and is
    reported at step ``t`` before a non-finite value at step ``t + 1``.
    """
    value, subgradient, lo, hi, x0, *family = scalar
    T = len(eta)
    if family:
        fold, values = family
        y, k = fold(x0, eta)
    else:  # every step through the oracles
        y, k, values = np.full(T + 1, float(x0)), 0, None
    if k < T:

        def step(y, s):
            x = hi if y > hi else lo if y < lo else y  # np.clip keeps NaN
            return x - s * subgradient(x)

        y[k:] = np.fromiter(accumulate(memoryview(eta[k:]), step, initial=float(y[k])), float, T + 1 - k)
    post = y[1:]
    with np.errstate(over="ignore"):
        max_norm = math.sqrt(np.fmax.reduce(post * post, initial=0.0))
    hits = T - int(np.count_nonzero((post >= lo) & (post <= hi)))
    unsure = np.flatnonzero(~np.isfinite(post)).tolist()  # steps whose subgradient may be non-finite
    np.clip(y, lo, hi, out=y)  # y[t] is now x_t
    errors = values(post) if values else np.fromiter(map(value, memoryview(post)), float, T)
    finite = np.isfinite(errors)
    first = T if finite.all() else int(finite.argmin())  # errors[first] is the first non-finite value
    for t in unsure:
        if t > first:
            break
        if not math.isfinite(subgradient(float(y[t]))):
            raise NumericFaultError(f"non-finite subgradient at step {t}")
    if first < T:
        raise NumericFaultError(f"non-finite objective value at step {first + 1}")
    snapshots = {t: y[t : t + 1].copy() for t in map(int, snap_times)}
    return float(y[-1]), errors, snapshots, max_norm, hits
