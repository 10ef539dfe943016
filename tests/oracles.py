"""Reference descent loops for the tests: slow, plain numpy, and checked
against the engine's two paths bit for bit.

``array_descent`` takes one numpy step at a time over array oracles: for
a 1-d instance they wrap its ``scalar`` tuple, and the scalar path performs
the same float64 operations in the same order.  ``reference_descent`` is
the max-of-linear kernel with every score recomputed over the full vector
each step.  ``row_csv_schedule`` reads a table CSV one row at a time, the
oracle of ``schedules.from_csv``'s values.
"""

import csv

import numpy as np

from stepaudit.engine import RunRecord
from stepaudit.errors import InvalidParameterError, NumericFaultError
from stepaudit.schedules import from_table


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


def array_oracles(instance):
    """``(value, subgradient, project)`` on arrays for a built instance.

    For a 1-d instance they wrap its ``scalar`` tuple.  For a max-of-linear
    instance they read its weights ``(a, b)``, take the piece of minimal
    index among those attaining the maximum and project onto the unit ball.
    """
    if instance.scalar is not None:
        value, subgradient, lo, hi = instance.scalar[:4]
        return (
            lambda x: value(float(x[0])),
            lambda x: np.array([subgradient(float(x[0]))]),
            lambda x: project_interval(x, lo, hi),
        )
    a, b = instance.kernel_data

    def scores(x):
        cum = np.empty(a.shape[0])
        cum[0] = 0.0
        np.cumsum((a * x)[:-1], out=cum[1:])
        return cum - b * x

    def subgradient(x):
        i = int(np.argmax(scores(x)))
        g = np.zeros(a.shape[0])
        g[:i] = a[:i]
        g[i] = -b[i]
        return g

    return lambda x: float(np.max(scores(x))), subgradient, lambda x: project_ball(x, 1.0)


def array_descent(instance, schedule, T, snapshots=()) -> RunRecord:
    """``engine.run`` as a numpy loop over ``array_oracles(instance)``.

    A 1-d instance starts at the last entry of its ``scalar`` tuple, a
    max-of-linear one at the origin.
    """
    value, subgradient, project = array_oracles(instance)
    if instance.scalar is not None:
        x = np.array([instance.scalar[4]], dtype=np.float64)
    else:
        x = np.zeros(instance.kernel_data[0].shape[0])
    eta = schedule.rates(T)
    errors = np.empty(T)
    stored: dict[int, np.ndarray] = {}
    wanted = set(snapshots)
    max_norm = 0.0
    hits = 0
    for t in range(T):
        g = subgradient(x)
        if not np.all(np.isfinite(g)):
            raise NumericFaultError(f"non-finite subgradient at step {t}")
        y = x - eta[t] * g
        nrm = float(np.linalg.norm(y))
        if nrm > max_norm:
            max_norm = nrm
        x_new = np.asarray(project(y), dtype=np.float64)
        if not np.array_equal(x_new, y):
            hits += 1
        x = x_new
        fv = float(value(x))
        if not np.isfinite(fv):
            raise NumericFaultError(f"non-finite objective value at step {t + 1}")
        errors[t] = fv
        if t + 1 in wanted:
            stored[t + 1] = x.copy()
    return RunRecord(schedule.label, T, errors, stored, max_norm, hits)


def reference_descent(a, b, eta, snap_times):
    """The plain kernel: every score recomputed over the full vector each step.

    Returns and raises what ``_kernels.maxlinear_descent`` does: ``(errors,
    trace, max_norm, hits, {t: x})``, or ``NumericFaultError`` naming the
    step of a non-finite objective value.
    """
    dim = a.shape[0]
    T = eta.shape[0]
    x = np.zeros(dim)
    errors = np.empty(T)
    trace = np.empty(T + 1, dtype=np.int64)
    snaps = {}
    scores = np.empty(dim)
    cum = np.empty(dim)
    max_norm = 0.0
    hits = 0
    wanted = set(np.asarray(snap_times).tolist())
    for t in range(T + 1):
        np.multiply(a, x, out=scores)
        cum[0] = 0.0
        np.cumsum(scores[: dim - 1], out=cum[1:])
        np.multiply(b, x, out=scores)
        np.subtract(cum, scores, out=scores)
        i = int(np.argmax(scores))
        fv = float(scores[i])
        trace[t] = i
        if t >= 1:
            errors[t - 1] = fv
        if not np.isfinite(fv):
            raise NumericFaultError(f"non-finite objective value at step {t}")
        if t == T:
            break
        step = eta[t]
        x[:i] -= step * a[:i]
        x[i] += step * b[i]
        nsq = float(np.dot(x, x))
        nrm = np.sqrt(nsq)
        if nrm > max_norm:
            max_norm = nrm
        if nsq > 1.0:
            hits += 1
            x /= nrm
        if t + 1 in wanted:
            snaps[t + 1] = x.copy()
    return errors, trace, max_norm, hits, snaps


def row_csv_schedule(path: str):
    """``schedules.from_csv`` with one Python tuple per row, read through
    ``csv``, ``int()`` and ``float()``; a bad cell raises ``ValueError``."""
    rows: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t", "eta"]:
            raise InvalidParameterError(f"schedule file {path!r} must start with header 't,eta'")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise InvalidParameterError(f"schedule file {path!r} has a row without an eta value: {row}")
            rows.append((int(row[0]), float(row[1])))
    if not rows:
        raise InvalidParameterError(f"schedule file {path!r} contains no rows")
    rows.sort()
    if [t for t, _ in rows] != list(range(len(rows))):
        raise InvalidParameterError(f"schedule file {path!r} must have contiguous 0-based indices")
    return from_table([v for _, v in rows], label=f"table({path})")
