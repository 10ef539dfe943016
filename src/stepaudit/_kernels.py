"""Hot descent loop for the max-of-linear family, in plain numpy."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

__all__ = ["maxlinear_descent"]


def maxlinear_descent(a: np.ndarray, b: np.ndarray, eta: np.ndarray, snap_times: np.ndarray):
    """Run ``len(eta)`` projected subgradient steps on a max-of-linear objective.

    ``a`` and ``b`` are the construction weights (length ``dim``), ``eta``
    the stepsizes, and ``snap_times`` a sorted int64 array of iterate
    indices (in ``1..T``) to copy out.  Returns
    ``(errors, argmax_trace, max_norm, projection_hits, snapshots, fault_step)``
    where ``fault_step < 0`` means no numeric fault occurred.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    eta = np.ascontiguousarray(eta, dtype=np.float64)
    snap_times = np.ascontiguousarray(snap_times, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameterError("weight arrays must be 1-d and equally sized")
    if eta.shape[0] >= a.shape[0]:
        raise InvalidParameterError("need one more weight than steps (dim = T + 1)")
    dim = a.shape[0]
    T = eta.shape[0]
    x = np.zeros(dim)
    errors = np.empty(T)
    trace = np.empty(T + 1, dtype=np.int64)
    snaps = np.empty((snap_times.shape[0], dim))
    scores = np.empty(dim)
    cum = np.empty(dim)
    max_norm = 0.0
    hits = 0
    fault = -1
    spos = 0
    for t in range(T + 1):
        # score_i = sum_{m<i} a_m x_m - b_i x_i, with the prefix sum taken
        # sequentially
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
            fault = t
            break
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
        if spos < snap_times.shape[0] and snap_times[spos] == t + 1:
            snaps[spos] = x
            spos += 1
    return errors, trace, max_norm, hits, snaps, fault
