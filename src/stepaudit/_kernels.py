"""Hot descent loop for the max-of-linear family, in plain numpy.

The objective is ``max_k score_k(x)`` with ``score_k(x) = sum_{m<k} a_m x_m
- b_k x_k``.  Scores are linear in ``x``, so a step with argmax ``i`` and
stepsize ``eta`` moves them by known vectors: score ``k < i`` by ``eta *
u_k`` with ``u = a*b - A2`` (``A2`` the exclusive prefix sum of ``a**2``),
score ``i`` by ``-eta * d_i`` with ``d = A2 + b**2``, and every score ``k >
i`` by the one scalar ``eta * u_i``.  The kernel keeps scores only for the
touched prefix ``[0, p)`` of coordinates; every coordinate ``k >= p`` is
still zero, so its score is exactly the shared suffix value and the
minimal-index argmax among them is ``p``.  ``||x||^2`` moves by ``-2 eta
score_i + eta**2 d_i``.  A step therefore costs O(p) instead of O(dim).

The iterate itself is updated with the plain expressions, so iterates,
snapshots and the argmax trace are bit for bit those of a kernel that
recomputes every score each step.  Scores are recomputed exactly (the
product, a sequential ``cumsum`` and the subtraction, over ``[0, p]`` only:
a sequential prefix sum of a prefix has the same bits) every
``RECOMPUTE_EVERY`` steps, at each snapshot time, at ``t = T``, after each
projection, and whenever the tracked scores or ``||x||^2`` lie too close to
a decision (the argmax or ``||x||^2 > 1``) for a rounding-error bound to
settle it.  Errors reported at those steps are exact; the others agree to
rounding (about 1e-14 relative on the lower-bound construction).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = ["maxlinear_descent", "RECOMPUTE_EVERY"]

RECOMPUTE_EVERY = 64
_EPS = float(np.finfo(np.float64).eps)


def _exact_scores(a, b, x, q, scores, cum):
    """Write ``score_k`` for ``k < q`` into ``scores[:q]``, summed sequentially."""
    np.multiply(a[:q], x[:q], out=scores[:q])
    cum[0] = 0.0
    np.cumsum(scores[: q - 1], out=cum[1:q])
    np.multiply(b[:q], x[:q], out=scores[:q])
    np.subtract(cum[:q], scores[:q], out=scores[:q])


def maxlinear_descent(a: np.ndarray, b: np.ndarray, eta: np.ndarray, snap_times: np.ndarray):
    """Run ``len(eta)`` projected subgradient steps on a max-of-linear objective.

    ``a`` and ``b`` are the construction weights (length ``dim``), ``eta``
    the stepsizes, and ``snap_times`` a sorted int64 array of iterate
    indices (in ``1..T``) to copy out.  Returns
    ``(errors, argmax_trace, max_norm, projection_hits, snapshots, fault_step)``
    where ``fault_step < 0`` means no numeric fault occurred.  Non-finite
    weights fault at step 0.  ``max_norm`` comes from the tracked
    ``||x||^2``, exact wherever it decides a projection.
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
    errors = np.full(T, np.nan)
    trace = np.zeros(T + 1, dtype=np.int64)
    snaps = np.empty((snap_times.shape[0], dim))
    # a[dim - 1] never enters a score
    if not (np.isfinite(a[: dim - 1]).all() and np.isfinite(b).all()):
        return errors, trace, 0.0, 0, snaps, 0

    x = np.zeros(dim)
    s = np.empty(dim)  # tracked scores of the touched prefix
    buf = np.empty(dim)  # products and prefix sums
    with np.errstate(all="ignore"):  # huge weights overflow here, but then every == 1
        np.multiply(a, a, out=buf)
        s[0] = 0.0
        np.cumsum(buf[: dim - 1], out=s[1:])  # A2
        u = a * b
        u -= s
        d = b * b
        d += s
        D = max(float(d.max()), float(np.abs(u).max()))
    w = max(float(np.abs(a[: dim - 1]).max(initial=0.0)), float(np.abs(b).max()))
    # With G below 2^200 no score, iterate entry, ||x||^2 or tracked
    # increment can overflow (each is at most G^4), so only a recompute can
    # see a fault.  Otherwise every step recomputes, like a plain kernel.
    G = (dim + 1.0) * (1.0 + w) * (1.0 + float(np.abs(eta).sum()))
    every = RECOMPUTE_EVERY if G <= 2.0**200 else 1
    # Between recomputes a tracked score differs from the recomputed one by
    # at most tol = coef * (2 R ||x|| + 3 D sum|eta|), with ||x|| and the sum
    # taken since the last recompute: both sides carry a sequential-sum error
    # of dim roundings of terms below R ||x||, and each tracked step adds a
    # few roundings of terms below eta D.  nerr bounds ||x||^2 the same way.
    # The constants are generous: the bounds only decide when to recompute.
    coef = 8.0 * (dim + 2 * RECOMPUTE_EVERY) * _EPS
    R = math.sqrt(D)

    # p <= T < dim: a step touches at most one fresh coordinate
    p = 0  # x[k] == 0 for every k >= p
    sfx = 0.0  # the tied score of every k >= p
    nsq = 0.0  # ||x||^2
    max_norm = 0.0
    hits = 0
    fault = -1
    spos = 0
    next_snap = int(snap_times[0]) if snap_times.shape[0] else -1
    due = 0  # the next exact recompute: a schedule, t = T, a snapshot or a projection
    base = tol = nerr = 0.0
    eta_acc = 0.0
    multiply, subtract, add = np.multiply, np.subtract, np.add
    for t in range(T + 1):
        i = -1
        if t < due:
            # the tracked argmax, unless a rival lies within the error bound
            gap = 2.0 * tol
            if p == 0:
                i, fv = 0, sfx
            else:
                j = int(s[:p].argmax())
                top = float(s[j])
                if sfx - top > gap:
                    i, fv = p, sfx
                elif top - sfx > gap and np.count_nonzero(s[:p] >= top - gap) == 1:
                    i, fv = j, top
        if i < 0:
            _exact_scores(a, b, x, p + 1, s, buf)
            i = int(s[: p + 1].argmax())
            fv = float(s[i])
            sfx = float(s[p])
            nsq = float(np.dot(x, x))
            base = 2.0 * R * math.sqrt(nsq)
            eta_acc = 0.0
            nerr = coef * nsq
            tol = coef * base
            due = min(t + every, T)
        trace[t] = i
        if t >= 1:
            errors[t - 1] = fv
        if not math.isfinite(fv):
            fault = t
            break
        if t == T:
            break
        step = float(eta[t])
        # x[:i] -= step * a[:i], without a temporary
        xi, bi = x[:i], buf[:i]
        multiply(a[:i], step, bi)
        subtract(xi, bi, xi)
        x[i] += step * b[i]
        di = float(d[i])
        if step != 0.0:
            if every > 1:
                si = s[:i]
                multiply(u[:i], step, bi)
                add(si, bi, si)
                if i == p:
                    s[p] = sfx - step * di
                else:
                    s[i] -= step * di
                    s[i + 1 : p] += step * u[i]
                sfx += step * float(u[i])
            if i == p:
                p += 1
        # ||x||^2 and its error bound, then the bound on tracked scores
        nerr += 4.0 * abs(step) * tol + coef * (abs(nsq) + 2.0 * abs(step * fv) + step * step * D)
        nsq = nsq - 2.0 * step * fv + step * step * di
        eta_acc += abs(step)
        tol = coef * (base + 3.0 * D * eta_acc)
        if every == 1 or abs(nsq - 1.0) <= 1e-9 + nerr + coef * abs(nsq):
            nsq = float(np.dot(x, x))
            nerr = coef * nsq
        nrm = math.sqrt(max(nsq, 0.0))
        if nrm > max_norm:
            max_norm = nrm
        if nsq > 1.0:
            hits += 1
            nsq = float(np.dot(x, x))
            x /= math.sqrt(nsq)
            due = t + 1
        if t + 1 == next_snap:
            snaps[spos] = x
            spos += 1
            due = t + 1
            next_snap = int(snap_times[spos]) if spos < snap_times.shape[0] else -1
    return errors, trace, max_norm, hits, snaps, fault
