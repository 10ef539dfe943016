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

Block path.  On the lower-bound construction the fresh coordinate ``p``
wins every step, so between two recomputes the kernel first tries the
steps ``t0..due-1`` as one block (unless every step recomputes, and only
with ``p > 0`` and no snapshot before ``due``).  A Python-float loop
assumes ``p`` wins each row and updates only the scalars (suffix score,
``||x||^2`` and the two error bounds) with the per-step expressions in
their order; it gives up where ``||x||^2`` would need the exact dot or a projection.  The
block is then certified: at every row ``r``, with ``sfx_r``, ``tol_r`` and
the tracked scores ``s(r)`` as the per-step loop would hold them, its test
``sfx_r - max s(r) > 2 tol_r`` must pass.  With all steps ``>= 0`` and
``E_r`` the exact sum of the block's steps before row ``r`` (``c_r`` their
float prefix sums):

- a coordinate ``k < p0`` (the old ones) has tracked score ``s_k(0) + E_r
  u_k`` plus rounding, and ``max_k (s_k(0) + E u_k)`` is convex in ``E``, so
  the chord from ``E = 0`` to ``E = E_B`` (the whole block) bounds it;
- a coordinate opened at row ``o`` starts at the float ``v`` the loop
  computed and then moves by ``u_k (E_r - E_{o+1}) <= max(u_k, 0) (E_B -
  E_{o+1})``; the running maximum of these bounds over the opened
  coordinates bounds them all.

Slack.  Let ``u = 2^-53`` (``_EPS = 2u``) and ``Z = max|s(0)| + max|sfx_r|
+ max|v| + c_B D``, which bounds every score in the block and every
intermediate of the certificate (to a factor ``1 + 2 m _EPS``).  Over ``m``
rows a tracked score takes at most ``m`` rounded updates ``fl(s +
fl(u_k eta))``, each off by at most ``u (eta |u_k| + |s|)``: ``(m + 1) u Z``
in all.  ``|c_r - E_r| <= m u E_r``, so the chord's slope ``c_r / c_B`` is
off by ``(2m + 1) u``, its computed endpoint ``max(s + fl(c_B u))`` by ``(m
+ 2) u Z``, and with its four roundings the chord by at most ``(5m + 9) u
Z``; the opened coordinates' bound is off by less, ``(2m + 3) u Z``.  The
final float test ``sfx_r - bound_r > (2 + 16 _EPS) tol_r + slack`` rounds by
``2 u Z`` on the left, and passing it with ``(2 + 16 _EPS)`` instead of
``2`` leaves the exact difference above ``2 tol_r (1 + _EPS)``, where the
per-step loop's own ``fl(sfx_r - top) > 2 tol_r`` cannot round the other
way.  The sum of the terms is ``(6m + 13) u Z (1 + 3%) <= (4m + 8) _EPS Z``;
the slack is twice that, ``8 (m + 2) _EPS Z``, plus ``1e-300`` for underflow.

A certified block writes its trace and errors as slices (bitwise the
per-step values: the same floats from the same expressions) and applies the
deferred iterate updates in one batch, each coordinate's operations in
their original order (see ``_flush``), so the recompute at ``due`` sees the
same ``x``.  If the loop gives up, a score or ``Z`` is not finite, a step is
negative, or the certificate fails, nothing is written and the per-step
loop runs the interval unchanged.  Every output, each per-step error
included, is bitwise that of the per-step loop alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = ["maxlinear_descent", "RECOMPUTE_EVERY"]

RECOMPUTE_EVERY = 64
_BLOCK_STEPS = RECOMPUTE_EVERY  # the longest block; 0 turns the block path off
_FLUSH_COLS = 256  # columns per chunk of a block's batched iterate update
_EPS = float(np.finfo(np.float64).eps)


def _exact_scores(a, b, x, q, scores, cum):
    """Write ``score_k`` for ``k < q`` into ``scores[:q]``, summed sequentially."""
    np.multiply(a[:q], x[:q], out=scores[:q])
    cum[0] = 0.0
    np.cumsum(scores[: q - 1], out=cum[1:q])
    np.multiply(b[:q], x[:q], out=scores[:q])
    np.subtract(cum[:q], scores[:q], out=scores[:q])


def _block(t0, t1, p, sfx, nsq, nerr, eta_acc, tol, base, coef, D, eta_v, u_v, d_v):
    """Steps ``t0..t1-1`` on Python floats, assuming the fresh coordinate wins.

    Updates only the scalars, with the per-step loop's expressions in its
    order (``abs(step)`` is ``step`` for the non-negative steps a certified
    block has).  Returns ``(fvs, tols, opened, nsq_max)``: per row the
    tracked error and score bound, the score each opened coordinate starts
    with, and the largest ``||x||^2``; or ``None`` at the first row whose
    ``||x||^2`` needs the exact dot or a projection.
    """
    fvs, tols, opened = [], [], []
    nsq_max = -math.inf
    D3 = 3.0 * D
    for step in eta_v[t0:t1]:
        fv = sfx
        fvs.append(fv)
        tols.append(tol)
        di = d_v[p]
        if step != 0.0:
            opened.append(sfx - step * di)  # s[p] of the per-step loop
            sfx += step * u_v[p]
            p += 1
        ss = step * step
        nerr += 4.0 * step * tol + coef * (abs(nsq) + 2.0 * abs(step * fv) + ss * D)
        nsq = nsq - 2.0 * step * fv + ss * di
        eta_acc += step
        tol = coef * (base + D3 * eta_acc)
        if 1.0 - nsq <= 1e-9 + nerr + coef * abs(nsq):  # near 1 or past it
            return None
        if nsq > nsq_max:
            nsq_max = nsq
    return fvs, tols, opened, nsq_max


def _certified(s, u, buf, p, D, st, fvs, tols, opened):
    """Whether the per-step test ``sfx - top > 2 tol`` holds at every block row.

    ``s[:p]`` holds the tracked scores at the block's first row and ``st``
    the block's steps; see the module docstring for the bound and its slack.
    """
    m = st.shape[0]
    if not st.min() >= 0.0:
        return False
    c = np.zeros(m + 1)
    np.cumsum(st, out=c[1:])  # c[r]: the steps before row r
    cB = float(c[m])
    old = s[:p]
    M0 = float(old.max())
    if cB > 0.0:
        np.multiply(u[:p], cB, out=buf[:p])
        np.add(buf[:p], old, out=buf[:p])
        bound = M0 + (c[:m] / cB) * (float(buf[:p].max()) - M0)  # the chord of a convex max
    else:
        bound = np.full(m, M0)
    sf = np.array(fvs)
    Z = max(M0, -float(old.min())) + float(np.abs(sf).max()) + cB * D
    if opened:
        rows = np.flatnonzero(st)  # the rows that opened a coordinate
        v = np.array(opened)
        w = np.full(m, -math.inf)
        w[rows] = v + np.maximum(u[p : p + len(opened)], 0.0) * (cB - c[rows + 1])
        np.maximum.accumulate(w, out=w)
        np.maximum(bound[1:], w[:-1], out=bound[1:])
        Z += float(np.abs(v).max())
    if not math.isfinite(Z):
        return False
    slack = 8.0 * (m + 2) * _EPS * Z + 1e-300
    return bool(np.all(sf - bound > (2.0 + 16.0 * _EPS) * np.array(tols) + slack))


def _flush(x, a, b, scratch, p, st):
    """Apply a block's deferred iterate updates, each coordinate's in step order.

    Row ``r`` of the block did ``x[:p_r] -= eta_r a[:p_r]; x[p_r] += eta_r
    b[p_r]``.  ``np.subtract.reduce`` along axis 0 folds one column's terms
    in row order (subtract does not reorder), so every coordinate sees the
    same float operations as in the per-step loop.  Columns go through the
    fixed ``scratch`` buffer in chunks.  Returns ``p`` at each row (the
    argmax trace) and after the block.
    """
    m = st.shape[0]
    width = scratch.shape[1]
    for lo in range(0, p, width):  # every row moves the old coordinates
        hi = min(lo + width, p)
        blk = scratch[: m + 1, : hi - lo]
        blk[0] = x[lo:hi]
        np.multiply.outer(st, a[lo:hi], out=blk[1:])
        np.subtract.reduce(blk, axis=0, out=x[lo:hi])
    nz = st != 0.0
    ps = np.cumsum(nz)
    p_end = p + int(ps[-1])
    ps += p - nz  # p at each row
    if p_end > p:  # coordinates opened inside the block
        row_p = ps[:, None]
        col = np.arange(p, p_end)
        blk = scratch[: m + 1, : p_end - p]
        blk[0] = x[p:p_end]
        terms = blk[1:]
        np.multiply.outer(st, a[p:p_end], out=terms)
        terms[row_p < col] = 0.0  # rows before coordinate k opens leave it alone
        fresh = row_p == col  # x[k] += eta b[k], as x[k] - (-(eta b[k]))
        terms[fresh] = -np.multiply.outer(st, b[p:p_end])[fresh]
        np.subtract.reduce(blk, axis=0, out=x[p:p_end])
    return ps, p_end


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
    eta_v, u_v, d_v = memoryview(eta), memoryview(u), memoryview(d)
    scratch = np.empty((_BLOCK_STEPS + 1, min(_FLUSH_COLS, dim)))  # the flush's fixed buffer
    block_from = 0  # no block is tried before this step
    t = 0
    while True:
        if (
            block_from <= t < due
            and p > 0
            and every > 1
            and due - t <= _BLOCK_STEPS
            and not 0 < next_snap < due
        ):
            rows = _block(t, due, p, sfx, nsq, nerr, eta_acc, tol, base, coef, D, eta_v, u_v, d_v)
            st = eta[t:due]
            if rows is not None and _certified(s, u, buf, p, D, st, *rows[:3]):
                trace[t:due], p = _flush(x, a, b, scratch, p, st)
                errors[t - 1 : due - 1] = rows[0]
                nrm = math.sqrt(max(rows[3], 0.0))  # sqrt is monotone: the per-step maximum
                if nrm > max_norm:
                    max_norm = nrm
                t = due  # which recomputes every score from x
                if t == next_snap:
                    snaps[spos] = x
                    spos += 1
                    next_snap = int(snap_times[spos]) if spos < snap_times.shape[0] else -1
                continue
            block_from = due  # the per-step loop runs this interval
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
        t += 1
    return errors, trace, max_norm, hits, snaps, fault
