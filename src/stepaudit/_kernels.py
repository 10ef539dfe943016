"""Hot descent loop for the max-of-linear family, in plain numpy.

The objective is ``max_k score_k(x)`` with ``score_k(x) = sum_{m<k} a_m x_m
- b_k x_k``.  Every coordinate ``k >= p`` (``p`` the length of the touched
prefix) is still zero, so its score is exactly that of ``p`` and the
minimal-index argmax among them is ``p``.  An exact step recomputes the
scores over ``[0, p]`` only (the product, a sequential ``cumsum`` and the
subtraction: a sequential prefix sum of a prefix has the same bits), takes
their argmax, updates the iterate with the plain expressions and decides
the projection from ``np.dot(x, x)``: bit for bit the step of a kernel that
recomputes every score over the whole vector, at O(p) cost plus the dot.

Block path.  On the lower-bound construction the fresh coordinate ``p``
wins every step.  After each exact recompute with ``p > 0``, the kernel
tries the next rows as one block: up to ``_BLOCK_STEPS`` of them, and never
past ``T`` or the next snapshot time.  Scores are linear in ``x``, so a
step with argmax ``i`` and stepsize ``eta`` moves them by known vectors:
score ``k < i`` by ``eta u_k`` with ``u = a*b - A2`` (``A2`` the exclusive
prefix sum of ``a**2``), score ``i`` by ``-eta d_i`` with ``d = A2 +
b**2``, and every score ``k > i`` by the one scalar ``eta u_i``;
``||x||^2`` moves by ``-2 eta score_i + eta**2 d_i``.  A Python-float loop
(``_block``) assumes ``p`` wins each row and tracks only the scalars: the
suffix score ``sfx``, ``||x||^2`` and two error bounds.  It gives up at the
first row whose ``||x||^2`` lies within ``1e-9`` plus its error bound of 1
or past it, where the exact dot or a projection must decide.

Error bounds.  With ``R = sqrt(D)``, ``D`` the largest ``|u_k|`` or
``d_k``, and ``coef = 8 (dim + 2 _BLOCK_STEPS) _EPS``, a tracked score
differs from the one an exact step would compute by at most ``tol = coef (2
R ||x|| + 3 D sum(eta))``, with ``||x||`` taken at the block's recompute and
the sum over the block's steps so far: both carry a sequential-sum error of
``dim`` roundings of terms below ``R ||x||``, and each tracked step adds a
few roundings of terms below ``eta D``.  ``nerr`` bounds the tracked
``||x||^2`` the same way, starting from ``coef ||x||^2``.  The constants
are generous: they only make a block give up or fail sooner.

Certificate.  The block is certified when, at every row ``r``, the tracked
scores pass ``sfx_r - max s(r) > 2 tol_r``.  Each tracked score lies within
``tol_r`` of the exact one, so a passing certificate makes the fresh
coordinate the exact minimal-index argmax at every block row.  The tracked
scores of the old coordinates are never formed; with all steps ``>= 0`` and
``E_r`` the exact sum of the block's steps before row ``r`` (``c_r`` their
float prefix sums), ``_certified`` bounds them:

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
``2`` leaves the real difference ``sfx_r - max s(r)`` above ``2 tol_r``.
The sum of the terms is ``(6m + 13) u Z (1 + 3%) <= (4m + 8) _EPS Z``; the
slack is twice that, ``8 (m + 2) _EPS Z``, plus ``1e-300`` for underflow.

A certified block writes its trace as a slice and then applies the
deferred iterate updates (``_flush``), each coordinate's operations in
their original order, so its trace, iterates and snapshots are bitwise
those of exact steps.  Up to ``_FLUSH_COLS`` touched coordinates the rows
go as one 2-d batch in a fixed buffer, folded column by column, which
saves the per-row call overhead; wider, each row runs the exact step's own
update (``_step_update``) in the kernel's O(dim) buffer, which keeps the
scratch fixed and, past a few thousand coordinates, costs less per cell
than the batch's 2-d products and fold.  The batch forms its products
with ``np.einsum``, which writes ``+0.0`` where a product is ``-0.0``.
That cannot change an iterate, because no entry of ``x`` is ever
``-0.0``: ``x`` starts at ``+0.0``, ``fl(x - y)`` is ``-0.0`` only if
``x`` is, ``fl(+0.0 + y)`` is ``+0.0`` for ``y = +-0.0``, and dividing by
the norm (above 1, and finite whenever blocks run) keeps the sign; so
``x - (+0.0)`` and ``x - (-0.0)`` agree.

A block's errors are the tracked ``sfx_r``, within ``tol_r`` of the exact
ones; the first is the exact recomputed score.  If the loop gives up, a
score or ``Z`` is not finite, a step is negative, or the certificate
fails, nothing is written and one exact step runs.  After
a failed certificate (a rival coordinate may keep winning), no block is
tried again before the next row that is a multiple of ``_BLOCK_STEPS``, so
a run tries at most one failing block per ``_BLOCK_STEPS`` rows.  With
``_BLOCK_STEPS = 0``, or when a weight or step sum is so large that a
tracked value could overflow, every step is exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = ["maxlinear_descent"]

_BLOCK_STEPS = 64  # the longest block; 0 turns the block path off
_FLUSH_COLS = 768  # the widest touched prefix a block updates in one batch; sizes its scratch
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

    Updates only the scalars (``abs(step)`` is ``step`` for the
    non-negative steps a certified block has).  Returns ``(fvs, tols, opened, nsq_max)``: per row the
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
            opened.append(sfx - step * di)  # the tracked score of p after its step
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
    """Whether the test ``sfx - max s > 2 tol`` holds at every block row.

    ``s[:p]`` holds the exact scores at the block's first row and ``st``
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


def _step_update(x, a, b, buf, i, step):
    """The iterate update of a step with argmax ``i``, without a temporary."""
    np.multiply(a[:i], step, out=buf[:i])
    np.subtract(x[:i], buf[:i], out=x[:i])  # x[:i] -= step * a[:i]
    x[i] += step * b[i]


def _flush(x, a, b, buf, scratch, p, st):
    """Apply a block's deferred iterate updates, each coordinate's in step order.

    Row ``r`` of the block did ``x[:p_r] -= eta_r a[:p_r]; x[p_r] += eta_r
    b[p_r]``.  Past ``scratch``'s width the rows run as those updates, one
    after another (``_step_update``).  Narrower, one batch does them all:
    row 0 of a packed ``(m + 1, p_end)`` view of ``scratch`` holds
    ``x[:p_end]``, row ``r + 1`` the terms row ``r`` subtracts, and
    ``np.subtract.reduce`` along axis 0 folds each column in row order
    (subtract does not reorder), so every coordinate sees the float
    operations of exact steps, up to the sign of zero terms (see the
    module docstring).  Returns ``p`` at each row (the argmax trace) and
    after the block.
    """
    m = st.shape[0]
    nz = st != 0.0
    ps = np.cumsum(nz)
    p_end = p + int(ps[-1])
    ps += p - nz  # p at each row
    if p_end > scratch.shape[1]:
        for i, step in zip(ps.tolist(), st.tolist()):
            _step_update(x, a, b, buf, i, step)
        return ps, p_end
    flat = scratch.reshape(-1)[: (m + 1) * p_end]
    blk = flat.reshape(m + 1, p_end)
    blk[0] = x[:p_end]
    np.einsum("i,j->ij", st, a[:p_end], out=blk[1:])
    if p_end > p:  # coordinates opened inside the block
        col = np.arange(p, p_end)
        np.copyto(blk[1:, p:], 0.0, where=np.less.outer(ps, col))  # rows before k opens leave it alone
        rows = np.flatnonzero(nz)  # row rows[j] opens p + j: x[k] += eta b[k], as x[k] - (-(eta b[k]))
        flat[(rows + 1) * p_end + col] = -(st[rows] * b[p:p_end])
    np.subtract.reduce(blk, axis=0, out=x[:p_end])
    return ps, p_end


def maxlinear_descent(a: np.ndarray, b: np.ndarray, eta: np.ndarray, snap_times: np.ndarray):
    """Run ``len(eta)`` projected subgradient steps on a max-of-linear objective.

    ``a`` and ``b`` are the construction weights (length ``dim``), ``eta``
    the stepsizes, and ``snap_times`` a sorted int64 array of iterate
    indices (in ``1..T``) to copy out.  Returns
    ``(errors, argmax_trace, max_norm, projection_hits, snapshots, fault_step)``
    where ``fault_step < 0`` means no numeric fault occurred.  Non-finite
    weights fault at step 0.  ``max_norm`` is the largest ``sqrt(np.dot(x,
    x))`` after an exact step's update, or the largest tracked norm in a
    block, within rounding of the exact one.
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
    s = np.empty(dim)  # exact scores of the touched prefix
    buf = np.empty(dim)  # products and prefix sums
    with np.errstate(all="ignore"):  # huge weights overflow here, but then blocks are off
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
    # increment can overflow (each is at most G^4); otherwise no block runs.
    G = (dim + 1.0) * (1.0 + w) * (1.0 + float(np.abs(eta).sum()))
    longest = _BLOCK_STEPS if G <= 2.0**200 else 0
    coef = 8.0 * (dim + 2 * _BLOCK_STEPS) * _EPS  # see the module docstring
    R = math.sqrt(D)

    # p <= T < dim: a step touches at most one fresh coordinate
    p = 0  # x[k] == 0 for every k >= p
    max_norm = 0.0
    hits = 0
    fault = -1
    spos = 0
    next_snap = int(snap_times[0]) if snap_times.shape[0] else -1
    eta_v, u_v, d_v = memoryview(eta), memoryview(u), memoryview(d)
    scratch = np.empty((_BLOCK_STEPS + 1, min(_FLUSH_COLS, dim)))  # the flush's fixed buffer
    t = 0
    retry = 0  # the first row at which a block may be tried
    while True:
        _exact_scores(a, b, x, p + 1, s, buf)
        end = min(t + longest, T)
        if 0 < next_snap < end:
            end = next_snap
        certified = False
        if p > 0 and end > t and t >= retry:
            sfx = float(s[p])
            nsq = float(np.dot(x, x))
            base = 2.0 * R * math.sqrt(nsq)
            rows = _block(t, end, p, sfx, nsq, coef * nsq, 0.0, coef * base, base, coef, D, eta_v, u_v, d_v)
            st = eta[t:end]
            if rows is not None:
                certified = _certified(s, u, buf, p, D, st, *rows[:3])
                if not certified:  # a rival wins: exact steps up to the next multiple of longest
                    retry = t - t % longest + longest
        if certified:
            trace[t:end], p = _flush(x, a, b, buf, scratch, p, st)
            errors[t - 1 : end - 1] = rows[0]
            max_norm = max(max_norm, math.sqrt(max(rows[3], 0.0)))  # sqrt is monotone
            t = end
        else:  # an exact step
            i = int(s[: p + 1].argmax())
            fv = float(s[i])
            trace[t] = i
            if t >= 1:
                errors[t - 1] = fv
            if not math.isfinite(fv):
                fault = t
                break
            if t == T:
                break
            step = float(eta[t])
            _step_update(x, a, b, buf, i, step)
            if i == p and step != 0.0:
                p += 1
            nsq = float(np.dot(x, x))
            nrm = math.sqrt(nsq)
            max_norm = max(max_norm, nrm)  # a NaN norm leaves max_norm unchanged
            if nsq > 1.0:
                hits += 1
                x /= nrm
            t += 1
        if t == next_snap:
            snaps[spos] = x
            spos += 1
            next_snap = int(snap_times[spos]) if spos < snap_times.shape[0] else -1
    return errors, trace, max_norm, hits, snaps, fault
