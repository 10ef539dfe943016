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
tries the rows from ``t`` to the block's next stop as one block: the stop
is the first of the next step that is not positive (it runs as one exact
step), the next snapshot time and ``T``.  So row ``r`` of a block opens
coordinate ``p + r``.  Scores are linear in ``x``, so a step with argmax
``i`` and stepsize ``eta`` moves them by known vectors: score ``k < i`` by
``eta u_k`` with ``u = a*b - A2`` (``A2`` the exclusive prefix sum of
``a**2``), score ``i`` by ``-eta d_i`` with ``d = A2 + b**2``, and every
score ``k > i`` by the one scalar ``eta u_i``; ``||x||^2`` moves by ``-2
eta score_i + eta**2 d_i``.  ``_block`` assumes ``p`` wins each row and
tracks only the scalars: the suffix score ``sfx``, ``||x||^2`` and two
error bounds.  It keeps the rows before the first one whose ``||x||^2``
lies within ``1e-9`` plus its error bound of 1 or past it, where the exact
dot or a projection must decide; the block is cut there.

The tracked scalars have the bits of a loop over Python floats (kept in
the tests as the oracle), from a fixed number of numpy calls.  Each is a
recurrence ``v_{r+1} = v_r + term_r`` whose terms depend only on earlier
values, so the terms are formed elementwise with the loop's expressions
and grouping (float ``+`` and ``*`` commute, so only the grouping
matters), and one ``np.add.accumulate``, a sequential sum, adds them.
``sfx`` sums ``eta_r u_{p+r}``; ``||x||^2`` sums the interleaved ``-(2
eta_r) sfx_r`` and ``(eta_r eta_r) d_{p+r}``, since ``x + (-y)`` is
exactly ``x - y`` and negation commutes with rounding; ``tol`` is formed
elementwise from the step sum.

Error bounds.  With ``R = sqrt(D)``, ``D`` the largest ``|u_k|`` or
``d_k``, and ``coef = 8 (dim + 2 m) _EPS`` for the ``m`` rows up to a
block's stop, a tracked score differs from the one an exact step would
compute by at most ``tol = coef (2 R ||x|| + 3 D sum(eta))``, with
``||x||`` taken at the block's recompute and the sum over the block's
steps so far.  The ``dim`` term covers the recomputed scores: each is a sequential sum of up
to ``dim`` products whose magnitudes add up to at most ``R ||x||`` (``sum
a_k^2 <= D``), so both the score a block starts from and the one an exact
step would compute carry ``dim`` roundings of terms below that.  The ``2
m`` term covers the rows: by row ``r < m`` the tracked score has taken
``r`` rounded additions and every touched iterate entry ``r`` rounded
updates, each off by ``u`` times a term below ``R ||x|| + D sum(eta)``,
since a step ``eta`` moves a score by at most ``eta D``.  A block cut
before its stop keeps that ``m``, which only loosens its bounds.
``nerr`` bounds the tracked ``||x||^2`` the same way, starting from ``coef
||x||^2``.  The constants are generous: they only make a block give up or
fail sooner.

Certificate.  A row ``r`` passes when the tracked scores pass ``sfx_r -
max s(r) > 2 tol_r``.  Each tracked score lies within ``tol_r`` of the
exact one, so a passing row makes the fresh coordinate the exact
minimal-index argmax there.  The tracked scores of the old coordinates
are never formed; with all steps ``> 0`` and ``E_r`` the exact sum of the
block's steps before row ``r`` (``c_r`` their float prefix sums, ``B``
the block's last row), ``_certified`` bounds them:

- a coordinate ``k < p0`` (the old ones) has tracked score ``s_k(0) + E_r
  u_k`` plus rounding, and ``max_k (s_k(0) + E u_k)`` is convex in ``E``, so
  the chord from ``E = 0`` to ``E = E_B`` (the whole block) bounds it;
- coordinate ``k = p0 + o``, opened at row ``o``, starts at the float ``v
  = sfx_o - eta_o d_k`` the loop computes and then moves by ``u_k (E_r -
  E_{o+1}) <= max(u_k, 0) (E_B - E_{o+1})``; the running maximum of these
  bounds over the opened coordinates bounds them all.

``_certified`` returns how many leading rows pass, and the block keeps
them.  A prefix is sound: the chord over ``[0, E_B]`` and the opened
coordinates' bounds up to ``E_B`` bound the scores at every row ``r <= B``,
whatever the later rows do, and each row's test is one induction step (if
the fresh coordinate was the exact argmax at every row before ``r``, the
tracked scores at ``r`` are the ones bounded above).

Slack.  Let ``u = 2^-53`` (``_EPS = 2u``) and ``Z = max|s(0)| + max|sfx_r| +
max|v| + c_B D``, which bounds every score in the block and every
intermediate of the certificate (to a factor ``1 + 2 m _EPS``).  Over ``m``
rows (an evaluation row included) a tracked score takes at most ``m``
rounded updates ``fl(s + fl(u_k eta))``, each off by at most ``u (eta |u_k|
+ |s|)``: ``(m + 1) u Z`` in all.  ``|c_r - E_r| <= m u E_r``, so the chord's
slope ``c_r / c_B`` is off by ``(2m + 1) u``, its computed endpoint ``max(s
+ fl(c_B u))`` by ``(m + 2) u Z``, and with its four roundings the chord by
at most ``(5m + 9) u Z``; the opened coordinates' bound is off by less,
``(2m + 3) u Z``.  The final float test ``sfx_r - bound_r > (2 + 16 _EPS)
tol_r + slack`` rounds by ``2 u Z`` on the left, and passing it with ``(2 +
16 _EPS)`` instead of ``2`` leaves the real difference ``sfx_r - max s(r)``
above ``2 tol_r``.  The sum of the terms is ``(6m + 13) u Z (1 + 3%) <= (4m +
8) _EPS Z``; the slack is twice that, ``8 (m + 2) _EPS Z``, plus ``1e-300``
for underflow.

A certified block writes its trace as a slice and then applies the
deferred iterate updates (``_flush``), each coordinate's operations in
their original order, so its trace, iterates and snapshots are bitwise
those of exact steps.  The flush runs the block in chunks of at most
``_BLOCK_STEPS`` (64) rows and splits each chunk's columns, which keeps
the bits as a coordinate's updates read only that coordinate.  The old
columns ``[0, q)``, which each of its rows updates, go row by row through
views made once per chunk, two ufunc calls a row, at every ``q``.  The
``k`` columns it opens go in one square batch on the view that starts at
them: a ``(k + 1, k)`` view of a flat buffer of at most ``65 * 64``
cells, made once per flush and folded column by column, where a slice of
one cached strict upper triangle (``_TRIANGLE``, ``_BLOCK_STEPS`` square)
zeroes the entries of coordinates its rows have not opened yet and the
fresh entries go on the batch's strided diagonal.  The batch forms its
products with ``np.einsum``, which writes ``+0.0`` where a product is
``-0.0``.  That cannot change an iterate, because no entry of ``x`` is
ever ``-0.0``: ``x`` starts at ``+0.0``, ``fl(x - y)`` is ``-0.0`` only
if ``x`` is, ``fl(+0.0 + y)`` is ``+0.0`` for ``y = +-0.0``, and dividing
by the norm (above 1, and finite whenever blocks run) keeps the sign; so
``x - (+0.0)`` and ``x - (-0.0)`` agree.

A block's errors are the tracked ``sfx_r``, within ``tol_r`` of the exact
ones; the first is the exact recomputed score.  The block keeps the rows
before the first one that gives up or fails its certificate, and the exact
step runs there; if that is row 0, or a score or ``Z`` is not finite,
nothing is kept.  A block costs about as much as its rows up to the stop,
whatever it keeps, so after a cut (a rival coordinate may keep winning, or ``||x||^2`` stays near
1 while the run projects) no block is tried again before the next row that
is a multiple of ``_BLOCK_STEPS`` (64): a run tries at most one such block
per ``_BLOCK_STEPS`` rows.  With ``_BLOCK_STEPS = 0``, or when a weight or
step sum is so large that a tracked value could overflow, every step is
exact.

A block has no length cap.  ``_block`` and ``_certified`` run in segments
of ``_BLOCK_ROWS`` (1024) rows, each continuing the last one's sequential
sums, which adds the same terms in the same order, so the derivation above
holds for the whole block and the scratch stays ``O(_BLOCK_ROWS)``: about
fifteen arrays of a segment's length.  A run up to ``T = 1024`` tracks and
certifies its block from row 1 in one call each.  The scratch caps the
length: at dim 16385 a run that ends in a certified block peaks at 1.07 MB
of traced allocations, under the 8.5 arrays of ``dim`` floats (1.11 MB)
its test allows, and 2048-row segments would reach 1.22 MB.  The
rows go straight into arrays the run already holds: the tracked errors
into ``errors``, the score bounds into ``buf[p:]`` and each row's
``||x||^2`` into ``s[p + 1:]`` (``p <= t``, so they fit), so the largest
norm covers exactly the rows kept.  A block that reaches ``T`` with no
snapshot pending gets row ``T``, which only evaluates: it takes no step,
so the chord and the opened coordinates' bounds reach it at ``E_B``, and
its tracked error is the score after the last step.  If every row is kept,
the run returns without a flush or a final recompute, with ``tol`` at row
``T`` as the bound on the distance of its ``err(T)`` from the recomputed
one.  Otherwise the run flushes what it keeps and recomputes ``err(T)``
exactly, as it always does with a snapshot at ``T`` (``verify`` asks for
one), so then its iterates, snapshots and ``err(T)`` are bitwise those of
exact steps.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import InvalidParameterError, NumericFaultError

__all__ = ["maxlinear_descent"]

_BLOCK_ROWS = 1024  # the segment length of a block's tracking and certificate
_BLOCK_STEPS = 64  # the back-off interval after a block is cut; 0 turns the block path off
_EPS = float(np.finfo(np.float64).eps)
_TRIANGLE = np.less.outer(*2 * (np.arange(_BLOCK_STEPS, dtype=np.int16),))  # [r, j]: r < j, the flush's zeros


def _exact_scores(a, b, x, q, scores, cum):
    """Write ``score_k`` for ``k < q`` into ``scores[:q]``, summed sequentially."""
    np.multiply(a[:q], x[:q], out=scores[:q])
    cum[0] = 0.0
    if q > 1:
        np.add.accumulate(scores[: q - 1], out=cum[1:q])
    np.multiply(b[:q], x[:q], out=scores[:q])
    np.subtract(cum[:q], scores[:q], out=scores[:q])


def _running(v0, terms, op=np.add):
    """``v0`` and its sequential running sums (or ``op``'s) with ``terms``: ``len(terms) + 1`` values."""
    out = np.empty(terms.shape[0] + 1)
    out[0] = v0
    out[1:] = terms
    return op.accumulate(out, out=out)


def _block(t0, t1, p, sfx, nsq, nerr, eta_acc, tol, base, coef, D, eta_v, u_v, d_v):
    """Steps ``t0..t1-1`` as array recurrences, assuming the fresh coordinate wins.

    Every step is positive, so row ``r`` opens coordinate ``p + r``.
    ``eta_v``, ``u_v`` and ``d_v`` are arrays or memoryviews.  Updates only
    the scalars, each as one sequential ``np.add.accumulate`` over the
    terms a per-row loop adds (see the module docstring).  Returns
    ``(fvs, tols, nsqs, carry)`` for the rows before the first one whose
    ``||x||^2`` needs the exact dot or a projection: per row the tracked
    error, score bound and ``||x||^2`` after its step, and the arguments
    ``(sfx, nsq, nerr, eta_acc, tol)`` that continue the recurrences at
    the first row left out; or ``None`` when that is row 0.
    """
    st = np.asarray(eta_v)[t0:t1]
    u, d = np.asarray(u_v), np.asarray(d_v)
    m = st.shape[0]
    fvs = _running(sfx, st * u[p : p + m])  # sfx at the start of each row, then after the last
    acc = _running(eta_acc, st)  # the steps before each row, then all of them
    tols = coef * (base + (3.0 * D) * acc)
    tols[0] = tol
    ss = st * st
    w = np.empty(2 * m + 1)  # ||x||^2 = nsq - (2 step) fv + ss d_p at each row, as nsq + (-(2 step) fv)
    w[0] = nsq
    np.multiply(-2.0 * st, fvs[:m], out=w[1::2])
    np.multiply(ss, d[p : p + m], out=w[2::2])
    nsqs = np.add.accumulate(w)[::2]  # before each row, then after the last
    e = np.empty(m + 1)  # nerr, then its increment at each row
    e[0] = nerr
    e[1:] = (4.0 * st) * tols[:m] + coef * ((np.abs(nsqs[:m]) + 2.0 * np.abs(st * fvs[:m])) + ss * D)
    nerrs = np.add.accumulate(e)
    after = nsqs[1:]
    gave_up = 1.0 - after <= (1e-9 + nerrs[1:]) + coef * np.abs(after)  # near 1 or past it
    g = int(gave_up.argmax())  # the first row that gives up, or 0 when none does
    if not gave_up[g]:
        g = m
    if g == 0:
        return None
    carry = (float(fvs[g]), float(nsqs[g]), float(nerrs[g]), float(acc[g]), float(tols[g]))
    return fvs[:g], tols[:g], after[:g], carry


def _try_block(t, n, p, nsq, R, D, s, u, d, buf, eta, errors):
    """Track and certify the ``n`` rows of the block at row ``t``.

    Runs ``_block`` on segments of ``_BLOCK_ROWS`` steps, each continuing
    the last one's recurrences, and writes each row's tracked error into
    ``errors[t - 1:]``, its score bound into ``buf[p:]`` and its
    ``||x||^2`` into ``s[p + 1:]``.  The rows before the first one that
    gives up are certified, a last row ``T``, which only evaluates, with
    them when every step is tracked.  Returns ``(kept, tol, nsq_max)``:
    the leading rows that pass, the score bound after the last step
    tracked, and the largest ``||x||^2`` of the kept rows.
    """
    coef = 8.0 * (s.shape[0] + 2 * n) * _EPS  # see the module docstring
    base = 2.0 * R * math.sqrt(nsq)
    steps = min(n, eta.shape[0] - t)
    carry = (float(s[p]), nsq, coef * nsq, 0.0, coef * base)
    rows = 0
    while rows < steps:
        r1 = min(rows + _BLOCK_ROWS, steps)
        seg = _block(t + rows, t + r1, p + rows, *carry, base, coef, D, eta, u, d)
        if seg is None:
            break
        fvs, tols, nsqs, carry = seg
        g = fvs.shape[0]
        errors[t - 1 + rows : t - 1 + rows + g] = fvs
        buf[p + rows : p + rows + g] = tols
        s[p + 1 + rows : p + 1 + rows + g] = nsqs
        rows += g
        if rows < r1:
            break
    if rows == steps < n:  # the evaluation row
        errors[t - 1 + rows] = carry[0]
        buf[p + rows] = carry[4]
        rows += 1
    fvs, tols = errors[t - 1 : t - 1 + rows], buf[p : p + rows]
    kept = _certified(s, u, d, buf, p, D, carry[3], eta[t : t + rows], fvs, tols) if rows else 0
    nsq_max = float(np.fmax.reduce(s[p + 1 : p + 1 + min(kept, steps)], initial=-math.inf))  # NaN rows never raise it
    return kept, carry[4], nsq_max


def _certified(s, u, d, buf, p, D, cB, st, fvs, tols):
    """How many leading block rows pass the test ``sfx - max s > 2 tol``.

    ``s[:p]`` holds the exact scores at the block's first row, ``cB`` the
    sum of its steps ``st`` as ``_block`` carries it, and ``fvs`` and
    ``tols`` the rows' tracked errors and score bounds: one row per step,
    and one more where the last row only evaluates.  Both passes run in
    segments of ``_BLOCK_ROWS`` rows; see the module docstring for the
    bound, its slack and why a prefix of passing rows is certified.
    """
    n = fvs.shape[0]
    # extremes are read at argmax and argmin, which pick a NaN as a reduction does
    # at a fraction of its call cost; a zero extreme's sign never reaches a test
    if not st[st.argmin()] > 0.0:
        return 0
    segments = range(0, n, _BLOCK_ROWS)
    # the first pass finds the largest |score| of each kind
    zf = max(float(fvs[fvs.argmax()]), -float(fvs[fvs.argmin()]))  # NaN stays NaN
    zo = 0.0
    for r0 in segments:
        sk = st[r0 : r0 + _BLOCK_ROWS]  # one step fewer than rows in the last segment where the last row evaluates
        k = sk.shape[0]
        opened = fvs[r0 : r0 + k] - sk * d[p + r0 : p + r0 + k]  # the tracked score of p + r after row r
        zo = np.maximum.reduce(np.abs(opened), initial=zo)
    old = s[:p]
    M0 = float(old[old.argmax()])
    np.multiply(u[:p], cB, out=buf[:p])
    np.add(buf[:p], old, out=buf[:p])
    M1 = float(buf[buf[:p].argmax()])
    Z = max(M0, -float(old[old.argmin()])) + zf + cB * D
    Z += float(zo)
    if not math.isfinite(Z):
        return 0
    slack = 8.0 * (n + 2) * _EPS * Z + 1e-300
    c0, wtop = 0.0, -math.inf  # the steps before the segment; the opened scores' bound at its first row
    for r0 in segments:
        r1 = min(r0 + _BLOCK_ROWS, n)
        sk = st[r0:r1]
        k = sk.shape[0]
        c = _running(c0, sk)  # the steps before each row, then after the segment's last step
        c0 = float(c[k])
        bound = M0 + (c[: r1 - r0] / cB) * (M1 - M0)  # the chord of a convex max
        w = opened if len(segments) == 1 else fvs[r0 : r0 + k] - sk * d[p + r0 : p + r0 + k]
        w += np.maximum(u[p + r0 : p + r0 + k], 0.0) * (cB - c[1:])
        w = _running(wtop, w, np.maximum)  # w[j] bounds the opened scores at row r0 + j
        wtop = float(w[k])
        np.maximum(bound, w[: r1 - r0], out=bound)
        np.subtract(fvs[r0:r1], bound, out=bound)
        passed = bound > (2.0 + 16.0 * _EPS) * tols[r0:r1] + slack
        i = int(passed.argmin())  # the first row that fails, or 0 when none does
        if not passed[i]:
            return r0 + i
    return n


def _step_update(x, a, b, buf, i, step):
    """The iterate update of a step with argmax ``i``, without a temporary."""
    if i:
        np.multiply(a[:i], step, out=buf[:i])
        np.subtract(x[:i], buf[:i], out=x[:i])  # x[:i] -= step * a[:i]
    x[i] += step * b[i]


def _batch(x, a, b, scratch, sc):
    """Chunk rows ``sc`` on the ``k`` columns they open, ``x[:k]``, as one square batch.

    Row 0 of a packed ``(k + 1, k)`` view of ``scratch`` holds ``x[:k]``,
    row ``r + 1`` the terms chunk row ``r`` subtracts, with column ``r``
    opened by row ``r``, and ``np.subtract.reduce`` along axis 0 folds
    each column in row order (subtract does not reorder).
    """
    k = sc.shape[0]
    blk = scratch[: (k + 1) * k].reshape(k + 1, k)
    blk[0] = x[:k]
    np.einsum("i,j->ij", sc, a[:k], out=blk[1:])
    np.copyto(blk[1:], 0.0, where=_TRIANGLE[:k, :k])  # chunk row r leaves column j alone for j > r
    # x[r] += eta b[r], as x[r] - (-(eta b[r])), on the diagonal
    fresh = scratch[k : (k + 1) * k : k + 1]
    np.multiply(sc, b[:k], out=fresh)
    np.multiply(fresh, -1.0, out=fresh)  # np.negative miscomputes some strided outputs
    np.subtract.reduce(blk, axis=0, out=x[:k])


def _flush(x, a, b, buf, p, st):
    """Apply a block's deferred iterate updates, each coordinate's in step order.

    Row ``r`` of the block did ``x[:p + r] -= eta_r a[:p + r]; x[p + r] +=
    eta_r b[p + r]``.  Each chunk of ``k <= _BLOCK_STEPS`` rows updates
    its old columns ``[0, q)`` row by row, and then the ``k`` columns it
    opens in one square ``_batch`` on the view ``x[q:]`` (see the module
    docstring).
    """
    n = min(_BLOCK_STEPS, st.shape[0])
    scratch = np.empty((n + 1) * n)
    for r0 in range(0, st.shape[0], _BLOCK_STEPS):
        sc = st[r0 : r0 + _BLOCK_STEPS]
        q = p + r0  # the old columns
        xo, ao, bo = x[:q], a[:q], buf[:q]
        for step in sc.tolist():
            np.multiply(ao, step, bo)
            np.subtract(xo, bo, xo)  # x[:q] -= step * a[:q]
        _batch(x[q:], a[q:], b[q:], scratch, sc)


def maxlinear_descent(a: np.ndarray, b: np.ndarray, eta: np.ndarray, snap_times: np.ndarray):
    """Run ``len(eta)`` projected subgradient steps on a max-of-linear objective.

    ``a`` and ``b`` are the construction weights (length ``dim``), ``eta``
    the stepsizes, and ``snap_times`` the sorted iterate indices (in
    ``1..T``) to copy out.  The run starts at the origin.
    Returns ``(errors, argmax_trace, max_norm, projection_hits, {t: x},
    err_bound)``: ``err_bound`` bounds ``errors[-1]``'s distance from the
    recomputed ``err(T)`` after a certified block that reaches ``T``, and
    is ``0.0`` where ``err(T)`` is that recompute.
    As on the scalar path, a non-finite objective value raises
    :class:`NumericFaultError` naming its step; non-finite weights fault at
    step 0.  ``max_norm`` is the largest ``sqrt(np.dot(x, x))`` after an
    exact step's update, or the largest tracked norm in a block, within
    rounding of the exact one.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    eta = np.ascontiguousarray(eta, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameterError("weight arrays must be 1-d and equally sized")
    if eta.shape[0] >= a.shape[0]:
        raise InvalidParameterError("need one more weight than steps (dim = T + 1)")
    dim = a.shape[0]
    T = eta.shape[0]
    errors = np.empty(T)
    trace = np.zeros(T + 1, dtype=np.int64)
    snaps: dict[int, np.ndarray] = {}
    # a[dim - 1] never enters a score; the largest magnitudes are NaN or inf unless all are finite
    wa = float(np.maximum.reduce(np.abs(a[: dim - 1]), initial=0.0))
    wb = float(np.maximum.reduce(np.abs(b)))
    if not (math.isfinite(wa) and math.isfinite(wb)):
        raise NumericFaultError("non-finite objective value at step 0")

    x = np.zeros(dim)
    s = np.empty(dim)  # exact scores of the touched prefix; past it, a block's ||x||^2 rows
    buf = np.empty(dim)  # products and prefix sums
    with np.errstate(all="ignore"):  # huge weights overflow here, but then blocks are off
        np.multiply(a, a, out=buf)
        s[0] = 0.0
        np.add.accumulate(buf[: dim - 1], out=s[1:])  # A2
        u = a * b
        u -= s
        d = b * b
        d += s
        np.abs(u, out=buf)
        D = max(float(d[d.argmax()]), float(buf[buf.argmax()]))
    # With G below 2^200 no score, iterate entry, ||x||^2 or tracked
    # increment can overflow (each is at most G^4); otherwise no block runs.
    G = (dim + 1.0) * (1.0 + max(wa, wb)) * (1.0 + float(np.add.reduce(np.abs(eta))))
    blocks = _BLOCK_STEPS > 0 and G <= 2.0**200
    R = math.sqrt(D)

    # p <= T < dim: a step touches at most one fresh coordinate
    p = 0  # x[k] == 0 for every k >= p
    max_norm = 0.0
    hits = 0
    pending = iter(np.asarray(snap_times, dtype=np.int64).tolist() if len(snap_times) else ())
    next_snap = next(pending, -1)
    # the steps no block spans: zero, negative or NaN
    stops = [] if (eta > 0.0).all() else np.flatnonzero(~(eta > 0.0)).tolist()
    stops.append(T)
    t = 0
    retry = 0  # the first row at which a block may be tried
    while True:
        _exact_scores(a, b, x, p + 1, s, buf)
        stop = stops[bisect.bisect_left(stops, t)]
        if 0 < next_snap < stop:
            stop = next_snap
        kept = 0
        if blocks and p > 0 and stop > t and t >= retry:
            n = stop - t + (stop == T and next_snap < 0)  # a last row T only evaluates
            kept, tol, nsq_max = _try_block(t, n, p, float(np.dot(x, x)), R, D, s, u, d, buf, eta, errors)
            if kept < n:  # exact steps from the cut up to the next multiple of _BLOCK_STEPS
                retry = t + kept - (t + kept) % _BLOCK_STEPS + _BLOCK_STEPS
        if kept:
            max_norm = max(max_norm, math.sqrt(max(nsq_max, 0.0)))  # sqrt is monotone
            trace[t : t + kept] = np.arange(p, p + kept)
            if t + kept > T:  # every row up to the evaluation row T
                return errors, trace, max_norm, hits, snaps, tol
            _flush(x, a, b, buf, p, eta[t : t + kept])
            p += kept
            t += kept
        else:  # an exact step
            i = int(s[: p + 1].argmax())
            fv = float(s[i])
            trace[t] = i
            if t >= 1:
                errors[t - 1] = fv
            if not math.isfinite(fv):
                raise NumericFaultError(f"non-finite objective value at step {t}")
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
            snaps[t] = x.copy()
            next_snap = next(pending, -1)
    return errors, trace, max_norm, hits, snaps, 0.0
