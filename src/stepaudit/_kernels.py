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
tries the next rows as one block: up to ``_BLOCK_ROWS`` (512) of them, and
never past ``T``, the next snapshot time or the next step that is not
positive, which runs as one exact step.  So row ``r`` of a block opens
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
``d_k``, and ``coef = 8 (dim + 2 m) _EPS`` for a block of at most ``m``
rows, a tracked score differs from the one an exact step would compute by
at most ``tol = coef (2 R ||x|| + 3 D sum(eta))``, with ``||x||`` taken at
the block's recompute and the sum over the block's steps so far.  The
``dim`` term covers the recomputed scores: each is a sequential sum of up
to ``dim`` products whose magnitudes add up to at most ``R ||x||`` (``sum
a_k^2 <= D``), so both the score a block starts from and the one an exact
step would compute carry ``dim`` roundings of terms below that.  The ``2
m`` term covers the rows: by row ``r < m`` the tracked score has taken
``r`` rounded additions and every touched iterate entry ``r`` rounded
updates, each off by ``u`` times a term below ``R ||x|| + D sum(eta)``,
since a step ``eta`` moves a score by at most ``eta D``.  A block takes ``m
= _BLOCK_ROWS``, its longest; the tail below, the one block that can be
longer, takes its own row count.  ``nerr`` bounds the tracked ``||x||^2``
the same way, starting from ``coef ||x||^2``.  The constants are generous:
they only make a block give up or fail sooner.

Certificate.  The block is certified when, at every row ``r``, the tracked
scores pass ``sfx_r - max s(r) > 2 tol_r``.  Each tracked score lies within
``tol_r`` of the exact one, so a passing certificate makes the fresh
coordinate the exact minimal-index argmax at every block row.  The tracked
scores of the old coordinates are never formed; with all steps ``> 0`` and
``E_r`` the exact sum of the block's steps before row ``r`` (``c_r`` their
float prefix sums), ``_certified`` bounds them:

- a coordinate ``k < p0`` (the old ones) has tracked score ``s_k(0) + E_r
  u_k`` plus rounding, and ``max_k (s_k(0) + E u_k)`` is convex in ``E``, so
  the chord from ``E = 0`` to ``E = E_B`` (the whole block) bounds it;
- coordinate ``k = p0 + o``, opened at row ``o``, starts at the float ``v
  = sfx_o - eta_o d_k`` the loop computes and then moves by ``u_k (E_r -
  E_{o+1}) <= max(u_k, 0) (E_B - E_{o+1})``; the running maximum of these
  bounds over the opened coordinates bounds them all.

Slack.  Let ``u = 2^-53`` (``_EPS = 2u``) and ``Z = max|s(0)| + max|sfx_r| +
max|v| + c_B D``, which bounds every score in the block and every
intermediate of the certificate (to a factor ``1 + 2 m _EPS``).  Over ``m``
rows (a tail's evaluation row included) a tracked score takes at most ``m``
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
``_BLOCK_STEPS`` rows through one fixed flat buffer, made at the first
flush, of ``_BLOCK_STEPS + 1`` rows of ``max(_FLUSH_COLS, _BLOCK_STEPS)``
cells (``dim`` cells where that is fewer); each batch below is a 2-d view
of it folded column by column, which saves the per-row call overhead.  A
chunk splits its columns, which keeps the bits as a coordinate's updates
read only that coordinate.  The ``k`` columns it opens go in one square
batch on the view that starts at them: a slice of one cached strict upper
triangle (``_TRIANGLE``, ``_BLOCK_STEPS`` square) zeroes the entries of
coordinates its rows have not opened yet, and the fresh entries go on the
batch's strided diagonal.  The old columns, which each of its rows
updates, go in unmasked tiles of ``_FLUSH_COLS`` columns while they span
at most four tiles (3,072 columns at the default sizes), and past that
row by row through views made once per chunk, two ufunc calls that cost
less per cell there.  The batches form their products with
``np.einsum``, which writes ``+0.0`` where a product is ``-0.0``.  That
cannot change an iterate, because no entry of ``x`` is ever ``-0.0``:
``x`` starts at ``+0.0``, ``fl(x - y)`` is ``-0.0`` only if ``x`` is,
``fl(+0.0 + y)`` is ``+0.0`` for ``y = +-0.0``, and dividing by the norm
(above 1, and finite whenever blocks run) keeps the sign; so ``x -
(+0.0)`` and ``x - (-0.0)`` agree.

A block's errors are the tracked ``sfx_r``, within ``tol_r`` of the exact
ones; the first is the exact recomputed score.  If row 0 gives up, a score
or ``Z`` is not finite, or the certificate fails, nothing is written and
one exact step runs; a block cut at a later row is certified and written
up to the cut, and the exact step runs there.  A block costs about the
same for any length, so after a failed certificate (a rival coordinate may
keep winning) or a cut (``||x||^2`` stays near 1 while the run projects),
no block is tried again before the next row that is a multiple of
``_BLOCK_STEPS`` (64): a run tries at most one such block per
``_BLOCK_STEPS`` rows.  With ``_BLOCK_STEPS = 0``, or when a weight or
step sum is so large that a tracked value could overflow, every step is
exact.

Tail block.  A run without snapshots reads its iterate only for the final
recompute of ``err(T)``, and flushing every block for it costs O(T^2).  So
where the block path is on, no snapshot is pending and no step in ``[t,
T)`` is not positive, the block tried at row ``t`` is first tried as the
tail, at most once per run: rows ``t..T``, where row ``T`` only evaluates.
It takes no step, so ``c_B`` is the sum of the real steps, the chord and
the opened coordinates' bounds reach row ``T`` at ``E_B``, and its tracked
error is the score after the last step, with ``tol`` from all the steps
and ``coef`` from the tail's ``T + 1 - t`` rows.  ``_tail`` runs
``_block`` on segments of ``_BLOCK_ROWS`` steps, each started from the
last one's scalars; a sequential sum split that way adds the same terms in
the same order, so the segments have the bits of one block and the
derivation above holds as for one block.  It writes the tracked errors
straight into ``errors`` and the score bounds into ``buf[p:]`` (``p <=
t``, so the ``T + 1 - t`` of them fit), and ``_certified`` checks them in
two segmented passes, ``c_B`` and ``Z`` first and then the rows, so the
scratch stays ``O(_BLOCK_ROWS)`` for any ``T``.  A certified tail writes
its trace and returns without a flush or a final recompute, with ``tol``
at row ``T`` as the bound on the distance of its ``err(T)`` from the
recomputed one; the iterate after row ``t`` is never formed.  A tail that
gives up or fails leaves the state as it was, the entries it wrote are
written again, and the run goes on with the bits it has without a tail.  A snapshot at
``T`` (``verify`` asks for one) keeps the tail off, so that run's
iterates, snapshots and ``err(T)`` are bitwise those of exact steps.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import InvalidParameterError, NumericFaultError

__all__ = ["maxlinear_descent"]

_BLOCK_ROWS = 512  # the longest block
_BLOCK_STEPS = 64  # the back-off interval after a block fails or gives up; 0 turns the block path off
_FLUSH_COLS = 768  # the flush's tile width; sizes its scratch
_EPS = float(np.finfo(np.float64).eps)
_TRIANGLE = np.less.outer(*2 * (np.arange(_BLOCK_STEPS, dtype=np.int16),))  # [r, j]: r < j, the flush's zeros


def _exact_scores(a, b, x, q, scores, cum):
    """Write ``score_k`` for ``k < q`` into ``scores[:q]``, summed sequentially."""
    np.multiply(a[:q], x[:q], out=scores[:q])
    cum[0] = 0.0
    np.add.accumulate(scores[: q - 1], out=cum[1:q])
    np.multiply(b[:q], x[:q], out=scores[:q])
    np.subtract(cum[:q], scores[:q], out=scores[:q])


def _running(v0, terms):
    """``v0`` and its sequential running sums with ``terms``: ``len(terms) + 1`` values."""
    return np.add.accumulate(np.concatenate(([v0], terms)))


def _block(t0, t1, p, sfx, nsq, nerr, eta_acc, tol, base, coef, D, eta_v, u_v, d_v):
    """Steps ``t0..t1-1`` as array recurrences, assuming the fresh coordinate wins.

    Every step is positive, so row ``r`` opens coordinate ``p + r``.
    ``eta_v``, ``u_v`` and ``d_v`` are arrays or memoryviews.  Updates only
    the scalars, each as one sequential ``np.add.accumulate`` over the
    terms a per-row loop adds (see the module docstring).  Returns
    ``(fvs, tols, nsq_max, carry)`` for the rows before the first one whose
    ``||x||^2`` needs the exact dot or a projection: per row the tracked
    error and score bound, the largest ``||x||^2``, and the arguments
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
    nsq_max = float(np.fmax.reduce(after[:g], initial=-math.inf))  # NaN rows never raise the loop's max
    carry = (float(fvs[g]), float(nsqs[g]), float(nerrs[g]), float(acc[g]), float(tols[g]))
    return fvs[:g], tols[:g], nsq_max, carry


def _certified(s, u, d, buf, p, D, st, fvs, tols):
    """Whether the test ``sfx - max s > 2 tol`` holds at every block row.

    ``s[:p]`` holds the exact scores at the block's first row, ``st`` the
    block's steps, and ``fvs`` and ``tols`` the rows' tracked errors and
    score bounds: one row per step, and for a tail one more, the
    evaluation row.  Both passes run in segments of ``_BLOCK_ROWS`` rows;
    see the module docstring for the bound and its slack.
    """
    n = fvs.shape[0]
    if not np.minimum.reduce(st) > 0.0:
        return False
    segments = [(r0, min(r0 + _BLOCK_ROWS, n)) for r0 in range(0, n, _BLOCK_ROWS)]
    # the first pass finds the sum of the steps and the largest |score| of each kind
    cB = zf = zo = 0.0
    for r0, r1 in segments:
        sk = st[r0:r1]  # a tail's last segment holds one step fewer than rows
        k = sk.shape[0]
        cB = float(_running(cB, sk)[k])
        zf = np.maximum(zf, np.maximum.reduce(np.abs(fvs[r0:r1])))
        opened = fvs[r0 : r0 + k] - sk * d[p + r0 : p + r0 + k]  # the tracked score of p + r after row r
        zo = np.maximum(zo, np.maximum.reduce(np.abs(opened), initial=0.0))
    old = s[:p]
    M0 = float(np.maximum.reduce(old))
    np.multiply(u[:p], cB, out=buf[:p])
    np.add(buf[:p], old, out=buf[:p])
    M1 = float(np.maximum.reduce(buf[:p]))
    Z = max(M0, -float(np.minimum.reduce(old))) + float(zf) + cB * D
    Z += float(zo)
    if not math.isfinite(Z):
        return False
    slack = 8.0 * (n + 2) * _EPS * Z + 1e-300
    c0, wtop = 0.0, -math.inf  # the steps before the segment; the opened scores' bound at its first row
    for r0, r1 in segments:
        sk = st[r0:r1]
        k = sk.shape[0]
        c = _running(c0, sk)  # the steps before each row, then after the segment's last step
        c0 = float(c[k])
        bound = M0 + (c[: r1 - r0] / cB) * (M1 - M0)  # the chord of a convex max
        w = fvs[r0 : r0 + k] - sk * d[p + r0 : p + r0 + k]
        w += np.maximum(u[p + r0 : p + r0 + k], 0.0) * (cB - c[1:])
        w = np.maximum.accumulate(np.concatenate(([wtop], w)))  # w[j] bounds the opened scores at row r0 + j
        wtop = float(w[k])
        np.maximum(bound, w[: r1 - r0], out=bound)
        np.subtract(fvs[r0:r1], bound, out=bound)
        if not (bound > (2.0 + 16.0 * _EPS) * tols[r0:r1] + slack).all():
            return False
    return True


def _tail(t, T, p, sfx, nsq, base, D, s, u, d, buf, eta, errors):
    """Rows ``t..T`` as one block whose row ``T`` only evaluates, or ``None``.

    Runs ``_block`` on segments of ``_BLOCK_ROWS`` steps, each continuing
    the last one's recurrences, writes the tracked errors into ``errors[t -
    1 : T]`` and the score bounds into ``buf[p : p + T + 1 - t]`` (``p <=
    t``, so they fit beside the chord's ``buf[:p]``), and certifies them.
    Returns ``(nsq_max, tol)``, the largest ``||x||^2`` and the bound on
    ``err(T)``, when every row is kept and certified; otherwise the caller
    goes on from the same state, and rewrites every entry written here.
    """
    n = T + 1 - t  # rows
    coef = 8.0 * (s.shape[0] + 2 * n) * _EPS  # see the module docstring
    carry = (sfx, nsq, coef * nsq, 0.0, coef * base)
    nsq_max = -math.inf
    for r0 in range(t, T, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, T)
        rows = _block(r0, r1, p + r0 - t, *carry, base, coef, D, eta, u, d)
        if rows is None or len(rows[0]) < r1 - r0:
            return None
        errors[r0 - 1 : r1 - 1] = rows[0]
        buf[p + r0 - t : p + r1 - t] = rows[1]
        nsq_max = max(nsq_max, rows[2])
        carry = rows[3]
    errors[T - 1] = carry[0]
    buf[p + n - 1] = carry[4]
    if not _certified(s, u, d, buf, p, D, eta[t:T], errors[t - 1 : T], buf[p : p + n]):
        return None
    return nsq_max, carry[4]


def _step_update(x, a, b, buf, i, step):
    """The iterate update of a step with argmax ``i``, without a temporary."""
    np.multiply(a[:i], step, out=buf[:i])
    np.subtract(x[:i], buf[:i], out=x[:i])  # x[:i] -= step * a[:i]
    x[i] += step * b[i]


def _batch(x, a, b, scratch, sc, w):
    """Chunk rows ``sc`` on ``x[:w]`` as one packed batch.

    Row 0 of a packed ``(k + 1, w)`` view of ``scratch`` holds ``x[:w]``,
    row ``r + 1`` the terms chunk row ``r`` subtracts, and
    ``np.subtract.reduce`` along axis 0 folds each column in row order
    (subtract does not reorder).  With ``b`` the batch is square (``w =
    k``) and chunk row ``r`` opens column ``r``; with ``b = None`` it is a
    tile of old columns, which every row updates.
    """
    k = sc.shape[0]
    blk = scratch[: (k + 1) * w].reshape(k + 1, w)
    blk[0] = x[:w]
    np.einsum("i,j->ij", sc, a[:w], out=blk[1:])
    if b is not None:
        np.copyto(blk[1:], 0.0, where=_TRIANGLE[:k, :k])  # chunk row r leaves column j alone for j > r
        # x[r] += eta b[r], as x[r] - (-(eta b[r])), on the diagonal
        fresh = scratch[k : (k + 1) * k : k + 1]
        np.multiply(sc, b[:k], out=fresh)
        np.multiply(fresh, -1.0, out=fresh)  # np.negative miscomputes some strided outputs
    np.subtract.reduce(blk, axis=0, out=x[:w])


def _flush(x, a, b, buf, scratch, p, st):
    """Apply a block's deferred iterate updates, each coordinate's in step order.

    Row ``r`` of the block did ``x[:p + r] -= eta_r a[:p + r]; x[p + r] +=
    eta_r b[p + r]``.  Each chunk of ``k <= _BLOCK_STEPS`` rows updates
    its old columns ``[0, q)`` in ``_FLUSH_COLS`` tiles while they span at
    most four, row by row past that, and then the ``k`` columns it opens
    in one square ``_batch`` on the view ``x[q:]`` (see the module
    docstring).  Per 64-row chunk a tile cell cost about 1 ns and a row 1.1
    us plus 0.55 ns a cell: rows won from 3,072 to 4,608 columns on.
    """
    for r0 in range(0, st.shape[0], _BLOCK_STEPS):
        sc = st[r0 : r0 + _BLOCK_STEPS]
        q = p + r0  # the old columns
        if q <= 4 * _FLUSH_COLS:
            for c0 in range(0, q, _FLUSH_COLS):
                _batch(x[c0:], a[c0:], None, scratch, sc, min(_FLUSH_COLS, q - c0))
        else:
            xo, ao, bo = x[:q], a[:q], buf[:q]
            for step in sc.tolist():
                np.multiply(ao, step, bo)
                np.subtract(xo, bo, xo)  # x[:q] -= step * a[:q]
        _batch(x[q:], a[q:], b[q:], scratch, sc, sc.shape[0])


def maxlinear_descent(a: np.ndarray, b: np.ndarray, eta: np.ndarray, snap_times: np.ndarray):
    """Run ``len(eta)`` projected subgradient steps on a max-of-linear objective.

    ``a`` and ``b`` are the construction weights (length ``dim``), ``eta``
    the stepsizes, and ``snap_times`` the sorted iterate indices (in
    ``1..T``) to copy out.  The run starts at the origin.
    Returns ``(errors, argmax_trace, max_norm, projection_hits, {t: x},
    err_bound)``: ``err_bound`` bounds ``errors[-1]``'s distance from the
    recomputed ``err(T)`` after a certified tail, and is ``0.0`` where
    ``err(T)`` is that recompute.
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
    s = np.empty(dim)  # exact scores of the touched prefix
    buf = np.empty(dim)  # products and prefix sums
    with np.errstate(all="ignore"):  # huge weights overflow here, but then blocks are off
        np.multiply(a, a, out=buf)
        s[0] = 0.0
        np.add.accumulate(buf[: dim - 1], out=s[1:])  # A2
        u = a * b
        u -= s
        d = b * b
        d += s
        D = max(float(np.maximum.reduce(d)), float(np.maximum.reduce(np.abs(u))))
    # With G below 2^200 no score, iterate entry, ||x||^2 or tracked
    # increment can overflow (each is at most G^4); otherwise no block runs.
    G = (dim + 1.0) * (1.0 + max(wa, wb)) * (1.0 + float(np.add.reduce(np.abs(eta))))
    longest = _BLOCK_ROWS if _BLOCK_STEPS and G <= 2.0**200 else 0
    coef = 8.0 * (dim + 2 * _BLOCK_ROWS) * _EPS  # see the module docstring
    R = math.sqrt(D)

    # p <= T < dim: a step touches at most one fresh coordinate
    p = 0  # x[k] == 0 for every k >= p
    max_norm = 0.0
    hits = 0
    pending = iter(np.asarray(snap_times, dtype=np.int64).tolist())
    next_snap = next(pending, -1)
    scratch = None  # the flush's fixed buffer, made at the first flush
    stops = np.flatnonzero(~(eta > 0.0)).tolist()  # the steps no block spans: zero, negative or NaN
    stops.append(T)
    t = 0
    retry = 0  # the first row at which a block may be tried
    tail = longest > 0  # one tail per run, tried where nothing stops a block before T
    while True:
        _exact_scores(a, b, x, p + 1, s, buf)
        stop = stops[bisect.bisect_left(stops, t)]
        end = min(t + longest, stop)
        if 0 < next_snap < end:
            end = next_snap
        certified = False
        if p > 0 and end > t and t >= retry:
            sfx = float(s[p])
            nsq = float(np.dot(x, x))
            base = 2.0 * R * math.sqrt(nsq)
            if tail and stop == T and next_snap < 0:
                tail = False
                done = _tail(t, T, p, sfx, nsq, base, D, s, u, d, buf, eta, errors)
                if done is not None:
                    trace[t:] = np.arange(p, p + T + 1 - t)
                    max_norm = max(max_norm, math.sqrt(max(done[0], 0.0)))
                    return errors, trace, max_norm, hits, snaps, done[1]
            rows = _block(t, end, p, sfx, nsq, coef * nsq, 0.0, coef * base, base, coef, D, eta, u, d)
            short = rows is None or len(rows[0]) < end - t  # ||x||^2 nears 1 at the first row left out
            if rows is not None:
                end = t + len(rows[0])
                st = eta[t:end]
                certified = _certified(s, u, d, buf, p, D, st, *rows[:2])
            if short or not certified:  # exact steps up to the next multiple of _BLOCK_STEPS
                stop = end if certified else t
                retry = stop - stop % _BLOCK_STEPS + _BLOCK_STEPS
        if certified:
            if scratch is None:
                scratch = np.empty((_BLOCK_STEPS + 1) * min(max(_FLUSH_COLS, _BLOCK_STEPS), dim))
            _flush(x, a, b, buf, scratch, p, st)
            trace[t:end] = np.arange(p, p + end - t)
            p += end - t
            errors[t - 1 : end - 1] = rows[0]
            max_norm = max(max_norm, math.sqrt(max(rows[2], 0.0)))  # sqrt is monotone
            t = end
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
