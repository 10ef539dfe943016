import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepaudit import _kernels, coupling_weights, engine, log_envelope, sqrt_decay
from stepaudit import schedules as sched
from stepaudit.errors import ConstructionError, InvalidParameterError
from stepaudit.harness import ExperimentSpec, Tolerances, _snapshot_grid, density_experiment
from stepaudit.instances import build_maxlinear, build_quadratic, build_vshape

NO_SNAPS = np.empty(0, dtype=np.int64)
REL = Tolerances().scalar_rel


def _reference_descent(a, b, eta, snap_times):
    """The plain kernel: every score recomputed over the full vector each step."""
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


def _generic(instance):
    """A copy with neither fast-path field, so ``engine.run`` takes the generic loop."""
    return dataclasses.replace(instance, kernel_data=None, scalar=None)


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _assert_matches_reference(a, b, eta, snap_times, pointwise=True):
    """Bitwise where the kernel promises it, within scalar_rel elsewhere.

    With ``pointwise=False`` the other errors are compared relative to the
    run's largest error: an error near a zero crossing keeps the absolute
    rounding of its much larger terms, in either kernel.
    """
    errors, trace, max_norm, hits, snaps, fault = _kernels.maxlinear_descent(a, b, eta, snap_times)
    r_errors, r_trace, r_max_norm, r_hits, r_snaps, r_fault = _reference_descent(a, b, eta, snap_times)
    assert fault == r_fault == -1
    assert trace.tobytes() == r_trace.tobytes()
    assert hits == r_hits
    assert snaps.tobytes() == r_snaps.tobytes()
    assert _bits(errors[-1]) == _bits(r_errors[-1])
    for t in snap_times:
        assert _bits(errors[t - 1]) == _bits(r_errors[t - 1])
    scale = np.abs(r_errors) if pointwise else np.abs(r_errors).max()
    assert np.all(np.abs(errors - r_errors) <= REL * scale)
    assert max_norm == pytest.approx(r_max_norm, rel=REL)
    return hits


@pytest.fixture
def weights():
    s = sqrt_decay(2, 1)
    a, b = coupling_weights(s, 48, log_envelope())
    return a, b, s.rates(48)


def test_shape_validation(weights):
    a, b, eta = weights
    with pytest.raises(InvalidParameterError):
        _kernels.maxlinear_descent(a[:-1], b, eta, np.empty(0, dtype=np.int64))
    with pytest.raises(InvalidParameterError):
        _kernels.maxlinear_descent(a, b, np.zeros(len(a)), np.empty(0, dtype=np.int64))


def test_fault_flag_on_nonfinite_weights(weights):
    a, b, eta = weights
    bad = b.copy()
    bad[0] = np.nan
    errors, trace, mx, hits, snaps, fault = _kernels.maxlinear_descent(
        a, bad, eta, np.empty(0, dtype=np.int64)
    )
    assert fault == 0


@pytest.mark.parametrize("which, index, value", [("a", 24, np.nan), ("b", -1, np.inf)])
def test_fault_at_step_zero(weights, which, index, value):
    a, b, eta = (w.copy() for w in weights)
    {"a": a, "b": b}[which][index] = value
    for kernel in (_kernels.maxlinear_descent, _reference_descent):
        with np.errstate(invalid="ignore"):
            assert kernel(a, b, eta, NO_SNAPS)[5] == 0


# positive stepsize tables with runs of zeros, magnitudes 1e-8 .. 1e3
_magnitudes = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)


def _table_strategy(max_blocks, max_len):
    return st.lists(
        st.one_of(
            st.lists(st.just(0.0), min_size=1, max_size=12),
            st.lists(_magnitudes, min_size=1, max_size=40),
        ),
        min_size=1,
        max_size=max_blocks,
    ).map(lambda blocks: [v for block in blocks for v in block][:max_len])


_tables = _table_strategy(12, 300)
_long_tables = _table_strategy(40, 512)


@settings(max_examples=40, deadline=None)
@given(_tables, st.integers(0, 2**32 - 1))
def test_construction_matches_reference(table, seed):
    s = sched.from_table(table + [1.0])
    T = len(table)
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.unique(np.random.default_rng(seed).integers(1, T + 1, 3))
    _assert_matches_reference(a, b, s.rates(T), snaps)


def test_construction_crossing_the_ball_boundary():
    # wild magnitudes push the construction out of the ball; on this table
    # ||x||^2 lands within rounding of 1, where only the exact dot decides
    rng = np.random.default_rng(182)
    table = 10.0 ** rng.uniform(-8, 3, 40) * (rng.uniform(size=40) > 0.2)
    s = sched.from_table(np.append(table, 1.0))
    a, b = coupling_weights(s, 40, log_envelope())
    assert _assert_matches_reference(a, b, s.rates(40), NO_SNAPS) >= 1
    _assert_block_path_bitwise(a, b, s.rates(40), NO_SNAPS)  # blocks give up where the dot decides


@pytest.mark.parametrize("scale", [1e100, sched.MAX_STEP])
def test_huge_stepsizes_match_reference(scale):
    # sum(eta) this large could overflow tracked scores, so every step recomputes
    s = sched.constant(scale)
    a, b = coupling_weights(s, 40, log_envelope())
    assert _assert_matches_reference(a, b, s.rates(40), np.array([20], dtype=np.int64)) >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_projecting_runs_match_reference(T, seed):
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-2, 1, T + 1)
    b = 10.0 ** rng.uniform(-2, 1, T + 1)
    eta = rng.uniform(0.0, 2.0, T) * (rng.uniform(size=T) > 0.1)  # about 10% zero steps
    eta[0] = 2.0 / b[0]  # the first step leaves the unit ball
    snaps = np.unique(rng.integers(1, T + 1, 3))
    assert _assert_matches_reference(a, b, eta, snaps, pointwise=False) >= 1
    _assert_block_path_bitwise(a, b, eta, snaps)


def test_long_horizon_matches_generic_loop():
    # many recompute intervals; the generic loop is an independent oracle
    T = 1000
    s = sqrt_decay(2, 1)
    built = build_maxlinear(s, T, log_envelope())
    times = [1, 2, T // 2, T]
    fast = engine.run(built.convex, s, T, snapshots=times)
    slow = engine.run(_generic(built.convex), s, T, snapshots=times)
    for t in times:
        assert fast.snapshots[t].tobytes() == slow.snapshots[t].tobytes()
        assert _bits(fast.error_at(t)) == _bits(slow.error_at(t))
    assert np.all(np.abs(fast.errors - slow.errors) <= REL * np.abs(slow.errors))
    # per-t density at t = T is the run built for T; single-run reads its last error
    single = density_experiment(ExperimentSpec(s, [T], families=("maxlinear",)), [0.0])
    assert _bits(single.profiles[T][T - 1]) == _bits(fast.errors[T - 1])
    # both modes in full past two recompute intervals
    spec = ExperimentSpec(s, [130], families=("maxlinear",))
    per_t = density_experiment(spec, [0.0], per_t=True)
    single = density_experiment(spec, [0.0])
    assert _bits(per_t.profiles[130][129]) == _bits(single.profiles[130][129])


# -- the block path against exact steps ---------------------------------------


@contextlib.contextmanager
def _certificates():
    """Record the result of every block certificate the kernel computes."""
    results = []
    certified = _kernels._certified

    def counted(*args):
        results.append(certified(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_certified", counted)
        yield results


@contextlib.contextmanager
def _flushes(cols=None):
    """Record ``(p_end, rows, rows run by _step_update)`` for every block flush.

    With ``cols`` set, a block batches at most ``cols`` touched coordinates
    (``_FLUSH_COLS`` is read when the kernel allocates its scratch buffer).
    """
    log = []
    calls = [0]
    flush, update = _kernels._flush, _kernels._step_update

    def counted_update(*args):
        calls[0] += 1
        return update(*args)

    def counted_flush(*args):
        before = calls[0]
        flush(*args)
        p, st = args[5], args[6]
        log.append((p + len(st), len(st), calls[0] - before))

    with pytest.MonkeyPatch.context() as mp:
        if cols is not None:
            mp.setattr(_kernels, "_FLUSH_COLS", cols)
        mp.setattr(_kernels, "_step_update", counted_update)
        mp.setattr(_kernels, "_flush", counted_flush)
        yield log


def _wide_rows(log, cols):
    """Check each flush took the regime its width selects; count the per-row ones."""
    width = _kernels._FLUSH_COLS if cols is None else cols
    for p_end, rows, by_row in log:
        assert by_row == (rows if p_end > width else 0)
    return sum(by_row for _, _, by_row in log)


@contextlib.contextmanager
def _blocks():
    """Record ``(t0, t1)`` of the rows every block keeps; fail on a step that is not positive."""
    spans = []
    block = _kernels._block

    def recorded(t0, t1, *args):
        assert (np.asarray(args[-3])[t0:t1] > 0.0).all()
        rows = block(t0, t1, *args)
        if rows is not None:
            spans.append((t0, t0 + len(rows[0])))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_block", recorded)
        yield spans


def _per_step(a, b, eta, snap_times):
    """The kernel with the block path turned off."""
    with pytest.MonkeyPatch.context() as mp, _certificates() as results:
        mp.setattr(_kernels, "_BLOCK_STEPS", 0)
        out = _kernels.maxlinear_descent(a, b, eta, snap_times)
    assert not results
    return out


def _assert_block_path_bitwise(a, b, eta, snap_times):
    """Blocks off: the reference bit for bit.  Blocks on: bitwise where promised.

    A block reports tracked errors and ``||x||^2``, so the other errors and
    ``max_norm`` agree within ``scalar_rel`` of the blocks-off kernel.
    """
    errors, trace, max_norm, hits, snaps, fault = _kernels.maxlinear_descent(a, b, eta, snap_times)
    p_out = _per_step(a, b, eta, snap_times)
    for got, want in zip(p_out, _reference_descent(a, b, eta, snap_times)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    p_errors, p_trace, p_max_norm, p_hits, p_snaps, p_fault = p_out
    assert trace.tobytes() == p_trace.tobytes()
    assert hits == p_hits
    assert snaps.tobytes() == p_snaps.tobytes()
    assert fault == p_fault
    assert _bits(errors[-1]) == _bits(p_errors[-1])
    for t in snap_times:
        assert _bits(errors[t - 1]) == _bits(p_errors[t - 1])
    assert np.all(np.abs(errors - p_errors) <= REL * np.abs(p_errors))
    assert max_norm == pytest.approx(p_max_norm, rel=REL)
    return trace


# both flush regimes: at the default width only prefixes past 768 run row by
# row, at width 3 nearly every flushed row runs the exact step's update
_WIDTHS = (None, 3)


@settings(max_examples=40, deadline=None)
@given(_long_tables, st.integers(0, 2**32 - 1))
def test_block_path_matches_per_step_on_construction(table, seed):
    s = sched.from_table(table + [1.0])
    T = len(table)
    a, b = coupling_weights(s, T, log_envelope())
    rng = np.random.default_rng(seed)
    # up to three times, most of them inside a recompute interval
    snaps = np.unique(rng.integers(1, T + 1, int(rng.integers(0, 4))))
    for cols in _WIDTHS:
        with _flushes(cols) as log:
            _assert_block_path_bitwise(a, b, s.rates(T), snaps)
        _wide_rows(log, cols)


def test_every_block_certified_on_the_staircase(monkeypatch):
    # the construction's fresh coordinate wins every step: no block falls back
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 64)
    s = sqrt_decay(2, 1)
    T = 1000
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.array([1, 70, 500, 999], dtype=np.int64)
    for cols in _WIDTHS:
        with _certificates() as results, _flushes(cols) as log:
            trace = _assert_block_path_bitwise(a, b, s.rates(T), snaps)
        assert len(results) > 10 and all(results)
        assert trace.tobytes() == np.arange(T + 1).tobytes()
        wide, flushed = _wide_rows(log, cols), sum(rows for _, rows, _ in log)
        # p passes the default width of 768 at t = 768, and width 3 at once
        assert (0 < wide < flushed) if cols is None else (wide == flushed)


def test_every_long_block_certified_on_the_staircase():
    # at the default length a block runs to the next snapshot time or T:
    # [1, 70), [70, 500), [500, 999) and [999, 1000)
    s = sqrt_decay(2, 1)
    T = 1000
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.array([1, 70, 500, 999], dtype=np.int64)
    with _certificates() as results, _flushes() as log:
        trace = _assert_block_path_bitwise(a, b, s.rates(T), snaps)
    assert results == [True] * 4
    assert trace.tobytes() == np.arange(T + 1).tobytes()
    assert [rows for _, rows, _ in log] == [69, 430, 499, 1]
    # the first two stay within 768 touched coordinates, the last two run row by row
    assert _wide_rows(log, None) == 500


def _old_rival(T=40, slope=0.1):
    # coordinate 0 rises by eta a[0] b[0] per step while the fresh score
    # barely moves (a b - A2 is 0.01 for k >= 1) and stays above coordinate
    # 0's score at the block's start: only the chord sees 0 win at t = 4
    a = np.full(T + 1, 0.1)
    b = 10.0 + slope * np.arange(T + 1)
    a[0], b[0] = 1.0, 1.0
    return a, b, np.full(T, 1e-3), [0, 1, 2, 3, 0]


def _fading_rival():
    # as the old rival, but b rises by 0.3 per coordinate, so a b - A2 =
    # 0.01 + 0.02 k passes a[0] b[0] = 1 at k = 50: the fresh scores pull
    # away, coordinate 0 stops winning, and the later blocks are certified
    return _old_rival(300, slope=0.3)


def _opened_rival():
    # a[1] = 3 pushes every later fresh score down by 9 eta per step, while
    # coordinate 1, opened at t = 1 inside the first block, rises; b[0] =
    # 100 keeps coordinate 0 far below for the whole block
    T = 40
    a = np.full(T + 1, 0.1)
    b = np.full(T + 1, 0.1)
    a[0], b[0] = 0.01, 100.0
    a[1], b[1] = 3.0, 1.0
    return a, b, np.full(T, 1e-3), [0, 1, 2, 1]


@pytest.mark.parametrize("case", [_old_rival, _opened_rival, _fading_rival])
def test_block_falls_back_when_a_rival_wins(case):
    # the certificate of the first block fails and the per-step loop runs it
    a, b, eta, head = case()
    for cols in _WIDTHS:
        with _certificates() as results, _flushes(cols) as log:
            trace = _assert_block_path_bitwise(a, b, eta, NO_SNAPS)
        assert results[0] is False
        assert trace[: len(head)].tolist() == head  # every step is positive: a fresh trace counts up
        # only the fading rival leaves rows for a later block (the others
        # back off past T); its blocks start at p = 52, past width 3
        wide = _wide_rows(log, cols)
        assert bool(log) == (case is _fading_rival)
        assert (wide > 0) == (bool(log) and cols == 3)


def test_failed_certificate_backs_off_to_the_next_boundary():
    # stretched, the old rival wins hundreds of rows; after each failed
    # certificate the kernel steps exactly to the next multiple of
    # _BLOCK_STEPS, so it tries at most one block per interval (839 without)
    T = 2000
    a, b, eta, _ = _old_rival(T)
    with _certificates() as results:
        trace = _assert_block_path_bitwise(a, b, eta, NO_SNAPS)
    assert np.count_nonzero(trace == 0) > 600
    assert results and not any(results)
    assert len(results) <= T // _kernels._BLOCK_STEPS + 1


def test_block_refuses_negative_steps(weights):
    # the chord needs the cumulative step to grow: a block never spans a
    # step that is not positive, so negative steps all run exact
    a, b, eta = weights
    with _certificates() as results:
        _assert_block_path_bitwise(a, b, -eta, NO_SNAPS)
    assert results == []
    # the certificate refuses them too; the same rows pass with both steps positive
    s, u, d, buf = np.array([-1.0]), np.zeros(3), np.full(3, 5e3), np.empty(3)
    rows = (np.zeros(2), np.zeros(2))  # errors, score bounds; the opened scores are -5
    assert _kernels._certified(s, u, d, buf, 1, 1.0, np.array([1e-3, 1e-3]), *rows)
    for steps in ([1e-3, -1e-3], [1e-3, 0.0]):
        assert not _kernels._certified(s, u, d, buf, 1, 1.0, np.array(steps), *rows)


def _block_reference(t0, t1, p, sfx, nsq, nerr, eta_acc, tol, base, coef, D, eta_v, u_v, d_v):
    """``_kernels._block`` as a loop over Python floats, giving up on the whole block."""
    fvs, tols = [], []
    nsq_max = -math.inf
    D3 = 3.0 * D
    for step in eta_v[t0:t1]:
        fv = sfx
        fvs.append(fv)
        tols.append(tol)
        di = d_v[p]
        sfx += step * u_v[p]  # every step opens p
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
    return fvs, tols, nsq_max


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, _kernels._BLOCK_ROWS),
    st.integers(0, 3),
    st.floats(-4.0, 0.0),
    st.integers(0, 2**32 - 1),
)
def test_block_matches_the_reference_loop(m, p, log_step, seed):
    # positive steps up to 10^log_step; the larger ones carry ||x||^2 to 1
    # within the block, where it gives up part of the way
    rng = np.random.default_rng(seed)
    t0 = int(rng.integers(0, 4))
    eta = 10.0 ** rng.uniform(log_step - 2.0, log_step, t0 + m)
    u = rng.uniform(-1.0, 1.0, p + m + 1)
    d = rng.uniform(0.0, 2.0, p + m + 1)
    sfx, nsq = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)
    base, eta_acc = rng.uniform(0.0, 4.0), rng.uniform(0.0, 1.0)
    coef, D = 10.0 ** rng.uniform(-16, -12), max(float(np.abs(u).max()), float(d.max()))
    # the kernel starts at eta_acc = 0 with nerr and tol from nsq and base; any start must match
    nerr, tol = coef * nsq * rng.uniform(1.0, 2.0), coef * base * rng.uniform(1.0, 2.0)
    args = (p, sfx, nsq, nerr, eta_acc, tol, base, coef, D)
    views = tuple(memoryview(v) for v in (eta, u, d))
    got = _kernels._block(t0, t0 + m, *args, eta, u, d)
    rows = 0 if got is None else len(got[0])
    if got is not None:
        for have, want in zip(got, _block_reference(t0, t0 + rows, *args, *views)):
            assert _bits(have) == _bits(want)
    if rows < m:  # the loop gives up at the first row dropped
        assert _block_reference(t0, t0 + rows + 1, *args, *views) is None


@pytest.mark.parametrize("nsq, gives_up", [(0.5, False), (1.0 - 1e-10, True), (1.0 + 1e-10, True)])
def test_block_gives_up_where_the_norm_needs_the_dot(nsq, gives_up):
    # zero steps keep ||x||^2; within 1e-9 of 1 the per-step loop takes the exact dot
    zeros, ones = memoryview(np.zeros(4)), memoryview(np.ones(4))
    rows = _kernels._block(0, 2, 1, 0.0, nsq, 0.0, 0.0, 0.0, 0.0, 1e-16, 1.0, zeros, ones, ones)
    assert (rows is None) == gives_up


def test_block_gives_up_midway_and_backs_off():
    # at three times the headline steps ||x||^2 reaches 1 inside the first
    # block: it keeps the rows before that, exact steps project from there,
    # and each later block waits for the next multiple of _BLOCK_STEPS
    s = sqrt_decay(2, 1)
    T = 300
    a, b = coupling_weights(s, T, log_envelope())
    starts = []
    block = _kernels._block

    def recorded(t0, *args):
        starts.append(t0)
        return block(t0, *args)

    with pytest.MonkeyPatch.context() as mp, _certificates() as results, _flushes() as log:
        mp.setattr(_kernels, "_block", recorded)
        _assert_block_path_bitwise(a, b, 3.0 * s.rates(T), NO_SNAPS)
    assert results == [True] and len(log) == 1
    rows = log[0][1]
    assert 0 < rows < T - 1  # the first block would run [1, T)
    stop = 1 + rows  # the exact step that projects
    steps = _kernels._BLOCK_STEPS
    assert starts == [1] + list(range(stop - stop % steps + steps, T, steps))


def test_block_gives_up_with_the_loops_rounding():
    # a zero step keeps ||x||^2 = 0.5 and adds coef * 0.5 = 3e-17 to nerr;
    # across these nerr the test 0.5 <= (1e-9 + nerr) + 3e-17 flips, and
    # at one of them the grouping nerr + (3e-17 + 1e-9) would decide otherwise
    zeros, ones = np.zeros(2), np.ones(2)
    views = (memoryview(zeros), memoryview(ones), memoryview(ones))
    decided = set()
    for k in range(-40, 40):
        nerr = 0.5 - 1e-9 - 6e-17 + k * 2.0**-54
        args = (0, 1, 0, 0.0, 0.5, nerr, 0.0, 0.0, 0.0, 6e-17, 1.0)
        gave_up = _block_reference(*args, *views) is None
        assert (_kernels._block(*args, zeros, ones, ones) is None) == gave_up
        decided.add(gave_up)
    assert decided == {False, True}


def test_block_skips_a_nan_norm_as_the_loop_does():
    # a NaN ||x||^2 never gives up and never raises the largest norm
    steps, ones = np.full(3, 1e-3), np.ones(3)
    args = (0, 2, 1, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0, 1e-16, 1.0)
    want = _block_reference(*args, memoryview(steps), memoryview(ones), memoryview(ones))
    assert want[2] == -math.inf
    for have, expected in zip(_kernels._block(*args, steps, ones, ones), want):
        assert _bits(have) == _bits(expected)


@contextlib.contextmanager
def _chunks():
    """Record the rows of every batched chunk.

    The flush zeroes the entries before each opening through a slice of
    the cached triangle.  ``_flushes(cols)`` sets the width.
    """
    log = []

    class Triangle(np.ndarray):
        def __getitem__(self, key):
            log.append(key[0].stop)
            return np.asarray(self)[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_TRIANGLE", _kernels._TRIANGLE.view(Triangle))
        yield log


@pytest.mark.parametrize("T, sizes", [(7, [6]), (193, [64] * 3), (194, [64] * 3 + [1]), (199, [64] * 3 + [6])])
def test_all_open_chunks_match_per_step(T, sizes):
    # a scratch of 65 rows of dim = T + 1 cells splits the block [1, T) into
    # chunks of up to 64 rows; the one that ends at the block's end has 64,
    # 1 or 6 rows.  At T = 7 the diagonal's stride is 8 elements, where
    # np.negative(v, out=v) miscomputes.
    s = sqrt_decay(2, 1)
    a, b = coupling_weights(s, T, log_envelope())
    with _chunks() as log, _flushes(T + 1) as flushes:
        trace = _assert_block_path_bitwise(a, b, s.rates(T), NO_SNAPS)
    assert trace.tobytes() == np.arange(T + 1).tobytes()
    assert [rows for _, rows, _ in flushes] == [T - 1]
    assert log == sizes


def test_construction_takes_the_all_open_path():
    # at the default sizes both blocks of a dim 641 run batch their rows in chunks
    s = sqrt_decay(2, 1)
    T = 640
    a, b = coupling_weights(s, T, log_envelope())
    with _chunks() as log, _flushes() as flushes:
        _assert_block_path_bitwise(a, b, s.rates(T), np.array([320], dtype=np.int64))
    assert [rows for _, rows, _ in flushes] == [319, 320]
    assert log == [129] * 2 + [61] + [64] * 5


def test_chunks_with_zero_steps_match_per_step():
    # zero steps every third row and a run of 140: every block stops before
    # a zero step, and on the construction the zero steps and row 0 are the
    # only rows that run exact
    T = 400
    eta = 1.0 / np.sqrt(np.arange(1.0, T + 2.0))
    eta[2::3] = 0.0
    eta[150:290] = 0.0
    eta[300:] = 1.0 / np.sqrt(np.arange(301.0, T + 2.0))
    s = sched.from_table(eta)
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.array([100, 399], dtype=np.int64)
    zeros = set(np.flatnonzero(eta[:T] == 0.0).tolist())
    for cols in _WIDTHS:
        with _blocks() as spans, _certificates() as results, _flushes(cols) as log:
            _assert_block_path_bitwise(a, b, s.rates(T), snaps)
        assert len(results) == len(spans) and all(results)
        assert set(range(T)).difference(*(range(*span) for span in spans)) == {0} | zeros
        assert sum(rows for _, rows, _ in log) == T - 1 - len(zeros)
        _wide_rows(log, cols)


@settings(max_examples=25, deadline=None)
@given(_long_tables)
def test_blocks_span_positive_steps_only(table):
    # tables with zero runs: _blocks fails on a block given a zero step
    s = sched.from_table(table + [1.0])
    T = len(table)
    a, b = coupling_weights(s, T, log_envelope())
    with _blocks():
        _assert_block_path_bitwise(a, b, s.rates(T), NO_SNAPS)


def test_block_scratch_is_fixed_size():
    # a block batches at most _FLUSH_COLS columns in a fixed buffer and runs
    # wider prefixes row by row in the kernel's own O(dim) buffer, never
    # one row of dim per step: the peak stays near those arrays at dim = 16385
    s = sqrt_decay(2, 1)
    a, b = build_maxlinear(s, 16384, log_envelope(8, 4)).convex.kernel_data
    eta = s.rates(16384)
    tracemalloc.start()
    try:
        _kernels.maxlinear_descent(a, b, eta, NO_SNAPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


# -- the scalar path of the 1-d families against the array oracle ----------


def _assert_scalar_matches_array(built, s, T, coord_tol):
    """Bitwise against the generic loop; within ``coord_tol`` of the closed form."""
    fast = engine.run(built.convex, s, T, snapshots=range(1, T + 1))
    slow = engine.run(_generic(built.convex), s, T, snapshots=range(1, T + 1))
    assert fast.errors.tobytes() == slow.errors.tobytes()
    assert fast.snapshots.keys() == slow.snapshots.keys()
    for t in fast.snapshots:
        assert fast.snapshots[t].tobytes() == slow.snapshots[t].tobytes()
    assert fast.projection_activations == slow.projection_activations
    assert _bits(fast.max_norm_seen) == _bits(slow.max_norm_seen)
    for t in _snapshot_grid(T):
        assert np.max(np.abs(fast.snapshots[t] - built.closed_form_iterate(t))) <= coord_tol
        assert abs(fast.error_at(t) - built.closed_form_error(t)) <= coord_tol
    return fast


@settings(max_examples=60, deadline=None)
@given(_long_tables)
def test_scalar_path_matches_array_oracle(table):
    s = sched.from_table(table + [1.0])
    tol = Tolerances()
    for build, coord_tol in ((build_vshape, tol.kink_abs), (build_quadratic, tol.coord_abs)):
        # at T = len(table) + 1 the exit step is the appended 1.0
        for T in (len(table), len(table) + 1):
            try:
                built = build(s, T)
            except (ConstructionError, InvalidParameterError):
                continue  # vshape needs T >= 2 and positive steps, quadratic a step sum >= 1/2
            _assert_scalar_matches_array(built, s, T, coord_tol)


def test_scalar_path_clamped_exit_step():
    # the exit step 3 overshoots the domain [-1, 1], so the run clamps at 1
    s = sched.from_table([0.5, 0.5, 3.0, 1.0])
    built = build_vshape(s, 3)
    rec = _assert_scalar_matches_array(built, s, 3, Tolerances().kink_abs)
    assert rec.projection_activations > 0
    assert rec.snapshots[3][0] == 1.0
    assert rec.max_norm_seen > 1.0
