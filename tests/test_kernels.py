import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepaudit import _kernels, coupling_weights, engine, instances, log_envelope, sqrt_decay
from stepaudit import schedules as sched
from stepaudit.errors import ConstructionError, InvalidParameterError, NumericFaultError
from stepaudit.harness import ExperimentSpec, Tolerances, _snapshot_grid, density_experiment
from stepaudit.instances import build_maxlinear, build_quadratic, build_vshape

from oracles import array_descent, reference_descent

NO_SNAPS = np.empty(0, dtype=np.int64)
REL = Tolerances().scalar_rel


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _same_snapshots(have, want):
    """Both ``{t: x}`` maps hold the same times and the same iterate bits."""
    return have.keys() == want.keys() and all(have[t].tobytes() == want[t].tobytes() for t in want)


def _assert_final_error(errors, want, bound, snap_times):
    """``err(T)`` bitwise where the run recomputes it, as a snapshot at ``T``
    makes it do; after a certified tail within the bound the run returns."""
    if len(errors) in snap_times:
        assert bound == 0.0
    if bound == 0.0:
        assert _bits(errors[-1]) == _bits(want[-1])
    else:
        assert abs(errors[-1] - want[-1]) <= bound


def _assert_matches_reference(a, b, eta, snap_times, pointwise=True):
    """Bitwise where the kernel promises it, within scalar_rel elsewhere.

    With ``pointwise=False`` the other errors are compared relative to the
    run's largest error: an error near a zero crossing keeps the absolute
    rounding of its much larger terms, in either kernel.
    """
    errors, trace, max_norm, hits, snaps, bound = _kernels.maxlinear_descent(a, b, eta, snap_times)
    r_errors, r_trace, r_max_norm, r_hits, r_snaps = reference_descent(a, b, eta, snap_times)
    assert trace.tobytes() == r_trace.tobytes()
    assert hits == r_hits
    assert _same_snapshots(snaps, r_snaps)
    _assert_final_error(errors, r_errors, bound, snap_times)
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
    with pytest.raises(NumericFaultError, match="^non-finite objective value at step 0$"):
        _kernels.maxlinear_descent(a, bad, eta, np.empty(0, dtype=np.int64))


@pytest.mark.parametrize("which, index, value", [("a", 24, np.nan), ("b", -1, np.inf)])
def test_fault_at_step_zero(weights, which, index, value):
    a, b, eta = (w.copy() for w in weights)
    {"a": a, "b": b}[which][index] = value
    for kernel in (_kernels.maxlinear_descent, reference_descent):
        with np.errstate(invalid="ignore"), pytest.raises(NumericFaultError, match="^non-finite objective value at step 0$"):
            kernel(a, b, eta, NO_SNAPS)


def test_fault_names_the_step_of_a_nan_iterate(weights):
    # a NaN step 3 makes every touched entry NaN: the first score read after it, at step 4, faults
    a, b, eta = weights
    eta = eta.copy()
    eta[3] = np.nan
    for kernel in (_kernels.maxlinear_descent, reference_descent):
        with np.errstate(invalid="ignore"), pytest.raises(NumericFaultError, match="^non-finite objective value at step 4$"):
            kernel(a, b, eta, np.array([2, 3], dtype=np.int64))


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
    # many recompute intervals; the full recompute is an independent oracle
    T = 1000
    s = sqrt_decay(2, 1)
    built = build_maxlinear(s, T, log_envelope())
    times = np.array([1, 2, T // 2, T])
    fast = engine.run(built.convex, s, T, snapshots=times)
    errors, _, _, _, snaps = reference_descent(built.a, built.b, s.rates(T), times)
    assert _same_snapshots(fast.snapshots, snaps)
    for t in times:
        assert _bits(fast.error_at(t)) == _bits(errors[t - 1])
    assert np.all(np.abs(fast.errors - errors) <= REL * np.abs(errors))
    # without a snapshot the run ends in a block that reaches T: err(T) within its bound of the recomputed one
    tail = engine.run(built.convex, s, T)
    assert fast.final_error_bound == 0.0 < tail.final_error_bound
    assert abs(tail.error_at(T) - fast.error_at(T)) <= tail.final_error_bound
    # per-t density at t = T is the run built for T; single-run reads its last error
    single = density_experiment(ExperimentSpec(s, [T], families=("maxlinear",)), [0.0])
    assert _bits(single.profiles[T][T - 1]) == _bits(tail.errors[T - 1])
    # both modes in full past two recompute intervals
    spec = ExperimentSpec(s, [130], families=("maxlinear",))
    per_t = density_experiment(spec, [0.0], per_t=True)
    single = density_experiment(spec, [0.0])
    assert _bits(per_t.profiles[130][129]) == _bits(single.profiles[130][129])


# -- the block path against exact steps ---------------------------------------


@contextlib.contextmanager
def _certificates():
    """Record ``(kept, rows)`` for every block certificate the kernel computes:
    the leading rows that pass, of the rows tracked."""
    results = []
    certified = _kernels._certified

    def counted(*args):
        results.append((certified(*args), len(args[-2])))
        return results[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_certified", counted)
        yield results


@contextlib.contextmanager
def _flushes(cols=None):
    """Record ``(p_end, rows, batches, cells)`` for every block flush.

    ``batches`` lists ``(q, w, k)`` for each ``_batch`` the flush runs:
    ``k`` rows on ``w`` columns, those from ``q`` on opened by the rows
    (``q = w`` for a tile of old columns, ``q = 0`` for the opened ones).
    ``cells`` is the size of the flush's scratch.  With ``cols`` set, the
    old columns go in tiles of ``cols`` (``_FLUSH_COLS``, also read when
    the kernel allocates its scratch).
    """
    log = []
    flush, batch = _kernels._flush, _kernels._batch

    def counted_batch(x, a, b, scratch, sc, w):
        log[-1][2].append((w if b is None else 0, w, len(sc)))
        return batch(x, a, b, scratch, sc, w)

    def counted_flush(*args):
        scratch, p, st = args[4:7]
        log.append((p + len(st), len(st), [], scratch.shape[0]))
        flush(*args)

    with pytest.MonkeyPatch.context() as mp:
        if cols is not None:
            mp.setattr(_kernels, "_FLUSH_COLS", cols)
        mp.setattr(_kernels, "_batch", counted_batch)
        mp.setattr(_kernels, "_flush", counted_flush)
        yield log


def _wide_rows(log, cols):
    """Check each flush followed the one chunk rule; count its rows by regime.

    Each chunk of at most ``_BLOCK_STEPS`` rows runs its old columns in
    tiles of ``cols`` while they span at most four tiles, row by row past
    that (no batch), and then the ``k`` columns it opens in one square
    batch on the view at ``q`` (``q = 0``).  The scratch holds one tile and
    one chunk's ``(k + 1) k`` triangle, and no more.  Returns the rows of
    the ``"tiles"`` and ``"rows"`` regimes.
    """
    tile = _kernels._FLUSH_COLS if cols is None else cols
    n = _kernels._BLOCK_STEPS
    regimes = {"tiles": 0, "rows": 0}
    for p_end, rows, batches, cells in log:
        want = []
        for q in range(p_end - rows, p_end, n):
            k = min(n, p_end - q)
            tiles = [min(tile, q - c0) for c0 in range(0, q, tile)] if q <= 4 * tile else []
            want += [(w, w, k) for w in tiles] + [(0, k, k)]
            regimes["tiles" if tiles else "rows"] += k
        assert batches == want
        assert max((k + 1) * w for _, w, k in batches) <= cells <= (n + 1) * max(tile, n)
    return regimes


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
    errors, trace, max_norm, hits, snaps, bound = _kernels.maxlinear_descent(a, b, eta, snap_times)
    p_out = _per_step(a, b, eta, snap_times)
    want = reference_descent(a, b, eta, snap_times)
    for got, expected in zip(p_out[:4], want[:4]):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert _same_snapshots(p_out[4], want[4])
    p_errors, p_trace, p_max_norm, p_hits, p_snaps, p_bound = p_out
    assert p_bound == 0.0
    assert trace.tobytes() == p_trace.tobytes()
    assert hits == p_hits
    assert _same_snapshots(snaps, p_snaps)
    _assert_final_error(errors, p_errors, bound, snap_times)
    for t in snap_times:
        assert _bits(errors[t - 1]) == _bits(p_errors[t - 1])
    assert np.all(np.abs(errors - p_errors) <= REL * np.abs(p_errors))
    assert max_norm == pytest.approx(p_max_norm, rel=REL)
    return trace


# every flush regime: a chunk's old columns go in tiles up to four of them
# and row by row past that.  At the default width they take tiles at these
# sizes (rows from 3,072 columns), at 210 tiles up to 840 columns, at 3
# tiles up to 12 columns, and the scratch is sized by the 64-row triangle
_WIDTHS = (None, 3, 210)


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
    # the construction's fresh coordinate wins every step: no block falls
    # back.  Segments only split a block's sums: at 64-row segments each
    # block still runs to its stop, [1, 70), [70, 500), [500, 999) and
    # rows 999..1000, and the run has the bits of the default segments
    s = sqrt_decay(2, 1)
    T = 1000
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.array([1, 70, 500, 999], dtype=np.int64)
    default = _kernels.maxlinear_descent(a, b, s.rates(T), snaps)
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 64)
    for cols in _WIDTHS:
        with _certificates() as results, _flushes(cols) as log:
            trace = _assert_block_path_bitwise(a, b, s.rates(T), snaps)
            got = _kernels.maxlinear_descent(a, b, s.rates(T), snaps)
        assert results == [(69, 69), (430, 430), (499, 499), (2, 2)] * 2  # two runs
        for have, expected in zip(got[:4] + got[5:], default[:4] + default[5:]):
            assert _bits(have) == _bits(expected)
        assert _same_snapshots(got[4], default[4])
        assert trace.tobytes() == np.arange(T + 1).tobytes()
        regimes = _wide_rows(log, cols)
        # the old columns go row by row past 3,072, 12 and 840 of them
        want = {None: {"tiles"}, 3: {"tiles", "rows"}, 210: {"tiles", "rows"}}[cols]
        assert {regime for regime, rows in regimes.items() if rows} == want


def test_every_long_block_certified_on_the_staircase():
    # a block runs to the next snapshot time: [1, 70), [70, 500) and [500,
    # 999); rows 999 and 1000 end the run as a block that reaches T unflushed
    s = sqrt_decay(2, 1)
    T = 1000
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.array([1, 70, 500, 999], dtype=np.int64)
    with _certificates() as results, _flushes() as log:
        trace = _assert_block_path_bitwise(a, b, s.rates(T), snaps)
    assert results == [(69, 69), (430, 430), (499, 499), (2, 2)]
    assert trace.tobytes() == np.arange(T + 1).tobytes()
    assert [rows for _, rows, *_ in log] == [69, 430, 499]
    # every chunk's old columns span at most two tiles
    assert _wide_rows(log, None) == {"tiles": 998, "rows": 0}


def test_short_block_runs_in_one_segment():
    # a block from row 1 that certifies to T <= _BLOCK_ROWS, as on every
    # `density --per-t` run up to T = 1024, is tracked in one _block call
    # and certified in one _certified call, and ends the run unflushed
    s = sqrt_decay(2, 1)
    for T in (2, 640, _kernels._BLOCK_ROWS):
        a, b = coupling_weights(s, T, log_envelope())
        with _blocks() as spans, _certificates() as results, _tails() as tails, _flushes() as log:
            _kernels.maxlinear_descent(a, b, s.rates(T), NO_SNAPS)
        assert spans == [(1, T)] and results == [(T, T)]
        assert tails == [True] and log == []


def test_segment_length_keeps_the_bits(monkeypatch):
    # the blocks [1, 1250) and [1250, 2500) cross a 1024-row segment
    # boundary; in 64-row segments the run has the same bits
    s = sqrt_decay(2, 1)
    T = 2500
    a, b = coupling_weights(s, T, log_envelope())
    snaps = np.array([1, 1250, T], dtype=np.int64)
    with _certificates() as results:
        default = _kernels.maxlinear_descent(a, b, s.rates(T), snaps)
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 64)
    with _certificates() as short:
        got = _kernels.maxlinear_descent(a, b, s.rates(T), snaps)
    assert results == short == [(1249, 1249), (1250, 1250)]
    for have, expected in zip(got[:4] + got[5:], default[:4] + default[5:]):
        assert _bits(have) == _bits(expected)
    assert _same_snapshots(got[4], default[4])


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
    # the first block runs from row 1 to T and its certificate cuts where
    # the rival wins, or before it (the opened rival's bound is loose): the
    # rows before the cut are flushed and the per-step loop runs from there.
    # Only the fading rival leaves rows for a later block (the others back
    # off past T), from row 64, and it reaches T and ends the run unflushed
    a, b, eta, head = case()
    first = {_old_rival: 3, _opened_rival: 1, _fading_rival: 3}[case]
    for cols in _WIDTHS:
        with _certificates() as results, _tails() as tails, _flushes(cols) as log:
            trace = _assert_block_path_bitwise(a, b, eta, NO_SNAPS)
        assert results[0] == (first, len(eta))
        assert [rows for _, rows, *_ in log] == [first]
        assert trace[: len(head)].tolist() == head  # every step is positive: a fresh trace counts up
        assert tails == [False] + [True] * (case is _fading_rival)
        _wide_rows(log, cols)


def test_failed_certificate_backs_off_to_the_next_boundary():
    # stretched, the old rival wins hundreds of rows; after each cut the
    # kernel flushes the rows before it and steps exactly to the next
    # multiple of _BLOCK_STEPS, so it tries at most one block per interval
    T = 2000
    a, b, eta, _ = _old_rival(T)
    with _certificates() as results, _flushes() as log:
        trace = _assert_block_path_bitwise(a, b, eta, NO_SNAPS)
    assert np.count_nonzero(trace == 0) > 600
    assert results and all(kept < rows for kept, rows in results)
    assert [rows for _, rows, *_ in log] == [kept for kept, _ in results if kept]
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
    assert _kernels._certified(s, u, d, buf, 1, 1.0, 2e-3, np.array([1e-3, 1e-3]), *rows) == 2
    for steps in ([1e-3, -1e-3], [1e-3, 0.0]):
        assert _kernels._certified(s, u, d, buf, 1, 1.0, sum(steps), np.array(steps), *rows) == 0


def _block_reference(t0, t1, p, sfx, nsq, nerr, eta_acc, tol, base, coef, D, eta_v, u_v, d_v):
    """``_kernels._block`` as a loop over Python floats, giving up on the whole block."""
    fvs, tols, nsqs = [], [], []
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
        nsqs.append(nsq)
    return fvs, tols, nsqs


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
    rows = log[0][1]
    assert results == [(rows, rows)] and len(log) == 1
    assert 0 < rows < T - 1  # the first block would run [1, T]
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
    got = _kernels._block(*args, steps, ones, ones)
    for have, expected in zip(got[:2], want[:2]):
        assert _bits(have) == _bits(expected)
    assert np.isnan(want[2]).all() and np.isnan(got[2]).all() and len(got[2]) == len(want[2]) == 2
    assert np.fmax.reduce(got[2], initial=-math.inf) == -math.inf  # the kernel's largest-norm reduction


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


@pytest.mark.parametrize(
    "T, sizes",
    [(7, [6]), (193, [64] * 3), (194, [64] * 3 + [1]), (199, [64] * 3 + [6]),
     (8, [7]), (40, [39]), (63, [62]), (64, [63]), (65, [64])],
)
def test_all_open_chunks_match_per_step(T, sizes):
    # the flush splits the block [1, T) into chunks of up to 64 rows; the
    # one that ends at the block's end has 1 to 64 rows, and dim = T + 1
    # runs from below 64 to just past it.  At T = 8 the diagonal's stride is
    # 8 elements, where np.negative(v, out=v) miscomputes.  The snapshot at
    # T keeps the tail off.
    s = sqrt_decay(2, 1)
    a, b = coupling_weights(s, T, log_envelope())
    with _chunks() as log, _flushes() as flushes:
        trace = _assert_block_path_bitwise(a, b, s.rates(T), np.array([T]))
    assert trace.tobytes() == np.arange(T + 1).tobytes()
    assert [rows for _, rows, *_ in flushes] == [T - 1]
    assert log == sizes


def test_construction_takes_the_all_open_path():
    # at the default sizes both blocks of a dim 641 run go in 64-row chunks,
    # their old columns in one tile; the snapshot at T keeps the tail off
    s = sqrt_decay(2, 1)
    T = 640
    a, b = coupling_weights(s, T, log_envelope())
    with _chunks() as log, _flushes() as flushes:
        _assert_block_path_bitwise(a, b, s.rates(T), np.array([320, T], dtype=np.int64))
    assert [rows for _, rows, *_ in flushes] == [319, 320]
    assert log == [64] * 4 + [63] + [64] * 5
    assert _wide_rows(flushes, None) == {"tiles": 639, "rows": 0}


@pytest.mark.parametrize("q", [767, 768, 769, 3072, 3073])
def test_tile_boundaries_match_per_step(q):
    # a chunk whose old columns end just before, at or just past one tile
    # (768) or four tiles (3,072), past which they go row by row.  A
    # snapshot 64 rows before q starts a block there, so a chunk starts at
    # q; the one at T keeps the tail off.
    s = sqrt_decay(2, 1)
    T = q + 127
    a, b = coupling_weights(s, T, log_envelope())
    with _flushes() as log:
        trace = _assert_block_path_bitwise(a, b, s.rates(T), np.array([q - 64, T]))
    assert trace.tobytes() == np.arange(T + 1).tobytes()
    assert q in {q0 for p_end, rows, *_ in log for q0 in range(p_end - rows, p_end, 64)}
    assert (_wide_rows(log, None)["rows"] > 0) == (q >= 3072)  # the chunk after 3,072 goes row by row


def test_chunks_with_zero_steps_match_per_step():
    # zero steps every third row and a run of 140: every block stops before
    # a zero step, and on the construction the zero steps and row 0 are the
    # only rows that run exact; rows 399 and 400 end the run as a tail,
    # which is not flushed
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
        assert sum(rows for _, rows, *_ in log) == T - 2 - len(zeros)
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


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(520, 700), st.floats(-2.0, 1.0), st.integers(0, 2**32 - 1))
def test_flush_regimes_match_per_step(cols, T, log_c, seed):
    # at tile width cols the blocks [1, cols), [cols, T // 2) and [T // 2,
    # T) take tiles and then, past four tiles (at most 160 columns here),
    # go row by row: snapshots and the errors at their times bitwise those
    # of exact steps
    rng = np.random.default_rng(seed)
    s = sched.from_table(10.0**log_c / np.sqrt(np.arange(1.0, T + 2.0)) * rng.uniform(0.5, 1.0, T + 1))
    a, b = coupling_weights(s, T, log_envelope())
    with _certificates() as results, _flushes(cols) as log:
        _assert_block_path_bitwise(a, b, s.rates(T), np.array([cols, T // 2, T]))
    assert [rows for _, rows, *_ in log] == [cols - 1, T // 2 - cols, T - T // 2]
    assert all(kept == rows for kept, rows in results)
    assert all(_wide_rows(log, cols).values())


def test_wide_flush_never_runs_the_exact_update():
    # the snapshots at T / 2 and T stop the two blocks, [1, T / 2) and [T / 2,
    # T), before T, as verify's does, so both flush; past 768 touched
    # coordinates no flushed row runs _step_update
    s = sqrt_decay(2, 1)
    T = 4096
    a, b = coupling_weights(s, T, log_envelope())
    calls, inside = [0], []
    flush, update = _kernels._flush, _kernels._step_update

    def counted_update(*args):
        calls[0] += 1
        return update(*args)

    def counted_flush(*args):
        before = calls[0]
        flush(*args)
        inside.append(calls[0] - before)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_step_update", counted_update)
        mp.setattr(_kernels, "_flush", counted_flush)
        _kernels.maxlinear_descent(a, b, s.rates(T), np.array([T // 2, T]))
    assert len(inside) == 2 and calls[0] > 0
    assert sum(inside) == 0


def test_block_scratch_is_fixed_size():
    # a chunk batches at most _FLUSH_COLS old columns or its 64 opened ones
    # in a fixed buffer, runs wider prefixes row by row in the kernel's own
    # O(dim) buffer, never one row of dim per step: the peak stays near
    # those arrays at dim = 16385.  The snapshot at T keeps the tail off, so
    # every block flushes.
    assert _kernels._TRIANGLE.shape == (_kernels._BLOCK_STEPS, _kernels._BLOCK_STEPS)
    # 65 rows of one tile, of one chunk's triangle where tiles are narrower, or of dim
    s = sqrt_decay(2, 1)
    for cols, T, cells in ((None, 1000, 65 * 768), (3, 200, 65 * 64), (None, 40, 65 * 41)):
        a, b = coupling_weights(s, T, log_envelope())
        with _flushes(cols) as log:
            _kernels.maxlinear_descent(a, b, s.rates(T), np.array([T]))
        assert log and {c for *_, c in log} == {cells}
    a, b = build_maxlinear(s, 16384, log_envelope(8, 4)).convex.kernel_data
    eta = s.rates(16384)
    tracemalloc.start()
    try:
        _kernels.maxlinear_descent(a, b, eta, np.array([16384]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


# -- the tail: a block that reaches T with its evaluation row and ends the run unflushed


@contextlib.contextmanager
def _tails():
    """Record, for every block that reaches ``T`` with its evaluation row,
    whether it ends the run unflushed: whether every row is kept."""
    results = []
    attempt = _kernels._try_block

    def recorded(t, n, *args):
        out = attempt(t, n, *args)
        if t + n > len(args[-2]):  # args[-2] is eta
            results.append(out[0] == n)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_try_block", recorded)
        yield results


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 700), st.floats(-2.0, 1.0), st.integers(0, 2**32 - 1))
def test_tail_final_error_lies_within_its_bound(T, log_c, seed):
    # admissible tables eta_t = c / sqrt(t + 1) U[0.5, 1]: every run ends in a certified tail
    rng = np.random.default_rng(seed)
    s = sched.from_table(10.0**log_c / np.sqrt(np.arange(1.0, T + 2.0)) * rng.uniform(0.5, 1.0, T + 1))
    built = build_maxlinear(s, T, log_envelope())
    eta = s.rates(T)
    errors, trace, max_norm, hits, snaps, bound = _kernels.maxlinear_descent(built.a, built.b, eta, NO_SNAPS)
    p_errors, p_trace, p_max_norm, p_hits, _, _ = _per_step(built.a, built.b, eta, NO_SNAPS)
    assert trace.tobytes() == p_trace.tobytes() == np.arange(T + 1).tobytes()
    assert hits == p_hits == 0 and snaps == {}
    assert 0.0 < bound and abs(errors[-1] - p_errors[-1]) <= bound
    assert np.all(np.abs(errors - p_errors) <= REL * np.abs(p_errors))
    assert max_norm == pytest.approx(p_max_norm, rel=REL)


def test_certified_tail_never_flushes():
    # two segments of 1024 rows, certified as one block from t = 1
    s = sqrt_decay(2, 1)
    T = 2000
    a, b = coupling_weights(s, T, log_envelope())
    with _tails() as tails, _certificates() as results, _flushes() as log:
        trace = _assert_block_path_bitwise(a, b, s.rates(T), NO_SNAPS)
    assert tails == [True]
    assert results == [(T, T)] and log == []
    assert trace.tobytes() == np.arange(T + 1).tobytes()


def _late_rival(T=600):
    # coordinate 0 starts 0.45 below the fresh score and rises by eta a[0]
    # b[0] = 1.5e-3 a step, while the fresh score falls by 5e-10 a step (a b
    # - A2 = -1e-6 from k = 1) and each opened one sits eta d_k >= 1e-5
    # below it: the fresh coordinate wins rows 1..301 and coordinate 0 row 302
    a = np.full(T + 1, 0.1)
    b = np.arange(T + 1) / 10.0 - 1e-5
    b[0] = 30.0
    return a, b, np.full(T, 5e-4)


def test_certificate_that_fails_late_keeps_the_rows_before_it():
    # the first block runs from row 1 to its stop (T, or the snapshot at
    # 400) and its certificate fails at row 302: exactly rows 1..301 are
    # flushed, and the run matches the reference where it promises bits.
    # The scores cancel terms near 0.2 down to 0.003, so the tracked errors
    # agree only to that rounding, not to scalar_rel of their size
    a, b, eta = _late_rival()
    T = len(eta)
    for snaps, rows in ((NO_SNAPS, T), (np.array([400, T]), 399)):
        with _certificates() as results, _flushes() as log:
            errors, trace, _, hits, got, bound = _kernels.maxlinear_descent(a, b, eta, snaps)
        r_errors, r_trace, _, r_hits, want = reference_descent(a, b, eta, snaps)
        assert results[0] == (301, rows)
        assert log[0][:2] == (302, 301)  # p reaches 302 after the 301 rows
        assert trace.tobytes() == r_trace.tobytes() and hits == r_hits
        assert trace[:303].tolist() == list(range(302)) + [0]
        assert _same_snapshots(got, want)
        _assert_final_error(errors, r_errors, bound, snaps)
        for t in snaps:
            assert _bits(errors[t - 1]) == _bits(r_errors[t - 1])
        assert np.all(np.abs(errors - r_errors) <= 1e-12)


def test_long_snapshot_free_run_keeps_certified_prefixes():
    # at T = 300000 on the headline the block from row 1 does not certify
    # to T: its certified prefix is kept, later blocks certify theirs, and
    # the run flushes a fraction of its rows and still meets the floor
    s = sqrt_decay(2, 1)
    T = 300000
    built = build_maxlinear(s, T, log_envelope())
    with _tails() as tails, _flushes() as log:
        errors, trace, *_, bound = _kernels.maxlinear_descent(built.a, built.b, s.rates(T), NO_SNAPS)
    assert tails[0] is False and 0 < sum(rows for _, rows, *_ in log) < T // 4
    assert trace.tobytes() == np.arange(T + 1).tobytes()
    assert errors[-1] - bound >= built.certified_bound()


def test_snapshot_at_the_horizon_keeps_the_final_error_bitwise():
    s = sqrt_decay(2, 1)
    T = 1000
    a, b = coupling_weights(s, T, log_envelope())
    times = np.array([T])
    with _tails() as tails, _flushes() as log:
        errors, *_, bound = _kernels.maxlinear_descent(a, b, s.rates(T), times)
    assert tails == [] and log and bound == 0.0
    assert _bits(errors[-1]) == _bits(reference_descent(a, b, s.rates(T), times)[0][-1])


@pytest.mark.parametrize("case", ["norm", "rival"])
def test_tail_that_fails_falls_back_to_the_same_bits(case):
    # at three times the headline steps ||x||^2 reaches 1 inside the block
    # that reaches T; the old rival fails its certificate at row 4.  Either
    # way the blocks keep their prefixes and the run gives the bits of the
    # run whose snapshot at T keeps the evaluation row off.
    if case == "norm":
        s = sqrt_decay(2, 1)
        T = 300
        a, b = coupling_weights(s, T, log_envelope())
        eta = 3.0 * s.rates(T)
    else:
        a, b, eta, _ = _old_rival()
        T = len(eta)
    with _tails() as tails:
        got = _kernels.maxlinear_descent(a, b, eta, NO_SNAPS)
    want = _kernels.maxlinear_descent(a, b, eta, np.array([T]))
    assert tails and not any(tails)
    for have, expected in zip(got[:4], want[:4]):
        assert _bits(have) == _bits(expected)
    assert got[5] == want[5] == 0.0


def test_tail_run_allocates_less_than_the_flush():
    # a run that ends in a tail holds seven arrays of dim floats (the
    # errors, the trace, x, the scores, buf, u and d) and the trace's one
    # temporary; its segments are a few KB, and the flush's scratch (2.5
    # such arrays more at this dim) is never made
    s = sqrt_decay(2, 1)
    a, b = build_maxlinear(s, 16384, log_envelope(8, 4)).convex.kernel_data
    eta = s.rates(16384)
    tracemalloc.start()
    try:
        bound = _kernels.maxlinear_descent(a, b, eta, NO_SNAPS)[5]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound > 0.0
    assert peak <= 8.5 * 8 * len(a)


# -- the scalar path of the 1-d families against the array oracle ----------


def _assert_scalar_matches_array(convex, s, T, built=None, coord_tol=0.0):
    """Bitwise against the array loop; within ``coord_tol`` of ``built``'s
    closed form at the grid times up to its target."""
    fast = engine.run(convex, s, T, snapshots=range(1, T + 1))
    slow = array_descent(convex, s, T, snapshots=range(1, T + 1))
    assert fast.errors.tobytes() == slow.errors.tobytes()
    assert fast.snapshots.keys() == slow.snapshots.keys()
    for t in fast.snapshots:
        assert fast.snapshots[t].tobytes() == slow.snapshots[t].tobytes()
    assert fast.projection_activations == slow.projection_activations
    assert _bits(fast.max_norm_seen) == _bits(slow.max_norm_seen)
    for t in _snapshot_grid(T) if built is not None else ():
        if t <= built.T:
            assert np.max(np.abs(fast.snapshots[t] - built.closed_form_iterate(t))) <= coord_tol
            assert abs(fast.error_at(t) - built.closed_form_error(t)) <= coord_tol
    return fast


# blocks of zero, subnormal and tiny normal steps, put into a table
_tiny_steps = st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300]), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(_long_tables, _tiny_steps, st.integers(0, 512), st.floats(1e-9, 0.9))
@example([1.0, 0.1, 1.0], [1e-310, 1e-310], 3, 0.5)  # a subnormal exit step: eps is subnormal, not certified
@example([2.0], [0.0], 0, 0.9)  # a free run on steps 0.0, 2.0: one ramp step past -1
def test_scalar_path_matches_array_oracle(table, tiny, at, slope):
    table = table[:at] + tiny + table[at:]
    s = sched.from_table(table + [1.0])
    n = len(table) + 1
    tol = Tolerances()
    for build, coord_tol in ((build_vshape, tol.kink_abs), (build_quadratic, tol.coord_abs)):
        # at T = len(table) + 1 the exit step is the appended 1.0
        for T in (len(table), n):
            try:
                built = build(s, T)
            except (ConstructionError, InvalidParameterError):
                continue  # vshape needs T >= 2 and positive steps, quadratic a step sum >= 1/2
            # the closed form is the ramp's; a build it does not certify leaves the ramp
            _assert_scalar_matches_array(built.convex, s, T, built if built.certified else None, coord_tol)
    # a vshape run past its target leaves the ramp and oscillates about the kink
    with contextlib.suppress(ConstructionError):
        built = build_vshape(s, max(2, n // 3))
        _assert_scalar_matches_array(built.convex, s, n, built if built.certified else None, tol.kink_abs)
    # a free slope, not settled by a build, takes the fold off the ramp early
    free = instances._interval_instance(instances._vshape_scalar(1e-6, slope))
    _assert_scalar_matches_array(free, s, n)


def test_scalar_path_clamped_exit_step():
    # the exit step 3 overshoots the domain [-1, 1], so the run clamps at 1
    s = sched.from_table([0.5, 0.5, 3.0, 1.0])
    built = build_vshape(s, 3)
    rec = _assert_scalar_matches_array(built.convex, s, 3, built, Tolerances().kink_abs)
    assert rec.projection_activations > 0
    assert rec.snapshots[3][0] == 1.0
    assert rec.max_norm_seen > 1.0
