import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepaudit import bounds as bnd
from stepaudit import schedules as sched
from stepaudit.errors import InvalidParameterError


def test_sqrt_decay_values():
    s = sched.sqrt_decay(2, 1)
    assert s.rate(0) == 2.0
    assert s.rate(3) == 1.0
    assert sched.sqrt_decay(1, 1).rate(99) == pytest.approx(0.1, rel=1e-15)


def test_sqrt_decay_rejects_bad_params():
    with pytest.raises(InvalidParameterError):
        sched.sqrt_decay(0, 1)
    with pytest.raises(InvalidParameterError):
        sched.sqrt_decay(2, -1)


def test_constant_values_and_prefix():
    s = sched.constant(0.5)
    assert s.rate(0) == 0.5
    assert sched.constant(0).rate(7) == 0.0
    assert s.prefix_sum(4) == 2.0
    with pytest.raises(InvalidParameterError):
        sched.constant(-0.1)


def test_prefix_sum_basics():
    assert sched.constant(0.5).prefix_sum(0) == 0.0
    table = sched.from_table([0.3, 0.2, 0.1])
    assert table.prefix_sum(3) == pytest.approx(0.6, rel=1e-15)
    s = sched.sqrt_decay(2, 1)
    assert s.prefix_sum(2) == pytest.approx(2 + math.sqrt(2), rel=1e-15)


def test_prefix_sum_increments_match_rates():
    s = sched.sqrt_decay(2, 1)
    for t in range(0, 200, 7):
        inc = s.prefix_sum(t + 1) - s.prefix_sum(t)
        assert inc == pytest.approx(s.rate(t), rel=1e-12, abs=1e-15)


def test_prefix_sum_monotone():
    s = sched.sqrt_decay(2, 1)
    p = [s.prefix_sum(t) for t in range(0, 500)]
    assert all(b >= a for a, b in zip(p, p[1:]))


def test_builtin_schedules_nonnegative_far_out():
    for s in (sched.sqrt_decay(2, 1), sched.constant(0.5),
              sched.doubling_concat(lambda n: [1 / math.sqrt(n)] * n)):
        vals = s.rates(100_001)
        assert vals.min() >= 0.0


def test_repeated_queries_bit_identical():
    s = sched.sqrt_decay(3, 7)
    first = [s.rate(t) for t in (0, 5, 11, 1000)]
    second = [s.rate(t) for t in (0, 5, 11, 1000)]
    assert first == second


def test_table_only_out_of_range():
    s = sched.from_table([0.1, 0.2])
    assert s.rate(1) == 0.2
    with pytest.raises(InvalidParameterError):
        s.rate(2)


def test_negative_generator_rejected():
    s = sched.StepSchedule(lambda n: np.where(np.arange(n) == 3, -1.0, 1.0), label="dip")
    with pytest.raises(InvalidParameterError, match=r"'dip' produced a negative stepsize at t=3"):
        s.rate(3)


def test_admissible_range():
    # the largest admissible stepsize runs every floor without overflow
    with np.errstate(all="raise"):
        s = sched.constant(sched.MAX_STEP)
        assert s.prefix_sum(64) == 64 * sched.MAX_STEP
        assert math.isfinite(bnd.quartic_floor(s, 64))
        assert math.isfinite(bnd.averaged_quartic_floor(s, 64))
    with pytest.raises(InvalidParameterError, match=r"'constant\(c=1e\+200\)' produced a huge .* at t=0"):
        sched.constant(1e200).rate(0)
    with pytest.raises(InvalidParameterError, match="non-finite stepsize at t=0"):
        sched.constant(math.inf).rates(1)
    huge_late = sched.StepSchedule(lambda n: np.where(np.arange(n) == 20, 1e300, 0.5))
    assert huge_late.rate(15) == 0.5
    with pytest.raises(InvalidParameterError, match="at t=20"):
        huge_late.prefix_sum(21)


def test_table_validation():
    with pytest.raises(InvalidParameterError):
        sched.from_table([0.1, -0.2])
    with pytest.raises(InvalidParameterError):
        sched.from_table([0.1, float("nan")])
    with pytest.raises(InvalidParameterError, match="huge .* at t=2"):
        sched.from_table([0.1, 0.2, 1e200])


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("t,eta\n0,0.3\n1,0.2\n2,0.1\n")
    s = sched.from_csv(str(path))
    assert s.rates(3).tolist() == [0.3, 0.2, 0.1]


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,eta\n0,0.3\n")
    with pytest.raises(InvalidParameterError):
        sched.from_csv(str(path))


def test_csv_rejects_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("t,eta\n0,0.3\n2,0.1\n")
    with pytest.raises(InvalidParameterError):
        sched.from_csv(str(path))


class TestDoubling:
    def test_block_arithmetic(self):
        assert sched.doubling_block(0) == (0, 0)
        assert sched.doubling_block(2) == (1, 1)
        assert sched.doubling_block(7) == (3, 0)

    def test_blocks_partition_indices(self):
        # every index rebuilds to itself from (k, offset), and offsets stay in range
        for t in range(4096):
            k, off = sched.doubling_block(t)
            assert 0 <= off < (1 << k)
            assert (1 << k) - 1 + off == t

    def test_example_values(self):
        s = sched.doubling_concat(lambda n: [1 / math.sqrt(n)] * n)
        assert s.rate(0) == 1.0
        assert s.rate(2) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert s.rate(7) == pytest.approx(1 / math.sqrt(8), rel=1e-15)

    def test_wrong_length_builder_rejected(self):
        with pytest.raises(InvalidParameterError):
            sched.doubling_concat(lambda n: [1.0] * (n + 1))

    def test_wrong_length_surfaces_lazily(self):
        # the cache prefetches geometrically, so a bad deep block only
        # surfaces once a query reaches its neighborhood
        s = sched.doubling_concat(lambda n: [1.0] * (n if n < 64 else n - 1))
        assert s.rate(40) == 1.0
        with pytest.raises(InvalidParameterError):
            s.rate(63)


def test_step_sum_upper_invariant_sampled():
    # the known log envelope dominates step sums of its schedule:
    # sum_{j=t1}^{t2} eta_j <= 2 phi(t2+1) (sqrt(t2) - sqrt(t1))
    s = sched.sqrt_decay(2, 1)
    phi = bnd.log_envelope()

    def capped(t1, t2):
        total = s.prefix_sum(t2 + 1) - s.prefix_sum(t1)
        return total <= 2.0 * phi(t2 + 1) * (math.sqrt(t2) - math.sqrt(t1)) + 1e-12

    rng = np.random.default_rng(7)
    for _ in range(200):
        t1 = int(rng.integers(1, 9_999))
        t2 = int(rng.integers(t1 + 1, 10_001))
        assert capped(t1, t2), (t1, t2)
    # adjacent pairs are the tight direction
    for t1 in (1, 2, 10, 100, 5000, 9999):
        assert capped(t1, t1 + 1)


# -- properties of the one materialisation path ----------------------------

_magnitudes = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)  # log-uniform in [1e-8, 1e3]
_tables = st.lists(
    st.one_of(
        st.lists(st.just(0.0), min_size=1, max_size=12),  # a run of zeros
        st.lists(_magnitudes, min_size=1, max_size=40),
    ),
    min_size=1,
    max_size=40,
).map(lambda blocks: [v for block in blocks for v in block][:512])


def _loop_prefix(values):
    total, out = 0.0, [0.0]
    for v in values:
        total += v
        out.append(total)
    return out


@settings(max_examples=60, deadline=None)
@given(_tables)
def test_table_prefix_matches_sequential_loop(table):
    s = sched.from_table(table)
    expected = _loop_prefix(table)
    assert [s.prefix_sum(t) for t in range(len(table) + 1)] == expected
    for n in {0, 1, len(table) // 2, len(table)}:
        assert s.rates(n).tobytes() == np.array(table[:n], dtype=np.float64).tobytes()
    with pytest.raises(InvalidParameterError, match=f"no value at index {len(table)} "):
        s.rate(len(table))


@settings(max_examples=60, deadline=None)
@given(_tables, st.randoms(use_true_random=False))
def test_query_order_does_not_change_bits(table, rng):
    # a cyclic extension of the table is an infinite schedule, so queries
    # in random order grow the cache from many different starting points
    n = 3 * len(table) + 5

    def fresh():
        return sched.StepSchedule(lambda m: np.resize(np.array(table, dtype=np.float64), m))

    ascending = fresh()
    want = [(ascending.rate(t), ascending.prefix_sum(t)) for t in range(n)]
    shuffled = fresh()
    order = list(range(n))
    rng.shuffle(order)
    got = {t: (shuffled.rate(t), shuffled.prefix_sum(t)) for t in order}
    assert [got[t] for t in range(n)] == want
    assert [p for _, p in want] == _loop_prefix(ascending.rates(n))[:n]


@settings(max_examples=60, deadline=None)
@given(_tables, st.randoms(use_true_random=False))
def test_first_fill_matches_growth_bits(table, rng):
    # a table fills its cache in one pass; the cyclic extension grows it
    # 16, 32, 64, ... values at a time.  Signed zeros show a prefix not
    # seeded with +0.0 (0.0 + -0.0 is +0.0, a cumsum of -0.0 alone is not)
    table = [-0.0 if v == 0.0 and rng.random() < 0.5 else v for v in table]
    whole = sched.from_table(table)
    grown = sched.StepSchedule(lambda m: np.resize(np.array(table, dtype=np.float64), m))
    steps = range(len(table) + 1)
    got = np.array([grown.prefix_sum(t) for t in steps])
    assert got.tobytes() == np.array([whole.prefix_sum(t) for t in steps]).tobytes()
    assert got.tobytes() == np.array(_loop_prefix(table)).tobytes()


def test_table_cache_holds_one_values_array():
    # the table's own array and n + 1 prefix sums (plus a bool mask), with
    # no concatenated copy of either
    n = 1 << 16
    x = np.random.default_rng(0).uniform(0.0, 1.0, n)
    tracemalloc.start()
    try:
        total = sched.from_table(x).prefix_sum(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == _loop_prefix(x.tolist())[-1]
    assert peak < 18 * n, peak / n


@pytest.mark.parametrize("D, G", [(2.0, 1.0), (1.0, 1.0), (3.0, 7.0), (0.1, 3.3)])
def test_sqrt_decay_bitwise_against_math_sqrt(D, G):
    ratio = D / G
    n = 1 << 14
    expected = np.array([ratio / math.sqrt(t + 1.0) for t in range(n)])
    assert sched.sqrt_decay(D, G).rates(n).tobytes() == expected.tobytes()


def _loop_harmonic(n):
    total = 0.0
    for i in range(n, 0, -1):
        total += 1.0 / i
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5000))
@example(32)
@example(32768)
def test_harmonic_matches_loop_oracle(n):
    assert bnd.harmonic(n) == _loop_harmonic(n)


def test_concurrent_readers_agree():
    # many threads grow one shared cache from different starting points;
    # a torn (values, prefix) pair or a lost extension changes some answer
    n = 5000
    reference = sched.sqrt_decay(2, 1)
    want = [(reference.rate(t), reference.prefix_sum(t + 1)) for t in range(n)]
    shared = sched.sqrt_decay(2, 1)
    got: dict[int, list] = {}

    def reader(k):
        # odd threads scan up in small steps, even ones jump in from the top
        order = range(k, n, 8) if k % 2 else range(n - 1 - k, -1, -8)
        got[k] = [(t, shared.rate(t), shared.prefix_sum(t + 1)) for t in order]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(got) == 8
    for rows in got.values():
        assert all((r, p) == want[t] for t, r, p in rows)
