import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stepaudit import bounds as bnd
from stepaudit import engine, harness
from stepaudit import schedules as sched
from stepaudit.errors import InvalidParameterError
from stepaudit.harness import _quartic_profile

from envelopes import step_envelope

U = 2.0**-53  # unit roundoff of float64


def gamma(k):
    """Relative error bound of ``k`` roundings (Higham's ``gamma_k``)."""
    return k * U / (1.0 - k * U)


def brute_force_average(schedule, T):
    """Independent oracle for the averaged fourth-power floor."""
    total = 0.0
    for t in range(1, T + 1):
        eta = schedule.rates(t)
        for j in range(t):
            total += j * eta[j] ** 2 / (t + 1 - j)
    return total / T


class TestHarmonic:
    def test_values(self):
        assert bnd.harmonic(1) == 1.0
        assert bnd.harmonic(2) == 1.5
        assert bnd.harmonic(4) == pytest.approx(25 / 12, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            bnd.harmonic(0)


class TestElementaryFloors:
    def test_last_step(self):
        table = sched.from_table([0.3, 0.2, 0.1])
        assert bnd.last_step_bound(table, 3) == 0.1
        assert bnd.last_step_bound(sched.sqrt_decay(2, 1), 1) == 1.0  # eta_0 = 2, capped at 1
        assert bnd.last_step_bound(sched.sqrt_decay(2, 1), 4) == 1.0  # eta_3 = 1 exactly
        assert bnd.last_step_bound(sched.sqrt_decay(2, 1), 5) == 2.0 / math.sqrt(5.0)
        assert bnd.last_step_bound(sched.constant(0), 17) == 0.0

    def test_step_sum(self):
        assert bnd.step_sum_bound(sched.constant(0.5), 2) == pytest.approx(
            math.exp(-2) / 4, rel=1e-15
        )
        assert bnd.step_sum_bound(sched.constant(0.1), 2) is None
        assert bnd.step_sum_bound(sched.constant(1), 1) == pytest.approx(
            math.exp(-2) / 4, rel=1e-15
        )

    def test_maxlinear_floor_examples(self):
        assert bnd.maxlinear_bound(sched.constant(0), 5, bnd.constant_envelope(1)) == 0.0
        got = bnd.maxlinear_bound(sched.constant(1), 1, bnd.constant_envelope(2))
        assert got == pytest.approx(1 / (256 * math.sqrt(2)), rel=1e-15)


class TestQuarticFloor:
    def test_examples(self):
        assert bnd.quartic_floor(sched.constant(1), 1) == 0.0
        assert bnd.quartic_floor(sched.constant(1), 3) == pytest.approx(
            (1 / 128) * (4 / 3), rel=1e-15
        )
        assert bnd.quartic_floor(sched.constant(0), 9) == 0.0

    def test_shifted_variant_dominates(self):
        s = sched.sqrt_decay(2, 1)
        for t in (1, 5, 50):
            assert bnd.quartic_floor(s, t, shifted=True) >= bnd.quartic_floor(s, t)


class TestAveragedFloor:
    def test_single_term(self):
        # T=2 has one contributing pair (t=2, j=1) with weight 1/2
        assert bnd.averaged_quartic_floor(sched.constant(1), 2) == pytest.approx(0.25, rel=1e-15)

    def test_zero_schedule(self):
        assert bnd.averaged_quartic_floor(sched.constant(0), 10) == 0.0

    def test_identity_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = sched.from_table(rng.uniform(0, 2, size=64))
            closed = bnd.averaged_quartic_floor(table, 64)
            brute = brute_force_average(table, 64)
            assert closed == pytest.approx(brute, rel=1e-12)


# -- the FFT quartic profile and its derived error bound ------------------------

_magnitudes = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)  # log-uniform in [1e-8, 1e3]
_blocks = st.one_of(
    st.lists(st.just(0.0), min_size=1, max_size=64),  # a run of zeros
    st.lists(_magnitudes, min_size=1, max_size=64),
)


@st.composite
def _even_tables(draw):
    """Table schedules of even length 4..512 built from the blocks above."""
    T = 2 * draw(st.integers(2, 256))
    values = []
    while len(values) < T:
        values += draw(_blocks)
    return values[:T]


def _exact_terms(eta, T):
    """Every ``(t, j)`` term ``j eta_j^2 / (t+1-j)``, ``j < t <= T``, rounded
    as the floors round it (three roundings each); row ``t - 1`` holds the
    terms of horizon ``t``, zero-padded."""
    j = np.arange(T, dtype=np.float64)
    t = np.arange(1, T + 1, dtype=np.float64)[:, None]
    w = j * eta * eta
    return np.where(j < t, w / np.maximum(t + 1.0 - j, 1.0), 0.0)


def _ramp(T):
    """``T`` steps rising log-uniformly from 1e-8 to 1e3."""
    return [10.0 ** (-8.0 + 11.0 * i / max(T - 1, 1)) for i in range(T)]


@settings(max_examples=30, deadline=None)
@given(_even_tables())
@example([0.0] * 510 + [1e3, 1e3])
@example(_ramp(512))
# odd T, powers of two and their neighbours, and T <= 2, where T + 2 > 2T - 1
# sets the transform length
@example(_ramp(1))
@example(_ramp(2))
@example(_ramp(3))
@example(_ramp(5))
@example(_ramp(255))
@example(_ramp(256))
@example(_ramp(257))
def test_fft_profile_within_derived_bound(table):
    T = len(table)
    s = sched.from_table(table)
    profile, conv_err = _quartic_profile(s, T)
    row_err = conv_err / 128.0 + 4.0 * U * profile
    terms = _exact_terms(s.rates(T), T)
    for t in range(1, T + 1):
        # fsum of the rounded terms is within gamma_4 of the exact row
        exact = math.fsum(terms[t - 1]) / 128.0
        assert abs(profile[t - 1] - exact) <= row_err[t - 1] + gamma(4) * exact
        # quartic_floor sums t such terms in any order: gamma_{t+2}
        floor = bnd.quartic_floor(s, t)
        assert abs(profile[t - 1] - floor) <= row_err[t - 1] + gamma(t + 2) * floor

    oracle = 128.0 * math.fsum(profile) / T
    oracle_err = conv_err / math.sqrt(T) + 6.0 * U * oracle
    # one fsum over all (t, j) terms, then / T: within gamma_5 of exact
    exact_avg = math.fsum(terms.ravel()) / T
    assert abs(oracle - exact_avg) <= oracle_err + gamma(5) * exact_avg
    # the brute force adds its T (T+1) / 2 terms one by one
    brute = brute_force_average(s, T)
    assert abs(oracle - brute) <= oracle_err + gamma(T * (T + 1) // 2 + 4) * brute


def _profile_inputs(table):
    """``_quartic_profile``'s two transform inputs and its length, for a table."""
    T = len(table)
    w = np.arange(T, dtype=np.float64) * np.asarray(table, dtype=np.float64)
    w *= np.asarray(table, dtype=np.float64)
    kernel = np.arange(T + 2, dtype=np.float64)
    kernel[1:] = 1.0 / kernel[1:]
    size = 1
    while size < max(2 * T - 1, T + 2):
        size *= 2
    return w, kernel, size


_huge = st.floats(430.0, 440.0).map(lambda e: 2.0**e)  # w_j^2 overflows from j = 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_huge, _magnitudes, st.just(0.0)), min_size=4, max_size=300))
@example([sched.MAX_STEP] * (2**16 + 5))  # two chunks of the scaled norm
@example([2.0**440] + [1e-150] * 63)  # the small entries underflow once scaled
@example([0.0] * 8)
def test_profile_error_bound_covers_the_exact_norm_term(table):
    w, kernel, size = _profile_inputs(table)
    bound = harness._profile_error_bound(w, kernel, size)
    assert 0.0 <= bound < math.inf
    # (65 L + 3) u ||w||_2 ||k||_1 for the stored inputs, compared squared
    c = (65 * (size.bit_length() - 1) + 3) * Fraction(U)
    exact_sq = c**2 * sum(Fraction(x) ** 2 for x in w.tolist()) * sum(map(Fraction, kernel.tolist())) ** 2
    assert Fraction(bound) ** 2 >= exact_sq
    profile, conv_err = _quartic_profile(sched.from_table(table), len(table))
    assert conv_err == bound and np.isfinite(profile).all()


def _former_floors(schedule, T, phi):
    """The floors' former array expressions, each with its own temporaries:
    ``maxlinear_bound``, both ``quartic_floor`` variants and
    ``averaged_quartic_floor``, all at ``T``."""
    eta = schedule.rates(T)
    j = np.arange(T, dtype=np.float64)
    root = math.sqrt(T + 1.0)
    maxlinear = float(np.sum(np.minimum(1.0, eta * root) ** 2 / (T + 1.0 - j))) / (64.0 * phi(T + 1) * root)
    quartic = [float(np.sum(eta * eta * w / (T + 1.0 - j))) / 128.0 for w in (j, j + 1.0)]
    H = np.cumsum(1.0 / np.arange(1, T + 1, dtype=np.float64))
    k = np.arange(1, T)
    averaged = float(np.sum(k * eta[1:T] ** 2 * (H[T - k] - 1.0))) / T
    return [maxlinear, *quartic, averaged]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_magnitudes, st.just(0.0), _huge), min_size=2, max_size=400))
@example(list(np.random.default_rng(3).uniform(0.0, 2.0, 5000)))  # many pairwise-sum blocks
@example([sched.MAX_STEP] * 64)
def test_in_place_floors_keep_their_bits(table):
    s, T, phi = sched.from_table(table), len(table), bnd.log_envelope()
    built = [
        bnd.maxlinear_bound(s, T, phi),
        bnd.quartic_floor(s, T),
        bnd.quartic_floor(s, T, shifted=True),
        bnd.averaged_quartic_floor(s, T),
    ]
    assert [v.hex() for v in built] == [v.hex() for v in _former_floors(s, T, phi)]


def test_averaged_floor_peak_allocation():
    # the terms are built in place: the steps' fresh copy and one array for
    # k and then the harmonic numbers, about 2 T floats (6 T with temporaries)
    import tracemalloc

    T = 2**20
    s = sched.sqrt_decay(2, 1)
    s.rates(T)  # the steps are materialised outside the traced call
    tracemalloc.start()
    try:
        bnd.averaged_quartic_floor(s, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * T


@pytest.mark.parametrize("T", [2, 4, 6, 64, 1000, 2**16, 2**20])
def test_envelope_floor_error_covers_the_exact_floor(T):
    import mpmath

    harm, _, err = bnd.envelope_floor(T)
    with mpmath.workdps(60):
        exact = mpmath.harmonic(T // 2) ** (mpmath.mpf(1) / 8) / (mpmath.mpf(2) ** 2.5 * mpmath.exp(2))
        assert abs(mpmath.mpf(harm) - exact) <= mpmath.mpf(err)
    assert err == gamma(T + 20) * harm


class TestCutoffAndFloor:
    def test_cutoff_examples(self):
        one = bnd.constant_envelope(1)
        assert bnd.tail_cutoff(55924, one) == 1
        assert bnd.tail_cutoff(10**6, one) == 34
        assert bnd.tail_cutoff(100, one) is None

    def test_cutoff_engages_for_a_constant_two_at_two_to_the_twenty(self):
        # the first power of two where const(2) engages: both tail steps pass
        T, phi, s = 2**20, bnd.constant_envelope(2), sched.sqrt_decay(2, 1)
        assert bnd.tail_cutoff(T // 2, phi) is None
        t1 = bnd.tail_cutoff(T, phi)
        target, margin = bnd.tail_margin(T, phi, t1)
        assert t1 == 1 and target >= margin > 0.0
        assert s.prefix_sum(T // 2 + 1) - s.prefix_sum(t1) >= target

    def test_envelope_floor_values(self):
        base = 2**2.5
        h2, l2, e2 = bnd.envelope_floor(2)
        assert h2 == pytest.approx(1 / (base * math.exp(2)), rel=1e-15)
        assert l2 == 0.0
        assert e2 == gamma(22) * h2
        h4, l4, _ = bnd.envelope_floor(4)
        assert h4 == pytest.approx(1.5**0.125 / (base * math.exp(2)), rel=1e-15)
        assert l4 == pytest.approx(math.log(2) ** 0.125 / (base * math.exp(1)), rel=1e-15)
        # the log form overtakes the harmonic form beyond tiny horizons
        assert l4 > h4

    def test_harmonic_form_nondecreasing(self):
        values = [bnd.envelope_floor(T)[0] for T in (2, 4, 8, 64, 512, 4096)]
        assert values == sorted(values)


def _rising(c, k, e):
    return bnd.GuaranteeEnvelope(lambda ts: c * (1.0 + k * np.log(ts)) ** e, "rising")


def _step(c, jump, at):
    return step_envelope(c, c * jump, at)


# non-decreasing envelopes: c (1 + k ln t)^e, and one jump, with c >= 1
_non_decreasing = st.one_of(
    st.builds(_rising, st.floats(1.0, 1e3), st.floats(0.0, 10.0), st.floats(0.0, 4.0)),
    st.builds(_step, st.floats(1.0, 1e3), st.floats(1.0, 1e3), st.integers(1, 2**200)),
)
# T / 2 in [2^k, 2^(k+1)) for k up to 199
_halves = st.builds(lambda k, r: 2**k + r % 2**k, st.integers(1, 199), st.integers(0, 2**199))


@settings(max_examples=300, deadline=None)
@given(_non_decreasing, _halves)
def test_tail_margin_holds_wherever_the_cutoff_engages(phi, half):
    # the chain's cutoff_margin test and a positive tail_sum_floor target
    T = 2 * half
    t1 = bnd.tail_cutoff(T, phi)
    assume(t1 is not None)
    target, margin = bnd.tail_margin(T, phi, t1)
    target_err, margin_err = bnd.tail_margin_error(target, margin)
    assert target > 0.0
    # target >= margin holds exactly, so its derived bound never refutes it
    assert bnd.decide(target, margin, target_err + margin_err) != "fail"


@settings(max_examples=200, deadline=None)
@given(_non_decreasing, _halves)
def test_tail_margin_error_bounds_the_exact_values(phi, half):
    # the exact target and margin of the envelope's values, to 60 digits
    T = 2 * half
    t1 = bnd.tail_cutoff(T, phi)
    assume(t1 is not None)
    target, margin = bnd.tail_margin(T, phi, t1)
    target_err, margin_err = bnd.tail_margin_error(target, margin)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(half + 1).sqrt() / (4 * Decimal(2).exp() * Decimal(phi(half + 1)))
        b = 2 * Decimal(phi(t1)) * Decimal(t1 + 1).sqrt()
        assert abs(Decimal(target) - (a - b)) <= Decimal(target_err)
        assert abs(Decimal(margin) - a / 2) <= Decimal(margin_err)


def test_l1_l2_equality_case():
    check = bnd.l1_l2_gap([1.0, 1.0, 1.0, 1.0])
    assert check["lhs"] == 4.0 and check["rhs"] == 4.0 and check["status"] == "pass"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-8.0, 3.0).map(lambda e: 10.0**e) | st.floats(-1e3, 1e3), min_size=1, max_size=200))
def test_l1_l2_error_bound_covers_both_sides(values):
    check = bnd.l1_l2_gap(values)
    exact = [Fraction(v) for v in values]
    A = sum(v * v for v in exact)
    B2n = sum(exact) ** 2 / len(exact)
    assert abs(Fraction(check["lhs"]) - A) + abs(Fraction(check["rhs"]) - B2n) <= Fraction(check["error_bound"])
    assert check["status"] != "fail"  # the exact sides always meet the inequality


def test_l1_l2_refuses_an_empty_vector():
    with pytest.raises(InvalidParameterError, match="^need a nonempty vector$"):
        bnd.l1_l2_gap([])


def test_l1_l2_near_tie_is_inconclusive():
    # the exact gap is 2^-105, far inside the rounding bound
    check = bnd.l1_l2_gap([1.0, 1.0 + 2.0**-52])
    assert 0.0 < check["error_bound"] and check["status"] == "inconclusive"
    # a constant vector meets the inequality with equality: it passes outright
    assert bnd.l1_l2_gap([0.1] * 1000)["status"] == "pass"


def _record(errors, label="s", horizon=None):
    errors = np.asarray(errors, dtype=np.float64)
    return engine.RunRecord(label, horizon or len(errors), errors)


class TestEmpiricalEnvelope:
    def test_all_zero_errors_clamp_to_one(self):
        phi = bnd.empirical_envelope([_record([0.0, 0.0, 0.0])])
        assert [phi(t) for t in (1, 2, 3, 9)] == [1.0, 1.0, 1.0, 1.0]

    def test_single_spike(self):
        phi = bnd.empirical_envelope([_record([0.0, 0.0, 0.0, 3.0, 0.0])])
        assert phi(3) == 1.0
        assert phi(4) == 6.0  # sqrt(4) * 3
        assert phi(5) == 6.0
        assert phi(100) == 6.0

    def test_monotone_and_multi_record(self):
        phi = bnd.empirical_envelope([
            _record([2.0, 0.0]),
            _record([0.0, 0.0, 1.0]),
        ])
        vals = [phi(t) for t in (1, 2, 3)]
        assert vals == sorted(vals)
        assert vals[0] == 2.0

    def test_no_records_rejected(self):
        with pytest.raises(InvalidParameterError, match="^empirical envelope needs at least one record$"):
            bnd.empirical_envelope([])

    def test_mixed_schedules_rejected(self):
        with pytest.raises(InvalidParameterError):
            bnd.empirical_envelope([_record([0.0], label="a"), _record([0.0], label="b")])

    def test_stays_below_known_envelope(self):
        from stepaudit import build_maxlinear, run, sqrt_decay

        s = sqrt_decay(2, 1)
        phi_known = bnd.log_envelope()
        records = [run(build_maxlinear(s, T, phi_known).convex, s, T) for T in (64, 512)]
        phi_hat = bnd.empirical_envelope(records)
        for t in range(1, 513):
            assert phi_hat(t) <= phi_known(t)


_errors = st.lists(
    st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-8.0, 3.0).map(lambda e: 10.0**e)),
    min_size=1,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_errors, min_size=1, max_size=4))
def test_empirical_envelope_is_at_least_one_and_non_decreasing(runs):
    records = [_record(errors) for errors in runs]
    phi = bnd.empirical_envelope(records)
    horizon = max(len(errors) for errors in runs)
    ts = range(1, horizon + 6)  # past the recorded range it extends flat
    vals = phi.values(ts)
    assert np.all(vals >= 1.0)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] == vals[horizon - 1]
    # it dominates every scaled measurement up to t
    for errors in runs:
        scaled = np.sqrt(np.arange(1, len(errors) + 1)) * np.asarray(errors)
        assert np.all(vals[: len(errors)] >= scaled)


_RECORDS = [engine.RunRecord("s", 40, np.random.default_rng(3).uniform(0.0, 0.5, 40))]
_envelope_makers = st.one_of(
    st.tuples(st.floats(1.0, 1e3), st.floats(0.0, 1e3)).map(lambda oc: lambda: bnd.log_envelope(*oc)),
    st.floats(1.0, 1e3).map(lambda c: lambda: bnd.constant_envelope(c)),
    st.just(lambda: bnd.empirical_envelope(_RECORDS)),
)


@settings(max_examples=60, deadline=None)
@given(_envelope_makers, st.integers(1, 2**17), st.lists(st.integers(1, 2**17), max_size=6))
def test_memo_keeps_the_bits_of_a_fresh_call(make, n, ts):
    # once values(range(1, n + 1)) fills the memo, phi(t) reads it for t <= n
    # and evaluates past it, bit for bit as an envelope that never saw a range
    phi = make()
    phi.values(range(1, n + 1))
    for t in ts + [1, n, n + 1]:
        assert phi(t).hex() == make()(t).hex()


def test_memo_is_read_only():
    phi = bnd.log_envelope()
    spec = harness.ExperimentSpec(sched.sqrt_decay(2, 1), [64], families=["maxlinear"], envelope=phi)
    # the spec holds the memo, phi(1) .. phi(65), which no caller can change
    assert not spec.phis.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spec.phis[0] = 0.5
    assert phi(1) == spec.phis[0] == 8.0


def test_per_t_density_evaluates_the_envelope_only_for_the_spec():
    calls = []

    def counted(ts):
        calls.append(len(ts))
        return 8.0 + 4.0 * np.log(ts)  # log_envelope()'s expression

    spec = harness.ExperimentSpec(
        sched.sqrt_decay(2, 1), [64], families=["maxlinear"], envelope=bnd.GuaranteeEnvelope(counted, "counted")
    )
    assert calls == [1, 65]  # phi(1) when built, then phi(1) .. phi(65)
    table = harness.density_experiment(spec, [1.0], per_t=True)
    assert calls == [1, 65] and not table.skipped
    plain = harness.density_experiment(harness.ExperimentSpec(spec.schedule, [64], spec.families), [1.0], per_t=True)
    assert table.profiles[64].tobytes() == plain.profiles[64].tobytes()


class TestValidateEnvelope:
    def test_known_pair_passes(self):
        rep = bnd.validate_envelope(sched.sqrt_decay(2, 1), bnd.log_envelope().values(range(1, 514)))
        assert rep == {"passed": True, "monotone_ok": True, "step_ok": True, "failures": []}

    def test_step_condition_failure(self):
        rep = bnd.validate_envelope(sched.constant(2), bnd.constant_envelope(1).values(range(1, 18)))
        assert not rep["step_ok"] and not rep["passed"]
        assert any("t=0" in f for f in rep["failures"])

    def test_monotonicity_failure(self):
        phi = step_envelope(2.0, 1.5, 5, label="dip")
        rep = bnd.validate_envelope(sched.constant(0), phi.values(range(1, 18)))
        assert not rep["monotone_ok"] and not rep["passed"]

    def test_checks_reach_t_max_plus_one(self):
        # the last value, phi(t_max + 1), enters the monotone check, and the
        # step condition runs on t = 1..t_max
        dip = np.array([2.0] * 16 + [1.5])
        rep = bnd.validate_envelope(sched.constant(0), dip)
        assert not rep["monotone_ok"] and rep["step_ok"]
        assert rep["failures"] == ["phi decreases between t=16 and t=17"]
        steps = sched.from_table([0.0] * 15 + [1.0, 100.0])  # eta_16 would fail, but t_max = 16
        assert bnd.validate_envelope(steps, np.full(17, 4.0))["passed"]
        with pytest.raises(InvalidParameterError, match="t_max >= 1"):
            bnd.validate_envelope(steps, np.full(1, 4.0))

    def test_below_one_failure(self):
        # a value below 1 is bad input, not a failed check: it raises where it is evaluated
        with pytest.raises(InvalidParameterError, match=r"envelope low is 0\.9 at t=1"):
            bnd.GuaranteeEnvelope(lambda ts: np.full(ts.shape, 0.9), label="low")
        late = step_envelope(2.0, 0.9, 4, label="late")
        with pytest.raises(InvalidParameterError, match=r"envelope late is 0\.9 at t=4"):
            late.values(range(1, 6))


class TestBoundReport:
    def test_csv_layout(self, tmp_path):
        report = bnd.BoundReport("s", "phi", ("maxlinear", "vshape", "quadratic"))
        report.rows.append(
            bnd.BoundRow(
                t=4,
                last_step=1.0,
                step_sum=None,
                maxlinear=0.5,
                quartic_floor=0.25,
                quartic_floor_shifted=0.3,
                floor_harmonic=0.1,
                floor_log=0.2,
                measured={"maxlinear": 0.75},
            )
        )
        path = tmp_path / "rep.csv"
        report.write_csv(str(path), header="hello")
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == (
            "t,last_step,step_sum,maxlinear,quartic_floor,quartic_floor_shifted,floor_harmonic,floor_log,"
            "err_maxlinear,err_vshape,err_quadratic"
        )
        assert lines[2] == "4,1.0,,0.5,0.25,0.3,0.1,0.2,0.75,,"
