"""Analytic error floors, guarantee envelopes, and bound reports.

A guarantee envelope is a non-decreasing function ``phi: {1, 2, ...} ->
[1, inf)`` certifying that the worst-case last-iterate error at step ``t``
is at most ``phi(t) / sqrt(t)``.  ``GuaranteeEnvelope`` refuses any value
that is not finite or lies below 1, so no floor here handles one.  The
functions below evaluate the lower bounds that any such envelope must
respect for a given stepsize schedule: the single-step floor, the
step-sum floor, the high-dimensional max-of-linear floor, the
fourth-power floor and its time average, and the asymptotic floor
obtained by combining them.  All constants are computed from library
transcendentals at full working precision; envelopes are numpy array
functions, so ``log_envelope`` uses numpy's ``log``, whose last bit can
differ from ``math.log``'s.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameterError, step_count
from .schedules import StepSchedule

__all__ = [
    "GuaranteeEnvelope",
    "log_envelope",
    "constant_envelope",
    "harmonic",
    "last_step_bound",
    "step_sum_bound",
    "maxlinear_bound",
    "quartic_floor",
    "averaged_quartic_floor",
    "tail_cutoff",
    "tail_margin",
    "tail_margin_error",
    "envelope_floor",
    "l1_l2_gap",
    "decide",
    "empirical_envelope",
    "validate_envelope",
    "BoundRow",
    "bound_row",
    "BoundReport",
]


class GuaranteeEnvelope:
    """A non-decreasing guarantee function ``phi(t) >= 1`` for ``t >= 1``.

    ``evaluator`` maps an int64 array of steps to the float64 array of their
    values; steps past the int64 range, which only the analytic tail bounds
    reach, come as their nearest float64 values.  Every value is checked
    when it is evaluated: one that is not finite or lies below 1 raises
    ``InvalidParameterError`` naming the envelope and the first bad ``t``.
    The constructor evaluates ``phi(1)``, the minimum of a non-decreasing
    envelope, so an envelope below 1 throughout is refused as soon as it is
    built.
    """

    def __init__(self, evaluator: Callable[[np.ndarray], np.ndarray], label: str = "phi"):
        self._evaluator = evaluator
        self.label = label
        self(1)

    def __call__(self, t: int) -> float:
        t = step_count(t, 1, "step")
        return float(self.values(range(t, t + 1))[0])

    def values(self, ts: range) -> np.ndarray:
        """``[phi(t) for t in ts]`` as a float64 array.

        ``ts`` is a range of steps ``t >= 1``, evaluated as one array; a
        single value is a one-step range, so ``phi(t)`` has the same bits.
        Overflow and invalid operations give inf or NaN without a warning,
        and the check names the first bad ``t``.
        """
        first, last = (ts[0], ts[-1]) if len(ts) else (1, 1)
        if min(first, last) < 1:
            raise InvalidParameterError("envelopes are defined for t >= 1")
        if max(first, last) < 2**63:  # np.arange's own length can round at large t
            steps = np.arange(len(ts), dtype=np.int64)
            steps *= ts.step
            steps += first
        else:
            steps = np.array(ts, dtype=np.float64)
        with np.errstate(all="ignore"):
            vals = np.asarray(self._evaluator(steps), dtype=np.float64)
        ok = (vals >= 1.0) & (vals < math.inf)  # NaN fails both
        if not ok.all():
            i = int(ok.argmin())
            raise InvalidParameterError(
                f"envelope {self.label} is {float(vals[i])!r} at t={ts[i]}: values must be finite and >= 1"
            )
        return vals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GuaranteeEnvelope({self.label!r})"


def log_envelope(offset: float = 8.0, coef: float = 4.0) -> GuaranteeEnvelope:
    """Envelope ``phi(t) = offset + coef * ln(t)``, with numpy's ``log``.

    The defaults are the known anytime guarantee of the ``sqrt_decay``
    schedule at unit gradient scale and diameter 2.
    """
    offset = float(offset)
    coef = float(coef)
    return GuaranteeEnvelope(
        lambda ts: offset + coef * np.log(ts),
        label=f"log(offset={offset:g},coef={coef:g})",
    )


def constant_envelope(c: float) -> GuaranteeEnvelope:
    """Envelope ``phi(t) = c`` (finite ``c >= 1``)."""
    c = float(c)
    return GuaranteeEnvelope(lambda ts: np.full(ts.shape, c), label=f"const({c:g})")


# -- elementary quantities -------------------------------------------------


_U = 2.0**-53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``, the relative error bound of
    ``k`` roundings; ``inf`` once ``k u >= 1/2``, where it no longer holds."""
    return k * _U / (1.0 - k * _U) if k * _U < 0.5 else math.inf


def harmonic(n: int) -> float:
    """Harmonic number ``H_n``, summed from the smallest term up."""
    n = step_count(n, 1, "harmonic index")
    # a sequential accumulate adds in loop order, so the bits match
    # ``total += 1.0 / i`` for i = n, ..., 1
    return float(np.add.accumulate(1.0 / np.arange(n, 0, -1, dtype=np.float64))[-1])


def last_step_bound(schedule: StepSchedule, t: int) -> float:
    """Error floor ``eta_{t-1}``: the final step cannot be undone."""
    t = step_count(t, 1, "horizon")
    return schedule.rate(t - 1)


def step_sum_bound(schedule: StepSchedule, t: int) -> float | None:
    """Error floor ``1 / (4 e^2 sum_{j<t} eta_j)`` when the sum is >= 1/2.

    Returns ``None`` when the step sum is below 1/2 (the floor does not
    apply there).
    """
    t = step_count(t, 1, "horizon")
    S = schedule.prefix_sum(t)
    if S < 0.5:
        return None
    return 1.0 / (4.0 * math.exp(2.0) * S)


def maxlinear_bound(schedule: StepSchedule, t: int, phi: GuaranteeEnvelope) -> float:
    """High-dimensional error floor from the max-of-linear construction.

    Evaluates ``sum_{j<t} min(1, eta_j sqrt(t+1))^2 / (t+1-j)`` scaled by
    ``1 / (64 phi(t+1) sqrt(t+1))``; algebraically equal to half the
    weighted step sum certified by the built instance.
    """
    t = step_count(t, 1, "horizon")
    terms = schedule.rates(t)  # a fresh array, turned into the terms in place
    root = math.sqrt(t + 1.0)
    terms *= root
    np.minimum(terms, 1.0, out=terms)
    np.square(terms, out=terms)
    terms /= np.arange(t + 1.0, 1.0, -1.0)  # t + 1 - j, exact integers
    return float(np.sum(terms)) / (64.0 * phi(t + 1) * root)


def quartic_floor(schedule: StepSchedule, t: int, shifted: bool = False) -> float:
    """Floor on ``phi(t+1)^4``: ``(1/128) sum_{j<t} eta_j^2 w_j / (t+1-j)``.

    The weight is ``w_j = j`` by default; ``shifted=True`` uses the
    sharper ``w_j = j + 1`` variant.
    """
    t = step_count(t, 1, "horizon")
    terms = schedule.rates(t)  # a fresh array, turned into the terms in place
    terms *= terms
    lo = int(shifted)
    w = np.arange(lo, t + lo, dtype=np.float64)  # w_j = j, or j + 1 when shifted
    terms *= w
    terms /= np.subtract(t + 1.0 + lo, w, out=w)  # t + 1 - j, exact integers
    return float(np.sum(terms)) / 128.0


def averaged_quartic_floor(schedule: StepSchedule, T: int) -> float:
    """Time average of the quartic floor over horizons ``1..T``.

    Closed form ``(1/T) sum_{k=1}^{T-1} k eta_k^2 (H_{T+1-k} - 1)``; the
    shifted harmonic weight counts the horizons ``t > k`` at which step
    ``k`` contributes, so this equals the brute-force double sum
    ``(1/T) sum_t sum_{j<t} j eta_j^2 / (t+1-j)`` exactly.

    The terms are built in place, with two arrays of about ``T`` floats
    alive at once: the steps' fresh copy becomes the terms, and one array
    holds ``k = 1..T`` and then, in place, the harmonic numbers ``H_1..H_T``
    as a running sum of ``1 / k``.
    """
    T = step_count(T, 2, "horizon")
    terms = schedule.rates(T)[1:]  # eta_k for k = 1..T-1, turned into the terms
    np.square(terms, out=terms)
    H = np.arange(1, T + 1, dtype=np.float64)
    terms *= H[: T - 1]  # k eta_k^2
    np.divide(1.0, H, out=H)
    np.add.accumulate(H, out=H)  # H[i] is the (i+1)-th harmonic number
    H -= 1.0
    terms *= H[T - 1 : 0 : -1]  # H[T - k]: the (T+1-k)-th harmonic number, less 1
    return float(np.sum(terms)) / T


def tail_cutoff(T: int, phi: GuaranteeEnvelope) -> int | None:
    """Warmup cutoff ``t1 = floor((h+1) / (256 e^4 phi(h+1)^4)) - 1``, ``h = T/2``.

    It makes ``tail_margin``'s test hold for every non-decreasing ``phi``:
    with ``M = sqrt(h+1) / (8 e^2 phi(h+1))`` the target is ``2 M - 2
    phi(t1) sqrt(t1+1)``, and ``sqrt(t1+1) <= sqrt(h+1) / (16 e^2
    phi(h+1)^2)`` gives ``2 phi(t1) sqrt(t1+1) <= (phi(t1) / phi(h+1)) M
    <= M``, as ``t1 <= h``.  (A square in place of the fourth power gives
    only ``phi(t1) M``, short of ``M`` once ``phi(t1) > 1``.)  As ``phi >=
    1``, ``t1 + 1 <= (h+1) / (256 e^4)``, so the tail segment ``[t1, h]``
    is never empty.  Returns ``None`` when the cutoff falls below 1
    (horizon too small for the tail argument to engage).
    """
    T = step_count(T, 2, "horizon")
    half = T // 2
    p = phi(half + 1)
    denom = 256.0 * math.exp(4.0) * p * p * p * p  # float * overflows to inf where ** raises
    t1 = math.floor((half + 1.0) / denom) - 1
    return t1 if t1 >= 1 else None


def tail_margin(T: int, phi: GuaranteeEnvelope, t1: int) -> tuple[float, float]:
    """``(target, margin)`` of the chain's tail steps at cutoff ``t1``, ``h = T/2``.

    ``target = sqrt(h+1) / (4 e^2 phi(h+1)) - 2 phi(t1) sqrt(t1+1)`` is the
    floor the tail step sum ``S(h+1) - S(t1)`` must reach, and the cutoff
    step asks ``target >= margin = sqrt(h+1) / (8 e^2 phi(h+1))``.  Neither
    depends on the schedule.  ``T`` must be at least 2, as for
    ``tail_cutoff``: below it the chain has no tail.
    """
    half = step_count(T, 2, "horizon") // 2
    t1 = step_count(t1, 1, "cutoff")
    p_half = phi(half + 1)
    target = math.sqrt(half + 1.0) / (4.0 * math.exp(2.0) * p_half) - 2.0 * phi(t1) * math.sqrt(t1 + 1.0)
    return target, math.sqrt(half + 1.0) / (8.0 * math.exp(2.0) * p_half)


def tail_margin_error(target: float, margin: float) -> tuple[float, float]:
    """Bounds on the rounding errors of ``tail_margin``'s ``(target, margin)``.

    The envelope's values are taken as exact, and ``math.exp`` as within one
    ulp (``2 u``, ``u = 2^-53``).  ``tail_margin`` computes ``a^ =
    sqrt(h+1) / (4 e^2 phi(h+1))``: the square root, ``exp``, the product
    and the division round (the factor 4 is exact), and so does converting
    ``h + 1`` to a float once it passes ``2^53``, which the square root
    halves.  That is ``5.5 u`` in all, so ``|a^ - a| <= gamma_6 a <= gamma_7
    a^`` for the exact ``a``, with ``gamma_k = k u / (1 - k u)``.  The
    factor 8 in place of 4 only shifts the exponent, so ``margin = a^ / 2``
    exactly, and it errs by at most ``gamma_7 margin``.  ``b^ = 2 phi(t1)
    sqrt(t1+1)`` rounds by ``2.5 u`` in the same way, so ``|b^ - b| <=
    gamma_4 b^``, and ``target = fl(a^ - b^)`` adds ``u |a^ - b^|``.
    Together ``target`` errs by at most ``gamma_8 (a^ + b^)``, and ``a^ +
    b^ <= 4 margin + (1 + 3 u) |target|``.

    Returns ``(gamma_9 (4 margin + 2 |target|), gamma_8 margin)``.  Each
    index is one higher than derived, which leaves a spare of at least ``5 u
    margin``; it covers the roundings of evaluating these bounds and of the
    chain's comparisons.
    """
    return _gamma(9) * (4.0 * margin + 2.0 * abs(target)), _gamma(8) * margin


def envelope_floor(T: int) -> tuple[float, float, float]:
    """Asymptotic floor on ``phi(T+1)`` in two forms, and the first one's error bound.

    Returns ``(harmonic_form, log_form, harmonic_error)`` with
    ``harmonic_form = H_{T/2}^{1/8} / (2^{5/2} e^2)`` and
    ``log_form = ln(T/2)^{1/8} / (2^{5/2} e)``.  The two curves cross at
    small horizons; callers compare, they do not assume an ordering.

    ``harmonic_error = gamma_{T+20} harmonic_form`` bounds the distance of
    the computed ``harmonic_form`` from the exact value, with ``gamma_k = k
    u / (1 - k u)`` and ``u = 2^-53``.  With ``n = T/2``: ``harmonic(n)``
    rounds each ``1/i`` once and adds the ``n`` positive terms in sequence,
    so it is ``H_n (1 + theta)`` with ``|theta| <= gamma_n`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Sec. 3.1),
    and ``(1 + theta)^{1/8}`` is within ``|theta|`` of 1.  The library
    ``** 0.125``, ``2.0 ** 2.5`` and ``math.exp(2.0)`` are taken as within
    one ulp (``2 u``, two unit roundings each), and the product and the
    division round once each: eight unit roundings, so ``harmonic_form =
    f (1 + rho)`` with ``|rho| <= gamma_{n+8}`` for the exact ``f``.  Then
    ``|harmonic_form - f| <= gamma_{n+8} / (1 - gamma_{n+8})
    harmonic_form <= gamma_{2n+16} harmonic_form``.  The four further
    indices cover the rounding of ``decide``'s subtraction and of
    evaluating the bound.
    """
    T = step_count(T, 2, "horizon")
    half = T // 2
    base = 2.0 ** 2.5
    harm = harmonic(half) ** 0.125 / (base * math.exp(2.0))
    lg = 0.0 if half == 1 else math.log(half) ** 0.125 / (base * math.exp(1.0))
    return harm, lg, _gamma(T + 20) * harm


def decide(lhs: float, rhs: float, err: float) -> str:
    """Decide ``lhs >= rhs`` for the exact values the computed sides stand for.

    ``err`` bounds the two sides' errors together.  Returns ``"pass"`` when
    the inequality holds for every exact pair that near the computed one,
    ``"fail"`` when it holds for none, and ``"inconclusive"`` otherwise
    (NaN sides included).
    """
    if lhs - rhs >= err:
        return "pass"
    if rhs - lhs > err:
        return "fail"
    return "inconclusive"


def l1_l2_gap(values: Sequence[float] | np.ndarray) -> dict:
    """Decide ``sum v^2 >= (sum v)^2 / n`` on a vector, under a derived error bound.

    Returns ``{lhs, rhs, error_bound, status}``: the computed sides, a bound
    on both sides' rounding together, and ``"pass"``, ``"fail"`` or
    ``"inconclusive"``.

    The sides are ``lhs = fl(sum fl(v_i^2))`` and ``rhs = fl(fl(s^2) / n)``
    with ``s = fl(sum v_i)``.  A float sum of ``m`` terms, in any order,
    errs by at most ``gamma_{m-1}`` times the sum of their magnitudes
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Sec. 4.2), with ``gamma_k = k u / (1 - k u)`` and ``u = 2^-53``.  Take
    the exact sums ``A = sum v^2``, ``B = sum v`` and ``N = sum |v|``, and
    ``N^ = fl(sum |v_i|)``:

    - ``|lhs - A| <= gamma_n A <= gamma_{2n} lhs``, as ``lhs >= (1 - gamma_n) A``;
    - ``|s - B| <= gamma_{n-1} N``, so ``|s^2 - B^2| <= gamma_{n-1} (2 +
      gamma_{n-1}) N^2``; the square and the division add ``gamma_2``, so
      ``|rhs - B^2 / n| <= gamma_3 rhs + gamma_{n-1} (2 + gamma_{n-1}) N^2 / n``;
    - ``N <= N^ / (1 - gamma_{n-1})``, and ``(2 + g) / (1 - g)^2 <= 3`` for
      ``g <= 1/8``.

    So ``gamma_{2n} lhs + gamma_3 rhs + 3 gamma_{n-1} N^2 / n`` bounds both
    sides' error together.  A product or quotient that underflows adds at
    most ``2^-1075`` absolute (a sum is exact there), and through the sums
    these add less than ``(n + 1) 2^-1073``, the bound's last term.  Each
    index is taken one higher: the spare, at least ``u (lhs + rhs)``,
    covers the roundings of evaluating the bound and of ``lhs - rhs`` for
    any ``n`` below ``2^48`` (``N^2 / n <= A`` by Cauchy-Schwarz keeps the
    bound below ``6 n u lhs``).  The status is ``decide``'s, except that a
    constant vector passes outright: it meets the inequality with
    equality, whatever the rounding.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise InvalidParameterError("need a nonempty vector")
    n = v.shape[0]
    lhs = float(np.sum(v * v))
    total = float(np.sum(v))
    rhs = total * total / n
    norm1 = float(np.sum(np.abs(v)))
    err = _gamma(2 * n + 1) * lhs + _gamma(4) * rhs + 3.0 * _gamma(n) * (norm1 * norm1 / n) + (n + 1) * 2.0**-1073
    status = "pass" if v.min() == v.max() else decide(lhs, rhs, err)
    return {"lhs": lhs, "rhs": rhs, "error_bound": err, "status": status}


# -- envelopes from measurements --------------------------------------------


def empirical_envelope(records: Iterable) -> GuaranteeEnvelope:
    """Best envelope candidate supported by measured errors.

    ``phi_hat(t) = max(1, max over records and s <= t of sqrt(s) err(s))``;
    non-decreasing by construction, and a lower bound on any true envelope
    of the records' schedule.  Past the recorded range the table extends
    flat.
    """
    records = list(records)
    if not records:
        raise InvalidParameterError("empirical envelope needs at least one record")
    labels = {r.schedule_label for r in records}
    if len(labels) > 1:
        raise InvalidParameterError(f"records mix schedules: {sorted(labels)}")
    max_t = max(r.horizon for r in records)
    scaled = np.full(max_t, 1.0)
    for r in records:
        ts = np.arange(1, r.horizon + 1, dtype=np.float64)
        np.maximum(scaled[: r.horizon], np.sqrt(ts) * r.errors, out=scaled[: r.horizon])
    table = np.maximum.accumulate(scaled)
    label = f"empirical({labels.pop()},T<={max_t})"
    return GuaranteeEnvelope(lambda ts: table[np.minimum(ts, max_t).astype(np.intp, copy=False) - 1], label)


def validate_envelope(schedule: StepSchedule, phi_values: np.ndarray) -> dict:
    """Check the conditions any true envelope must satisfy.

    ``phi_values`` holds ``phi(1), ..., phi(t_max + 1)``, as
    ``phi.values(range(1, t_max + 2))`` returns them.  On ``t = 1..t_max``:
    ``phi`` is non-decreasing through ``phi(t_max + 1)``, and meets the step
    condition ``phi(t+1) >= eta_t sqrt(t+1)`` forced by the single-step
    floor.  Returns ``{passed, monotone_ok, step_ok, failures}``, the
    record the reports embed.  Failures are report entries, never
    exceptions; a value below 1 or not finite raises where ``phi`` is
    evaluated, as everywhere.
    """
    vals = np.asarray(phi_values, dtype=np.float64)
    t_max = vals.shape[0] - 1
    if t_max < 1:
        raise InvalidParameterError("validate_envelope needs phi(1) .. phi(t_max + 1) with t_max >= 1")
    failures: list[str] = []
    mono = bool(np.all(np.diff(vals) >= 0))
    if not mono:
        t_bad = int(np.argmax(np.diff(vals) < 0)) + 1
        failures.append(f"phi decreases between t={t_bad} and t={t_bad + 1}")
    eta = schedule.rates(t_max)
    need = eta * np.sqrt(np.arange(1, t_max + 1, dtype=np.float64))
    step_ok = bool(np.all(vals[:t_max] >= need))
    if not step_ok:
        t_bad = int(np.argmax(vals[:t_max] < need))
        failures.append(
            f"step condition fails at t={t_bad}: eta_t sqrt(t+1) = {need[t_bad]} "
            f"> phi({t_bad + 1}) = {vals[t_bad]}"
        )
    return {"passed": mono and step_ok, "monotone_ok": mono, "step_ok": step_ok, "failures": failures}


# -- tabular report ----------------------------------------------------------


@dataclass
class BoundRow:
    """Analytic floors and measured errors at one horizon.

    The fields up to ``measured`` are ``bound_report.csv``'s columns, in
    order; ``BoundReport`` adds one ``err_<family>`` column per family.
    """

    t: int
    last_step: float
    step_sum: float | None
    maxlinear: float
    quartic_floor: float
    quartic_floor_shifted: float
    floor_harmonic: float | None
    floor_log: float | None
    measured: dict[str, float] = field(default_factory=dict)


def bound_row(schedule: StepSchedule, t: int, phi: GuaranteeEnvelope) -> BoundRow:
    """Every analytic floor at horizon ``t``; measured errors start empty."""
    t = step_count(t, 1, "horizon")
    floor_h, floor_l, _ = envelope_floor(t) if t >= 2 else (None, None, None)
    return BoundRow(
        t=t,
        last_step=last_step_bound(schedule, t),
        step_sum=step_sum_bound(schedule, t),
        maxlinear=maxlinear_bound(schedule, t, phi),
        quartic_floor=quartic_floor(schedule, t),
        quartic_floor_shifted=quartic_floor(schedule, t, shifted=True),
        floor_harmonic=floor_h,
        floor_log=floor_l,
    )


@dataclass
class BoundReport:
    """Per-horizon bound table for one schedule/envelope pair, with one
    measured-error column per name in ``families``."""

    schedule_label: str
    envelope_label: str
    families: Sequence[str]
    rows: list[BoundRow] = field(default_factory=list)

    def write_csv(self, path: str, header: str | None = None) -> None:
        def fmt(v) -> str:
            return "" if v is None else repr(float(v))

        columns = [f.name for f in fields(BoundRow)][:-1]  # ``measured`` is the err_ columns
        with open(path, "w") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write(",".join([*columns, *(f"err_{f}" for f in self.families)]) + "\n")
            for row in self.rows:
                cells = [str(row.t), *(fmt(getattr(row, c)) for c in columns[1:])]
                cells += [fmt(row.measured.get(f)) for f in self.families]
                fh.write(",".join(cells) + "\n")
