"""Experiment orchestration: trajectory verification, schedule audits,
stopping-time density measurement, and the end-to-end bound chain replay.

Work items (one per family/horizon pair) are pure functions of the
experiment spec; they run in order on the calling thread and results are
merged in the order of the spec's families and horizons, so every report
is deterministic.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from . import instances as inst
from .bounds import _U, _gamma
from .engine import ConvexInstance, run
from .errors import ConstructionError, InvalidParameterError, step_count
from .schedules import StepSchedule

__all__ = [
    "Tolerances",
    "ExperimentSpec",
    "TrajectoryReport",
    "AuditResult",
    "DensityTable",
    "ChainReport",
    "verify_trajectories",
    "audit_schedule",
    "empirical_audit",
    "density_experiment",
    "chain_check",
    "chain_horizon",
    "FAMILIES",
]


class Tolerances:
    """The pipeline's fixed tolerances, read as class attributes."""

    coord_abs = 1e-9
    scalar_rel = 1e-12
    kink_abs = 1e-6
    bound_slack = 1e-12


class Family(NamedTuple):
    """Everything the pipeline knows about one instance family."""

    # (schedule, t, phi) -> instance; raises ConstructionError when
    # the family does not apply at ``t``, while a bad stepsize raises
    # InvalidParameterError and stops the run.  Rows look the builder up on
    # ``inst`` when called, so a wrapper installed on the module is seen.
    build: Callable
    uncertified: str | None  # why a build that ran can be uncertified
    coord_tol: float  # verify's tolerance on iterates and errors
    floor: str | None = None  # the BoundRow floor the certificate must match


# the dumped and reported name of each family is its key here
_REGISTRY = {
    "maxlinear": Family(
        lambda schedule, t, phi: inst.build_maxlinear(schedule, t, phi),
        "a zero stepsize allows argmax ties", Tolerances.coord_abs, floor="maxlinear",
    ),
    "vshape": Family(
        lambda schedule, t, phi: inst.build_vshape(schedule, t),
        "its ramp overshoots the minimum", Tolerances.kink_abs,
    ),
    "quadratic": Family(lambda schedule, t, phi: inst.build_quadratic(schedule, t), None, Tolerances.coord_abs),
}
FAMILIES = tuple(_REGISTRY)


# numpy arrays span at most sys.maxsize bytes and the pipeline holds up to
# T + 2 float64 values per horizon, so a larger horizon is refused up front
_MAX_HORIZON = sys.maxsize // 8 - 2


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: schedule, horizons, families and envelope.

    Making a spec, also by ``dataclasses.replace``, checks them all and keeps
    ``phis = phi(1), ..., phi(T + 1)`` for the largest horizon ``T``, so a bad
    stepsize or envelope value stops the run before any work, and every later
    step reads these values.  ``horizons`` and ``families`` are kept as
    tuples, which later changes to the caller's lists do not reach.
    ``envelope`` must be a :class:`GuaranteeEnvelope`.
    """

    schedule: StepSchedule
    horizons: Sequence[int]
    families: Sequence[str] = FAMILIES
    envelope: bnd.GuaranteeEnvelope = field(default_factory=bnd.log_envelope)
    phis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hs = tuple(step_count(h, 1, "horizon") for h in self.horizons)
        if not hs:
            raise InvalidParameterError("horizons must be a nonempty list of integers >= 1")
        if sorted(hs) != list(hs):
            raise InvalidParameterError("horizons must be sorted ascending")
        if hs[-1] > _MAX_HORIZON:
            raise InvalidParameterError(f"horizon {hs[-1]} is too large: numpy cannot index a float64 array of T + 2 values")
        if isinstance(self.families, str):
            raise InvalidParameterError(f"families must be a list of names, got the string {self.families!r}")
        fams = tuple(self.families)
        for k, fam in enumerate(fams):
            if fam not in FAMILIES:
                raise InvalidParameterError(f"unknown family {fam!r}")
            if fam in fams[:k]:
                raise InvalidParameterError(f"family {fam!r} is repeated")
        if not fams:
            raise InvalidParameterError("at least one family must be selected")
        if not isinstance(self.envelope, bnd.GuaranteeEnvelope):
            raise InvalidParameterError(f"envelope must be a GuaranteeEnvelope, got {self.envelope!r}")
        object.__setattr__(self, "horizons", hs)
        object.__setattr__(self, "families", fams)
        self.schedule.prefix_sum(hs[-1])
        object.__setattr__(self, "phis", self.envelope.values(range(1, hs[-1] + 2)))


def _map_tasks(fn, keys, workers: int):
    """Apply ``fn`` to each key in order on this thread; return ``{key: fn(key)}``
    in the order of ``keys``.

    ``workers`` has no effect (threads only took turns on the GIL); callers
    pass 1, and it stays because stepbench's traced wrapper passes it on.
    """
    return {key: fn(key) for key in keys}


# -- trajectory verification -------------------------------------------------


@dataclass
class TrajectoryReport:
    entries: list[dict]
    max_deviation: float
    passed: bool


def _snapshot_grid(T: int) -> list[int]:
    times = {1, 2, max(T // 2, 1), T}
    return sorted(t for t in times if 1 <= t <= T)


def verify_trajectories(spec: ExperimentSpec) -> TrajectoryReport:
    """Compare simulated iterates and errors against the closed forms.

    For every selected family and horizon, the run's snapshots at a small
    time grid are checked coordinate-wise against ``closed_form_iterate``
    and the measured errors against the closed-form errors.  Deviations
    beyond tolerance are recorded as failures, not raised; a build that
    fails or is not certified is a ``skipped`` entry, as in ``audit``.
    """
    def work(key):
        family, T = key
        fam = _REGISTRY[family]
        try:
            built = fam.build(spec.schedule, T, spec.envelope)
        except ConstructionError as exc:
            return {"family": family, "T": T, "skipped": str(exc)}
        if not built.certified:  # its closed form need not describe the run
            return {"family": family, "T": T, "skipped": f"{family} floor not certified: {fam.uncertified}"}
        times = _snapshot_grid(T)
        record = run(built.convex, spec.schedule, T, snapshots=times)
        coord_tol = fam.coord_tol
        dev = 0.0
        for t in times:
            dev = max(dev, float(np.max(np.abs(record.snapshots[t] - built.closed_form_iterate(t)))))
        err_dev = max(
            abs(record.error_at(t) - built.closed_form_error(t)) for t in times
        )
        return {
            "family": family,
            "T": T,
            "snapshot_times": times,
            "max_coord_deviation": dev,
            "max_error_deviation": err_dev,
            "tolerance": coord_tol,
            "passed": dev <= coord_tol and err_dev <= coord_tol,
        }

    keys = [(family, T) for family in spec.families for T in spec.horizons]
    results = _map_tasks(work, keys, 1)
    entries = list(results.values())
    checked = [e for e in entries if "passed" in e]
    max_dev = max((e["max_coord_deviation"] for e in checked), default=0.0)
    passed = all(e["passed"] for e in checked)
    return TrajectoryReport(entries=entries, max_deviation=max_dev, passed=passed)


# -- schedule audit ------------------------------------------------------------


@dataclass
class AuditResult:
    report: bnd.BoundReport
    assertions: list[dict]
    skipped: list[dict]
    envelope_validation: dict
    instances: list[dict]
    passed: bool

    def summary(self) -> dict:
        return {
            "schedule": self.report.schedule_label,
            "envelope": self.report.envelope_label,
            "passed": self.passed,
            "assertions": self.assertions,
            "skipped": self.skipped,
            "envelope_validation": self.envelope_validation,
        }


def _audit_one(spec: ExperimentSpec, t: int):
    row = bnd.bound_row(spec.schedule, t, spec.envelope)
    assertions: list[dict] = []
    skipped: list[dict] = []
    dumps: list[dict] = []
    for family in spec.families:
        fam = _REGISTRY[family]
        try:
            built = fam.build(spec.schedule, t, spec.envelope)
        except ConstructionError as exc:
            skipped.append({"t": t, "family": family, "reason": str(exc)})
            continue
        record = run(built.convex, spec.schedule, t)
        measured, bound = record.error_at(t), record.final_error_bound
        del record  # its per-step arrays are not needed while the instance is dumped
        dumps.append({"family": family, **built.to_dict()})
        row.measured[family] = measured
        if not built.certified:
            skipped.append({"t": t, "family": family, "reason": f"{family} floor not certified: {fam.uncertified}"})
            continue
        cert = built.certified_bound()
        assertions.append(
            {
                "t": t,
                "family": family,
                "check": "measured_ge_certified",
                "measured": measured,
                "measured_error_bound": bound,
                "certified": cert,
                "passed": measured - bound >= cert - Tolerances.bound_slack,
            }
        )
        if fam.floor:
            # the instance certificate and the analytic floor are the same
            # sum grouped differently; they must agree to rounding
            analytic = getattr(row, fam.floor)
            rel = abs(cert - analytic) / max(abs(analytic), 1e-300)
            assertions.append(
                {
                    "t": t,
                    "family": family,
                    "check": "certificate_matches_analytic",
                    "certified": cert,
                    "analytic": analytic,
                    "rel_diff": rel,
                    "passed": rel <= Tolerances.scalar_rel,
                }
            )
    return row, assertions, skipped, dumps


def audit_schedule(spec: ExperimentSpec) -> AuditResult:
    """Instantiate the certified floors at every horizon and test them.

    For each horizon the applicable families are built, run, and the
    measured last-iterate error, less the run's bound on its rounding
    (``RunRecord.final_error_bound``), is asserted to dominate each
    certified floor.
    """
    validation = bnd.validate_envelope(spec.schedule, spec.phis)
    results = _map_tasks(lambda t: _audit_one(spec, t), spec.horizons, 1)
    report = bnd.BoundReport(spec.schedule.label, spec.envelope.label, FAMILIES)
    assertions: list[dict] = []
    skipped: list[dict] = []
    dumps: list[dict] = []
    for row, asserts, skips, dmp in results.values():
        report.rows.append(row)
        assertions.extend(asserts)
        skipped.extend(skips)
        dumps.extend(dmp)
    validation["gating"] = True
    passed = all(a["passed"] for a in assertions) and validation["passed"]
    return AuditResult(
        report=report,
        assertions=assertions,
        skipped=skipped,
        envelope_validation=validation,
        instances=dumps,
        passed=passed,
    )


def empirical_audit(spec: ExperimentSpec) -> AuditResult:
    """Audit under the envelope the spec's own runs support.

    A first pass builds and runs every selected family at every horizon
    under ``spec.envelope`` and keeps only the error records; the audit
    then runs under ``empirical_envelope`` of them.  That candidate only
    shapes the instances, so its step-condition status is reported but
    does not gate the verdict.
    """
    records = []
    for t in spec.horizons:
        for family in spec.families:
            try:
                built = _REGISTRY[family].build(spec.schedule, t, spec.envelope)
            except ConstructionError:
                continue
            records.append(run(built.convex, spec.schedule, t))
    if not records:
        raise ConstructionError("empirical envelope audit collected no runs")
    result = audit_schedule(dataclasses.replace(spec, envelope=bnd.empirical_envelope(records)))
    result.envelope_validation["gating"] = False
    result.passed = all(a["passed"] for a in result.assertions)
    return result


# -- stopping-time density ------------------------------------------------------


@dataclass
class DensityTable:
    """Counts of steps whose scaled error clears each threshold."""

    mode: str  # "single-run" or "per-t"
    rows: list[dict]
    profiles: dict[int, np.ndarray]
    builds: int = 0  # per-t builds attempted, one per distinct t
    skipped: list[tuple[int, str]] = field(default_factory=list)  # (t, reason) per skipped build

    def write_csv(self, path: str, header: str | None = None) -> None:
        with open(path, "w") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("c,T,count,density\n")
            for row in self.rows:
                fh.write(f"{row['c']!r},{row['T']},{row['count']},{row['density']!r}\n")

    def write_profile_csv(self, path: str, header: str | None = None) -> None:
        with open(path, "w") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("T,t,err,scaled_err\n")
            for T in sorted(self.profiles):
                errs = self.profiles[T]
                for t in range(1, T + 1):
                    e = float(errs[t - 1])
                    fh.write(f"{T},{t},{e!r},{math.sqrt(t) * e!r}\n")


def density_experiment(
    spec: ExperimentSpec, thresholds: Sequence[float], per_t: bool = False
) -> DensityTable:
    """Measure how often ``sqrt(t) err(t) >= c`` along the horizon.

    In single-run mode one instance per horizon ``T`` is simulated and all
    intermediate errors are read off: this profiles one fixed objective.
    With ``per_t=True`` a fresh instance targeted at each ``t`` is built
    and only its final error used, matching the worst-case quantifier order;
    each ``t`` up to the largest horizon runs once, and every horizon reads
    its prefix of these errors.  A max-of-linear run costs O(t) while its
    block from row 1 certifies to ``t`` (at least to 262144 on
    ``sqrt_decay(2, 1)``), so the mode costs O(T^2); past that it flushes
    its blocks' certified prefixes.  Both modes share ``t = T`` exactly.
    """
    if len(spec.families) != 1:
        raise InvalidParameterError(f"density experiments run on exactly one family, got {list(spec.families)}")
    family = spec.families[0]
    if isinstance(thresholds, str):
        raise InvalidParameterError(f"thresholds must be a list of numbers, got the string {thresholds!r}")
    try:
        thresholds = [float(c) for c in thresholds]
    except (TypeError, ValueError):
        raise InvalidParameterError(f"thresholds must be numbers or inf, got {thresholds!r}") from None
    if not thresholds:
        raise InvalidParameterError("density experiments need at least one threshold")
    if any(math.isnan(c) for c in thresholds):
        raise InvalidParameterError(f"thresholds must be numbers or inf, got {thresholds}")

    def build(t: int) -> ConvexInstance:
        return _REGISTRY[family].build(spec.schedule, t, spec.envelope).convex

    horizons = spec.horizons
    skipped: list[tuple[int, str]] = []
    if per_t:
        # the build for t does not depend on T: run each t once, share the prefixes
        errs = np.full(max(horizons), np.nan)
        for t in range(1, errs.shape[0] + 1):
            try:
                errs[t - 1] = run(build(t), spec.schedule, t).error_at(t)
            except ConstructionError as exc:
                skipped.append((t, str(exc)))
        profiles = {T: errs[:T] for T in horizons}
    else:
        profiles = _map_tasks(lambda T: run(build(T), spec.schedule, T).errors, horizons, 1)
    rows = []
    for T in sorted(profiles):
        errs = profiles[T]
        scaled = np.sqrt(np.arange(1, T + 1, dtype=np.float64)) * errs
        for c in sorted(thresholds):
            count = int(np.sum(scaled >= c))  # NaN compares false, so gaps never count
            rows.append({"c": c, "T": T, "count": count, "density": count / T})
    return DensityTable(
        mode="per-t" if per_t else "single-run",
        rows=rows,
        profiles=profiles,
        builds=max(horizons) if per_t else 0,
        skipped=skipped,
    )


# -- proof-chain replay ------------------------------------------------------------


@dataclass
class ChainReport:
    steps: list[dict]
    validation: dict
    passed: bool
    inconclusive: list[str]


def _quartic_profile(schedule: StepSchedule, T: int) -> tuple[np.ndarray, float]:
    """Quartic floors at every ``t <= T`` in one pass, and their error bound.

    Evaluates the family of weighted sums as one FFT convolution of
    ``w_j = j eta_j^2`` with the reciprocal kernel ``k_m = 1/m``.  Returns
    ``(profile, conv_err)``: ``profile[t-1]`` approximates
    ``quartic_floor(schedule, t)``, and ``conv_err`` is the a-priori bound
    of ``_profile_error_bound`` on the convolution's rounding.  Row ``t``
    then lies within ``conv_err / 128 + 4 u profile[t-1]`` of the exact sum
    ``(1/128) sum_{j<t} j eta_j^2 / (t+1-j)``, and ``128 fsum(profile) / T``
    within ``conv_err / sqrt(T) + 6 u |average|`` of its exact time average
    (``u = 2^-53``; derivation in ``_profile_error_bound``).

    The transform is the shortest alias-free one: ``size`` is the smallest
    power of two ``>= max(2T - 1, T + 2)``, which is ``2T`` at power-of-two
    ``T``.  The linear convolution ``c`` of ``w`` (indices ``0..T-1``) with
    the kernel (``0..T+1``) lives on ``0..2T``, and a cyclic one of length
    ``N`` reads ``conv[n] = c[n] + c[n + N]`` for ``0 <= n < N``.  Only
    ``conv[2..T+1]`` is read; there ``n + N >= 2 + 2T - 1 > 2T``, so the
    alias term is zero, and ``N >= T + 2 > T + 1`` keeps every read index
    below ``N`` and the kernel untruncated (the ``T + 2`` term matters only
    at ``T <= 2``).  Each input and spectrum is freed once used, so at most
    one input and two spectra of ``size / 2 + 1`` complex values are alive
    at once.
    """
    eta = schedule.rates(T)
    w = np.arange(T, dtype=np.float64)
    w *= eta
    w *= eta
    del eta
    kernel = np.arange(T + 2, dtype=np.float64)
    np.divide(1.0, kernel[1:], out=kernel[1:])
    size = 1
    while size < max(2 * T - 1, T + 2):
        size *= 2
    conv_err = _profile_error_bound(w, kernel, size)
    spectrum = np.fft.rfft(kernel, size)
    del kernel
    spectrum *= np.fft.rfft(w, size)
    conv = np.fft.irfft(spectrum, size)
    del spectrum
    # conv[t+1] sums w_j / (t+1-j) over j <= min(t+1, T-1); drop the j = t term
    profile = conv[2 : T + 2]
    profile[: T - 1] -= w[1:T]
    np.maximum(profile, 0.0, out=profile)
    profile /= 128.0
    return profile, conv_err


_NORM_CHUNK = 2**16  # entries per pass of _profile_error_bound's squared norm
_DBL_MAX = sys.float_info.max


def _profile_error_bound(w: np.ndarray, kernel: np.ndarray, size: int) -> float:
    """Bound ``E >= ||conv_computed - conv_exact||_2`` for ``_quartic_profile``.

    ``conv_exact`` is the cyclic convolution of length ``size``, which
    equals the linear one on every row ``_quartic_profile`` reads.
    Standard model of float64 arithmetic (no underflow or overflow), unit
    roundoff ``u = 2^-53``, ``L = log2(size)`` butterfly levels.  numpy's
    pocketfft is modelled as a radix-2 Cooley-Tukey transform (its radix-4
    and real-input passes group the same butterflies differently) whose
    twiddles err by at most ``mu = 16 u``: pocketfft forms each twiddle as
    the product of two table entries, each a ``libm`` cos/sin pair of a
    rounded angle (within about ``5 u``), and the product adds
    ``2 sqrt(2) u``, about ``13 u`` in all.  (Measured: an impulse's
    length-2^18 transform, whose outputs are the twiddles, lies within
    ``2.2 u`` of a long double reference.)

    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 24.2: a level perturbs each butterfly by at most
    ``eta = mu + gamma_4 (sqrt(2) + mu) = (16 + 4 sqrt(2)) u + O(u^2)``
    relative, so a transform errs by ``eps = L eta / (1 - L eta)``:

    - normwise, ``||fft(w)^ - fft(w)||_2 <= eps sqrt(n) ||w||_2``;
    - componentwise, ``|fft(k)^_i - fft(k)_i| <= eps ||k||_1``, because each
      output is a sum over a unique butterfly path of unit-modulus twiddles;
    - the pointwise complex product adds ``sqrt(2) gamma_2`` relative, and
      ``|fft(k)_i| <= ||k||_1``;
    - the inverse transform errs by ``eps`` relative (its ``1/n`` is exact).

    With ``||F x||_2 = sqrt(n) ||x||_2`` these compose to
    ``E = ((1 + eps)^3 (1 + sqrt(2) gamma_2) - 1) ||w||_2 ||k||_1``, that is
    ``(3 (16 + 4 sqrt(2)) L + 2 sqrt(2)) u ||w||_2 ||k||_1 + O(u^2)``: the
    first-order constant ``64.97 L + 2.83`` is rounded up to ``65 L + 3``.

    ``w`` and ``k`` are themselves rounded (``j * eta * eta`` twice, ``1/m``
    once), so the exact convolution of the stored inputs is within
    ``gamma_3`` relative of the exact one, termwise, on nonnegative terms;
    the row's ``conv - w_t`` subtraction rounds once more.  Hence row ``t``
    errs by at most ``E + 4 u q_t`` with ``q_t`` its exact value (``4 u``
    times the computed row to first order).  Summed over the ``T`` rows,
    Cauchy-Schwarz gives ``sum_t |conv error| <= sqrt(T) E``; ``fsum``
    and the division by ``T`` round twice, so the average errs by at most
    ``E / sqrt(T) + 6 u |average|``.

    Every dropped term is ``O(u^2) ||w||_2 ||k||_1`` per row (a row is at
    most ``||w||_2 ||k||_2`` by Cauchy-Schwarz); rounding the constant up
    leaves at least ``0.17 u ||w||_2 ||k||_1`` per row, about ``4e-5`` of
    ``E`` for any ``L <= 64``, to cover them and the few roundings of the
    final product.

    The norms come from numpy's pairwise sums, so each carries its own
    factor.  A float sum of ``m`` nonnegative terms in any order errs by at
    most ``gamma_{m-1}`` relative (Higham, Sec. 4.2); a product that
    underflows adds at most ``2^-1075`` absolute, and sums are exact there.
    ``||w||_2^2`` is summed from ``fl(w_j^2)`` in chunks of ``2^16``
    entries, one more order of the same terms, so no second array of
    ``n = len(w)`` floats is made, and ``d^ >= (1 - gamma_n) ||w||_2^2 - n
    2^-1074``.  Adding ``n 2^-1074`` (exact) rounds once more and the
    square root once, and ``(1 - u)^2 (1 - gamma_{n+1}) >= 1 -
    gamma_{n+3}``, so ``||w||_2 <= r^ / (1 - gamma_{n+3}) <= r^ (1 +
    gamma_{2n+6})`` for ``r^ = fl(sqrt(fl(d^ + n 2^-1074)))``.  Likewise
    ``||k||_1 <= fl(sum k) / (1 - gamma_m) <= fl(sum k) (1 + gamma_{2m})``
    with ``m = len(k)``.  (A BLAS dot product would sum in an order that
    depends on its thread count and CPU kernel.)

    Steps up to ``MAX_STEP = 2^440`` give ``w_j <= 2^940``, whose square
    overflows.  So where ``max w >= 2^480`` the norm is taken of ``s w``,
    ``s`` the power of two that puts ``max w`` in ``[2^479, 2^480)``: the
    squares stay below ``2^960`` and their sum finite.  Scaling is exact
    but where a product falls below ``2^-1022``, which moves it by at most
    ``2^-1075``: at most ``sqrt(n) 2^-1075`` on a norm of at least
    ``2^479``, far inside the spare.  Dividing by ``s`` is exact.
    """
    levels = size.bit_length() - 1
    n = w.shape[0]
    scale = 2.0 ** min(0, 480 - math.frexp(float(w.max()))[1])
    chunk = np.empty(min(n, _NORM_CHUNK))
    square = 0.0
    for i in range(0, n, _NORM_CHUNK):
        part = chunk[: min(n - i, _NORM_CHUNK)]
        np.multiply(w[i : i + _NORM_CHUNK], scale, out=part)
        np.square(part, out=part)
        square += float(np.add.reduce(part))
    norm = math.sqrt(square + n * 2.0**-1074) / scale * (1.0 + _gamma(2 * n + 6))
    k1 = float(np.add.reduce(kernel)) * (1.0 + _gamma(2 * kernel.shape[0]))
    return (65 * levels + 3) * _U * norm * k1


def _quartic_steps(
    schedule: StepSchedule, phis: np.ndarray, profile: np.ndarray, conv_err: float, rows: bool
) -> list[dict]:
    """Decide ``phi(t+1)^4 >= quartic_floor(t)`` at every ``t <= T``, as arrays.

    ``phis[t-1]`` holds ``phi(t)`` for ``t <= T + 1``, taken as exact, and
    ``profile`` the FFT rows with their error bound ``conv_err`` (see
    ``_quartic_profile``): row ``t`` is within ``conv_err / 128 + 4 u
    profile[t-1]`` of the exact floor.  The left side ``lhs = fl(fl(p^2)^2)``,
    ``p = phi(t+1) >= 1``, rounds twice: ``lhs = p^4 (1 + d1)^2 (1 + d2)``
    with ``|d1|, |d2| <= u``, so ``|lhs - p^4| <= ((1 - u)^-3 - 1) lhs <=
    gamma_3 lhs``.  A row is decided by the sign of ``slack = lhs -
    profile`` when ``|slack| > margin = conv_err / 128 + 4 u profile +
    gamma_4 lhs``.  The index one above 3 leaves ``u lhs``; with the
    profile bound's own spare it covers the three roundings of ``margin``
    and the one of ``slack``.

    An ``lhs`` that overflows stands for ``p^4 > DBL_MAX (1 - gamma_3)``
    and is decided as ``DBL_MAX``, so its row passes outright, with no
    exact sum, unless its profile row is itself near ``DBL_MAX``; it never
    fails by the array decision.  Any other row is decided by the exact
    per-horizon sum ``rhs = quartic_floor(t)``, as ``decide(top, rhs,
    gamma_4 top + gamma_{2t+4} rhs)``, ``top = min(lhs, DBL_MAX)``.  Its
    ``t`` terms round three times each (square, product with ``j``, division
    by ``t+1-j``; ``/ 128`` is exact) and ``np.sum`` adds them pairwise, so
    ``|rhs - Q| <= gamma_{t+2} Q <= gamma_{t+2} / (1 - gamma_{t+2}) rhs =
    gamma_{2t+4} rhs / 2`` for the exact sum ``Q`` (Higham, Sec. 4.2).  The
    other half, with the ``u top`` left by ``gamma_4``, covers the roundings
    of ``err`` and ``decide``, and the at most ``t^2 2^-1075`` of products
    that underflow: near a tie ``rhs`` is near ``lhs >= 1``.  A row within
    ``err`` is ``inconclusive``.  Returns one ``quartic_floor`` summary step
    (with an ``inconclusive`` count where there are such rows), or with
    ``rows`` one step per row, then ``quartic_floor_worst``: the row of
    least slack re-evaluated exactly.
    """
    T = profile.shape[0]
    with np.errstate(over="ignore"):
        lhs = np.square(phis[1:])
        np.square(lhs, out=lhs)
    slack = np.minimum(lhs, _DBL_MAX)
    margin = profile * (4.0 * _U)
    margin += conv_err / 128.0
    margin += _gamma(4) * slack
    slack -= profile
    decided = np.abs(slack) > margin
    del margin
    passed = decided & (slack > 0)
    failing = ~passed
    exact = {}  # row t -> its exact sum, where the FFT value is too close to call
    unsure = set()  # rows that sum cannot settle either
    for t in (np.flatnonzero(~decided) + 1).tolist():
        exact[t] = rhs = bnd.quartic_floor(schedule, t)
        top = min(float(lhs[t - 1]), _DBL_MAX)
        status = bnd.decide(top, rhs, _gamma(4) * top + _gamma(2 * t + 4) * rhs)
        passed[t - 1], failing[t - 1] = status == "pass", status == "fail"
        if status == "inconclusive":
            unsure.add(t)
    if rows:
        steps = []
        for t, (l, r, ok) in enumerate(zip(lhs.tolist(), profile.tolist(), passed.tolist()), start=1):
            row = {"step": "quartic_floor", "t": t, "lhs": l, "rhs": r}
            if t in exact:
                row["rhs_exact"] = exact[t]
            row["status"] = "inconclusive" if t in unsure else "pass" if ok else "fail"
            steps.append(row)
    else:
        failed = int(np.count_nonzero(failing))
        summary = {"step": "quartic_floor", "rows": T, "failed": failed, "decided_exactly": len(exact)}
        if unsure:
            summary["inconclusive"] = len(unsure)
        summary["status"] = "fail" if failed else "inconclusive" if unsure else "pass"
        if failed:
            summary["t"] = int(np.argmax(failing)) + 1
        steps = [summary]
    worst_t = int(np.argmin(slack)) + 1  # the first smallest
    exact_rhs = bnd.quartic_floor(schedule, worst_t)
    steps.append(
        {
            "step": "quartic_floor_worst",
            "t": worst_t,
            "slack": float(lhs[worst_t - 1]) - exact_rhs,
            "rhs_exact": exact_rhs,
            "status": "info",
        }
    )
    return steps


def chain_horizon(T: int) -> int:
    """``T`` as an int, if the chain replay can run at it (even, at least 4)."""
    T = step_count(T, 4, "chain horizon")
    if T % 2 != 0:
        raise InvalidParameterError(f"chain horizon {T} is odd")
    return T


def chain_check(spec: ExperimentSpec, rows: bool = False) -> ChainReport:
    """Numerically replay the lower-bound argument at the spec's largest
    horizon ``T``, which must be even.

    Checks, step by step: the quartic floor at every ``t <= T`` (from the
    FFT profile; a row within the profile's error bound of its threshold
    is decided by the exact per-horizon sum, or is inconclusive within its
    error bound), reported as one summary step with the count of failed
    rows, the count decided exactly, any inconclusive count and the first
    failing ``t``, or with ``rows`` as one step per row (``rhs_exact`` on
    the rows decided exactly); the averaging identity, whose closed form
    is compared with the profile's time average under the derived
    ``oracle_error_bound`` (pass or fail only where that bound settles it,
    otherwise inconclusive); the l1/l2 step on the tail segment; the tail
    step-sum floor and the cutoff margin (reported as ``inconclusive at
    this T`` when the cutoff does not engage at this horizon); and the
    final envelope floor.  The l1/l2, tail and envelope floor steps, too,
    pass or fail only where their derived float64 error bounds
    (``bounds.l1_l2_gap``, ``bounds.tail_margin_error``, the tail sum's
    below and ``bounds.envelope_floor``) settle it, and are inconclusive
    otherwise.  Each entry reports its sides and a status.
    """
    T = chain_horizon(spec.horizons[-1])
    schedule, phi, phis = spec.schedule, spec.envelope, spec.phis
    validation = bnd.validate_envelope(schedule, phis)
    profile, conv_err = _quartic_profile(schedule, T)
    steps = _quartic_steps(schedule, phis, profile, conv_err, rows)

    # the oracle is the profile's time average (a correctly rounded fsum);
    # it errs by at most oracle_err, and a verdict that bound cannot settle
    # is inconclusive
    closed = bnd.averaged_quartic_floor(schedule, T)
    oracle = 128.0 * math.fsum(memoryview(profile)) / T
    oracle_err = conv_err / math.sqrt(T) + 6.0 * _U * oracle
    diff = abs(closed - oracle)
    if (closed == 0.0 and oracle == 0.0) or diff + oracle_err <= Tolerances.scalar_rel * (oracle - oracle_err):
        status = "pass"
    elif diff - oracle_err > Tolerances.scalar_rel * (oracle + oracle_err):
        status = "fail"
    else:
        status = "inconclusive"
    steps.append(
        {
            "step": "average_identity",
            "lhs": closed,
            "rhs": oracle,
            "rel_diff": diff / max(oracle, 1e-300),
            "oracle_error_bound": oracle_err,
            "status": status,
        }
    )

    half = T // 2
    t1 = bnd.tail_cutoff(T, phi)
    lo = t1 or 1
    gap = bnd.l1_l2_gap(schedule.rates(half + 1)[lo:])
    steps.append(
        {
            "step": "l1_l2",
            "range": [lo, half],
            "lhs": gap["lhs"],
            "rhs": gap["rhs"],
            "status": gap["status"],
        }
    )

    S_half = schedule.prefix_sum(half + 1)
    ss = bnd.step_sum_bound(schedule, half + 1)
    steps.append(
        {
            "step": "step_sum_floor",
            "t": half + 1,
            "value": ss,
            "status": "pass" if ss is not None else "not_applicable",
            "prefix_sum": S_half,
        }
    )

    if t1 is None:
        steps.append({"step": "tail_sum_floor", "status": "inconclusive at this T"})
        steps.append({"step": "cutoff_margin", "status": "inconclusive at this T"})
    else:
        target, margin_rhs = bnd.tail_margin(T, phi, t1)
        target_err, margin_err = bnd.tail_margin_error(target, margin_rhs)
        tail = S_half - schedule.prefix_sum(t1)
        # a prefix sum S(k) adds its k nonnegative steps in order (k - 1
        # roundings), so S(h+1) and S(t1) each err by at most gamma_h S(h+1)
        # <= gamma_{2h} S(h+1) / 2, and the difference rounds once more; the
        # raised index leaves u S(h+1) for the comparison
        tail_err = _gamma(2 * half + 2) * S_half
        steps.append(
            {
                "step": "tail_sum_floor",
                "t1": t1,
                "lhs": tail,
                "rhs": target,
                "status": bnd.decide(tail, target, tail_err + target_err),
            }
        )
        steps.append(
            {
                "step": "cutoff_margin",
                "t1": t1,
                "lhs": target,
                "rhs": margin_rhs,
                "status": bnd.decide(target, margin_rhs, target_err + margin_err),
            }
        )

    floor_h, floor_l, floor_err = bnd.envelope_floor(T)
    phi_end = phi(T + 1)
    steps.append(
        {
            "step": "envelope_floor",
            "lhs": phi_end,
            "rhs": floor_h,
            "floor_log": floor_l,
            "status": bnd.decide(phi_end, floor_h, floor_err),
        }
    )

    inconclusive = [s["step"] for s in steps if s["status"].startswith("inconclusive")]
    gating = [s for s in steps if s["status"] in ("pass", "fail")]
    passed = all(s["status"] == "pass" for s in gating) and validation["passed"]
    return ChainReport(steps=steps, validation=validation, passed=passed, inconclusive=inconclusive)
