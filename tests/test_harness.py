import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepaudit import bounds as bnd
from stepaudit import cli, engine, harness
from stepaudit import schedules as sched
from stepaudit.errors import InvalidParameterError
from stepaudit.harness import (
    ExperimentSpec,
    Tolerances,
    audit_schedule,
    chain_check,
    density_experiment,
    empirical_audit,
    verify_trajectories,
)

from envelopes import step_envelope

SQRT21 = sched.sqrt_decay(2, 1)
SQRT64 = sched.sqrt_decay(64, 1)  # its quartic floor exceeds 1 from t = 2 on


def make_spec(**kwargs):
    defaults = dict(schedule=SQRT21, horizons=[8, 16], families=("maxlinear",))
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    # a spec checks itself when it is made, also from the library
    def test_horizons_must_ascend(self):
        with pytest.raises(InvalidParameterError, match="horizons must be sorted ascending"):
            make_spec(horizons=[16, 8])

    def test_horizons_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="^horizon 0 is below 1$"):
            make_spec(horizons=[0, 4])

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError, match="unknown family 'cubic'"):
            make_spec(families=("cubic",))

    def test_repeated_family(self):
        with pytest.raises(InvalidParameterError, match="family 'vshape' is repeated"):
            make_spec(families=("vshape", "maxlinear", "vshape"))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"horizons": []}, "horizons must be a nonempty list of integers >= 1"),
            ({"families": ()}, "at least one family must be selected"),
            ({"envelope": bnd.log_envelope(2.0, -0.5)}, "is 0.9602792291600821 at t=8"),
            ({"schedule": sched.constant(1e300)}, "produced a huge"),
        ],
        ids=["no-horizon", "no-family", "envelope-below-one", "huge-step"],
    )
    def test_other_bad_input_raises_when_made(self, kwargs, message):
        with pytest.raises(InvalidParameterError, match=message):
            make_spec(**kwargs)

    @pytest.mark.parametrize(
        "change", [{"horizons": [16, 8]}, {"families": ("cubic",)}], ids=["horizons", "family"]
    )
    def test_replace_checks_again(self, change):
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(make_spec(), **change)

    def test_huge_horizon_is_refused_naming_it(self):
        with pytest.raises(InvalidParameterError, match=f"horizon {2**61} is too large"):
            ExperimentSpec(sched.sqrt_decay(2, 1), [2**61])

    @pytest.mark.parametrize("phi", [bnd.log_envelope(), bnd.constant_envelope(3.0), step_envelope(1.0, 2.0, 5)])
    def test_phis_are_the_envelope_values(self, phi):
        spec = make_spec(horizons=[4, 8, 64], envelope=phi)
        expected = phi.values(range(1, 66))
        assert spec.phis.dtype == expected.dtype and spec.phis.tobytes() == expected.tobytes()
        assert spec.horizons == (4, 8, 64)

    def test_envelope_must_be_an_envelope(self):
        with pytest.raises(InvalidParameterError, match="envelope must be a GuaranteeEnvelope, got 'empirical'"):
            make_spec(envelope="empirical")

    def test_families_are_kept_as_a_tuple(self):
        # the spec was checked when it was made: a later change to the caller's list must not reach it
        fams = ["maxlinear", "vshape"]
        spec = make_spec(families=fams)
        fams.append("bogus")
        assert spec.families == ("maxlinear", "vshape")
        fams[:] = ["vshape", "vshape"]
        assert [list(row.measured) for row in audit_schedule(spec).report.rows] == [["maxlinear", "vshape"]] * 2

    def test_audit_materialises_the_schedule_once(self):
        # the spec reads eta_0..eta_T, the most any build at T reads, so an
        # all-family audit asks for no more values; a table of T rows has no eta_T
        asked = []

        def first(n):
            asked.append(n)
            return 2.0 / np.sqrt(np.arange(n) + 1.0)

        audit_schedule(ExperimentSpec(sched.StepSchedule(first), [8, 4096]))
        assert max(asked) == 4097
        asked.clear()
        ExperimentSpec(sched.StepSchedule(first, length=4096), [8, 4096])
        assert asked == [4096]

    def test_families_string_is_refused(self):
        with pytest.raises(InvalidParameterError, match="^families must be a list of names, got the string 'maxlinear'$"):
            make_spec(families="maxlinear")

    @pytest.mark.parametrize("horizon", [8.5, "8"])
    def test_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(InvalidParameterError, match=f"^horizon {horizon!r} is not an integer$"):
            make_spec(horizons=[4, horizon])


class TestVerify:
    def test_all_families_small(self):
        spec = make_spec(horizons=[4, 16], families=("maxlinear", "vshape", "quadratic"))
        report = verify_trajectories(spec)
        assert report.passed
        assert report.max_deviation <= 1e-9

    def test_construction_failures_become_skips(self):
        spec = make_spec(schedule=sched.constant(0.1), horizons=[2], families=("quadratic",))
        report = verify_trajectories(spec)
        assert report.entries[0]["skipped"].startswith("quadratic instance needs")

    @pytest.mark.parametrize(
        "table, T, family, reason",
        [
            # a subnormal exit step makes the ramp's eps subnormal: landing -0.9
            ([1.0, 0.1, 1.0, 1e-310, 1e-310, 1.0], 5, "vshape", "its ramp overshoots the minimum"),
            ([1, 0, 1, 0.5, 0.5, 1, 1, 1, 1], 8, "maxlinear", "a zero stepsize allows argmax ties"),
        ],
        ids=["vshape-subnormal-exit", "maxlinear-zero-step"],
    )
    def test_uncertified_builds_become_skips(self, table, T, family, reason):
        # their closed forms need not describe the run (deviations 0.9 and
        # 0.5 here), so verify skips them as audit does
        spec = make_spec(schedule=sched.from_table(table), horizons=[T], families=(family,))
        assert verify_trajectories(spec).entries == [
            {"family": family, "T": T, "skipped": f"{family} floor not certified: {reason}"}
        ]

    def test_zero_schedule_is_trivially_exact(self):
        spec = make_spec(
            schedule=sched.constant(0), horizons=[8], envelope=bnd.constant_envelope(1)
        )
        report = verify_trajectories(spec)
        assert report.passed
        assert report.max_deviation == 0.0


class TestAudit:
    def test_passes_on_reference_setup(self):
        spec = make_spec(horizons=[8, 16, 32], families=("maxlinear", "vshape", "quadratic"))
        result = audit_schedule(spec)
        assert result.passed
        checks = {a["check"] for a in result.assertions}
        assert checks == {"measured_ge_certified", "certificate_matches_analytic"}
        assert result.skipped == []
        assert all(row.measured for row in result.report.rows)

    def test_measured_error_counts_its_bound(self, monkeypatch):
        # a run that ends in a certified tail reports a bound on err(T), and
        # the verdict takes the measured error less that bound
        spec = make_spec(horizons=[64], families=("maxlinear",))
        check = next(a for a in audit_schedule(spec).assertions if a["check"] == "measured_ge_certified")
        rec = engine.run(harness.inst.build_maxlinear(spec.schedule, 64, spec.envelope).convex, spec.schedule, 64)
        assert check["measured_error_bound"] == rec.final_error_bound > 0.0
        assert check["passed"]
        margin = check["measured"] - check["certified"]

        def widened(*args, **kwargs):
            record = engine.run(*args, **kwargs)
            record.final_error_bound = margin + 1e-9
            return record

        monkeypatch.setattr(harness, "run", widened)
        assert not audit_schedule(spec).passed

    def test_reference_audit_larger_horizons(self):
        spec = make_spec(horizons=[8, 64, 512], families=("maxlinear", "vshape", "quadratic"))
        result = audit_schedule(spec)
        assert result.passed
        for row in result.report.rows:
            assert row.measured["maxlinear"] >= row.maxlinear - 1e-12

    def test_degenerate_zero_schedule(self):
        spec = make_spec(
            schedule=sched.constant(0),
            horizons=[4, 8],
            families=("maxlinear",),
            envelope=bnd.constant_envelope(1),
        )
        result = audit_schedule(spec)
        assert result.passed
        for row in result.report.rows:
            assert row.last_step == 0.0
            assert row.step_sum is None
            assert row.measured["maxlinear"] == 0.0

    def test_small_t_skips_recorded(self):
        # audit, verify and density --per-t all meet the one vshape guard
        spec = make_spec(horizons=[1, 8], families=("vshape",))
        result = audit_schedule(spec)
        assert result.skipped == [{"t": 1, "family": "vshape", "reason": "vshape needs a target >= 2"}]
        assert result.passed
        entries = verify_trajectories(spec).entries
        assert entries[0] == {"family": "vshape", "T": 1, "skipped": "vshape needs a target >= 2"}
        assert entries[1]["passed"]
        errs = density_experiment(make_spec(horizons=[4], families=("vshape",)), [0.0], per_t=True).profiles[4]
        assert np.isnan(errs[0]) and not np.isnan(errs[1:]).any()

    def test_envelope_validation_gates_named_envelopes(self):
        spec = make_spec(
            schedule=sched.constant(2), horizons=[4, 8], envelope=bnd.constant_envelope(1)
        )
        result = audit_schedule(spec)
        assert not result.passed
        assert not result.envelope_validation["passed"]

    def test_empirical_two_phase(self):
        result = empirical_audit(make_spec(horizons=[8, 16]))
        assert result.passed
        assert result.report.envelope_label.startswith("empirical(")
        assert result.envelope_validation["gating"] is False


def test_a_registered_family_reaches_every_output(tmp_path, monkeypatch):
    # a family is one registry row, its builder and its floor, plus its name
    # in FAMILIES: here the max-of-linear builder and floor under a new name
    row = harness.Family(harness._REGISTRY["maxlinear"].build, floor="maxlinear")
    monkeypatch.setitem(harness._REGISTRY, "coupled", row)
    monkeypatch.setattr(harness, "FAMILIES", (*harness.FAMILIES, "coupled"))
    table = tmp_path / "steps.csv"  # eta_1 = 0 lets the argmax tie: neither floor is certified
    table.write_text("t,eta\n" + "".join(f"{t},{0.0 if t == 1 else 0.5}\n" for t in range(9)))
    argv = ["--families", "maxlinear,coupled", "--T", "8", "--out", str(tmp_path)]
    assert cli.main(["audit", "--schedule", f"table:{table}", "--dump-instances", *argv]) == 0
    assert cli.main(["verify", *argv]) == 0
    header, cells = (line.split(",") for line in (tmp_path / "bound_report.csv").read_text().splitlines()[1:])
    assert header[-4:] == ["err_maxlinear", "err_vshape", "err_quadratic", "err_coupled"]
    assert float(cells[-1]) > 0 and cells[-1] == cells[-4]
    skipped = json.loads((tmp_path / "audit_summary.json").read_text())["skipped"]
    # the reason is the instance class's, and verify has one tolerance for every family
    reason = "coupled floor not certified: a zero stepsize allows argmax ties"
    assert skipped[-1] == {"t": 8, "family": "coupled", "reason": reason}
    entries = json.loads((tmp_path / "verify_report.json").read_text())["entries"]
    assert [(e["family"], e["tolerance"]) for e in entries] == [(f, Tolerances.coord_abs) for f in ("maxlinear", "coupled")]
    dumps = json.loads((tmp_path / "instances.json").read_text())["instances"]
    assert [d["family"] for d in dumps] == ["maxlinear", "coupled"]


def test_verify_lists_families_in_the_given_order(tmp_path):
    argv = ["verify", "--families", "vshape,maxlinear", "--horizons", "8,16", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    entries = json.loads((tmp_path / "verify_report.json").read_text())["entries"]
    assert [(e["family"], e["T"]) for e in entries] == [("vshape", 8), ("vshape", 16), ("maxlinear", 8), ("maxlinear", 16)]


@pytest.mark.parametrize("family", harness.FAMILIES)
def test_every_family_takes_one_fast_path(family):
    built = harness._REGISTRY[family].build(sched.sqrt_decay(2, 1), 16, bnd.log_envelope())
    assert (built.convex.kernel_data is None) != (built.convex.scalar is None)


class TestBadStepsizeAtTheHorizon:
    """The maxlinear builder reads eta_T, one index past every horizon's
    steps; a bad value there stops the run instead of reading as a skip."""

    @staticmethod
    def spec():
        dip = sched.StepSchedule(lambda n: np.where(np.arange(n) == 16, -1.0, 1.0), label="dip")
        return make_spec(schedule=dip, horizons=[16])

    @pytest.mark.parametrize(
        "entry",
        [
            audit_schedule,
            verify_trajectories,
            lambda spec: density_experiment(spec, [0.0], per_t=True),
        ],
        ids=["audit", "verify", "density-per-t"],
    )
    def test_raises(self, entry):
        with pytest.raises(InvalidParameterError, match=r"'dip' produced a negative stepsize at t=16"):
            entry(self.spec())


class TestDensity:
    def test_threshold_edges(self):
        spec = make_spec(horizons=[32])
        table = density_experiment(spec, [0.0, float("inf")])
        by_c = {row["c"]: row for row in table.rows}
        assert by_c[0.0]["density"] == 1.0
        assert by_c[float("inf")]["density"] == 0.0

    def test_monotone_in_threshold(self):
        spec = make_spec(horizons=[64])
        table = density_experiment(spec, [0.0, 1e-4, 1e-3, 1e-2, 1.0])
        densities = [row["density"] for row in table.rows]
        assert densities == sorted(densities, reverse=True)

    def test_per_t_matches_single_run_at_the_horizon(self):
        spec = make_spec(horizons=[48])
        single = density_experiment(spec, [0.0])
        per_t = density_experiment(spec, [0.0], per_t=True)
        assert single.profiles[48][47] == per_t.profiles[48][47]

    def test_per_t_runs_each_t_once(self, monkeypatch):
        # the build for t does not depend on T: all horizons share one run per t
        targets = []
        row = harness._REGISTRY["maxlinear"]
        counted = row._replace(build=lambda s, t, *rest: targets.append(t) or row.build(s, t, *rest))
        monkeypatch.setitem(harness._REGISTRY, "maxlinear", counted)
        table = density_experiment(make_spec(horizons=[8, 16]), [0.0], per_t=True)
        assert targets == list(range(1, 17))
        assert table.builds == 16
        assert table.profiles[8].tobytes() == table.profiles[16][:8].tobytes()
        # zero steps admit no vshape: each distinct t is skipped once
        spec = make_spec(schedule=sched.constant(0), horizons=[4, 8], families=("vshape",))
        table = density_experiment(spec, [0.0], per_t=True)
        assert table.builds == 8
        assert [t for t, _ in table.skipped] == list(range(1, 9))

    def test_thresholds_string_is_refused(self):
        with pytest.raises(InvalidParameterError, match="^thresholds must be a list of numbers, got the string '0.5'$"):
            density_experiment(make_spec(), "0.5")

    def test_thresholds_must_not_be_empty(self):
        with pytest.raises(InvalidParameterError, match="^density experiments need at least one threshold$"):
            density_experiment(make_spec(), [])

    @pytest.mark.parametrize("thresholds", [["abc"], [0.5, None]])
    def test_thresholds_must_be_numbers(self, thresholds):
        with pytest.raises(InvalidParameterError, match="^thresholds must be numbers or inf, got "):
            density_experiment(make_spec(), thresholds)

    def test_requires_single_family(self):
        spec = make_spec(families=("maxlinear", "vshape"))
        with pytest.raises(InvalidParameterError):
            density_experiment(spec, [0.0])

    def test_repeat_runs_identical(self):
        spec = make_spec(horizons=[32])
        t1 = density_experiment(spec, [0.0, 0.5])
        t2 = density_experiment(spec, [0.0, 0.5])
        assert t1.rows == t2.rows
        assert np.array_equal(t1.profiles[32], t2.profiles[32])

    def test_csv_files(self, tmp_path):
        spec = make_spec(horizons=[8])
        table = density_experiment(spec, [0.0])
        p = tmp_path / "density.csv"
        table.write_csv(str(p), header="hdr")
        lines = p.read_text().splitlines()
        assert lines[1] == "c,T,count,density"
        assert lines[2] == "0.0,8,8,1.0"


class TestChain:
    def test_requires_even_horizon(self):
        with pytest.raises(InvalidParameterError):
            chain_check(ExperimentSpec(SQRT21, [7]))
        with pytest.raises(InvalidParameterError):
            chain_check(ExperimentSpec(SQRT21, [2]))

    def test_reference_setup_passes(self):
        report = chain_check(ExperimentSpec(SQRT21, [64]))
        assert report.passed
        assert set(report.inconclusive) == {"tail_sum_floor", "cutoff_margin"}
        statuses = {s["step"]: s["status"] for s in report.steps if s["step"] != "quartic_floor"}
        assert statuses["average_identity"] == "pass"
        assert statuses["l1_l2"] == "pass"
        assert statuses["envelope_floor"] == "pass"

    def test_zero_schedule_trivially_consistent(self):
        report = chain_check(ExperimentSpec(sched.constant(0), [8], envelope=bnd.constant_envelope(1)))
        assert report.passed
        by_name = {s["step"]: s for s in report.steps}
        assert by_name["step_sum_floor"]["status"] == "not_applicable"

    def test_cutoff_steps_engage_on_huge_horizon(self):
        # with phi == 1 the cutoff first engages near T = 56k
        report = chain_check(ExperimentSpec(sched.sqrt_decay(1, 4), [55924], envelope=bnd.constant_envelope(1)))
        by_name = {s["step"]: s for s in report.steps}
        assert by_name["tail_sum_floor"]["t1"] == 1
        assert report.inconclusive == []
        assert report.passed

    def test_fft_profile_matches_exact_floor(self):
        from stepaudit.harness import _U, _quartic_profile

        profile, conv_err = _quartic_profile(SQRT21, 512)
        for t in (1, 2, 17, 256, 511, 512):
            exact = bnd.quartic_floor(SQRT21, t)
            # the row's derived bound, plus quartic_floor's own t + 2 roundings
            # ((t + 3) u covers gamma_{t+2})
            allowed = conv_err / 128.0 + 4.0 * _U * profile[t - 1] + (t + 3) * _U * exact
            assert abs(profile[t - 1] - exact) <= allowed

    def test_profile_peak_allocation(self):
        # numpy reports its buffers to tracemalloc, so the peak is the same on
        # every run: one input and two spectra of the 2T-point transform, about
        # 2.5 MB at T = 2^16 (6.0 MB with the 4T-point transform)
        import tracemalloc

        from stepaudit.harness import _quartic_profile

        schedule = sched.sqrt_decay(2, 1)
        schedule.rates(2**16)  # the steps are materialised outside the traced call
        tracemalloc.start()
        try:
            _quartic_profile(schedule, 2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_tail_steps_near_a_tie_are_inconclusive(self):
        # a tail sum within its rounding bound of the target settles neither way
        T, phi = 55924, bnd.constant_envelope(1)  # the cutoff engages here, at t1 = 1
        t1 = bnd.tail_cutoff(T, phi)
        target, _ = bnd.tail_margin(T, phi, t1)
        steps = [0.0] * t1 + [target] + [0.0] * (T - t1 - 1)
        report = chain_check(ExperimentSpec(sched.from_table(steps), [T], envelope=phi))
        by_name = {s["step"]: s for s in report.steps}
        assert by_name["tail_sum_floor"]["lhs"] == target
        assert by_name["tail_sum_floor"]["status"] == "inconclusive"
        assert by_name["cutoff_margin"]["status"] == "pass"
        assert "tail_sum_floor" in report.inconclusive

    def test_average_identity_reports_its_oracle_bound(self):
        report = chain_check(ExperimentSpec(SQRT21, [4096]))
        step = next(s for s in report.steps if s["step"] == "average_identity")
        assert step["status"] == "pass"
        assert 0.0 < step["oracle_error_bound"] < 1e-12 * step["rhs"]
        assert step["rel_diff"] < 1e-14

    def test_average_identity_undecidable_is_inconclusive(self):
        # steps only at the very end: the oracle's error bound exceeds the
        # 1e-12 relative tolerance, so neither pass nor fail can be certified
        T = 1024
        tail = sched.from_table([0.0] * (T - 2) + [1.0, 1.0])
        report = chain_check(ExperimentSpec(tail, [T], envelope=bnd.constant_envelope(1)))
        step = next(s for s in report.steps if s["step"] == "average_identity")
        assert step["oracle_error_bound"] > 1e-12 * step["rhs"]
        assert step["status"] == "inconclusive"
        assert "average_identity" in report.inconclusive

    def test_average_identity_off_by_a_billionth_fails(self, monkeypatch, tmp_path, capsys):
        # a closed form 1e-9 relative off the oracle is settled outside the
        # 1e-12 tolerance, so the step fails and so does the chain
        closed_form = bnd.averaged_quartic_floor
        monkeypatch.setattr(bnd, "averaged_quartic_floor", lambda s, T: closed_form(s, T) * (1 + 1e-9))
        report = chain_check(ExperimentSpec(SQRT21, [256]))
        step = next(s for s in report.steps if s["step"] == "average_identity")
        assert step["status"] == "fail"
        assert not report.passed
        assert cli.main(["bounds", "--T", "256", "--out", str(tmp_path)]) == 1
        assert "first failing step average_identity" in capsys.readouterr().out.splitlines()[-1]

    def test_huge_stepsizes_keep_a_finite_bound(self, recwarn):
        # w_j^2 overflows here, so the bound must scale ||w||_2, silently
        report = chain_check(ExperimentSpec(sched.constant(1e100), [8], envelope=bnd.constant_envelope(1)))
        step = next(s for s in report.steps if s["step"] == "average_identity")
        assert step["status"] == "pass"
        assert 0.0 < step["oracle_error_bound"] < 1e-12 * step["rhs"]
        assert len(recwarn) == 0

    def test_rows_within_the_bound_are_decided_exactly(self):
        # every row but the first (a zero floor under phi = 1) is within its bound
        report = chain_check(ExperimentSpec(SQRT64, [64], envelope=_tight_envelope(SQRT64, 64)), rows=True)
        rows = [s for s in report.steps if s["step"] == "quartic_floor"]
        assert ["rhs_exact" in r for r in rows] == [False] + [True] * 63
        for r in rows[1:]:
            assert r["rhs_exact"] == bnd.quartic_floor(SQRT64, r["t"])
            assert r["status"] == _exact_status(r["lhs"], r["rhs_exact"], r["t"])
        loose = chain_check(ExperimentSpec(SQRT21, [64]), rows=True)
        assert not any("rhs_exact" in s for s in loose.steps if s["step"] == "quartic_floor")

    def test_step_payloads_have_sides(self):
        report = chain_check(ExperimentSpec(SQRT21, [16]), rows=True)
        quartics = [s for s in report.steps if s["step"] == "quartic_floor"]
        assert len(quartics) == 16
        assert all({"lhs", "rhs", "t"} <= set(q) for q in quartics)


# -- the array row decisions against the per-row loop ------------------------------


def _reference_rows(schedule, phi, T):
    """The per-row loop the array decisions replaced: rows, then ``quartic_floor_worst``."""
    from stepaudit.harness import _U, _gamma, _quartic_profile

    steps = []
    worst, worst_t = math.inf, 1
    profile, conv_err = _quartic_profile(schedule, T)
    for t in range(1, T + 1):
        p = phi(t + 1)
        lhs = (p * p) * (p * p)
        rhs = float(profile[t - 1])
        top = min(lhs, sys.float_info.max)  # an overflowed lhs is decided as the largest float
        slack = top - rhs
        row = {"step": "quartic_floor", "t": t, "lhs": lhs, "rhs": rhs}
        if abs(slack) > (rhs * (4.0 * _U) + conv_err / 128.0) + _gamma(4) * top:
            row["status"] = "pass" if slack > 0 else "fail"
        else:
            row["rhs_exact"] = bnd.quartic_floor(schedule, t)
            row["status"] = _exact_status(lhs, row["rhs_exact"], t)
        steps.append(row)
        if slack < worst:
            worst, worst_t = slack, t
    exact_rhs = bnd.quartic_floor(schedule, worst_t)
    p = phi(worst_t + 1)
    worst_step = {
        "step": "quartic_floor_worst",
        "t": worst_t,
        "slack": (p * p) * (p * p) - exact_rhs,
        "rhs_exact": exact_rhs,
        "status": "info",
    }
    return steps, worst_step


def _exact_status(lhs, rhs_exact, t):
    """A row's verdict from its exact sum: within ``gamma_4 lhs + gamma_{2t+4} rhs`` it is open."""
    from stepaudit.harness import _gamma

    top = min(lhs, sys.float_info.max)
    return bnd.decide(top, rhs_exact, _gamma(4) * top + _gamma(2 * t + 4) * rhs_exact)


def _bitwise(step):
    """A step with every float replaced by its exact hex form."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in step.items()}


# positive stepsize tables with runs of zeros, magnitudes 1e-8 .. 1e3
_magnitudes = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)
_tables = st.lists(
    st.one_of(
        st.lists(st.just(0.0), min_size=1, max_size=12),
        st.lists(_magnitudes, min_size=1, max_size=40),
    ),
    min_size=1,
    max_size=12,
).map(lambda blocks: [v for block in blocks for v in block][:300])


def _tight_envelope(schedule, T):
    # where row t's FFT value exceeds 1, phi(t+1)^4 reproduces it to a few
    # ulps, inside its bound; elsewhere phi is 1
    from stepaudit.harness import _quartic_profile

    profile, _ = _quartic_profile(schedule, T)
    return bnd.GuaranteeEnvelope(
        lambda ts: np.where(ts >= 2, np.maximum(1.0, profile[np.maximum(ts, 2) - 2] ** 0.25), 1.0)
    )


_envelopes = st.one_of(
    st.tuples(st.just("log"), st.floats(1.0, 20.0), st.floats(0.0, 8.0)),
    st.tuples(st.just("const"), st.floats(1.0, 30.0), st.just(0.0)),
    st.tuples(st.just("tight"), st.just(0.0), st.just(0.0)),
)


@settings(max_examples=60, deadline=None)
@given(_tables, _envelopes)
@example(table=[1e3] * 8, env=("tight", 0.0, 0.0))  # rows above 1 from t = 2 on
@example(table=[1e3] * 8, env=("const", 1e80, 0.0))  # phi^4 overflows on every row
def test_array_rows_match_the_per_row_loop(table, env):
    T = max(4, len(table) - len(table) % 2)
    schedule = sched.from_table(table + [1.0] * (T + 2 - len(table)))
    kind, x, y = env
    if kind == "log":
        phi = bnd.log_envelope(x, y)
    elif kind == "const":
        phi = bnd.constant_envelope(x)
    else:
        phi = _tight_envelope(schedule, T)
    ref_rows, ref_worst = _reference_rows(schedule, phi, T)
    full = chain_check(ExperimentSpec(schedule, [T], envelope=phi), rows=True)
    rows = [s for s in full.steps if s["step"] == "quartic_floor"]
    assert [_bitwise(r) for r in rows] == [_bitwise(r) for r in ref_rows]
    summary_report = chain_check(ExperimentSpec(schedule, [T], envelope=phi))
    summary, worst = summary_report.steps[:2]
    assert _bitwise(worst) == _bitwise(ref_worst)
    assert _bitwise(full.steps[T]) == _bitwise(ref_worst)
    failing = [r["t"] for r in ref_rows if r["status"] == "fail"]
    exact = [r["t"] for r in ref_rows if "rhs_exact" in r]
    if kind == "tight" and any(r["rhs"] > 1.0 for r in ref_rows):
        assert exact
    unsure = [r["t"] for r in ref_rows if r["status"] == "inconclusive"]
    expected = {"step": "quartic_floor", "rows": T, "failed": len(failing), "decided_exactly": len(exact)}
    if unsure:
        expected["inconclusive"] = len(unsure)
    expected["status"] = "fail" if failing else "inconclusive" if unsure else "pass"
    if failing:
        expected["t"] = failing[0]
    assert summary == expected
    # every other step, the verdict and the validation are the same in both layouts
    assert [_bitwise(s) for s in summary_report.steps[1:]] == [_bitwise(s) for s in full.steps[T:]]
    assert summary_report.passed == full.passed
    assert summary_report.validation == full.validation


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 2.0**255))
@example(1.0 + 2.0**-52)
@example(2.0**255)
def test_fourth_power_rounding_is_inside_the_rows_lhs_term(p):
    from stepaudit.harness import _gamma

    lhs = (p * p) * (p * p)
    assert lhs == float(np.square(np.square(np.float64(p))))  # the array path's bits
    error = abs(Fraction(lhs) - Fraction(p) ** 4)
    u3 = Fraction(3, 2**53)
    assert error <= u3 / (1 - u3) * Fraction(lhs)  # the derived gamma_3 lhs
    assert error <= Fraction(_gamma(4)) * Fraction(lhs)  # the row's term


@pytest.mark.parametrize("T", [64, 256])
def test_rows_decided_exactly_agree_with_the_rational_sum(T):
    # a bare lhs >= quartic_floor(t) got 11 of these 63 rows wrong at T = 64
    # and 58 of 255 at T = 256; a row within the sum's error bound is open
    spec = ExperimentSpec(SQRT64, [T], envelope=_tight_envelope(SQRT64, T))
    rows = [s for s in chain_check(spec, rows=True).steps if s["step"] == "quartic_floor" and "rhs_exact" in s]
    assert len(rows) == T - 1
    eta = [Fraction(e) for e in SQRT64.rates(T).tolist()]
    for r in rows:
        t = r["t"]
        floor = sum(eta[j] ** 2 * j / (t + 1 - j) for j in range(t)) / 128
        if r["status"] != "inconclusive":
            assert (Fraction(float(spec.phis[t])) ** 4 >= floor) == (r["status"] == "pass"), t
    unsure = sum(r["status"] == "inconclusive" for r in rows)
    assert unsure > 0
    summary = chain_check(spec).steps[0]
    assert summary["inconclusive"] == unsure
    assert summary["status"] == ("fail" if summary["failed"] else "inconclusive")


def test_an_overflowing_fourth_power_passes_every_row(recwarn):
    # phi^4 = 1e320 is inf in float64: every row passes outright, no row is
    # summed exactly, and no overflow warning is printed
    spec = ExperimentSpec(SQRT21, [64], envelope=bnd.constant_envelope(1e80))
    report = chain_check(spec)
    assert report.steps[0] == {"step": "quartic_floor", "rows": 64, "failed": 0, "decided_exactly": 0, "status": "pass"}
    assert report.passed
    rows = [s for s in chain_check(spec, rows=True).steps if s["step"] == "quartic_floor"]
    assert all(r["lhs"] == math.inf and r["status"] == "pass" and "rhs_exact" not in r for r in rows)
    assert len(recwarn) == 0


def test_the_headline_chain_sums_only_its_worst_row(monkeypatch):
    # a margin that sent rows to the O(t) exact sum would show here
    summed = []
    exact_sum = bnd.quartic_floor
    monkeypatch.setattr(bnd, "quartic_floor", lambda s, t, *a: summed.append(t) or exact_sum(s, t, *a))
    report = chain_check(ExperimentSpec(SQRT21, [2**16]))
    assert report.steps[0]["decided_exactly"] == 0
    assert summed == [report.steps[1]["t"]]


def test_rows_decided_exactly_are_counted():
    # the tight envelope sends every row but the first to the exact sum
    tight = _tight_envelope(SQRT64, 64)
    summary = chain_check(ExperimentSpec(SQRT64, [64], envelope=tight)).steps[0]
    assert summary["decided_exactly"] == 63
    loose = chain_check(ExperimentSpec(SQRT21, [64])).steps[0]
    assert loose == {"step": "quartic_floor", "rows": 64, "failed": 0, "decided_exactly": 0, "status": "pass"}
    failing = chain_check(ExperimentSpec(sched.constant(100), [8], envelope=bnd.constant_envelope(1)))
    assert failing.steps[0]["status"] == "fail" and failing.steps[0]["t"] == 2
    assert not failing.passed


def _envelope_cases():
    rng = np.random.default_rng(3)
    record = engine.RunRecord("s", 40, rng.uniform(0.0, 0.5, 40))
    return [
        bnd.log_envelope(),
        bnd.log_envelope(1.5, 0.25),
        bnd.constant_envelope(3.0),
        bnd.empirical_envelope([record]),
        bnd.GuaranteeEnvelope(lambda ts: ts**0.5 + 1, label="root"),
    ]


@pytest.mark.parametrize("phi", _envelope_cases(), ids=["log", "log-small", "const", "empirical", "root"])
def test_envelope_values_match_calls(phi):
    # numpy's log and math.log differ in the last bit first at t = 9170, then
    # at 19143; the last range reaches past int64, where steps are float64
    for ts in (
        range(1, 300), range(5, 6), range(7, 7), range(40, 100, 3),
        range(9000, 9300), range(9170, 9171), range(19143, 19144), range(1, 20001, 7),
        range(2**63 - 2, 2**63 + 2),
    ):
        vals = phi.values(ts)
        assert vals.dtype == np.float64
        assert vals.tobytes() == np.array([phi(t) for t in ts], dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "phi",
    [
        bnd.log_envelope(1e308, 1e308),
        step_envelope(1.0, math.nan, 9, label="gap"),
        bnd.GuaranteeEnvelope(lambda ts: np.where(ts % 4 == 0, math.inf, 1.0), label="spikes"),
        step_envelope(2.0, 0.5, 7, label="dip"),
    ],
    ids=["log-overflow", "nan", "inf", "below-one"],
)
def test_envelope_values_raise_as_calls_do(phi):
    ts = range(1, 50)
    with np.errstate(all="ignore"):
        raw = phi._evaluator(np.arange(ts.start, ts.stop)).tolist()
    bad = next(t for t, v in zip(ts, raw) if not 1.0 <= v < math.inf)
    with pytest.raises(InvalidParameterError) as scalar:
        phi(bad)
    with pytest.raises(InvalidParameterError) as array:
        phi.values(ts)
    assert str(array.value) == str(scalar.value)
    with pytest.raises(InvalidParameterError, match="t >= 1"):
        bnd.constant_envelope(1).values(range(0, 3))
