import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stepaudit
from stepaudit import __version__, cli
from stepaudit.cli import main


def run_cli(*args):
    return main(list(args))


class TestExitCodes:
    def test_verify_success(self, tmp_path):
        code = run_cli(
            "verify", "--schedule", "sqrt_decay:D=2,G=1", "--families", "maxlinear",
            "--T", "64", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "verify_report.json").exists()

    def test_verify_failure_names_first_failing_entry(self, tmp_path, capsys, monkeypatch):
        entries = [
            {"family": "maxlinear", "T": 8, "max_coord_deviation": 0.0, "max_error_deviation": 0.0,
             "tolerance": 1e-9, "passed": True},
            {"family": "vshape", "T": 16, "max_coord_deviation": 2e-6, "max_error_deviation": 3e-6,
             "tolerance": 1e-6, "passed": False},
            {"family": "quadratic", "T": 16, "max_coord_deviation": 1.0, "max_error_deviation": 0.0,
             "tolerance": 1e-9, "passed": False},
        ]
        report = stepaudit.harness.TrajectoryReport(entries=entries, max_deviation=1.0, passed=False)
        monkeypatch.setattr("stepaudit.cli.verify_trajectories", lambda spec: report)
        code = run_cli("verify", "--schedule", "constant:c=1", "--T", "16", "--out", str(tmp_path))
        assert code == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert "; first failing entry vshape at T=16: deviation 3.000e-06 > tolerance 1.000e-06; report at" in last

    def test_missing_table_file(self, tmp_path):
        code = run_cli("verify", "--schedule", "table:missing.csv", "--T", "8", "--out", str(tmp_path))
        assert code == 2

    def test_table_schedule_end_to_end(self, tmp_path):
        table = tmp_path / "steps.csv"
        table.write_text("t,eta\n" + "\n".join(f"{t},{1.0 / (t + 1)}" for t in range(9)))
        code = run_cli(
            "verify", "--schedule", f"table:{table}", "--families", "maxlinear",
            "--T", "8", "--out", str(tmp_path),
        )
        assert code == 0

    def test_uncertified_build_cannot_be_verified(self, tmp_path, capsys):
        table = tmp_path / "steps.csv"
        table.write_text("t,eta\n" + "\n".join(f"{t},{v}" for t, v in enumerate([1, 0, 1, 0.5, 0.5, 1, 1, 1, 1])))
        code = run_cli(
            "verify", "--schedule", f"table:{table}", "--families", "maxlinear",
            "--T", "8", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot verify: maxlinear at T=8: maxlinear floor not certified: a zero stepsize allows argmax ties" in err

    def test_quadratic_precondition_surfaces(self, tmp_path, capsys):
        code = run_cli(
            "verify", "--schedule", "constant:c=0", "--families", "quadratic",
            "--T", "4", "--out", str(tmp_path),
        )
        assert code == 2
        assert "S >= 1/2" in capsys.readouterr().err

    def test_odd_horizon_bounds(self, tmp_path, capsys):
        for T, message in (("3", "chain horizon 3 is below 4"), ("5", "chain horizon 5 is odd")):
            code = run_cli("bounds", "--schedule", "sqrt_decay:D=2,G=1", "--T", T, "--out", str(tmp_path))
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bounds_horizon_refused_before_the_schedule(self, tmp_path, capsys, monkeypatch):
        def materialise(self, n):
            raise AssertionError(f"schedule materialised up to {n}")

        monkeypatch.setattr(stepaudit.schedules.StepSchedule, "_materialise", materialise)
        for T, message in (("1048577", "chain horizon 1048577 is odd"), ("2", "chain horizon 2 is below 4")):
            assert run_cli("bounds", "--T", T, "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(stepaudit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "stepaudit.cli", "bounds", "--T", "3", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: chain horizon 3 is below 4\n"

    def test_unknown_schedule(self, tmp_path):
        assert run_cli("verify", "--schedule", "warp:9", "--T", "4", "--out", str(tmp_path)) == 2

    def test_bad_envelope_fails_audit(self, tmp_path, capsys):
        # each case passes every assertion it makes; only the gating
        # envelope validation fails, and the last line must say so
        cases = [
            (("--schedule", "constant:c=2", "--phi", "const", "--horizons", "4,8"), "step condition fails at t=0"),
            (("--schedule", "constant:c=1e3", "--T", "8"), "step condition fails at t=0"),
        ]
        for k, (args, reason) in enumerate(cases):
            out = tmp_path / str(k)
            code = run_cli("audit", *args, "--out", str(out))
            assert code == 1
            summary = json.loads((out / "audit_summary.json").read_text())
            assert summary["envelope_validation"]["passed"] is False
            assert all(a["passed"] for a in summary["assertions"])
            last = capsys.readouterr().out.splitlines()[-1]
            assert f"envelope validation failed: {reason}" in last

    @pytest.mark.parametrize(
        "args, message",
        [
            (("audit", "--schedule", "constant:c=1e308"), "produced a huge (1e+308 > 2^440) stepsize at t=0"),
            (("audit", "--schedule", "constant:c=1e200"), "'constant(c=1e+200)' produced a huge"),
            (("bounds", "--schedule", "constant:c=1e200"), "'constant(c=1e+200)' produced a huge"),
            (("density", "--per-t", "--schedule", "constant:c=1e200"), "produced a huge"),
            (("bounds", "--phi", "const:c=inf"), "envelope const(inf) is inf at t=1: values must be finite and >= 1"),
            (("bounds", "--phi", "log:offset=inf"), "envelope log(offset=inf,coef=4) is inf at t=1"),
            (("audit", "--phi", "const:c=inf"), "envelope const(inf) is inf at t=1: values must be finite and >= 1"),
            (("audit", "--phi", "log:coef=inf"), "envelope log(offset=8,coef=inf) is nan at t=1"),
            (("audit", "--phi", "log:offset=1e308,coef=1e308"), "is inf at t=3: values must be finite and >= 1"),
            (("bounds", "--phi", "log:offset=1e308,coef=1e308"), "is inf at t=3: values must be finite and >= 1"),
            (("verify", "--phi", "log:offset=1e308,coef=1e308"), "is inf at t=3: values must be finite and >= 1"),
            (("density", "--family", "vshape", "--phi", "log:offset=1e308,coef=1e308"), "is inf at t=3"),
            (("density", "--thresholds", "nan"), "thresholds must be numbers or inf"),
            (("audit", "--schedule", "table:{one_column}"), "row without an eta value"),
            (("audit", "--schedule", "table:{directory}"), "bad schedule spec"),
            (("audit", "--schedule", "table:{huge_row}"), "produced a huge (1e+200 > 2^440) stepsize at t=1"),
            (("audit", "--schedule", "table:{bad_eta}"), "line 3 '1,abc': could not convert string 'abc' to float64"),
            (("verify", "--schedule", "table:{float_index}"), "line 3 '1.0,0.25': could not convert string '1.0' to int64"),
            (("audit", "--schedule", "table:"), "schedule 'table' needs a file path: table:PATH"),
            (("audit", "--schedule", "doubling_sqrt:D=0"), "doubling_sqrt requires D > 0 and G > 0"),
        ],
        ids=[
            "c-1e308", "audit-c-1e200", "bounds-c-1e200", "density-c-1e200", "bounds-phi-const-inf",
            "bounds-phi-offset-inf", "audit-phi-const-inf", "audit-phi-coef-inf", "phi-overflows",
            "bounds-phi-overflows", "verify-phi-overflows", "density-vshape-phi-overflows",
            "thresholds-nan", "table-one-column", "table-directory", "table-huge-row", "table-bad-eta",
            "table-float-index", "table-no-path", "doubling-zero-D",
        ],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, args, message):
        files = {"one_column": tmp_path / "one.csv", "directory": tmp_path, "huge_row": tmp_path / "huge.csv"}
        files["one_column"].write_text("t,eta\n0\n")
        files["huge_row"].write_text("t,eta\n0,0.5\n1,1e200\n2,0.1\n")
        files["bad_eta"] = tmp_path / "bad_eta.csv"
        files["bad_eta"].write_text("t,eta\n0,0.5\n1,abc")
        files["float_index"] = tmp_path / "float_index.csv"
        files["float_index"].write_text("t,eta\n0,0.5\n1.0,0.25\n")
        args = [a.format(**files) for a in args]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*args, "--T", "8", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert not (tmp_path / "out").exists()

    def test_huge_finite_envelope_passes(self, tmp_path):
        # phi^4 overflows to inf, which clears every quartic floor
        assert run_cli("bounds", "--T", "8", "--phi", "const:c=1e100", "--out", str(tmp_path)) == 0
        chain = json.loads((tmp_path / "chain_report.json").read_text())
        worst = [s for s in chain["steps"] if s["step"] == "quartic_floor_worst"]
        assert worst[0]["t"] == 1 and worst[0]["slack"] == float("inf")

    def test_audit_success(self, tmp_path):
        code = run_cli(
            "audit", "--schedule", "sqrt_decay:D=2,G=1", "--horizons", "8,16", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "bound_report.csv").exists()
        assert (tmp_path / "audit_summary.json").exists()

    def test_last_step_floor_is_capped_at_one(self, tmp_path):
        # no error on [-1, 1] exceeds 1, so a step of 5 floors the error at 1,
        # which the certified vshape run nearly attains at t = 2 and 4
        assert run_cli("audit", "--schedule", "constant:c=5", "--horizons", "1,2,4", "--out", str(tmp_path)) == 0
        header, *rows = (line.split(",") for line in (tmp_path / "bound_report.csv").read_text().splitlines()[1:])
        col = {name: i for i, name in enumerate(header)}
        assert [(row[col["t"]], row[col["last_step"]]) for row in rows] == [("1", "1.0"), ("2", "1.0"), ("4", "1.0")]
        assert all(0.999 < float(row[col["err_vshape"]]) <= 1.0 for row in rows[1:])

    def test_missing_horizons(self, tmp_path):
        assert run_cli("audit", "--schedule", "constant:c=1", "--out", str(tmp_path)) == 2

    def test_uncertified_build_is_listed_as_skipped(self, tmp_path, capsys):
        # eta_1 = 0 lets the max-of-linear argmax tie: the run is measured,
        # its floor is not asserted, and the skip says why
        table = tmp_path / "steps.csv"
        table.write_text("t,eta\n" + "".join(f"{t},{0.0 if t == 1 else 0.5}\n" for t in range(9)))
        out = tmp_path / "out"
        assert run_cli("audit", "--schedule", f"table:{table}", "--horizons", "8", "--out", str(out)) == 0
        assert capsys.readouterr().out.startswith("audit: 2/2 assertions passed, 1 skipped;")
        summary = json.loads((out / "audit_summary.json").read_text())
        assert summary["skipped"] == [
            {"t": 8, "family": "maxlinear", "reason": "maxlinear floor not certified: a zero stepsize allows argmax ties"}
        ]
        assert {a["family"] for a in summary["assertions"]} == {"vshape", "quadratic"}
        header, row = (line.split(",") for line in (out / "bound_report.csv").read_text().splitlines()[1:])
        assert float(row[header.index("err_maxlinear")]) > 0


class TestDensityCommand:
    def test_zero_threshold_all_ones(self, tmp_path):
        code = run_cli(
            "density", "--schedule", "sqrt_decay:D=2,G=1", "--T", "32",
            "--thresholds", "0", "--out", str(tmp_path),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "density.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("c,")
        ]
        assert all(float(row[3]) == 1.0 for row in rows)

    def test_inf_threshold(self, tmp_path):
        run_cli(
            "density", "--schedule", "sqrt_decay:D=2,G=1", "--T", "16",
            "--thresholds", "inf", "--out", str(tmp_path),
        )
        body = (tmp_path / "density.csv").read_text()
        assert "inf,16,0,0.0" in body

    def test_byte_identical_repeats(self, tmp_path):
        args = (
            "density", "--schedule", "sqrt_decay:D=2,G=1", "--T", "64",
            "--thresholds", "0,0.5,1", "--out", str(tmp_path),
        )
        assert run_cli(*args) == 0
        first = (tmp_path / "density.csv").read_bytes()
        first_profile = (tmp_path / "density_profile.csv").read_bytes()
        assert run_cli(*args) == 0
        assert (tmp_path / "density.csv").read_bytes() == first
        assert (tmp_path / "density_profile.csv").read_bytes() == first_profile

    def test_nonincreasing_in_threshold(self, tmp_path):
        run_cli(
            "density", "--schedule", "sqrt_decay:D=2,G=1", "--T", "64",
            "--thresholds", "0,0.001,0.01,1", "--out", str(tmp_path),
        )
        densities = [
            float(line.split(",")[3])
            for line in (tmp_path / "density.csv").read_text().splitlines()[2:]
        ]
        assert densities == sorted(densities, reverse=True)

    def test_per_t_names_skipped_builds(self, tmp_path, capsys):
        # zero steps admit no vshape at any t: every per-t build is skipped
        args = ("density", "--schedule", "constant:c=0", "--family", "vshape", "--T", "8", "--per-t")
        assert run_cli(*args, "--out", str(tmp_path)) == 0
        line = capsys.readouterr().out.strip()
        assert "; 8 of 8 per-t builds skipped, first at t=1: vshape needs a target >= 2;" in line
        profile = (tmp_path / "density_profile.csv").read_text().splitlines()
        assert all(row.endswith(",nan,nan") for row in profile[2:])
        # a run without skips keeps the old line
        assert run_cli("density", "--T", "8", "--per-t", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == f"density (per-t): 3 rows; outputs in {tmp_path}\n"


class TestBoundsCommand:
    def test_small_even_horizon(self, tmp_path):
        code = run_cli(
            "bounds", "--schedule", "sqrt_decay:D=2,G=1", "--phi", "log",
            "--T", "64", "--out", str(tmp_path),
        )
        assert code == 0
        chain = json.loads((tmp_path / "chain_report.json").read_text())
        assert chain["passed"] is True
        assert set(chain["inconclusive"]) == {"tail_sum_floor", "cutoff_margin"}
        csv_lines = (tmp_path / "bound_report.csv").read_text().splitlines()
        # analytic-only report has empty measured columns
        assert csv_lines[2].endswith(",,,")

    def test_tail_cutoff_below_its_margin_no_longer_fails(self, tmp_path, capsys):
        # const(2) first engages the tail cutoff at 2^20; below it both tail
        # steps are inconclusive, and cutoff_margin never fails
        assert run_cli("bounds", "--phi", "const:c=2", "--T", "262144", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.startswith("bounds: chain passed (2 steps inconclusive at this T)")

    def test_horizon_list(self, tmp_path):
        code = run_cli(
            "bounds", "--schedule", "sqrt_decay:D=2,G=1", "--horizons", "pow2:8-64",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "bound_report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ["8", "16", "32", "64"]

    def test_failed_chain_names_reason(self, tmp_path, capsys):
        cases = [
            ("constant:c=2", "envelope validation failed: step condition fails at t=0"),
            ("constant:c=100", "first failing step quartic_floor at t=2"),
        ]
        for schedule, reason in cases:
            code = run_cli("bounds", "--schedule", schedule, "--phi", "const", "--T", "8", "--out", str(tmp_path))
            assert code == 1
            assert reason in capsys.readouterr().out.splitlines()[-1]

    def test_failed_validation_named_beside_the_failing_step(self, tmp_path, capsys):
        # phi = 1 fails the step condition at t = 0 and the quartic row at t = 2
        args = ("--schedule", "constant:c=100", "--phi", "const", "--T", "8", "--out", str(tmp_path))
        assert run_cli("bounds", *args) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert "first failing step quartic_floor at t=2" in last
        assert "envelope validation failed: step condition fails at t=0" in last


_BELOW_ONE = [
    "log:offset=0.5",
    "log:offset=-1,coef=0",
    "log:offset=0,coef=0",
    "log:offset=1e-200,coef=0",
    "log:offset=1e-100,coef=0",
    "const:c=0.5",
]


class TestEnvelopeRule:
    @pytest.mark.parametrize("command", ["verify", "audit", "density", "bounds"])
    @pytest.mark.parametrize("phi", _BELOW_ONE)
    def test_envelope_below_one_exits_2(self, tmp_path, capsys, phi, command):
        # phi(1) is the least value of a non-decreasing envelope: the spec is
        # refused when it is parsed, before any output is written
        out = tmp_path / "out"
        family = ("--family", "vshape") if command == "density" else ()
        assert run_cli(command, "--phi", phi, "--T", "8", *family, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"bad envelope spec {phi!r}: envelope " in err[0], err
        assert "at t=1: values must be finite and >= 1" in err[0]
        assert not out.exists()

    def test_envelope_dipping_below_one_later_exits_2(self, tmp_path, capsys):
        # a decreasing envelope is a validation failure while it stays >= 1 ...
        assert run_cli("audit", "--phi", "log:offset=2,coef=-0.1", "--T", "8", "--out", str(tmp_path)) == 1
        assert "phi decreases between t=1 and t=2" in capsys.readouterr().out
        # ... and bad input from the first value below 1, wherever it is evaluated
        assert run_cli("audit", "--phi", "log:offset=2,coef=-0.5", "--T", "8", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "is 0.9602792291600821 at t=8" in err[0], err

    @pytest.mark.parametrize("command, families", [("verify", "vshape,vshape"), ("audit", "maxlinear,maxlinear")])
    def test_repeated_family_exits_2(self, tmp_path, capsys, command, families):
        out = tmp_path / "out"
        assert run_cli(command, "--families", families, "--horizons", "8", "--out", str(out)) == 2
        name = families.split(",")[0]
        assert capsys.readouterr().err.splitlines() == [f"error: family {name!r} is repeated"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args, message",
        [
            pytest.param(command, args, message, id=f"{name}-{command}")
            for name, args, message in [
                ("huge-step", ("--schedule", "constant:c=1e300"), "produced a huge (1e+300 > 2^440) stepsize at t=0"),
                ("workers", ("--workers", "0"), "workers must be >= 1"),
            ]
            for command in ["audit", "bounds", "density", "verify"]
        ],
    )
    def test_rejected_spec_makes_no_out_dir(self, tmp_path, capsys, command, args, message):
        # every subcommand checks the whole spec before it makes --out
        out = tmp_path / "out"
        family = {"verify": ("--families", "maxlinear"), "audit": ("--families", "maxlinear")}.get(command, ())
        assert run_cli(command, *args, *family, "--T", "8", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert not out.exists()

    _INF_PHI = ("--phi", "log:offset=1e308,coef=1e308", "--T", "8")  # phi(3) and later are inf

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("audit", *_INF_PHI), "is inf at t=3"),
            (("bounds", *_INF_PHI), "is inf at t=3"),
            (("density", *_INF_PHI), "is inf at t=3"),
            (("verify", *_INF_PHI), "is inf at t=3"),
            (("audit", "--phi", "empirical", "--families", "vshape", "--T", "1"), "collected no runs"),
            (("verify", "--schedule", "constant:c=0", "--horizons", "8"), "cannot verify: vshape at T=8"),
        ],
        ids=[
            "audit-inf-phi", "bounds-inf-phi", "density-inf-phi", "verify-inf-phi",
            "empirical-no-runs", "verify-skip",
        ],
    )
    def test_run_that_exits_2_on_a_computed_value_makes_no_out_dir(self, tmp_path, capsys, argv, message):
        # --out is made just before the first output is written
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "audit", "density", "bounds"])
    def test_out_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert run_cli(command, "--T", "8", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"output directory {str(out)!r} is not writable" in err[0], err


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": "constant:c=1", "T": 8, "thresholds": "0"}))
        code = run_cli("density", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        header = (tmp_path / "density.csv").read_text().splitlines()[0]
        assert '"schedule": "constant:c=1"' in header

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedule": "constant:c=1", "T": 8}))
        code = run_cli(
            "density", "--config", str(cfg), "--schedule", "sqrt_decay:D=2,G=1",
            "--thresholds", "0", "--out", str(tmp_path),
        )
        assert code == 0
        header = (tmp_path / "density.csv").read_text().splitlines()[0]
        assert "sqrt_decay:D=2,G=1" in header

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedul": "constant:c=1"}))
        assert run_cli("density", "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "command, config",
        [("density", {"rows": True}), ("density", {"dump_instances": True}), ("verify", {"thresholds": "0"}),
         ("bounds", {"families": "maxlinear"}), ("audit", {"per_t": True}), ("verify", {"family": "vshape"}),
         ("bounds", {"shrink": 1e-6})],
        ids=["density-rows", "density-dump", "verify-thresholds", "bounds-families", "audit-per-t", "verify-family",
             "bounds-shrink"],
    )
    def test_config_field_of_another_subcommand(self, tmp_path, capsys, command, config):
        # a field the subcommand does not take is refused, not recorded and ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(command, "--config", str(cfg), "--T", "8", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown config fields for {command}: {sorted(config)}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv", [("verify", "--family", "vshape"), ("bounds", "--shrink", "1e-6")], ids=["verify-family", "bounds-shrink"]
    )
    def test_flag_the_subcommand_does_not_take_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--T", "8", "--out", str(out)) == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "audit", "density", "bounds"])
    @pytest.mark.parametrize(
        "config, flags", [({}, ("--T", "8", "--horizons", "8")), ({"T": 8}, ("--horizons", "16"))], ids=["flags", "file"]
    )
    def test_T_with_horizons_exits_2(self, tmp_path, capsys, command, config, flags):
        # neither wins over the other, wherever each comes from
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == ["error: give --T or --horizons, not both"]
        assert not out.exists()

    def test_bounds_takes_rows_from_the_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": True}))
        assert run_cli("bounds", "--config", str(cfg), "--T", "8", "--out", str(tmp_path)) == 0
        chain = json.loads((tmp_path / "chain_report.json").read_text())
        assert chain["meta"]["config"]["rows"] is True
        assert sum(step["step"] == "quartic_floor" for step in chain["steps"]) == 8

    @pytest.mark.parametrize("command", ["verify", "density", "bounds"])
    def test_empirical_envelope_is_refused_outside_audit(self, tmp_path, capsys, command):
        assert run_cli(command, "--phi", "empirical", "--T", "8", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {command} needs a concrete envelope (field 'phi'), not 'empirical'"]
        assert not (tmp_path / "out").exists()

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli("density", "--config", str(cfg), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ({"workers": "two"}, ("--T", "4"), "'workers' must be int"),
            ({"T": "abc"}, (), "'T' must be int"),
            ({}, ("--T", "4", "--thresholds", "a,b"), "bad thresholds list"),
            ({}, ("--T", "0"), "horizon 0 is below 1"),
            ({"T": 8.9}, (), "'T' must be int, got 8.9"),
            ({"T": 1e3}, (), "'T' must be int, got 1000.0"),
            ({"per_t": "true"}, ("--T", "4"), "'per_t' must be bool"),
            ([], ("--T", "4"), "must hold a JSON object, not list"),
            ({}, ("--horizons", "pow2:a-b"), "bad horizons range 'pow2:a-b'; expected pow2:LO-HI"),
            ({}, ("--horizons", "pow2:3-3"), "range 'pow2:3-3' contains no powers of two"),
            ({}, ("--horizons", "8,x"), "bad horizons list '8,x'"),
        ],
        ids=["workers-two", "T-abc", "thresholds-ab", "T-zero", "T-float", "T-exponent", "switch-text", "not-object",
             "pow2-not-numbers", "pow2-empty", "horizons-x"],
    )
    def test_bad_values_exit_2(self, tmp_path, capsys, config, flags, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("density", "--config", str(cfg), *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STEPAUDIT_OUT", str(tmp_path / "envout"))
        code = run_cli("density", "--schedule", "constant:c=1", "--T", "4", "--thresholds", "0")
        assert code == 0
        assert (tmp_path / "envout" / "density.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "audit", "density"])
    def test_shrink_is_refused(self, tmp_path, capsys, command):
        # the vshape shrink factor is fixed: no subcommand takes it as a flag or a field
        out = tmp_path / "out"
        assert run_cli(command, "--shrink", "1e-05", "--T", "8", "--out", str(out)) == 2
        assert "unrecognized arguments: --shrink" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shrink": 1e-05}))
        assert run_cli(command, "--config", str(cfg), "--T", "8", "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: unknown config fields for {command}: ['shrink']"]
        assert not out.exists()


class TestOutputHeaders:
    def test_version_in_headers(self, tmp_path):
        run_cli("density", "--schedule", "constant:c=1", "--T", "4", "--thresholds", "0", "--out", str(tmp_path))
        for name in ("density.csv", "density_profile.csv"):
            assert f"stepaudit {__version__}" in (tmp_path / name).read_text().splitlines()[0]

    def test_json_carries_meta(self, tmp_path):
        run_cli("audit", "--schedule", "sqrt_decay:D=2,G=1", "--horizons", "8", "--out", str(tmp_path))
        summary = json.loads((tmp_path / "audit_summary.json").read_text())
        assert summary["meta"]["tool"] == f"stepaudit {__version__}"
        assert summary["meta"]["config"]["horizons"] == "8"

    def test_empirical_audit_via_cli(self, tmp_path):
        code = run_cli(
            "audit", "--schedule", "sqrt_decay:D=2,G=1", "--phi", "empirical",
            "--horizons", "8,16", "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "audit_summary.json").read_text())
        assert summary["envelope"].startswith("empirical(")

    def test_dump_instances(self, tmp_path):
        code = run_cli(
            "audit", "--schedule", "sqrt_decay:D=2,G=1", "--horizons", "4",
            "--dump-instances", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "instances.json").read_text())
        families = {d["family"] for d in payload["instances"]}
        assert families == {"maxlinear", "vshape", "quadratic"}


def _keyed_rows():
    """(flag, table, name) for every spec-table row that takes key=value pairs."""
    return [
        pytest.param(flag, table, name, id=f"{flag[2:]}-{name}")
        for flag, table in (("--schedule", cli._SCHEDULES), ("--phi", cli._ENVELOPES))
        for name, (_, defaults) in table.items()
        if defaults is not None
    ]


def _label(built):
    return getattr(built, "label", built)


def _bad_specs():
    """(flag, spec, message) for specs with an undeclared, repeated or bare key."""
    cases = [
        ("--schedule", "sqrt_decay:d=2", "unknown key 'd'"),
        ("--schedule", "constant:C=0.5", "unknown key 'C'"),
        ("--schedule", "sqrt_decay:D=2,D=3", "repeated key 'D'"),
        ("--phi", "log:Offset=3", "unknown key 'Offset'"),
        ("--phi", "empirical:c=5", "unknown key 'c'"),
        ("--phi", "empirical:x=1", "unknown key 'x'"),
    ]
    for row in _keyed_rows():
        flag, table, name = row.values
        keys = list(table[name][1])
        cases.append((flag, f"{name}:bogus=1", "unknown key 'bogus'"))
        cases.append((flag, f"{name}:{(keys or ['x'])[0]}", "expected key=value"))
        if keys:
            cases.append((flag, f"{name}:{keys[0]}=1,{keys[-1]}=1,{keys[0]}=2", f"repeated key '{keys[0]}'"))
    return cases


class TestSpecVocabulary:
    @pytest.mark.parametrize("flag, table, name", _keyed_rows())
    def test_declared_keys_are_read(self, flag, table, name):
        build, defaults = table[name]
        what = "schedule" if flag == "--schedule" else "envelope"
        bumped = {key: 2 * val + 1 for key, val in defaults.items()}
        assert _label(cli._parse_spec(name, table, what)) == _label(build(**defaults))
        assert _label(cli._parse_spec(f"{name}:", table, what)) == _label(build(**defaults))
        for key, val in bumped.items():
            built = cli._parse_spec(f"{name}:{key}={val:g}", table, what)
            assert _label(built) == _label(build(**{**defaults, key: val}))
        every = ",".join(f"{key}={val:g}" for key, val in bumped.items())
        assert _label(cli._parse_spec(f"{name}:{every}", table, what)) == _label(build(**bumped))

    @pytest.mark.parametrize("flag, spec, message", [pytest.param(*c, id=c[1]) for c in _bad_specs()])
    def test_undeclared_repeated_or_bare_key_exits_2(self, tmp_path, capsys, flag, spec, message):
        out = tmp_path / "out"
        assert run_cli("audit", flag, spec, "--T", "8", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], err
        name = spec.partition(":")[0]
        table = cli._SCHEDULES if flag == "--schedule" else cli._ENVELOPES
        allowed = ", ".join(table[name][1]) or "no keys"
        assert f"({name} takes {allowed})" in err[0]
        assert not out.exists()

    def test_help_and_unknown_name_list_every_row(self, tmp_path, capsys):
        assert run_cli("audit", "--help") == 0
        usage = capsys.readouterr().out
        assert all(name in usage for name in [*cli._SCHEDULES, *cli._ENVELOPES]), usage
        assert run_cli("audit", "--schedule", "warp:1", "--T", "8", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in cli._SCHEDULES), err


class TestHugeHorizons:
    @pytest.mark.parametrize(
        "args",
        [("bounds", "--T", str(10**20)), ("audit", "--horizons", str(10**20)), ("density", "--T", str(10**20))],
        ids=["bounds", "audit", "density"],
    )
    def test_rejected_before_any_allocation(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(*args, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"horizon {10**20} is too large" in err[0], err
        assert not out.exists()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError()

        monkeypatch.setattr("stepaudit.cli.audit_schedule", exhausted)
        assert run_cli("audit", "--T", "8", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestOnePass:
    # argv -> (envelope evaluations over t = 1..T+1, specs made): one of each
    # per pass; an empirical audit's first pass only runs the instances, and
    # its audit runs on a second spec
    _RUNS = [
        (("verify", "--T", "8"), 1, 1),
        (("audit", "--horizons", "4,8"), 1, 1),
        (("audit", "--phi", "empirical", "--horizons", "4,8"), 2, 2),
        (("density", "--T", "8"), 1, 1),
        (("density", "--per-t", "--T", "8"), 1, 1),
        (("bounds", "--horizons", "4,8"), 1, 1),
        (("bounds", "--T", "8", "--rows"), 1, 1),
    ]

    @pytest.mark.parametrize("argv, evaluations, specs", _RUNS, ids=[" ".join(a) for a, _, _ in _RUNS])
    def test_envelope_evaluated_once_per_pass(self, tmp_path, monkeypatch, argv, evaluations, specs):
        horizon = 8
        ranges, made = [], []
        values = stepaudit.bounds.GuaranteeEnvelope.values
        post_init = stepaudit.harness.ExperimentSpec.__post_init__

        def counted_values(self, ts):
            ranges.append(ts)
            return values(self, ts)

        def counted_post_init(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(stepaudit.bounds.GuaranteeEnvelope, "values", counted_values)
        monkeypatch.setattr(stepaudit.harness.ExperimentSpec, "__post_init__", counted_post_init)
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert ranges.count(range(1, horizon + 2)) == evaluations
        assert len(made) == specs

    @pytest.mark.parametrize(
        "argv",
        [("audit",), ("verify", "--families", "maxlinear"), ("density", "--per-t")],
        ids=["audit", "verify", "density"],
    )
    def test_subnormal_steps_warn_nothing(self, tmp_path, argv):
        # 1 / (2 eta sqrt(t+1)) overflows at a subnormal step; its cap 1/2 applies
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--schedule", "constant:c=1e-310", "--T", "8", "--out", str(tmp_path)) == 0


def _typed(config):
    return {key: (type(val).__name__, val) for key, val in config.items()}


# the fields each subcommand takes besides schedule, phi, horizons, T, out and workers
_OWN_FIELDS = {
    "verify": ("families",),
    "audit": ("families", "dump_instances"),
    "density": ("family", "thresholds", "per_t"),
    "bounds": ("rows",),
}


@pytest.mark.parametrize(
    "command, csvs, jsons",
    [
        ("verify", (), ("verify_report.json",)),
        ("audit", ("bound_report.csv",), ("audit_summary.json",)),
        ("density", ("density.csv", "density_profile.csv"), ()),
        ("bounds", ("bound_report.csv",), ("chain_report.json",)),
    ],
)
def test_resolved_config_is_pinned(tmp_path, command, csvs, jsons):
    assert run_cli(command, "--T", "8", "--out", str(tmp_path)) == 0
    # the resolved configuration every output carries, for a run given only
    # --T 8: the subcommand's own fields and nothing else
    values = {
        "schedule": "sqrt_decay:D=2,G=1", "phi": "log", "families": "maxlinear,vshape,quadratic",
        "family": "maxlinear", "horizons": None, "T": 8, "thresholds": "0,0.5,1", "out": str(tmp_path),
        "workers": 1, "per_t": False, "dump_instances": False, "rows": False,
    }
    fields = ("schedule", "phi", "horizons", "T", "out", "workers") + _OWN_FIELDS[command]
    expected = _typed({**{key: values[key] for key in fields}, "command": command})
    for name in csvs:
        first = (tmp_path / name).read_text().splitlines()[0]
        prefix = f"# stepaudit {__version__} config="
        assert first.startswith(prefix)
        assert _typed(json.loads(first[len(prefix):])) == expected
    for name in jsons:
        assert _typed(json.loads((tmp_path / name).read_text())["meta"]["config"]) == expected


# -- generated argv: every run returns 0, 1 or 2 and never raises ----------------

_TABLES = {
    "steps": "t,eta\n" + "".join(f"{t},{0.5 / (t + 1) ** 0.5}\n" for t in range(70)),
    "zeros": "t,eta\n" + "".join(f"{t},0\n" for t in range(70)),
    "huge": "t,eta\n" + "".join(f"{t},{1e120 if t % 3 else 1e-300}\n" for t in range(70)),
    "short": "t,eta\n0,0.5\n1,0.25\n",
    "negative": "t,eta\n0,0.5\n1,-0.25\n2,0.1\n",
    "nan": "t,eta\n0,nan\n1,0.5\n",
    "header": "step,eta\n0,0.5\n",
    "empty": "",
}
# (good values, bad or edge values) per flag; None marks a switch
_GOOD_SCHEDULES = ["sqrt_decay:D=2,G=1", "constant:c=0", "constant:c=1e-300", "doubling_sqrt:D=1,G=1"]
_FLAGS = {
    "--schedule": (
        _GOOD_SCHEDULES + [f"table:{{{name}}}" for name in ("steps", "zeros", "huge")],
        ["sqrt_decay:D=-1", "sqrt_decay:D=2,G=0", "sqrt_decay:D", "constant:c=1e130", "constant:c=nan",
         "constant:c=inf", "constant:c=-1", "doubling_sqrt:D=0", "warp:1", "", ":", "table:", "table:{missing}",
         "sqrt_decay:d=2", "constant:C=0.5", "sqrt_decay:D=2,D=3"]
        + [f"table:{{{name}}}" for name in ("short", "negative", "nan", "header", "empty")],
    ),
    "--phi": (
        ["log", "log:offset=1,coef=0.5", "const", "const:c=3", "const:c=1e100", "empirical"],
        ["log:offset=0.5", "log:offset=1e308,coef=1e308", "log:coef=-1", "log:offset", "const:c=0.5",
         "const:c=nan", "bogus", "log:offset=0,coef=0", "log:offset=1e-200,coef=0", "log:offset=1e-3,coef=0",
         "log:offset=-1,coef=0", "log:coef=1e300", "log:Offset=3", "one:c=5", "empirical:x=1"],
    ),
    "--T": (["4", "8", "16", "64"], ["-3", "0", "1", "2", "3", "7", "33", "x", "1e3", "", str(10**20)]),
    "--horizons": (
        ["4,8", "8", "pow2:1-64", "2,6,64"],
        ["pow2:8-4", "pow2:x", "0", "3,2,2", "", "a", "pow2:3-3", f"8,{10**20}", "pow2:8-1e20"],
    ),
    "--families": (["maxlinear", "vshape,quadratic", "maxlinear,vshape,quadratic"], ["maxlinear,bogus", "", ","]),
    "--family": (["maxlinear", "vshape", "quadratic"], ["bogus", "vshape,quadratic", ""]),
    "--thresholds": (["0,0.5,1", "inf", "-inf,0", "1e308"], ["nan", "", "a,b"]),
    "--workers": (["1", "2"], ["0", "-1", "x"]),
    "--config": (["{config}"], ["{missing}", "{bad_json}"]),
    "--per-t": None,
    "--rows": None,
    "--dump-instances": None,
}
_COMMON = ["--config", "--schedule", "--phi", "--workers", "--T", "--horizons"]
_COMMANDS = {
    "verify": _COMMON + ["--families"],
    "audit": _COMMON + ["--families", "--dump-instances"],
    "density": _COMMON + ["--family", "--thresholds", "--per-t"],
    "bounds": _COMMON + ["--rows"],
}
_CONFIGS = st.dictionaries(
    st.sampled_from(["schedule", "phi", "T", "horizons", "workers", "shrink", "per_t", "rows", "thresholds", "bogus"]),
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 64), st.floats(allow_nan=True), st.sampled_from(_GOOD_SCHEDULES)
    ),
    max_size=4,
)


@st.composite
def _argvs(draw):
    """A subcommand with flags it mostly accepts, mostly good values, and a config file."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(_COMMANDS[command]), max_size=6, unique=True)):
        if _FLAGS[flag] is None:
            argv.append(flag)
            continue
        good, bad = _FLAGS[flag]
        argv += [flag, draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0 else good))]
    if draw(st.integers(0, 9)) == 0:  # a flag or a subcommand that does not exist here
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--rows", "--per-t", "plot", "--bogus"])))
    if "--T" not in argv and "--horizons" not in argv and draw(st.integers(0, 5)):
        argv += ["--T", draw(st.sampled_from(_FLAGS["--T"][0]))]
    return argv, draw(_CONFIGS)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_generated_argv_never_raises(tmp_path, capsys, generated):
    argv, config = generated
    files = {name: tmp_path / f"{name}.csv" for name in _TABLES}
    for name, text in _TABLES.items():
        files[name].write_text(text)
    files["missing"] = tmp_path / "missing.csv"
    files["config"] = tmp_path / "config.json"
    files["config"].write_text(json.dumps(config))
    files["bad_json"] = tmp_path / "bad.json"
    files["bad_json"].write_text("{")
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:  # a usage error is one line on stderr (argparse adds its usage first)
        assert err.strip() and "Traceback" not in err, argv
