"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``stepaudit`` CLI invocation.  ``check`` compares an
invocation's exit code, verdicts and CSV cells with references recorded
from a known-good commit; ``coverage`` compares span counts from a traced
invocation with counts derived from the same outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADLINE = "sqrt_decay:D=2,G=1"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; why each was chosen is in README.md and BENCHMARK.json."""

    name: str
    args: tuple[str, ...]  # "{table}" stands for the generated schedule CSV
    tiny_args: tuple[str, ...]
    csvs: tuple[str, ...] = ()  # outputs compared cell by cell with the reference
    exact_csvs: tuple[str, ...] = ()  # outputs compared exactly
    table_rows: int = 0  # > 0: a table schedule of this many rows is made from the seed
    tiny_table_rows: int = 0

    def argv(self, out: Path, table: Path | None, tiny: bool = False) -> list[str]:
        args = self.tiny_args if tiny else self.args
        return [a.replace("{table}", str(table)) for a in args] + ["--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-pow2",
            ("audit", "--schedule", HEADLINE, "--horizons", "pow2:8-16384", "--workers", "1"),
            ("audit", "--schedule", HEADLINE, "--horizons", "pow2:8-64", "--workers", "1"),
            csvs=("bound_report.csv",),
        ),
        Workload(
            "bounds-chain",
            ("bounds", "--schedule", HEADLINE, "--phi", "log", "--T", "65536"),
            ("bounds", "--schedule", HEADLINE, "--phi", "log", "--T", "256"),
            csvs=("bound_report.csv",),
        ),
        Workload(
            "density-per-t",
            ("density", "--schedule", HEADLINE, "--family", "maxlinear", "--T", "640", "--per-t"),
            ("density", "--schedule", HEADLINE, "--family", "maxlinear", "--T", "24", "--per-t"),
            csvs=("density_profile.csv",),
            exact_csvs=("density.csv",),
        ),
        Workload(
            "verify-table-w2",
            ("verify", "--schedule", "table:{table}", "--horizons", "4096,6144,8192,12288", "--workers", "2"),
            ("verify", "--schedule", "table:{table}", "--horizons", "16,24,32,48", "--workers", "2"),
            table_rows=12289,
            tiny_table_rows=49,
        ),
    )
}


def write_table(path: Path, rows: int, seed: int) -> None:
    """Table schedule ``eta_t = 2/sqrt(t+1) * U[0.5, 1]`` drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows)
    eta = 2.0 / np.sqrt(t + 1.0) * rng.uniform(0.5, 1.0, rows)
    with open(path, "w") as fh:
        fh.write("t,eta\n")
        fh.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(eta))


# -- verdicts ---------------------------------------------------------------------


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _merge_status(old: str | None, new: str) -> str:
    if old is None or old == new:
        return new
    return "fail" if "fail" in (old, new) else "mixed"


def verdicts(w: Workload, out: Path) -> dict:
    """The verdicts kept across output layouts: pass flags, counts, step statuses."""
    cmd = w.args[0]
    if cmd == "audit":
        s = _load(out / "audit_summary.json")
        return {
            "passed": s["passed"],
            "assertions": len(s["assertions"]),
            "assertions_passed": sum(1 for a in s["assertions"] if a["passed"]),
            "skipped": len(s["skipped"]),
            "envelope_valid": s["envelope_validation"]["passed"],
        }
    if cmd == "bounds":
        c = _load(out / "chain_report.json")
        steps: dict[str, str] = {}
        for step in c["steps"]:
            steps[step["step"]] = _merge_status(steps.get(step["step"]), step["status"])
        return {
            "passed": c["passed"],
            "inconclusive": sorted(c["inconclusive"]),
            "steps": steps,
            "envelope_valid": c["validation"]["passed"],
        }
    if cmd == "verify":
        r = _load(out / "verify_report.json")
        return {
            "passed": r["passed"],
            "entries": len(r["entries"]),
            "entries_passed": sum(1 for e in r["entries"] if e.get("passed") is True),
            "skipped": sum(1 for e in r["entries"] if "skipped" in e),
        }
    return {}


def expected_verify(w: Workload, tiny: bool) -> dict:
    """verify checks itself: every family at every horizon is built and passes."""
    args = w.tiny_args if tiny else w.args
    n = len(args[args.index("--horizons") + 1].split(",")) * 3
    return {"passed": True, "entries": n, "entries_passed": n, "skipped": 0}


# -- CSV comparison ---------------------------------------------------------------


def read_csv(path: Path) -> list[list[str]]:
    """Rows of a CSV, without ``#`` header lines (they embed the out path)."""
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _cell_close(a: str, b: str, rel: float, abs_: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_)


def compare_csv(ref: list[list[str]], got: list[list[str]], name: str, tol, exact: bool) -> list[str]:
    if len(ref) != len(got):
        return [f"{name}: {len(got)} lines, reference has {len(ref)}"]
    problems = []
    for i, (r, g) in enumerate(zip(ref, got)):
        if len(r) != len(g) or i == 0 and r != g:
            problems.append(f"{name} line {i + 1}: {g!r} != reference {r!r}")
            continue
        for j, (a, b) in enumerate(zip(r, g)):
            same = a == b if exact else _cell_close(a, b, tol.scalar_rel, tol.bound_slack)
            if not same:
                problems.append(f"{name} line {i + 1} column {ref[0][j]}: {b} != reference {a}")
    return problems


# -- checks -----------------------------------------------------------------------


def record_reference(w: Workload, out: Path, ref_dir: Path) -> None:
    """Store the verdicts and compared CSVs of a known-good invocation."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    with open(ref_dir / "verdicts.json", "w") as fh:
        json.dump(verdicts(w, out), fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in w.csvs + w.exact_csvs:
        with open(ref_dir / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(read_csv(out / name))


def check(w: Workload, exit_code, out: Path, ref_dir: Path, tol, tiny: bool = False) -> list[str]:
    """Problems with one invocation's outputs; empty when they are correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        got = verdicts(w, out)
        if w.table_rows:
            want = expected_verify(w, tiny)
        else:
            want = _load(ref_dir / "verdicts.json")
        problems = [f"verdict {k}: {got.get(k)!r} != expected {v!r}" for k, v in want.items() if got.get(k) != v]
        for name in w.csvs + w.exact_csvs:
            problems += compare_csv(read_csv(ref_dir / name), read_csv(out / name), name, tol, name in w.exact_csvs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output or reference: {type(exc).__name__}: {exc}"]
    return problems


def coverage(w: Workload, out: Path, layers: dict, calls: dict) -> list[str]:
    """Span counts that must equal counts derived from the outputs.

    A wrapper that is never called, or a layer boundary that moved, shows
    up here as a mismatch.
    """
    expect: list[tuple[str, float, float]] = []
    builds_ml = calls.get("instances.build_maxlinear", 0)
    expect.append(("engine.kernel_runs == maxlinear builds", layers["engine.kernel_runs"], builds_ml))
    cmd = w.args[0]
    try:
        if cmd == "audit":
            rows = read_csv(out / "bound_report.csv")
            col = {name: i for i, name in enumerate(rows[0])}
            runs = {f: sum(1 for r in rows[1:] if r[col[f"err_{f}"]]) for f in ("maxlinear", "vshape", "quadratic")}
            to_dict = sum(v for k, v in calls.items() if k.endswith(".to_dict"))
            expect += [
                ("kernel runs == err_maxlinear cells", layers["engine.kernel_runs"], runs["maxlinear"]),
                ("generic runs == err_vshape + err_quadratic cells", layers["engine.generic_runs"], runs["vshape"] + runs["quadratic"]),
                ("builds == runs", layers["instances.builds"], sum(runs.values())),
                ("to_dict calls == builds", to_dict, layers["instances.builds"]),
                ("work items == table rows", layers["harness.work_items"], len(rows) - 1),
                ("assertions == summary assertions", layers["harness.assertions"], verdicts(w, out)["assertions"]),
            ]
        elif cmd == "bounds":
            expect += [
                ("chain replays", calls.get("harness.chain_check", 0), 1),
                ("descent runs", layers["engine.kernel_runs"] + layers["engine.generic_runs"], 0),
            ]
        elif cmd == "density":
            rows = read_csv(out / "density_profile.csv")
            col = rows[0].index("err")
            measured = sum(1 for r in rows[1:] if not math.isnan(float(r[col])))
            expect += [
                ("kernel runs == measured profile cells", layers["engine.kernel_runs"], measured),
                ("builds == measured profile cells", layers["instances.builds"], measured),
            ]
        elif cmd == "verify":
            entries = _load(out / "verify_report.json")["entries"]
            ml = sum(1 for e in entries if e["family"] == "maxlinear" and "passed" in e)
            expect += [
                ("kernel runs == maxlinear entries", layers["engine.kernel_runs"], ml),
                ("generic runs == other entries", layers["engine.generic_runs"], sum(1 for e in entries if "passed" in e) - ml),
                ("work items == report entries", layers["harness.work_items"], len(entries)),
                ("assertions == report entries", layers["harness.assertions"], len(entries)),
            ]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"coverage: unreadable output: {type(exc).__name__}: {exc}"]
    problems = [f"coverage: {label}: {a} != {b}" for label, a, b in expect if a != b]
    for metric in ("schedules.calls", "harness.self_s", "cli.write_s", "bounds.calls"):
        if not layers[metric] > 0:
            problems.append(f"coverage: {metric} is 0, a wrapper was never called")
    if cmd != "bounds" and not layers["instances.builds"] > 0:
        problems.append("coverage: instances.builds is 0, a wrapper was never called")
    return problems
