#!/usr/bin/env python3
"""stepaudit benchmark: run CLI workloads, check their outputs, report metrics.

    python3 stepbench/run.py                                  # all workloads, untraced
    python3 stepbench/run.py --workload audit-pow2 --trace 1  # per-layer metrics
    python3 stepbench/run.py --record                         # re-record the references

Each invocation runs ``stepaudit.cli.main`` in a fresh child interpreter
(``child.py``), one at a time, until ``--seconds`` per workload have passed
and at least three invocations were made.  With several workloads the
invocations are interleaved round-robin.  Untraced runs report the
end-to-end metrics; traced runs alternate untraced and traced invocations
and report the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, median_metrics
from workloads import WORKLOADS, check, coverage, record_reference, write_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".stepbench-work"
REFERENCE = BENCH / "reference"
MIN_SAMPLES = 3
MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


# name, unit, statistic over the run's samples.  On a shared machine
# interference only adds time, and whole windows of a run can be slow; the
# lower quartile of wall times varied about half as much from run to run as
# the median did, so wall_s uses it.
END_TO_END = (
    ("wall_s", "s", lower_quartile),
    ("setup_s", "s", statistics.median),
    ("peak_rss_mb", "MB", statistics.median),
)


def run_child(argv: list[str] | None, trace: bool = False, spans: Path | None = None) -> tuple[dict | None, str]:
    """Run child.py once; return its report, or None and the reason."""
    spec = {"root": str(ROOT), "argv": argv, "trace": trace, "spans": str(spans) if spans else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(lines[-1]), ""


def _git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    """What the figures depend on; recorded, never pinned."""
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        # with bytecode writing off, every child compiles stepaudit on import
        "python_dont_write_bytecode": sys.flags.dont_write_bytecode,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} | {q2:.6g} | {q3:.6g}"


class Runner:
    """Invocations of one workload and what they measured."""

    def __init__(self, w, seed: int, tol, tiny: bool = False, work: Path = WORK, reference: Path = REFERENCE):
        self.w = w
        self.tol = tol
        self.tiny = tiny
        self.dir = work / w.name
        self.ref = reference / w.name
        self.out = self.dir / "out"
        self.spans = self.dir / "spans.json"
        self.dir.mkdir(parents=True, exist_ok=True)
        table = None
        if w.table_rows:
            table = self.dir / f"table-seed{seed}.csv"
            write_table(table, w.tiny_table_rows if tiny else w.table_rows, seed)
        self.argv = w.argv(self.out, table, tiny)
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sample(self, trace: bool) -> list[str]:
        """Run one invocation, check it, and keep its figures."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        res, why = run_child(self.argv, trace, self.spans)
        self.attempted += 1
        if res is None:
            problems = [why]
        else:
            self.setups.append(res["setup_s"])
            problems = [res["exception"].strip().splitlines()[-1]] if "exception" in res else []
            problems += check(self.w, res["exit_code"], self.out, self.ref, self.tol, self.tiny)
            if trace:
                self.traced_walls.append(res["wall_s"])
                layers = res["layers"]
                layers["cli.output_bytes"] = sum(p.stat().st_size for p in self.out.iterdir())
                self.layers.append(layers)
                problems += [f"wrapper target not found: {m}" for m in res["missing_wrappers"]]
                problems += coverage(self.w, self.out, layers, res["calls"])
            else:
                self.walls.append(res["wall_s"])
                self.rss.append(res["peak_rss_mb"])
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return problems

    def top_up_setup(self) -> None:
        while len(self.setups) < MIN_SETUP_SAMPLES:
            res, why = run_child(None)
            if res is None:
                self.problems.append(why)
                return
            self.setups.append(res["setup_s"])

    def series(self) -> dict[str, list[float]]:
        """End-to-end samples by metric name."""
        return {"wall_s": self.walls, "setup_s": self.setups, "peak_rss_mb": self.rss}

    def end_to_end(self) -> dict[str, float]:
        series = self.series()
        return {name: stat(series[name]) for name, _, stat in END_TO_END if series[name]}

    def per_layer(self) -> dict[str, float]:
        if not self.layers or not self.walls:
            return {}
        m = median_metrics(self.layers)
        m["trace.overhead_ratio"] = statistics.median(self.traced_walls) / statistics.median(self.walls) - 1.0
        return m

    def report(self, trace: bool) -> list[str]:
        w = self.w.name
        n_ok = self.attempted - self.failed
        lines = [
            f"{w}: {self.attempted} invocations, {self.failed} failed, fail_ratio {self.failed / max(self.attempted, 1):.4g} "
            f"({self.failed}/{self.attempted})"
        ]
        series = self.series()
        for name, unit, stat in END_TO_END:
            if series[name]:
                lines.append(f"{w}  {name:<12} {stat(series[name]):.6g} {unit}  ({stat.__name__} of {summary(series[name])})")
        if trace:
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            for name, value in self.per_layer().items():
                lines.append(f"{w}  {name:<32} {value:.6g} {units[name]}  (median of n={len(self.layers)})")
        lines += [f"{w}  problem: {p}" for p in self.problems[:10]]
        if n_ok == 0:
            lines.append(f"{w}  no invocation passed its checks")
        return lines


def record(names: list[str], seed: int) -> int:
    for name in names:
        w = WORKLOADS[name]
        if w.table_rows:
            print(f"{name}: self-checking, no reference to record")
            continue
        r = Runner(w, seed, None)
        res, why = run_child(r.argv)
        if res is None or res.get("exit_code") != 0:
            print(f"{name}: cannot record: {why or res}", file=sys.stderr)
            return 1
        record_reference(w, r.out, r.ref)
        print(f"{name}: reference recorded in {r.ref.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0, help="seed for generated inputs (the table schedule)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--record", action="store_true", help="re-record the reference outputs and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stepaudit" / "cli.py").is_file():
        print(f"error: no stepaudit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from stepaudit.harness import Tolerances

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record(names, args.seed)

    env = environment(args.seed)
    print("env:", json.dumps(env, sort_keys=True), flush=True)
    trace = bool(args.trace)
    runners = [Runner(WORKLOADS[n], args.seed, Tolerances()) for n in names]
    run_child(None)  # warm-up: byte-code and file caches, paid once per checkout
    deadline = time.monotonic() + args.seconds * len(runners)
    rounds = 0
    while rounds < MIN_SAMPLES or time.monotonic() < deadline:
        for r in runners:
            r.sample(False)
            if trace:
                r.sample(True)
        rounds += 1
    for r in runners:
        r.top_up_setup()

    metrics = {}
    units = {name: unit for name, unit, _ in END_TO_END + LAYER_METRICS}
    for r in runners:
        print("\n".join(r.report(trace)))
        values = r.per_layer() if trace else r.end_to_end()
        prefix = "" if len(runners) == 1 else f"{r.w.name}."
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    expected = len(LAYER_METRICS) if trace else len(END_TO_END)
    if len(metrics) != expected * len(runners):
        print("error: some metrics have no sample; no result", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        samples = {r.w.name: {**r.series(), "traced_wall_s": r.traced_walls} for r in runners}
        json.dump({"env": env, "argv": {r.w.name: r.argv for r in runners}, "samples": samples, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
