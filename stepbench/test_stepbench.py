"""Tests of the benchmark itself: tiny end-to-end runs, the output checker,
and the span arithmetic.  Run with ``python -m pytest stepbench``.
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import spans
from workloads import WORKLOADS, check, record_reference

sys.path.insert(0, str(run.ROOT / "src"))
from stepaudit.harness import Tolerances  # noqa: E402


def tiny_runner(name, tmp_path, record=True):
    w = WORKLOADS[name]
    r = run.Runner(w, 3, Tolerances(), tiny=True, work=tmp_path / "work", reference=tmp_path / "ref")
    res, why = run.run_child(r.argv)
    assert res is not None and res["exit_code"] == 0, why or res
    if record and not w.table_rows:
        record_reference(w, r.out, r.ref)
    return r


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(name, tmp_path):
    r = tiny_runner(name, tmp_path)
    assert r.sample(False) == []
    assert r.sample(True) == []  # includes the coverage check
    assert (r.attempted, r.failed) == (2, 0)
    layers = r.layers[0]
    assert layers["harness.self_s"] > 0 and layers["cli.output_bytes"] > 0
    assert layers["engine.kernel_runs"] == (0 if name == "bounds-chain" else layers["instances.builds"] - layers["engine.generic_runs"])


def test_pool_thread_spans_link_to_the_harness_span(tmp_path):
    r = tiny_runner("verify-table-w2", tmp_path)
    assert r.sample(True) == []
    recorded = {s["sid"]: s for s in json.loads(r.spans.read_text())}
    items = [s for s in recorded.values() if s["kind"] == "work_item"]
    assert len(items) == 12
    assert {recorded[s["parent"]]["name"] for s in items} == {"harness.verify_trajectories"}
    assert r.layers[0]["harness.pool_overlap"] > 0


def _perturb_cell(path, column, factor):
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[first].split(",").index(column)
    cells = lines[first + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[first + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checker_tolerates_rounding_but_flags_changed_cells_and_verdicts(tmp_path):
    w = WORKLOADS["audit-pow2"]
    r = tiny_runner("audit-pow2", tmp_path)
    tol = Tolerances()
    assert check(w, 0, r.out, r.ref, tol, tiny=True) == []
    assert check(w, 1, r.out, r.ref, tol, tiny=True) != []

    report = r.out / "bound_report.csv"
    original = report.read_text()
    _perturb_cell(report, "err_maxlinear", 1.0 + 1e-14)  # a reordered sum, not a changed result
    assert check(w, 0, r.out, r.ref, tol, tiny=True) == []
    _perturb_cell(report, "err_maxlinear", 1.0 + 1e-9)
    assert any("err_maxlinear" in p for p in check(w, 0, r.out, r.ref, tol, tiny=True))
    report.write_text(original)

    summary = r.out / "audit_summary.json"
    data = json.loads(summary.read_text())
    data["assertions"][0]["passed"] = False
    summary.write_text(json.dumps(data))
    assert any("assertions_passed" in p for p in check(w, 0, r.out, r.ref, tol, tiny=True))


def test_a_mismatch_counts_as_a_failed_invocation(tmp_path):
    r = tiny_runner("density-per-t", tmp_path)
    counts = r.ref / "density.csv"
    lines = counts.read_text().splitlines()
    c, T, count, density = lines[1].split(",")
    lines[1] = ",".join([c, T, str(int(count) + 1), density])
    counts.write_text("\n".join(lines) + "\n")
    assert any("density.csv" in p for p in r.sample(False))
    assert (r.attempted, r.failed) == (1, 1)


def test_verify_checks_itself_without_a_reference(tmp_path):
    w = WORKLOADS["verify-table-w2"]
    r = tiny_runner("verify-table-w2", tmp_path)
    report = r.out / "verify_report.json"
    data = json.loads(report.read_text())
    assert check(w, 0, r.out, r.ref, Tolerances(), tiny=True) == []
    data["entries"][0]["passed"] = False
    report.write_text(json.dumps(data))
    assert check(w, 0, r.out, r.ref, Tolerances(), tiny=True) != []


def _span(sid, parent, start, end, layer="harness", kind="entry"):
    return spans.Span(sid, parent, layer, kind, f"s{sid}", start, end, {})


def test_union_length():
    assert spans.union_length([], 0, 10) == 0
    assert spans.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.union_length([(1, 3), (3, 4)], 0, 10) == 3
    assert spans.union_length([(-5, 2), (9, 20), (30, 40)], 0, 10) == 3


def test_self_time_of_nested_and_overlapping_spans():
    synthetic = [
        _span(1, None, 0, 10),
        _span(2, 1, 1, 4),
        _span(3, 1, 3, 6),  # overlaps its sibling, as pool threads do
        _span(4, 1, 8, 12),  # outlives its parent: only [8, 10] counts
        _span(5, 2, 2, 3),  # grandchild: not subtracted from span 1
    ]
    selfs = spans.self_times(synthetic)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0})


def test_layer_metrics_from_synthetic_spans():
    synthetic = [
        _span(1, None, 0, 10, "cli", "main"),
        _span(2, 1, 0, 10, "harness", "entry"),
        _span(3, 2, 0, 8, "harness", "work_item"),
        _span(4, 2, 1, 9, "harness", "work_item"),
        _span(5, 3, 1, 5, "engine", "kernel")._replace(attrs={"cells": 100}),
        _span(6, 4, 2, 3, "schedules", "call")._replace(attrs={"values": 7}),
    ]
    m = spans.layer_metrics(synthetic)
    assert m["harness.pool_overlap"] == pytest.approx(1.6)
    assert m["harness.work_items"] == 2
    # entry 10 - 9 covered, items 8 - 4 and 8 - 1
    assert m["harness.self_s"] == pytest.approx(1 + 4 + 7)
    assert m["cli.self_s"] == 0
    assert m["engine.kernel_cells_per_s"] == pytest.approx(25)
    assert (m["schedules.calls"], m["schedules.values_returned"]) == (1, 7)


def test_recorder_links_spans_across_threads():
    rec = spans.Recorder()
    leaf = rec.wrap(lambda x: x, "engine", "kernel", "leaf")

    def work(x):
        return leaf(x)

    def entry():
        item = rec.wrap(work, "harness", "work_item", "item", parent=rec.current())
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(item, range(4)))

    assert rec.wrap(entry, "harness", "entry", "entry")() == [0, 1, 2, 3]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["entry"]
    assert {s.parent for s in by_name["item"]} == {top.sid}
    items = {s.sid for s in by_name["item"]}
    assert {s.parent for s in by_name["leaf"]} <= items and len(by_name["leaf"]) == 4
    assert threading.current_thread() is threading.main_thread()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (run.ROOT / "BENCHMARK.json").exists():
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "audit-pow2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
