"""Span recorder for the traced benchmark mode.

The recorder wraps public functions of each stepaudit layer from outside
the package, keeps one span per call in memory (layer, kind, name, start,
end, parent span, attributes) and turns the spans into per-layer metrics.
Nothing under ``src/`` is edited: wrappers are installed on every name a
caller resolves at call time, i.e. the defining module's attribute, every
``from x import f`` alias in other stepaudit modules, or the class
attribute for methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    parent: int | None
    layer: str
    kind: str
    name: str
    start: float
    end: float
    attrs: dict


class Recorder:
    """Keeps spans in memory; one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, layer, kind, name, attrs=None, parent=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``attrs(args, kwargs, result)`` adds attributes after a normal
        return.  ``parent`` fixes the parent span; by default it is the
        innermost open span on the calling thread.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            par = parent if parent is not None else (stack[-1] if stack else None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append(Span(sid, par, layer, kind, name, start, end, {"raised": type(exc).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            info = attrs(args, kwargs, result) if attrs is not None else {}
            rec.spans.append(Span(sid, par, layer, kind, name, start, end, info))
            return result

        return wrapper


# -- attribute extractors ----------------------------------------------------


def _values(args, kwargs, result):
    if isinstance(result, np.ndarray):
        return {"values": int(result.size)}
    return {"values": 1 if isinstance(result, float) else 0}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _run_attrs(args, kwargs, result):
    # run(instance, schedule, T, snapshots=None, force_generic=False)
    instance = _arg(args, kwargs, 0, "instance")
    generic = bool(_arg(args, kwargs, 4, "force_generic", False)) or instance.kernel_data is None
    return {
        "generic": generic,
        "steps": int(_arg(args, kwargs, 2, "T")),
        "projections": int(result.projection_activations),
    }


def _kernel_attrs(args, kwargs, result):
    # maxlinear_descent(a, b, eta, snap_times): T + 1 score sweeps over dim = len(a) cells
    return {"cells": (len(_arg(args, kwargs, 2, "eta")) + 1) * len(_arg(args, kwargs, 0, "a"))}


def _verify_attrs(args, kwargs, result):
    return {"assertions": sum(1 for e in result.entries if "passed" in e)}


def _audit_attrs(args, kwargs, result):
    return {"assertions": len(result.assertions)}


def _chain_attrs(args, kwargs, result):
    decided = sum(1 for s in result.steps if s.get("status") in ("pass", "fail"))
    return {"rows": len(result.steps), "assertions": decided}


# (module, qualified name, layer, kind, attrs)
_INSTANCE_CLASSES = ("VShapeInstance", "QuadraticInstance", "MaxLinearInstance")
TARGETS = (
    [("stepaudit.schedules", f"StepSchedule.{m}", "schedules", "call", _values) for m in ("rate", "rates", "prefix_sum")]
    + [("stepaudit.instances", f"build_{f}", "instances", "build", None) for f in ("maxlinear", "vshape", "quadratic")]
    + [("stepaudit.instances", "check_weight_conditions", "instances", "conditions", None)]
    + [
        ("stepaudit.instances", f"{c}.{m}", "instances", "closed_form", None)
        for c in _INSTANCE_CLASSES
        for m in ("closed_form_iterate", "closed_form_error")
    ]
    + [("stepaudit.instances", f"{c}.to_dict", "instances", "to_dict", None) for c in _INSTANCE_CLASSES]
    + [
        ("stepaudit.engine", "run", "engine", "run", _run_attrs),
        ("stepaudit._kernels", "maxlinear_descent", "engine", "kernel", _kernel_attrs),
        ("stepaudit.bounds", "validate_envelope", "bounds", "validate", None),
        ("stepaudit.harness", "verify_trajectories", "harness", "entry", _verify_attrs),
        ("stepaudit.harness", "audit_schedule", "harness", "entry", _audit_attrs),
        ("stepaudit.harness", "density_experiment", "harness", "entry", None),
        ("stepaudit.harness", "chain_check", "harness", "entry", _chain_attrs),
        ("stepaudit.harness", "DensityTable.write_csv", "cli", "write", None),
        ("stepaudit.harness", "DensityTable.write_profile_csv", "cli", "write", None),
        ("stepaudit.bounds", "BoundReport.write_csv", "cli", "write", None),
        ("stepaudit.cli", "_write_json", "cli", "write", None),
    ]
)
# every other public function of these modules is a plain call in its layer
_SCANNED = (("stepaudit.schedules", "schedules", _values), ("stepaudit.bounds", "bounds", None))


def _replace_everywhere(orig, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stepaudit" or mod_name.startswith("stepaudit.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> list[str]:
    """Install wrappers for every target; return the targets not found."""
    targets = list(TARGETS)
    explicit = {(m, q) for m, q, *_ in TARGETS}
    for mod_name, layer, attrs in _SCANNED:
        mod = importlib.import_module(mod_name)
        for name in getattr(mod, "__all__", ()):
            if (mod_name, name) not in explicit and inspect.isfunction(getattr(mod, name, None)):
                targets.append((mod_name, name, layer, "call", attrs))
    missing = []
    for mod_name, qualname, layer, kind, attrs in targets:
        mod = importlib.import_module(mod_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            missing.append(f"{mod_name}.{qualname}")
            continue
        name = f"{mod_name.removeprefix('stepaudit.')}.{qualname}"
        wrapper = rec.wrap(orig, layer, kind, name, attrs)
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(orig, wrapper)
    _install_work_items(rec, missing)
    return missing


def _install_work_items(rec: Recorder, missing: list[str]) -> None:
    # work items are closures handed to _map_tasks, which may run them on
    # pool threads; their spans link to the harness span open on the
    # thread that submitted them
    harness = importlib.import_module("stepaudit.harness")
    orig = getattr(harness, "_map_tasks", None)
    if orig is None:
        missing.append("stepaudit.harness._map_tasks")
        return

    @functools.wraps(orig)
    def map_tasks(fn, keys, workers):
        item = rec.wrap(fn, "harness", "work_item", "harness.work_item", parent=rec.current())
        return orig(item, keys, workers)

    harness._map_tasks = map_tasks


# -- span arithmetic ------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - union_length(children[s.sid], s.start, s.end) for s in spans}


def call_counts(spans) -> dict[str, int]:
    """Calls per span name; calls that raised are counted as ``name:raised``."""
    counts = Counter(s.name + (":raised" if "raised" in s.attrs else "") for s in spans)
    return dict(sorted(counts.items()))


# name, unit, better
LAYER_METRICS = (
    ("engine.kernel_runs", "count", "lower"),
    ("engine.kernel_s", "s", "lower"),
    ("engine.kernel_cells", "count", "lower"),
    ("engine.kernel_cells_per_s", "1/s", "higher"),
    ("engine.generic_runs", "count", "lower"),
    ("engine.generic_steps", "count", "lower"),
    ("engine.generic_s", "s", "lower"),
    ("engine.projection_activations", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.work_items", "count", "lower"),
    ("harness.chain_rows", "count", "lower"),
    ("harness.assertions", "count", "higher"),
    ("harness.pool_overlap", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("instances.builds", "count", "lower"),
    ("instances.skipped", "count", "lower"),
    ("instances.build_self_s", "s", "lower"),
    ("instances.conditions_s", "s", "lower"),
    ("instances.closed_form_s", "s", "lower"),
    ("instances.to_dict_s", "s", "lower"),
    ("schedules.calls", "count", "lower"),
    ("schedules.self_s", "s", "lower"),
    ("schedules.values_returned", "count", "lower"),
    ("bounds.calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.validate_envelope_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# filled in by the benchmark from the files on disk and from the untraced runs
_FROM_OUTSIDE = ("cli.output_bytes", "trace.overhead_ratio")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one traced invocation."""
    selfs = self_times(spans)
    m: dict[str, float] = {name: 0 for name, _, _ in LAYER_METRICS if name not in _FROM_OUTSIDE}
    by_id = {s.sid: s for s in spans}
    item_s = 0.0
    item_parents = set()
    for s in spans:
        dur = s.end - s.start
        own = selfs[s.sid]
        if s.layer == "engine":
            if s.kind == "kernel":
                m["engine.kernel_runs"] += 1
                m["engine.kernel_s"] += dur
                m["engine.kernel_cells"] += s.attrs.get("cells", 0)
            elif "generic" in s.attrs:
                m["engine.projection_activations"] += s.attrs["projections"]
                if s.attrs["generic"]:
                    m["engine.generic_runs"] += 1
                    m["engine.generic_steps"] += s.attrs["steps"]
                    m["engine.generic_s"] += own
        elif s.layer == "harness":
            m["harness.self_s"] += own
            m["harness.chain_rows"] += s.attrs.get("rows", 0)
            m["harness.assertions"] += s.attrs.get("assertions", 0)
            if s.kind == "work_item":
                m["harness.work_items"] += 1
                item_s += dur
                item_parents.add(s.parent)
        elif s.layer == "cli":
            if s.kind == "write":
                m["cli.write_s"] += dur
            else:
                m["cli.self_s"] += own
        elif s.layer == "instances":
            if s.kind == "build":
                m["instances.skipped" if "raised" in s.attrs else "instances.builds"] += 1
                m["instances.build_self_s"] += own
            else:
                m[f"instances.{s.kind}_s"] += own
        elif s.layer == "schedules":
            m["schedules.calls"] += 1
            m["schedules.self_s"] += own
            m["schedules.values_returned"] += s.attrs.get("values", 0)
        elif s.layer == "bounds":
            m["bounds.calls"] += 1
            m["bounds.self_s"] += own
            if s.kind == "validate":
                m["bounds.validate_envelope_s"] += own
    if m["engine.kernel_s"] > 0:
        m["engine.kernel_cells_per_s"] = m["engine.kernel_cells"] / m["engine.kernel_s"]
    parent_s = sum(by_id[p].end - by_id[p].start for p in item_parents if p in by_id)
    if parent_s > 0:
        m["harness.pool_overlap"] = item_s / parent_s
    return m


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Median of each metric over several traced invocations."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
