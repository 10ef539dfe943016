"""One rule for every public step count: an integer of at least its least
value, checked by ``errors.step_count``.

``ENTRY_POINTS`` maps each public entry point that takes a step count to a
call with that count as its only free argument, and the count's least
value (``None`` where a small integer is the family's own
``ConstructionError``).  A float, a numeric string and a ``bool`` are
refused naming the value; a numpy integer gives the plain ``int``'s
result bit for bit; the value one below the least is refused naming both.
"""

import inspect
import pickle
import re

import numpy as np
import pytest

from stepaudit import bounds as bnd
from stepaudit import engine, harness
from stepaudit import instances as inst
from stepaudit import schedules as sched
from stepaudit.errors import InvalidParameterError

S = sched.sqrt_decay(2, 1)
PHI = bnd.log_envelope()
A, B = inst.coupling_weights(S, 8, PHI)
BUILT = {
    "VShapeInstance": inst.build_vshape(S, 16),
    "QuadraticInstance": inst.build_quadratic(S, 16),
    "MaxLinearInstance": inst.build_maxlinear(S, 16, PHI),
}
RECORD = engine.run(BUILT["MaxLinearInstance"].convex, S, 16)


def _spec(v):
    spec = harness.ExperimentSpec(S, [v])
    return spec.horizons, spec.phis


ENTRY_POINTS = {
    "StepSchedule.rate": (lambda v: S.rate(v), 0),
    "StepSchedule.rates": (lambda v: S.rates(v), 0),
    "StepSchedule.prefix_sum": (lambda v: S.prefix_sum(v), 0),
    "doubling_block": (sched.doubling_block, 0),
    "GuaranteeEnvelope.__call__": (PHI, 1),
    "harmonic": (bnd.harmonic, 1),
    "last_step_bound": (lambda v: bnd.last_step_bound(S, v), 1),
    "step_sum_bound": (lambda v: bnd.step_sum_bound(S, v), 1),
    "maxlinear_bound": (lambda v: bnd.maxlinear_bound(S, v, PHI), 1),
    "quartic_floor": (lambda v: bnd.quartic_floor(S, v), 1),
    "averaged_quartic_floor": (lambda v: bnd.averaged_quartic_floor(S, v), 2),
    "tail_cutoff": (lambda v: bnd.tail_cutoff(v, PHI), 2),
    "tail_margin": (lambda v: bnd.tail_margin(v, PHI, 1), 2),
    "tail_margin.t1": (lambda v: bnd.tail_margin(4096, PHI, v), 1),
    "envelope_floor": (bnd.envelope_floor, 2),
    "bound_row": (lambda v: bnd.bound_row(S, v, PHI), 1),
    "coupling_weights": (lambda v: inst.coupling_weights(S, v, PHI), 1),
    "check_weight_conditions": (lambda v: inst.check_weight_conditions(A, B, S, v), 0),
    "build_vshape": (lambda v: inst.build_vshape(S, v).to_dict(), None),
    "build_quadratic": (lambda v: inst.build_quadratic(S, v).to_dict(), 1),
    "build_maxlinear": (lambda v: inst.build_maxlinear(S, v, PHI).to_dict(), 1),
    **{f"{name}.closed_form_iterate": (built.closed_form_iterate, 1) for name, built in BUILT.items()},
    **{f"{name}.closed_form_error": (built.closed_form_error, 1) for name, built in BUILT.items()},
    "run": (lambda v: engine.run(BUILT["MaxLinearInstance"].convex, S, v), 1),
    "run.snapshots": (lambda v: engine.run(BUILT["MaxLinearInstance"].convex, S, 16, snapshots=[v]), 1),
    "RunRecord.error_at": (RECORD.error_at, 1),
    "ExperimentSpec": (_spec, 1),
    "chain_horizon": (harness.chain_horizon, 4),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_step_count_is_an_integer(name):
    call, least = ENTRY_POINTS[name]
    for bad in (8.5, "8", True):
        with pytest.raises(InvalidParameterError, match=rf"^[a-z ]+ {re.escape(repr(bad))} is not an integer$"):
            call(bad)
    assert pickle.dumps(call(np.int64(8))) == pickle.dumps(call(8))
    if least is not None:
        with pytest.raises(InvalidParameterError, match=rf"^[a-z ]+ {least - 1} is below {least}$"):
            call(np.int64(least - 1))


def test_every_public_step_count_is_in_the_table():
    # a public function or method with a step-count parameter must be
    # routed through the one rule, and listed above; constructors are not
    # scanned, as the records with a ``T`` field are filled by the builders
    found = set()
    for module in (sched, bnd, inst, engine, harness):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                found |= {
                    f"{name}.{m}" for m, fn in inspect.getmembers(obj, inspect.isfunction)
                    if (m == "__call__" or not m.startswith("_")) and _takes_a_step_count(fn)
                }
            elif callable(obj) and _takes_a_step_count(obj):
                found.add(name)
    assert "GuaranteeEnvelope.__call__" in found and "run" in found
    assert found <= set(ENTRY_POINTS), sorted(found - set(ENTRY_POINTS))


def _takes_a_step_count(fn) -> bool:
    return not {"t", "T", "n", "t1"}.isdisjoint(inspect.signature(fn).parameters)
