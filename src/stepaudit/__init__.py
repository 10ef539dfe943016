"""stepaudit: lower-bound auditing for anytime last-iterate error of
projected subgradient descent.

The package builds adversarial convex instances targeted at chosen
stopping times, simulates the descent, verifies the runs against closed
forms, and evaluates the analytic floor chain that any anytime guarantee
envelope must respect.
"""

from . import bounds, engine, harness, instances, schedules
from .bounds import (
    BoundReport,
    GuaranteeEnvelope,
    constant_envelope,
    empirical_envelope,
    log_envelope,
    validate_envelope,
)
from .engine import ConvexInstance, RunRecord, run
from .errors import ConstructionError, InvalidParameterError, NumericFaultError, StepAuditError
from .harness import (
    ExperimentSpec,
    Tolerances,
    audit_schedule,
    chain_check,
    density_experiment,
    empirical_audit,
    verify_trajectories,
)
from .instances import (
    MaxLinearInstance,
    QuadraticInstance,
    VShapeInstance,
    build_maxlinear,
    build_quadratic,
    build_vshape,
    check_weight_conditions,
    coupling_weights,
)
from .schedules import StepSchedule, constant, doubling_concat, from_csv, from_table, sqrt_decay

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "schedules",
    "engine",
    "instances",
    "bounds",
    "harness",
    "StepSchedule",
    "sqrt_decay",
    "constant",
    "from_table",
    "from_csv",
    "doubling_concat",
    "ConvexInstance",
    "RunRecord",
    "run",
    "build_vshape",
    "build_quadratic",
    "build_maxlinear",
    "coupling_weights",
    "check_weight_conditions",
    "VShapeInstance",
    "QuadraticInstance",
    "MaxLinearInstance",
    "GuaranteeEnvelope",
    "log_envelope",
    "constant_envelope",
    "empirical_envelope",
    "validate_envelope",
    "BoundReport",
    "ExperimentSpec",
    "Tolerances",
    "verify_trajectories",
    "audit_schedule",
    "empirical_audit",
    "density_experiment",
    "chain_check",
    "StepAuditError",
    "InvalidParameterError",
    "ConstructionError",
    "NumericFaultError",
]
