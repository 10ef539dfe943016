"""Custom guarantee envelopes for the tests, in the array form ``GuaranteeEnvelope`` takes."""

import numpy as np

from stepaudit import bounds as bnd


def step_envelope(before, after, at, label="step"):
    """``phi(t) = before`` for ``t < at`` and ``after`` from ``at`` on."""
    return bnd.GuaranteeEnvelope(lambda ts: np.where(ts < at, before, after), label)
