import numpy as np
import pytest

from stepaudit import _kernels, coupling_weights, log_envelope, sqrt_decay
from stepaudit.errors import InvalidParameterError


@pytest.fixture
def weights():
    s = sqrt_decay(2, 1)
    a, b = coupling_weights(s, 48, log_envelope())
    return a, b, s.rates(48)


def test_shape_validation(weights):
    a, b, eta = weights
    with pytest.raises(InvalidParameterError):
        _kernels.maxlinear_descent(a[:-1], b, eta, np.empty(0, dtype=np.int64))
    with pytest.raises(InvalidParameterError):
        _kernels.maxlinear_descent(a, b, np.zeros(len(a)), np.empty(0, dtype=np.int64))


def test_fault_flag_on_nonfinite_weights(weights):
    a, b, eta = weights
    bad = b.copy()
    bad[0] = np.nan
    errors, trace, mx, hits, snaps, fault = _kernels.maxlinear_descent(
        a, bad, eta, np.empty(0, dtype=np.int64)
    )
    assert fault == 0
