"""The benchmark's own end-to-end test, run as part of the test suite.

``stepbench/test_stepbench.py`` runs every workload at a tiny size, untraced
and traced, and checks the outputs, that every span wrapper is found and
called, and the coverage counts (one kernel run per max-of-linear build).
pytest collects only ``tests/``, so this test runs that one in a child
interpreter from the root of the checkout.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_traced_at_tiny_size():
    target = "stepbench/test_stepbench.py::test_workload_runs_end_to_end_at_tiny_size"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert "4 passed" in proc.stdout
