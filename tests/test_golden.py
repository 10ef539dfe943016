"""Byte-exact outputs of small CLI runs, pinned against files in ``tests/golden``.

CSV files are compared line by line without their ``#`` header, JSON reports
without their ``meta`` block (both hold the output path).  To record the files
again after an intended output change, run ``PYTHONPATH=src python
tests/test_golden.py``.
"""

import json
import tempfile
from pathlib import Path

import pytest

from stepaudit import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "audit": ["audit", "--horizons", "pow2:8-256"],
    "audit-dump": ["audit", "--dump-instances", "--horizons", "8,16"],
    "audit-empirical": ["audit", "--phi", "empirical", "--horizons", "8,16,32"],
    "bounds": ["bounds", "--T", "256"],
    "bounds-rows": ["bounds", "--T", "256", "--rows"],
    "density": ["density", "--T", "64", "--per-t"],
    "verify": ["verify", "--horizons", "16,64"],
}


def _comparable(path: Path) -> str:
    """The file's content without what depends on the output directory."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        del payload["meta"]
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    lines = path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


def _run(name: str, out: Path) -> dict[str, str]:
    assert cli.main([*COMMANDS[name], "--out", str(out)]) == 0
    return {path.name: _comparable(path) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_golden(name, tmp_path):
    outputs = _run(name, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(outputs) == expected
    for file, text in outputs.items():
        assert text == (GOLDEN / name / file).read_text(), f"{name}/{file} differs from its golden copy"


if __name__ == "__main__":  # record the golden files
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = _run(name, Path(tmp))
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for file, text in outputs.items():
            (GOLDEN / name / file).write_text(text)
