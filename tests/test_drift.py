"""tools/drift.py: a checkout against itself, at the tiny size."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_does_not_drift_from_itself():
    proc = subprocess.run([sys.executable, "tools/drift.py", ".", ".", "--size", "tiny"], cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, identical, flags = proc.stdout.splitlines()  # no moved output, no non-numeric one
    assert identical.endswith("more numeric outputs identical")
    assert flags == "iteration counts, supports and flags: identical"
