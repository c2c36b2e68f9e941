"""tools/drift.py: a checkout against itself, at the tiny size."""

import subprocess
import sys
from pathlib import Path

import drift

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_does_not_drift_from_itself():
    proc = subprocess.run([sys.executable, "tools/drift.py", ".", ".", "--size", "tiny"], cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, identical, flags = proc.stdout.splitlines()  # no moved output, no non-numeric one
    assert identical.endswith("more numeric outputs identical")
    assert flags == "iteration counts, supports and flags: identical"
    records = drift.run_checkout(str(ROOT), "tiny")["records"]  # what the run compared
    (cli,) = records["cli-solve solve"]
    assert cli["reason"] == "converged"
    solves = [r for name, rs in records.items() if name.endswith(" solve") for r in rs]
    assert len(solves) > 1 and all(r["rho"] > 0 for r in solves)
