"""Shared fixtures."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

import tisp.solver

# child processes (`python -m tisp.cli`) import the package the tests import
_SRC = str(Path(tisp.solver.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
# the scripts under tools/ import each other by module name, as they do when run
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))


@pytest.fixture
def norm_calls(monkeypatch):
    """Shapes of the designs `tisp.solver.spectral_norm` is called on, in
    call order (the solver looks the function up at call time)."""
    calls = []
    original = tisp.solver.spectral_norm

    def counted(X, *args, **kwargs):
        calls.append(np.asarray(X).shape)
        return original(X, *args, **kwargs)

    monkeypatch.setattr(tisp.solver, "spectral_norm", counted)
    return calls
