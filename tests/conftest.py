"""Shared fixtures."""

import numpy as np
import pytest

import tisp.solver


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
