"""Outside-in tracing of the tisp layers.

A `Tracer` wraps public functions of the ``tisp`` modules without editing
them.  Each wrapper is installed under every name the function is bound to
in a loaded ``tisp`` module (``tisp.solver.solve`` and the aliases that
``from .solver import solve`` creates in ``tisp.cli``, ``tisp.simulate`` and
``tisp``), because a call through a missed alias would go uncounted.  The
originals come back on `uninstall`, also when the traced code raises.

Calls nest strictly (one thread), so a call's self time is its duration
minus the time its traced children cover, computed as the calls return.
Every call of a span target is kept as a span record (name, start, end,
parent, self time, note).  The high-frequency leaves (``apply_vec``,
``discontinuities``, ``penalty_theta``: hundreds of thousands of calls per
pass) are aggregated per parent span instead, so memory stays bounded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    name: str
    leaf: bool = False
    note: Callable | None = None


def _solve_note(args, kwargs, result):
    trace = result.trace
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "theta_residual": result.theta_residual,
        "flagged": len(trace.flagged),
        "rows": len(trace.iterations),
        "has_errors": trace.has_errors,
    }


def _design_fingerprint(args, kwargs, result):
    """Cheap identity of the design a norm was computed for: shape plus 256
    evenly spaced entries (equal designs regenerated per task compare equal)."""
    X = np.asarray(args[0] if args else kwargs["X"])
    flat = X.reshape(-1)
    step = max(1, flat.size // 256)
    digest = hashlib.blake2b(repr(X.shape).encode(), digest_size=8)
    digest.update(np.ascontiguousarray(flat[::step][:256]).tobytes())
    return digest.hexdigest()


def _oracle_note(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return problem.p


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


SOLVE = Target("tisp.solver", "solve", "solver.solve", note=_solve_note)

ALL_TARGETS = (
    SOLVE,
    Target("tisp.solver", "spectral_norm", "solver.spectral_norm", note=_design_fingerprint),
    Target("tisp.solver", "scale_problem", "solver.scale_problem"),
    Target("tisp.solver:IterateTrace", "write_csv", "solver.IterateTrace.write_csv"),
    Target("tisp.thresholding", "apply_vec", "thresholding.apply_vec", leaf=True),
    Target("tisp.thresholding", "discontinuities", "thresholding.discontinuities", leaf=True),
    Target("tisp.penalty", "penalty_theta", "penalty.penalty_theta", leaf=True),
    Target("tisp.oracle", "l0_global_min", "oracle.l0_global_min", note=_oracle_note),
    Target("tisp.simulate", "gen_design", "simulate.gen_design"),
    Target("tisp.simulate", "gen_beta_star", "simulate.gen_beta_star"),
    Target("tisp.simulate", "gen_response", "simulate.gen_response"),
    Target("tisp.simulate", "fit_decay_rate", "simulate.fit_decay_rate"),
    Target("tisp.simulate", "fit_step_bound", "simulate.fit_step_bound"),
    Target("tisp.simulate", "write_results_csv", "simulate.write_results_csv"),
    Target("tisp.simulate", "write_summary_json", "simulate.write_summary_json"),
    Target("tisp.cli", "main", "cli.main"),
    Target("tisp.cli", "read_matrix", "cli.read_matrix", note=_file_bytes),
    Target("tisp.cli", "_write_vector", "cli._write_vector"),
)


class Tracer:
    """Install with ``with Tracer(targets) as tr:``; read ``tr.summary()``."""

    def __init__(self, targets=ALL_TARGETS):
        self.targets = tuple(targets)
        self.spans = []      # (name, start, end, parent index, self_s, note)
        self.leaves = {}     # (parent index, name) -> [calls, total_s, self_s]
        self._stack = []     # open frames: [span index or None, child_s]
        self._patches = []   # (namespace object, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            owner = getattr(module, class_name)
            original = owner.__dict__[target.attr]
            self._patch(owner, target.attr, original, self._wrap(original, target))
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(original, target)
        bound = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tisp" or mod_name.startswith("tisp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)
                    bound = bound or (mod is module and attr == target.attr)
        if not bound:
            raise RuntimeError(f"{target.owner}.{target.attr} is not bound in its module")

    def _patch(self, namespace, attr, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        clock = time.perf_counter
        name, leaf, note = target.name, target.leaf, target.note

        def parent_span():
            for frame in reversed(stack):
                if frame[0] is not None:
                    return frame[0]
            return -1

        if leaf:
            def wrapper(*args, **kwargs):
                frame = [None, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    key = (parent_span(), name)
                    acc = leaves.get(key)
                    if acc is None:
                        leaves[key] = [1, dur, dur - frame[1]]
                    else:
                        acc[0] += 1
                        acc[1] += dur
                        acc[2] += dur - frame[1]
        else:
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)  # reserve the slot so children see their parent
                frame = [index, 0.0]
                parent = parent_span()
                stack.append(frame)
                start = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    if stack:
                        stack[-1][1] += end - start
                    info = note(args, kwargs, result) if note and result is not None else None
                    spans[index] = (name, start, end, parent, end - start - frame[1], info)

        return functools.wraps(fn)(wrapper)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, total seconds ``s``, ``self_s`` and the notes."""
        out = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})

        for name, start, end, _parent, self_s, info in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["s"] += end - start
            e["self_s"] += self_s
            if info is not None:
                e["notes"].append(info)
        for (_parent, name), (calls, total, self_s) in self.leaves.items():
            e = entry(name)
            e["calls"] += calls
            e["s"] += total
            e["self_s"] += self_s
        return out

