"""Synthetic regression instances and experiment engines.

Two experiment drivers: ``run_decay_experiment`` tracks the weighted error
e_t = ||beta_t - beta*||^2_{rho^2 I - X'X} along the iteration and fits its
geometric decay, and ``run_rate_experiment`` regresses the converged
prediction error against the sparsity-times-log-dimension rate over a
(p, J*) grid.  Both read their errors from the solve's trace, which
``solver.error_metrics`` fills, and both are deterministic per config and
seed list.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import thresholding as th
from .solver import Problem, SolverConfig, _text_out, error_metrics, parse_schedule, solve, theory_threshold


class SpecError(ValueError):
    """Experiment config violates the schema."""


ENSEMBLES = ("gaussian-iid", "gaussian-ar1", "orthonormal")
NOISE_KINDS = ("gaussian", "rademacher-scaled", "uniform-bounded")
LAMBDA_POLICIES = ("theory", "explicit")

RESULT_COLUMNS = (
    "seed", "rule", "n", "p", "J_star", "sigma", "lambda", "rho", "iters",
    "pred_err", "est_err", "weighted_err", "kappa_hat", "plateau", "plateau_ratio",
)

# RNG stream tags: one independent child stream per purpose, per seed
_STREAM_DESIGN = 0
_STREAM_BETA = 1
_STREAM_NOISE = 2


@dataclass(frozen=True)
class ExperimentSpec:
    """Experiment description; field names match the JSON config keys.

    Decay experiments need n, p, J_star.  Rate experiments need p_grid and
    J_star_grid; each cell uses n = ceil(n_factor * J_star * log p).
    signal_magnitude defaults to 5x the theory threshold and must be given
    explicitly when that default degenerates (sigma = 0).
    """

    ensemble: str = "gaussian-iid"
    n: int | None = None
    p: int | None = None
    J_star: int | None = None
    signal_magnitude: float | None = None
    sigma: float = 1.0
    noise_kind: str = "gaussian"
    seeds: tuple = (0,)
    rules: tuple = ("soft",)
    lambda_policy: str = "theory"
    A: float = 1.0
    lambda_value: float | None = None
    schedule: str | None = None
    rho_corr: float | None = None
    tol: float = 1e-8
    max_iter: int = 10000
    rho_epsilon: float = 0.01
    p_grid: tuple | None = None
    J_star_grid: tuple | None = None
    n_factor: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.p_grid is not None:
            object.__setattr__(self, "p_grid", tuple(self.p_grid))
        if self.J_star_grid is not None:
            object.__setattr__(self, "J_star_grid", tuple(self.J_star_grid))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        """Build from a parsed JSON document, rejecting unknown keys and
        collecting every schema problem into one error message."""
        if not isinstance(doc, dict):
            raise SpecError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        problems = [f"unknown field {k!r}" for k in sorted(set(doc) - known)]
        spec = None
        try:
            spec = cls(**{k: v for k, v in doc.items() if k in known})
        except (TypeError, ValueError) as exc:
            problems.append(str(exc))
        if spec is not None:
            problems.extend(_base_problems(spec))
        if problems:
            raise SpecError("invalid config: " + "; ".join(problems))
        return spec


def _base_problems(spec: ExperimentSpec) -> list:
    out = []
    if spec.ensemble not in ENSEMBLES:
        out.append(f"ensemble must be one of {ENSEMBLES}, got {spec.ensemble!r}")
    if spec.ensemble == "gaussian-ar1":
        if spec.rho_corr is None or not (0.0 <= spec.rho_corr < 1.0):
            out.append("gaussian-ar1 needs rho_corr in [0, 1)")
    if not (isinstance(spec.sigma, (int, float)) and math.isfinite(spec.sigma) and spec.sigma >= 0):
        out.append("sigma must be a finite number >= 0")
    if spec.noise_kind not in NOISE_KINDS:
        out.append(f"noise_kind must be one of {NOISE_KINDS}, got {spec.noise_kind!r}")
    if not spec.seeds or any(not isinstance(s, int) for s in spec.seeds):
        out.append("seeds must be a nonempty list of integers")
    elif len(set(spec.seeds)) != len(spec.seeds):
        out.append("seeds must be distinct")
    if not spec.rules:
        out.append("rules must be a nonempty list of rule strings")
    else:
        for r in spec.rules:
            try:
                th.parse_rule(r, require_lambda=False)
            except th.RuleParseError as exc:
                out.append(f"rule {r!r}: {exc}")
    if spec.lambda_policy not in LAMBDA_POLICIES:
        out.append(f"lambda_policy must be one of {LAMBDA_POLICIES}")
    elif spec.lambda_policy == "explicit":
        if spec.lambda_value is None or spec.lambda_value < 0:
            out.append("explicit lambda_policy needs lambda_value >= 0")
    elif not (math.isfinite(spec.A) and spec.A > 0):
        out.append("theory lambda_policy needs A > 0")
    if spec.schedule is not None:
        try:
            parse_schedule(spec.schedule)
        except ValueError as exc:
            out.append(f"schedule: {exc}")
    if not (math.isfinite(spec.tol) and spec.tol > 0):
        out.append("tol must be > 0")
    if not (isinstance(spec.max_iter, int) and spec.max_iter >= 1):
        out.append("max_iter must be an integer >= 1")
    return out


def _require_decay_fields(spec: ExperimentSpec) -> None:
    problems = []
    for name in ("n", "p", "J_star"):
        v = getattr(spec, name)
        if not (isinstance(v, int) and v >= 1):
            problems.append(f"{name} must be an integer >= 1")
    if not problems and spec.J_star > min(spec.n, spec.p):
        problems.append("J_star must be <= min(n, p)")
    if problems:
        raise SpecError("invalid decay config: " + "; ".join(problems))


def _require_rate_fields(spec: ExperimentSpec) -> None:
    problems = []
    for name in ("p_grid", "J_star_grid"):
        v = getattr(spec, name)
        if not v or any(not (isinstance(x, int) and x >= 1) for x in v):
            problems.append(f"{name} must be a nonempty list of integers >= 1")
    if not (math.isfinite(spec.n_factor) and spec.n_factor > 0):
        problems.append("n_factor must be > 0")
    if spec.sigma <= 0:
        problems.append("rate experiment needs sigma > 0")
    if not problems and len(spec.p_grid) * len(spec.J_star_grid) < 4:
        problems.append("need at least 4 grid cells (p_grid x J_star_grid)")
    if problems:
        raise SpecError("invalid rate config: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def gen_design(spec: ExperimentSpec, seed: int, n: int | None = None,
               p: int | None = None) -> np.ndarray:
    """Design draw for one replication; deterministic per (spec, seed).

    gaussian-iid: entries N(0, 1/n).  gaussian-ar1: each row a stationary
    AR(1) sequence across columns with correlation rho_corr^|i-j|, scaled by
    1/sqrt(n) so columns have unit norm in expectation.  orthonormal: QR of
    a square-or-tall Gaussian draw, X'X = I exactly.
    """
    n = spec.n if n is None else n
    p = spec.p if p is None else p
    rng = _rng(seed, _STREAM_DESIGN)
    if spec.ensemble == "gaussian-iid":
        X = rng.standard_normal((n, p))
        return np.divide(X, math.sqrt(n), out=X)  # in place: one n x p array at a time
    if spec.ensemble == "gaussian-ar1":
        rc = spec.rho_corr
        Z = rng.standard_normal((n, p))
        X = np.empty((n, p))
        X[:, 0] = Z[:, 0]
        innov = math.sqrt(1.0 - rc * rc)
        for j in range(1, p):
            X[:, j] = rc * X[:, j - 1] + innov * Z[:, j]
        return X / math.sqrt(n)
    if spec.ensemble == "orthonormal":
        if n < p:
            raise SpecError("orthonormal ensemble requires n >= p")
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        return Q
    raise SpecError(f"unknown ensemble {spec.ensemble!r}")


def resolve_lambda(spec: ExperimentSpec, p: int) -> float:
    if spec.lambda_policy == "explicit":
        return float(spec.lambda_value)
    return theory_threshold(spec.sigma, p, a_const=spec.A)


def resolve_rule(template: str, lam: float) -> th.ThresholdRule:
    """Concrete rule from a template string; the policy threshold fills in
    lambda when the template leaves it out."""
    rule = th.parse_rule(template, require_lambda=False)
    if rule.kind in th.LAMBDA_KINDS and rule.lam is None:
        rule = rule.with_lambda(lam)
    return rule


def gen_beta_star(spec: ExperimentSpec, seed: int, p: int | None = None,
                  j_star: int | None = None, lam: float | None = None) -> np.ndarray:
    """J* nonzeros at the signal magnitude, random positions and signs."""
    p = spec.p if p is None else p
    j = spec.J_star if j_star is None else j_star
    mag = spec.signal_magnitude
    if mag is None:
        if lam is None:
            lam = resolve_lambda(spec, p)
        mag = 5.0 * lam
    if not (math.isfinite(mag) and mag > 0):
        raise SpecError(
            "signal magnitude must be positive; set signal_magnitude "
            "explicitly when the threshold-based default degenerates"
        )
    rng = _rng(seed, _STREAM_BETA)
    beta = np.zeros(p)
    idx = rng.choice(p, size=j, replace=False)
    beta[idx] = mag * rng.choice([-1.0, 1.0], size=j)
    return beta


def gen_response(X, beta_star, sigma: float, noise_kind: str, seed: int) -> np.ndarray:
    """y = X beta* + noise, with the noise kind's scale set to sigma."""
    if sigma < 0:
        raise SpecError("sigma must be >= 0")
    X = np.asarray(X, dtype=float)
    mean = X @ np.asarray(beta_star, dtype=float)
    rng = _rng(seed, _STREAM_NOISE)
    n = X.shape[0]
    if noise_kind == "gaussian":
        eps = sigma * rng.standard_normal(n)
    elif noise_kind == "rademacher-scaled":
        eps = sigma * (2.0 * rng.integers(0, 2, size=n) - 1.0)
    elif noise_kind == "uniform-bounded":
        half = sigma * math.sqrt(3.0)
        eps = rng.uniform(-half, half, size=n)
    else:
        raise SpecError(f"unknown noise_kind {noise_kind!r}")
    return mean + eps


# ---------------------------------------------------------------------------
# decay experiment
# ---------------------------------------------------------------------------

@dataclass
class DecayResult:
    seed: int
    rule: str
    lam: float | None
    e_seq: list
    kappa_hat: float | None
    fit_ok: bool
    plateau: float
    plateau_ratio: float | None
    row: dict


def fit_decay_rate(e_seq, plateau: float):
    """Least-squares slope of log e_t over the leading stretch above 4x plateau.

    Returns (kappa_hat, fit_ok); the fit is skipped (None, False) when fewer
    than 5 points sit above the plateau band.
    """
    thresh = 4.0 * plateau
    ts = []
    for t, e in enumerate(e_seq):
        if e > thresh and e > 0.0:
            ts.append(t)
        else:
            break
    if len(ts) < 5:
        return None, False
    ys = np.log([e_seq[t] for t in ts])
    slope = float(np.polyfit(np.array(ts, dtype=float), ys, 1)[0])
    kappa = math.exp(slope)
    return kappa, 0.0 < kappa <= 1.0


def _instance(spec: ExperimentSpec, seed: int, lam: float, n=None, p=None, j_star=None) -> Problem:
    """One seed's design, beta* and response as a Problem holding them, not
    copies; its norm and support memo then serve every rule solved on it."""
    X = gen_design(spec, seed, n=n, p=p)
    beta_star = gen_beta_star(spec, seed, p=p, j_star=j_star, lam=lam)
    y = gen_response(X, beta_star, spec.sigma, spec.noise_kind, seed)
    return Problem._own(X, y, beta_star=beta_star, sigma=spec.sigma)


def _solve_rule(spec: ExperimentSpec, seed: int, problem: Problem, rule: th.ThresholdRule,
                j_star: int, record_every: int):
    """Solve one rule on one instance; returns (SolveResult, result row).

    The row's errors are the trace's last recorded ones: the final iterate
    is always recorded, so they are error_metrics of the estimate.  The
    decay-only columns are left None.
    """
    config = SolverConfig(
        rule=rule,
        rho="auto",
        rho_epsilon=spec.rho_epsilon,
        schedule=parse_schedule(spec.schedule) if spec.schedule else None,
        tol=spec.tol,
        max_iter=spec.max_iter,
        record_every=record_every,
    )
    res = solve(problem, config)
    trace = res.trace
    row = {
        "seed": seed,
        "rule": str(rule),
        "n": problem.n,
        "p": problem.p,
        "J_star": j_star,
        "sigma": spec.sigma,
        "lambda": rule.lam,
        "rho": res.rho,
        "iters": res.iterations,
        "pred_err": trace.pred_err[-1],
        "est_err": trace.est_err[-1],
        "weighted_err": trace.weighted_err[-1],
        "kappa_hat": None,
        "plateau": None,
        "plateau_ratio": None,
    }
    return res, row


def _decay_task(args) -> list:
    """Every rule of the spec on one seed's instance, every iteration recorded."""
    spec, seed = args
    lam = resolve_lambda(spec, spec.p)
    problem = _instance(spec, seed, lam)
    results = []
    for rule_str in spec.rules:
        rule = resolve_rule(rule_str, lam)
        res, row = _solve_rule(spec, seed, problem, rule, spec.J_star, record_every=1)
        e0 = error_metrics(np.zeros(spec.p), problem, res.rho)["weighted"]
        e_seq = [e0] + res.trace.weighted_err
        plateau = float(np.median(e_seq[-10:]))
        kappa_hat, fit_ok = fit_decay_rate(e_seq, plateau)
        denom = None
        if spec.sigma > 0 and rule.lam:
            denom = spec.sigma**2 * rule.lam**2 * spec.J_star
        ratio = plateau / denom if denom else None
        row.update(kappa_hat=kappa_hat, plateau=plateau, plateau_ratio=ratio)
        results.append(DecayResult(
            seed=seed, rule=row["rule"], lam=rule.lam, e_seq=e_seq,
            kappa_hat=kappa_hat, fit_ok=fit_ok, plateau=plateau,
            plateau_ratio=ratio, row=row,
        ))
    return results


def fit_step_bound(results) -> dict | None:
    """Single (kappa, K') making e_{t+1} <= kappa e_t + K' lam^2 J* hold on
    every recorded step of every run.

    K'(kappa) = max over steps of (e_{t+1} - kappa e_t) / (lam^2 J*), floored
    at zero; evaluated on a few kappa candidates (per-run fit median plus
    fixed fallbacks), keeping the smallest K' with ties going to the smaller
    kappa.  Returns None when no run has a positive lam^2 J* normalizer.
    """
    e0s, e1s, denoms = [], [], []
    for r in results:
        if r.lam is None or r.lam <= 0:
            continue
        d = r.lam**2 * r.row["J_star"]
        seq = r.e_seq
        e0s.extend(seq[:-1])
        e1s.extend(seq[1:])
        denoms.extend([d] * (len(seq) - 1))
    if not e0s:
        return None
    e0s = np.array(e0s)
    e1s = np.array(e1s)
    denoms = np.array(denoms)
    fitted = sorted({r.kappa_hat for r in results if r.fit_ok})
    candidates = sorted(set(
        [min(max(k, 0.01), 0.999) for k in fitted] + [0.5, 0.9, 0.99, 0.999]
    ))
    best_kappa, best_k = None, math.inf
    for kappa in candidates:
        k_prime = float(max(np.max((e1s - kappa * e0s) / denoms), 0.0))
        if k_prime < best_k:
            best_k, best_kappa = k_prime, kappa
    return {"kappa": best_kappa, "K_prime": best_k, "num_steps": int(e0s.size)}


def run_decay_experiment(spec: ExperimentSpec, jobs: int = 1):
    """Returns (list of DecayResult sorted by (seed, rule), summary dict)."""
    _require_decay_fields(spec)
    tasks = [(spec, seed) for seed in spec.seeds]
    results = [r for batch in _map_tasks(_decay_task, tasks, jobs) for r in batch]
    results.sort(key=lambda r: (r.seed, r.rule))

    kappas = sorted(r.kappa_hat for r in results if r.fit_ok)
    ratios = sorted(r.plateau_ratio for r in results if r.plateau_ratio is not None)
    summary = {
        "experiment": "decay",
        "n": spec.n,
        "p": spec.p,
        "J_star": spec.J_star,
        "sigma": spec.sigma,
        "lambda": resolve_lambda(spec, spec.p),
        "num_runs": len(results),
        "kappa_hat": {
            "num_fit": len(kappas),
            "num_skipped": len(results) - len(kappas),
            "median": float(np.median(kappas)) if kappas else None,
            "min": kappas[0] if kappas else None,
            "max": kappas[-1] if kappas else None,
        },
        "plateau_max": max(r.plateau for r in results),
        "plateau_ratio": {
            "median": float(np.median(ratios)) if ratios else None,
            "max": ratios[-1] if ratios else None,
        },
        "step_bound": fit_step_bound(results),
    }
    return results, summary


# ---------------------------------------------------------------------------
# rate experiment
# ---------------------------------------------------------------------------

def _rate_task(args) -> list:
    """Every rule of the spec on one (cell, seed) instance; only the final
    iterate is recorded."""
    spec, seed, n, p, j_star = args
    lam = resolve_lambda(spec, p)
    problem = _instance(spec, seed, lam, n=n, p=p, j_star=j_star)
    return [
        _solve_rule(spec, seed, problem, resolve_rule(r, lam), j_star, record_every=spec.max_iter)[1]
        for r in spec.rules
    ]


def rate_grid(spec: ExperimentSpec):
    """Sorted (n, p, J_star) cells with n = ceil(n_factor * J* * log p)."""
    cells = []
    for p in sorted(spec.p_grid):
        for j in sorted(spec.J_star_grid):
            if j > p:
                raise SpecError(f"grid cell has J_star={j} > p={p}")
            n = int(math.ceil(spec.n_factor * j * math.log(p)))
            cells.append((max(n, j), p, j))
    return cells


def run_rate_experiment(spec: ExperimentSpec, jobs: int = 1):
    """Returns (rows sorted by (p, J_star, seed, rule), summary dict).

    The summary regression fits log(median pred_err) against
    log(sigma^2 * J* * log(e p)) across the grid cells.
    """
    _require_rate_fields(spec)
    cells = rate_grid(spec)
    tasks = [(spec, seed, n, p, j) for (n, p, j) in cells for seed in spec.seeds]
    rows = [r for batch in _map_tasks(_rate_task, tasks, jobs) for r in batch]
    rows.sort(key=lambda r: (r["p"], r["J_star"], r["seed"], r["rule"]))

    xs, ys, cell_summaries = [], [], []
    for (n, p, j) in cells:
        errs = [r["pred_err"] for r in rows if r["p"] == p and r["J_star"] == j]
        med = float(np.median(errs))
        if med <= 0:
            raise SpecError(
                f"median prediction error is zero in cell (p={p}, J_star={j}); "
                "rate regression undefined"
            )
        x = math.log(spec.sigma**2 * j * (1.0 + math.log(p)))
        xs.append(x)
        ys.append(math.log(med))
        cell_summaries.append(
            {"p": p, "J_star": j, "n": n, "median_pred_err": med, "log_rate": x}
        )
    xs = np.array(xs)
    ys = np.array(ys)
    if np.ptp(xs) <= 0:
        raise SpecError("degenerate grid: the theoretical rate is constant across cells")
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    summary = {
        "experiment": "rate",
        "sigma": spec.sigma,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0,
        "cells": cell_summaries,
        "num_rows": len(rows),
    }
    return rows, summary


# ---------------------------------------------------------------------------
# execution and serialization
# ---------------------------------------------------------------------------

def _worker_count(jobs: int, num_tasks: int) -> int:
    """Worker processes for `num_tasks` tasks: `jobs`, but no more than there
    are tasks or CPUs (the pool starts all its workers up front)."""
    if jobs < 1:
        raise SpecError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, num_tasks, os.cpu_count() or 1))


def _map_tasks(fn, tasks, jobs: int):
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_results_csv(rows, dest) -> None:
    """Rows are dicts keyed by RESULT_COLUMNS; dest is a path or file object."""
    with _text_out(dest) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(RESULT_COLUMNS)
        for row in rows:
            r = row.row if isinstance(row, DecayResult) else row
            w.writerow([_format_cell(r[c]) for c in RESULT_COLUMNS])


def write_summary_json(summary: dict, dest) -> None:
    with _text_out(dest) as f:
        f.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
