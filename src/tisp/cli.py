"""Command-line front end.

Subcommands: ``solve`` one problem from CSV inputs, ``simulate`` a synthetic
dataset, ``decay``/``rate`` experiment drivers, and ``verify`` for the
property suites.  stdout carries data, stderr carries diagnostics.  Exit
codes: 0 success, 1 input/configuration error, 2 solver hit max_iter.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from . import oracle
from . import penalty as pen
from . import simulate as sim
from . import thresholding as th
from .solver import (
    Problem,
    SolverConfig,
    SolverError,
    gaussian_starts,
    parse_schedule,
    scale_problem,
    solve,
    spectral_norm,
    tisp_step,
    triangle_inequality_check,
)

SUITES = ("axioms", "penalty", "descent", "theorem1", "lemma5", "lemma7", "regularity", "all")


class CliError(Exception):
    """Input error reportable to the user; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # max_iter, so remap argument errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

# ASCII separators \x1c-\x1f: np.loadtxt skips them as whitespace, float() refuses them
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_matrix(path: str) -> np.ndarray:
    """A headerless numeric CSV file as a 2-d float array.

    np.loadtxt reads it when it can; otherwise `_read_csv`, the reference
    for every value and for every error message, reads it.
    """
    fast = _loadtxt(path)
    return fast if fast is not None else _read_csv(path)


def _read_csv(path: str) -> np.ndarray:
    rows = []
    try:
        with open(path, newline="") as f:
            for i, record in enumerate(csv.reader(f), start=1):
                if not record:
                    continue
                try:
                    row = [float(v) for v in record]
                except ValueError:
                    raise CliError(f"{path}: line {i}: value is not a number") from None
                if rows and len(row) != len(rows[0]):
                    raise CliError(
                        f"{path}: line {i}: expected {len(rows[0])} columns, got {len(row)}"
                    )
                rows.append(row)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    if not rows:
        raise CliError(f"{path}: empty input")
    return np.array(rows, dtype=float)


def _loadtxt(path: str) -> np.ndarray | None:
    # None where np.loadtxt raises, warns, reads no value, or could read a
    # file that `_read_csv` refuses (a separator byte); on every other file
    # both give the same array
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                if any(sep in chunk for sep in _LOADTXT_ONLY_SPACE):
                    return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (OSError, ValueError, Warning):
        return None
    return m if m.size else None


def read_vector(path: str) -> np.ndarray:
    m = read_matrix(path)
    if m.shape[1] == 1:
        return m[:, 0]
    if m.shape[0] == 1:
        return m[0, :]
    raise CliError(f"{path}: expected a vector (one value per line), got shape {m.shape}")


# Joined float reprs: no repr needs CSV quoting, so this is csv.writer's output.
def _write_vector(vec, f) -> None:
    f.writelines(repr(v) + "\n" for v in np.asarray(vec, dtype=float).tolist())


def _write_matrix(mat, f) -> None:
    f.writelines(",".join(map(repr, row)) + "\n" for row in np.asarray(mat, dtype=float).tolist())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    X = read_matrix(args.design)
    y = read_vector(args.response)
    beta_star = read_vector(args.beta_star) if args.beta_star else None
    rule = th.parse_rule(args.rule, require_lambda=False)
    if args.rho == "auto":
        rho = "auto"
    else:
        try:
            rho = float(args.rho)
        except ValueError:
            raise CliError(f"--rho must be 'auto' or a number, got {args.rho!r}") from None
    schedule = parse_schedule(args.lambda_schedule) if args.lambda_schedule else None
    config = SolverConfig(
        rule=rule,
        rho=rho,
        alpha=args.alpha,
        schedule=schedule,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    problem = Problem._own(X, y, beta_star=beta_star)  # the arrays just read: no copy
    result = solve(problem, config)

    if args.out:
        with open(args.out, "w", newline="") as f:
            _write_vector(result.beta, f)
    else:
        _write_vector(result.beta, sys.stdout)
    if args.trace:
        result.trace.write_csv(args.trace)
    if not result.converged:
        print(
            f"did not converge within {args.max_iter} iterations "
            f"(last fixed-point residual above tol={args.tol:g})",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_config(path: str) -> sim.ExperimentSpec:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    return sim.ExperimentSpec.from_dict(doc)


def cmd_simulate(args) -> int:
    spec = _load_config(args.config)
    sim._require_decay_fields(spec)
    seed = args.seed if args.seed is not None else spec.seeds[0]
    inst = sim._instance(spec, seed, sim.resolve_lambda(spec, spec.p))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "X.csv"), "w", newline="") as f:
        _write_matrix(inst.X, f)
    with open(os.path.join(args.out, "y.csv"), "w", newline="") as f:
        _write_vector(inst.y, f)
    with open(os.path.join(args.out, "beta_star.csv"), "w", newline="") as f:
        _write_vector(inst.beta_star, f)
    return 0


# ---------------------------------------------------------------------------
# decay / rate experiments
# ---------------------------------------------------------------------------

def cmd_experiment(args, kind: str) -> int:
    spec = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    if kind == "decay":
        rows, summary = sim.run_decay_experiment(spec, jobs=args.jobs)
    else:
        rows, summary = sim.run_rate_experiment(spec, jobs=args.jobs)
    sim.write_results_csv(rows, os.path.join(args.out, f"{kind}_results.csv"))
    sim.write_summary_json(summary, os.path.join(args.out, f"{kind}_summary.json"))
    sim.write_summary_json(summary, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _random_instance(rng, n, p, sparsity=0):
    X = rng.standard_normal((n, p)) / math.sqrt(n)
    if sparsity:
        beta = np.zeros(p)
        idx = rng.choice(p, size=sparsity, replace=False)
        beta[idx] = 3.0 * rng.choice([-1.0, 1.0], size=sparsity)
        y = X @ beta + 0.3 * rng.standard_normal(n)
        return X, y, beta
    return X, rng.standard_normal(n), None


def _suite_axioms(seed):
    checks = []
    t_grid = np.linspace(-10.0, 10.0, 2001)
    for rule in th.rule_catalog():
        report = th.verify_axioms(rule, t_grid)
        detail = (
            f"odd={report.oddness:.2e} mono={report.monotonicity:.2e} "
            f"shrink={report.shrinkage:.2e} contraction_err="
            f"{abs(report.contraction_estimated - report.contraction_stored):.2e}"
        )
        checks.append((f"axioms[{rule.kind}]", report.passed, detail))
    return checks


def _suite_penalty(seed):
    checks = []
    for rule in th.rule_catalog():
        lam_eff = rule.effective_threshold() or 1.0
        grid = np.linspace(-10.0 * lam_eff, 10.0 * lam_eff, 41)
        spec = pen.PenaltySpec(rule=rule)
        worst = 0.0
        for t in grid:
            closed = pen.penalty_theta(spec, t)
            quad = pen.penalty_theta_quadrature(rule, t)
            worst = max(worst, abs(closed - quad))
        checks.append(
            (f"penalty-quadrature[{rule.kind}]", worst <= 1e-8, f"max closed-vs-quadrature gap {worst:.2e}")
        )

    lam = 1.0
    grid = np.linspace(-10.0, 10.0, 801)
    worst_dom = -math.inf
    for rule in th.rule_catalog(lam=lam):
        if rule.kind not in th.LAMBDA_KINDS:
            continue
        spec = pen.PenaltySpec(rule=rule)
        gap = pen.penalty_theta(spec, grid, lam_override=lam) - pen.penalty_hard(grid, lam)
        worst_dom = max(worst_dom, float(np.max(-gap)))
    checks.append(("penalty-dominance[P_theta>=P_H]", worst_dom <= 1e-10, f"worst violation {worst_dom:.2e}"))

    ph = pen.penalty_hard(grid, lam)
    cap = np.minimum(pen.penalty_l0(grid, lam), pen.penalty_l1(grid, lam)) - ph
    worst_cap = float(np.max(-cap))
    checks.append(("penalty-bound[P_H<=min(P0,P1)]", worst_cap <= 1e-10, f"worst violation {worst_cap:.2e}"))

    vals = np.linspace(-5.0, 5.0, 81)
    sub = pen.penalty_hard(vals[:, None], lam) + pen.penalty_hard(vals[None, :], lam) \
        - pen.penalty_hard(vals[:, None] + vals[None, :], lam)
    worst_sub = float(np.max(-sub))
    checks.append(("penalty-subadditive[P_H]", worst_sub <= 1e-10, f"worst violation {worst_sub:.2e}"))
    return checks


def _suite_descent(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    checks = []
    for rule in th.rule_catalog(lam=0.7, eta=0.5, gamma=2.5):
        spec = pen.PenaltySpec(rule=rule)
        worst_auto, worst_edge = -math.inf, -math.inf
        for _ in range(10):
            X, y, _ = _random_instance(rng, 12, 30)
            y = 4.0 * y  # strong response so iterates clear every rule's threshold
            problem = Problem(X, y)
            res = solve(problem, SolverConfig(rule=rule, max_iter=80, tol=1e-13))
            objs = res.trace.objective
            for a, b in zip(objs, objs[1:]):
                worst_auto = max(worst_auto, (b - a) / (1.0 + abs(a)))

            # edge of the exact descent region: ||X/rho||^2 = 2 - L, margin 0.1%
            rho_edge = problem.norm * 1.001 / math.sqrt(2.0 - rule.contraction)
            scaled = Problem(X / rho_edge, y)
            beta = np.zeros(30)
            f_prev = pen.energy(spec, scaled, beta, 1.0)
            for _ in range(60):
                beta = tisp_step(beta, scaled, rule)
                f_cur = pen.energy(spec, scaled, beta, 1.0)
                worst_edge = max(worst_edge, (f_cur - f_prev) / (1.0 + abs(f_prev)))
                f_prev = f_cur
        ok = worst_auto <= 1e-10 and worst_edge <= 1e-10
        checks.append(
            (f"descent[{rule.kind}]", ok, f"worst rise auto={worst_auto:.2e} edge={worst_edge:.2e}")
        )
    return checks


def _suite_theorem1(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    checks = []
    rules = [
        th.ThresholdRule(kind="soft", lam=0.5),
        th.ThresholdRule(kind="mcp", lam=0.5, gamma=2.5),
        th.ThresholdRule(kind="scad", lam=0.5, a=3.7),
    ]
    for rule in rules:
        worst = 0.0
        flagged = 0
        for _ in range(20):
            X, y, _ = _random_instance(rng, 15, 8)
            problem = Problem(X, y)
            rho = 1.05 * spectral_norm(X)
            cd = oracle.coordinate_descent_local_min(problem, rule, rho=rho)
            report = oracle.check_theta_equation(cd.beta / rho, problem, rule, rho=rho, tol=1e-6)
            if report.continuity_flag:
                flagged += 1
                continue
            worst = max(worst, report.residual)
        checks.append(
            (f"theorem1-cd[{rule.kind}]", worst <= 1e-6, f"max residual {worst:.2e}, {flagged} flagged skipped")
        )

    worst_solve = 0.0
    for _ in range(10):
        X, y, _ = _random_instance(rng, 15, 8)
        problem = Problem(X, y)
        res = solve(problem, SolverConfig(rule=rules[0], tol=1e-10))
        report = oracle.check_theta_equation(res.beta, problem, rules[0], rho=res.rho, tol=1e-9)
        worst_solve = max(worst_solve, report.residual)
    checks.append(("theorem1-solve[soft]", worst_solve <= 1e-9, f"max residual {worst_solve:.2e}"))
    return checks


def _suite_lemma5(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    lam = 0.6
    gap_ok = True
    dominated = True
    worst_gap = math.inf
    worst_dom = math.inf
    for i in range(20):
        p = 4 + (i % 5)
        X, y, _ = _random_instance(rng, 8, p)
        problem = Problem(X, y)
        rho = 1.05 * spectral_norm(X)
        best = oracle.l0_global_min(problem, lam, rho)
        gap_ok = gap_ok and best.gap_ok
        if best.support:
            worst_gap = min(worst_gap, best.min_magnitude - lam)

        rule = th.ThresholdRule(kind="hard", lam=lam)
        Xs = X / rho
        starts = [np.zeros(p)] + gaussian_starts(problem, 20, seed=seed + i)
        for s in starts:
            res = solve(problem, SolverConfig(rule=rule, rho=rho, tol=1e-12, max_iter=2000), start=s)
            b = rho * res.beta
            r = y - Xs @ b
            f0 = 0.5 * float(r @ r) + 0.5 * lam * lam * np.count_nonzero(b)
            worst_dom = min(worst_dom, f0 - best.objective)
            dominated = dominated and f0 >= best.objective - 1e-9
    checks = [
        ("lemma5-gap", gap_ok, f"min over instances of (|beta_j| - lambda) = {worst_gap:.2e}"),
        ("lemma5-global-bound", dominated, f"min (f0(fixed point) - f0(oracle)) = {worst_dom:.2e}"),
    ]
    return checks


def _suite_lemma7(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    checks = []
    for rule in th.rule_catalog(lam=0.8, eta=0.4, gamma=3.0):
        spec = pen.PenaltySpec(rule=rule)
        worst = math.inf
        for _ in range(5):
            X, y, _ = _random_instance(rng, 10, 20)
            problem = Problem(X, y)
            scaled, _ = scale_problem(problem, 1.02 * problem.norm)
            for _ in range(5):
                beta_t = rng.standard_normal(20)
                beta_t1 = tisp_step(beta_t, scaled, rule)
                probes = [beta_t1, np.zeros(20), rng.standard_normal(20), 2.0 * rng.standard_normal(20)]
                for probe in probes:
                    slack = triangle_inequality_check(beta_t, beta_t1, probe, scaled, spec)
                    f_probe = pen.energy(spec, scaled, probe, 1.0)
                    worst = min(worst, slack / (1.0 + abs(f_probe)))
        checks.append((f"lemma7[{rule.kind}]", worst >= -1e-8, f"min normalized slack {worst:.2e}"))
    return checks


def _suite_regularity(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 14]))
    checks = []
    X, _, _ = _random_instance(rng, 10, 6)
    beta_ref = np.zeros(6)
    beta_ref[:2] = (1.5, -2.0)
    problem = Problem(X, np.zeros(10), beta_star=None)
    convex = [
        th.ThresholdRule(kind="soft", lam=0.8),
        th.ThresholdRule(kind="ridge", eta=0.5),
        th.ThresholdRule(kind="elastic-net", lam=0.8, eta=0.5),
        th.ThresholdRule(kind="berhu", lam=0.8, eta=0.5),
    ]
    worst = math.inf
    for rule in convex:
        lam = 0.0 if rule.kind == "ridge" else 0.8
        config = oracle.RegularityProbeConfig(
            assumption="R0", delta=1.0, vartheta=0.5, K=0.5, lam=lam,
            reference_beta=tuple(beta_ref), num_samples=50, sample_radius=3.0,
            seed=seed,
        )
        result = oracle.probe_regularity(config, problem, rule)
        worst = min(worst, result.min_slack)
    checks.append(
        ("regularity-R0-convex", worst >= -1e-10, f"min slack over soft/ridge/en/berhu {worst:.2e}")
    )

    zero_problem = Problem(np.zeros((5, 4)), np.zeros(5))
    config = oracle.RegularityProbeConfig(
        assumption="R0", delta=1.0, vartheta=0.5, K=0.1, lam=0.8,
        reference_beta=(0.0, 0.0, 0.0, 0.0), num_samples=20, sample_radius=50.0,
        seed=seed,
    )
    result = oracle.probe_regularity(config, zero_problem, th.ThresholdRule(kind="hard", lam=0.8))
    checks.append(
        (
            "regularity-R0-falsifier",
            result.violated,
            f"violation reported as a finding: min slack {result.min_slack:.2e} "
            "(expected negative; violations are findings, not failures)",
        )
    )
    return checks


def cmd_verify(args) -> int:
    suites = {
        "axioms": _suite_axioms,
        "penalty": _suite_penalty,
        "descent": _suite_descent,
        "theorem1": _suite_theorem1,
        "lemma5": _suite_lemma5,
        "lemma7": _suite_lemma7,
        "regularity": _suite_regularity,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check, ok, detail in suites[name](args.seed):
            print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tisp", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem from CSV inputs")
    p_solve.add_argument("--design", required=True, help="design matrix CSV (headerless)")
    p_solve.add_argument("--response", required=True, help="response vector CSV")
    p_solve.add_argument("--rule", required=True, help="thresholding rule, e.g. soft(lambda=0.5)")
    p_solve.add_argument("--rho", default="auto", help="scaling: 'auto' or a number >= ||X||_2")
    p_solve.add_argument("--alpha", type=float, default=1.0, help="stepsize in (0, 1]")
    p_solve.add_argument("--lambda-schedule", default=None,
                         help="constant:L | geometric:L0,FACTOR,FLOOR | explicit:V1,V2,...")
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("--trace", default=None, help="write per-iteration trace CSV here")
    p_solve.add_argument("--beta-star", default=None, help="ground truth CSV for error columns")
    p_solve.add_argument("--out", default=None, help="write the estimate here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset (X.csv, y.csv, beta_star.csv)")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override the first config seed")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    for kind in ("decay", "rate"):
        p_exp = sub.add_parser(kind, help=f"run the {kind} experiment from a config JSON")
        p_exp.add_argument("--config", required=True)
        p_exp.add_argument("--out", default=".", help="output directory")
        p_exp.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p_exp.set_defaults(func=lambda a, k=kind: cmd_experiment(a, k))

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    # RuleParseError, ConfigurationError and SpecError are ValueErrors
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
