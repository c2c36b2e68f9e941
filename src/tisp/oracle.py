"""Ground-truth machinery at desk scale.

Brute-force global minimizers of the L0-penalized objective, exact cyclic
coordinate descent for the induced penalties, fixed-point certification of
candidate solutions, sampled probes of the comparison regularity
inequalities, and the minimax reference rate.  `SUITES` holds the property
suites that ``tisp verify`` prints: rule axioms, penalties, descent,
Theorem 1, Lemmas 5 and 7, and regularity.  The oracles read X/rho from the
solver's view `_scaled` at any rho > 0, step with `tisp_step` and share one
L0 objective, `_l0_objectives`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from . import penalty as pen
from . import thresholding as th
from .solver import (
    Problem,
    SolverConfig,
    _scaled,
    gaussian_starts,
    solve,
    tisp_step,
    triangle_inequality_check,
)


# floats of column submatrices `l0_global_min` stacks into one solve (64 KB, a
# block's transient memory about 6x that); the supports of one size are split
_STACK_FLOATS = 1 << 13
# floats of probes and their products with X, rows x (n + p), `_slacks`
# evaluates at once (512 KB, a block's transient memory a few times that)
_PROBE_FLOATS = 1 << 16


class L0Result(NamedTuple):
    beta: np.ndarray
    objective: float
    support: tuple
    gap_ok: bool
    min_magnitude: float
    beta_original: np.ndarray


def l0_global_min(problem: Problem, lam: float, rho: float) -> L0Result:
    """Exact global minimizer of 0.5*||y - (X/rho) b||^2 + (lam^2/2)*||b||_0.

    Enumerates all supports (hence the p <= 14 refusal) and solves least
    squares on each via pseudoinverse with cutoff 1e-10: one stacked
    pseudoinverse per support size, in blocks of at most `_STACK_FLOATS`
    submatrix entries.  Ties go to the lexicographically least support.  The
    returned ``beta`` lives in the scaled coordinates b = rho * beta_original,
    at any rho > 0 (another raises `ConfigurationError`).

    Every nonzero of a true global minimizer has magnitude >= lam.  Rank
    deficiency can produce least-squares candidates that break this gap; in
    that case one hard-thresholding step re-evaluates the candidate (the
    step output lands in the rule's range, restoring the gap) and is kept
    when it does not increase the objective.
    """
    p = problem.p
    if p > 14:
        raise ValueError(f"p={p} is too large for exhaustive support enumeration (max 14)")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be >= 0")
    scaled = _scaled(problem, rho)
    Xs, y = scaled.X, scaled.y

    # the least (objective, support) over all supports, empty one first; the
    # supports of one size are solved as stacks of column submatrices, whose
    # every matrix numpy solves as it would that matrix alone
    best_beta, best_support = np.zeros(p), ()
    best_obj = float(_l0_objectives(Xs, y, lam, best_beta[None])[0])
    for size in range(1, p + 1):
        supports = combinations(range(p), size)
        per_block = max(1, _STACK_FLOATS // max(problem.n * size, 1))
        while block := list(islice(supports, per_block)):
            S = np.array(block)
            coef = np.linalg.pinv(Xs.T[S].transpose(0, 2, 1), rcond=1e-10) @ y
            B = np.zeros((len(block), p))
            B[np.arange(len(block))[:, None], S] = coef
            objs = _l0_objectives(Xs, y, lam, B)
            low = objs.min(initial=np.inf, where=objs == objs)  # NaN never wins
            i = int(np.argmax(objs == low))  # first in the block: the least support
            obj, support = float(objs[i]), block[i]
            if obj < best_obj or (obj == best_obj and support < best_support):
                best_obj, best_beta, best_support = obj, B[i].copy(), support

    min_mag = _min_magnitude(best_beta)
    if min_mag < lam - 1e-10:
        # degenerate support: re-evaluate through one hard-thresholding step
        candidate = tisp_step(best_beta, scaled, th.ThresholdRule(kind="hard", lam=lam))
        cand_obj = float(_l0_objectives(Xs, y, lam, candidate[None])[0])
        if cand_obj <= best_obj + 1e-12 * (1.0 + abs(best_obj)):
            best_beta, best_obj = candidate, cand_obj
            min_mag = _min_magnitude(best_beta)

    support = tuple(int(j) for j in np.flatnonzero(best_beta))
    return L0Result(
        beta=best_beta,
        objective=best_obj,
        support=support,
        gap_ok=min_mag >= lam - 1e-10,
        min_magnitude=min_mag,
        beta_original=best_beta / rho,
    )


def _l0_objectives(Xs, y, lam, B) -> np.ndarray:
    """0.5*||y - Xs b||^2 + (lam^2/2)*||b||_0 for each row b of B; each row
    equals its own 1-D products bit for bit."""
    R = y - np.matmul(Xs, B[:, :, None])[:, :, 0]
    return (np.matmul((0.5 * R)[:, None, :], R[:, :, None])[:, 0, 0]
            + 0.5 * lam * lam * np.count_nonzero(B, axis=1))


def _min_magnitude(b) -> float:
    return float(np.min(np.abs(b), initial=math.inf, where=b != 0))


# ---------------------------------------------------------------------------
# exact scalar proximal minimization, per rule
# ---------------------------------------------------------------------------

def _scalar_prox(rule: th.ThresholdRule, c: float, w: float) -> float:
    """argmin_b 0.5*c*(b - w)^2 + P(b) for the rule's induced penalty.

    Handles arbitrary curvature c > 0 (coordinate descent with unnormalized
    columns).  Ties go to the candidate of smallest magnitude.
    """
    if c <= 0:
        # no data term; the penalty is minimized at zero
        return 0.0
    if w < 0:
        return -_scalar_prox(rule, c, -w)
    candidates = [0.0, w]
    if rule.kind == "lr":
        # two-piece penalty: quadratic cap up to the jump, zeta*b^r beyond
        jump = th._lr_jump(rule.zeta, rule.r)
        t0 = th._lr_zero_boundary(rule.zeta, rule.r)
        if jump < w:
            candidates.append(jump)
        if c != 1.0:
            b1 = (c * w - t0) / (c - 1.0)
            candidates.append(min(max(b1, 0.0), min(jump, w)))
        if w > jump:
            root = float(th._lr_root(np.array([w]), rule.zeta / c, rule.r)[0])
            candidates.append(min(max(root, jump), w))
    else:
        # penalty derivative s(b) is piecewise linear: stationary points of
        # phi solve (c + m) b = c w - q on each piece
        for lo, hi, m, q in th.integrand_pieces(rule):
            if c + m != 0.0:
                b = (c * w - q) / (c + m)
                candidates.append(min(max(b, lo), min(hi, w)))
            candidates.append(lo)
            if math.isfinite(hi):
                candidates.append(hi)

    # one penalty evaluation for all candidates; argmin keeps the first, the
    # smallest, of tied minima
    candidates = np.array(sorted({min(max(b, 0.0), w) for b in candidates}))
    phi = 0.5 * c * (candidates - w) ** 2 + pen.penalty_theta(rule, candidates)
    return float(candidates[np.argmin(phi)])


class CDResult(NamedTuple):
    beta: np.ndarray
    objective: float
    sweeps: int
    converged: bool


def coordinate_descent_local_min(problem: Problem, spec, rho: float = 1.0,
                                 start=None, max_sweeps: int = 1000,
                                 tol: float = 1e-10) -> CDResult:
    """Cyclic coordinate minimization of the thresholding-penalized objective.

    Works in the scaled coordinates b = rho * beta with design X/rho, any
    rho > 0 (another raises `ConfigurationError`); each coordinate update is
    an exact scalar minimization, so the output is a coordinate-wise minimum
    up to the sweep tolerance (past max_sweeps: the last one, converged=False).
    """
    spec = pen._as_spec(spec)
    if spec.augmentation != "none":
        raise ValueError("coordinate descent supports the induced penalty only")
    rule = spec.rule
    Xs, y = _scaled(problem, rho).X, problem.y
    p = problem.p
    b = np.zeros(p) if start is None else np.asarray(start, dtype=float).copy()
    if b.shape != (p,):
        raise ValueError(f"start has shape {b.shape}, expected ({p},)")
    col_sq = np.einsum("ij,ij->j", Xs, Xs)
    resid = y - Xs @ b

    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        max_change = 0.0
        for j in range(p):
            c = col_sq[j]
            if c == 0.0:
                new = 0.0
            else:
                w = b[j] + float(Xs[:, j] @ resid) / c
                new = _scalar_prox(rule, c, w)
            delta = new - b[j]
            if delta != 0.0:
                resid -= Xs[:, j] * delta
                b[j] = new
                max_change = max(max_change, abs(delta))
        if max_change <= tol:
            converged = True
            break

    obj = pen._objective(spec, resid, b)
    return CDResult(beta=b, objective=obj, sweeps=sweeps, converged=converged)


class ThetaReport(NamedTuple):
    residual: float
    continuity_flag: bool
    passed: bool


def check_theta_equation(beta, problem: Problem, rule: th.ThresholdRule,
                         rho: float = 1.0, tol: float = 1e-8) -> ThetaReport:
    """Sup-norm residual of b = Theta(b + Xs'(y - Xs b)) at b = rho * beta.

    Xs = X/rho, any rho > 0 (another raises `ConfigurationError`).  The
    continuity flag is raised when any component of the thresholding
    argument sits within 1e-9 of a jump discontinuity of the rule; residuals
    at flagged points are unreliable certificates.
    """
    Xs, y = _scaled(problem, rho).X, problem.y
    b = rho * np.asarray(beta, dtype=float)
    if b.shape != (problem.p,):
        raise ValueError(f"beta has shape {b.shape}, expected ({problem.p},)")
    v = b + Xs.T @ (y - Xs @ b)
    residual = float(np.max(np.abs(b - th.apply_vec(rule, v)))) if problem.p else 0.0
    flag = th.near_jump(np.abs(v), th.discontinuities(rule), 1e-9)
    return ThetaReport(residual=residual, continuity_flag=flag, passed=residual <= tol)


# ---------------------------------------------------------------------------
# sampled probes of the comparison regularity inequalities
# ---------------------------------------------------------------------------

ASSUMPTIONS = ("R0", "R1", "S0", "S1")


@dataclass(frozen=True)
class RegularityProbeConfig:
    """Which comparison inequality to probe and how to sample perturbations.

    ``reference_beta`` is the fixed vector the inequality is anchored at;
    probes draw the second vector from coordinate directions, dense Gaussian
    directions, and sparse Gaussian directions at radius ``sample_radius``,
    plus the zero-difference point.
    """

    assumption: str
    delta: float
    vartheta: float
    K: float
    lam: float
    reference_beta: tuple
    num_samples: int = 100
    sample_radius: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.assumption not in ASSUMPTIONS:
            raise ValueError(f"unknown assumption {self.assumption!r}; choose from {ASSUMPTIONS}")
        if not (0 < self.delta < math.inf and 0 < self.vartheta < math.inf and 0 <= self.K < math.inf):
            raise ValueError("need finite delta > 0, vartheta > 0, K >= 0")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be >= 0")
        if not (isinstance(self.num_samples, numbers.Integral) and self.num_samples >= 1):
            raise ValueError("num_samples must be an integer >= 1")
        if not (math.isfinite(self.sample_radius) and self.sample_radius > 0):
            raise ValueError("sample_radius must be > 0")
        object.__setattr__(self, "reference_beta", tuple(float(v) for v in self.reference_beta))
        if not all(map(math.isfinite, self.reference_beta)):
            raise ValueError("reference_beta must be finite")


class ProbeResult(NamedTuple):
    min_slack: float
    argmin: np.ndarray
    violated: bool
    num_evaluated: int


def regularity_slack(assumption: str, X, beta, beta_prime, rule: th.ThresholdRule,
                     lam: float, delta: float, vartheta: float, K: float) -> float:
    """RHS minus LHS of the chosen comparison inequality at (beta, beta_prime).

    All four inequalities compare a thresholded-difference term plus a
    curvature term against the design quadratic form plus penalty terms:

        R0:  vt*PH(d) + L/2 ||d||^2                 <= (2-d)/2 ||Xd||^2 + PT(b') + K*PT(b)
        R1:  vt*PH(d) + L/2 ||d||^2     + PT(b)     <= (2-d)/2 ||Xd||^2 + PT(b') + K*lam^2*J(b)
        S0:  vt*PH(d) + (L+d)/2 ||d||^2             <=        ||Xd||^2 + PT(b') + K*PT(b)
        S1:  vt*PH(d) + (L+d)/2 ||d||^2 + PT(b)     <=        ||Xd||^2 + PT(b') + (K+1)*lam^2*J(b)

    with d = b' - b, PH the hard-threshold penalty summed over components,
    PT the rule's induced penalty, L the rule's contraction constant, and
    J(b) the support size of b.  X is n x p and both vectors have shape (p,).
    """
    if assumption not in ASSUMPTIONS:
        raise ValueError(f"unknown assumption {assumption!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X has shape {X.shape}, expected a matrix")
    beta = np.asarray(beta, dtype=float)
    beta_prime = np.asarray(beta_prime, dtype=float)
    for name, v in (("beta", beta), ("beta_prime", beta_prime)):
        if v.shape != (X.shape[1],):
            raise ValueError(f"{name} has shape {v.shape}, expected ({X.shape[1]},)")
    return float(_slacks(assumption, X, beta, beta_prime[None], rule, lam, delta, vartheta, K)[0])


# slack = c_xd*||Xd||^2 + PT(b') - vt*PH(d) - c_l2*||d||^2 + tail: per
# assumption, (c_xd, c_l2, tail) from (delta, L, K, PT(b), lam^2*J(b))
_SLACK_TERMS = {
    "R0": lambda dl, L, K, pt, j: ((2.0 - dl) / 2.0, L / 2.0, K * pt),
    "R1": lambda dl, L, K, pt, j: ((2.0 - dl) / 2.0, L / 2.0, K * j - pt),
    "S0": lambda dl, L, K, pt, j: (1.0, (L + dl) / 2.0, K * pt),
    "S1": lambda dl, L, K, pt, j: (1.0, (L + dl) / 2.0, (K + 1.0) * j - pt),
}


def _slacks(assumption, X, beta, P, rule, lam, delta, vartheta, K) -> np.ndarray:
    """`regularity_slack` at (beta, b') for every row b' of P: per block of
    `_PROBE_FLOATS // (n + p)` rows, one product with X and the penalties as
    row sums; PT(beta) and J(beta) once.  A row's slack does not depend on
    the block but for the rounding of its product with X."""
    if not np.all(np.isfinite(beta)):
        raise ValueError("penalty input must be finite")
    spec = pen.PenaltySpec(rule=rule)
    lam_pt = lam if rule.kind in th.LAMBDA_KINDS else None  # ridge and lr take no threshold
    pt_b = float(pen._penalty_z(spec, np.abs(beta), lam_pt).sum())
    c_xd, c_l2, tail = _SLACK_TERMS[assumption](
        delta, rule.contraction, K, pt_b, lam * lam * np.count_nonzero(beta))
    out = np.empty(len(P))
    per_block = max(1, _PROBE_FLOATS // max(sum(X.shape), 1))
    for lo in range(0, len(P), per_block):
        B = P[lo:lo + per_block]
        if not np.all(np.isfinite(B)):
            raise ValueError("penalty input must be finite")
        D = B - beta
        XD = D @ X.T
        out[lo:lo + per_block] = (
            c_xd * np.einsum("ij,ij->i", XD, XD) + pen._penalty_z(spec, np.abs(B), lam_pt).sum(axis=1)
            - vartheta * pen.penalty_hard(D, lam).sum(axis=1) - c_l2 * np.einsum("ij,ij->i", D, D)
            + tail)
    return out


def probe_regularity(config: RegularityProbeConfig, problem: Problem,
                     rule: th.ThresholdRule) -> ProbeResult:
    """Minimum sampled slack of a comparison inequality on a problem's design.

    Negative minimum slack certifies a violation (the returned ``argmin`` is
    the violating second vector, the first of tied minima); nonnegative
    slack over the samples is evidence only, since the inequalities
    quantify over all of R^p.  The probes are built as one array and their
    slacks evaluated by `_slacks`, a block of rows at a time.
    """
    p = problem.p
    beta = np.array(config.reference_beta, dtype=float)
    if beta.shape != (p,):
        raise ValueError(f"reference_beta has length {beta.size}, expected {p}")
    r = config.sample_radius
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 4]))

    # beta, then beta +- r e_j per coordinate, then per sample a dense and a
    # sparse Gaussian direction at radius r, in the draw order of the rng,
    # written in place; off j, beta + r e_j is beta + 0.0 (a -0.0 of beta
    # turns +0.0) and beta - r e_j is beta
    sparse_size = max(1, p // 10)
    P = np.empty((1 + 2 * p + 2 * config.num_samples, p))
    P[0] = beta
    P[1:2 * p + 1:2] = beta + 0.0
    P[2:2 * p + 2:2] = beta
    coords = np.arange(p)
    P[1 + 2 * coords, coords] += r
    P[2 + 2 * coords, coords] -= r
    for k in range(2 * p + 1, len(P), 2):
        g = rng.standard_normal(p)
        idx = rng.choice(p, size=sparse_size, replace=False)
        s = np.zeros(p)
        s[idx] = rng.standard_normal(sparse_size)
        P[k] = beta + r * g / np.linalg.norm(g)
        P[k + 1] = beta + r * s / np.linalg.norm(s)

    slacks = _slacks(config.assumption, problem.X, beta, P, rule,
                     config.lam, config.delta, config.vartheta, config.K)
    low = float(slacks.min(initial=math.inf, where=slacks == slacks))  # NaN never wins
    i = int(np.argmax(slacks == low)) if low < math.inf else 0  # the first least
    return ProbeResult(min_slack=low, argmin=P[i].copy(), violated=low < 0.0, num_evaluated=len(P))


def minimax_reference(j: int, p: int, sigma: float) -> float:
    """Benchmark prediction risk sigma^2 * (J + J*log(e*p/J)) for J-sparse signals."""
    if not (1 <= j <= p):
        raise ValueError(f"need 1 <= j <= p, got j={j}, p={p}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return sigma * sigma * (j + j * math.log(math.e * p / j))


# ---------------------------------------------------------------------------
# property suites of `tisp verify`
# ---------------------------------------------------------------------------

def _random_instance(rng, n, p, y_scale=1.0):
    X = rng.standard_normal((n, p)) / math.sqrt(n)
    return Problem._own(X, y_scale * rng.standard_normal(n))


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
        gap = pen.penalty_theta(spec, grid) - pen.penalty_hard(grid, lam)
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
            # strong response so iterates clear every rule's threshold
            problem = _random_instance(rng, 12, 30, y_scale=4.0)
            res = solve(problem, SolverConfig(rule=rule, max_iter=80, tol=1e-13))
            objs = res.trace.objective
            for a, b in zip(objs, objs[1:]):
                worst_auto = max(worst_auto, (b - a) / (1.0 + abs(a)))

            # edge of the exact descent region: ||X/rho||^2 = 2 - L, margin 0.1%
            rho_edge = problem.norm * 1.001 / math.sqrt(2.0 - rule.contraction)
            scaled = _scaled(problem, rho_edge)
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
            problem = _random_instance(rng, 15, 8)
            rho = 1.05 * problem.norm
            cd = coordinate_descent_local_min(problem, rule, rho=rho)
            report = check_theta_equation(cd.beta / rho, problem, rule, rho=rho, tol=1e-6)
            if report.continuity_flag:
                flagged += 1
                continue
            worst = max(worst, report.residual)
        checks.append(
            (f"theorem1-cd[{rule.kind}]", worst <= 1e-6, f"max residual {worst:.2e}, {flagged} flagged skipped")
        )

    worst_solve = 0.0
    for _ in range(10):
        problem = _random_instance(rng, 15, 8)
        res = solve(problem, SolverConfig(rule=rules[0], tol=1e-10))
        report = check_theta_equation(res.beta, problem, rules[0], rho=res.rho, tol=1e-9)
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
        problem = _random_instance(rng, 8, p)
        rho = 1.05 * problem.norm
        best = l0_global_min(problem, lam, rho)
        gap_ok = gap_ok and best.gap_ok
        if best.support:
            worst_gap = min(worst_gap, best.min_magnitude - lam)

        config = SolverConfig(rule=th.ThresholdRule(kind="hard", lam=lam), rho=rho,
                              tol=1e-12, max_iter=2000)
        starts = [np.zeros(p)] + gaussian_starts(problem, 20, seed=seed + i)
        B = np.array([rho * solve(problem, config, start=s).beta for s in starts])
        f0 = _l0_objectives(_scaled(problem, rho).X, problem.y, lam, B)
        worst_dom = min(worst_dom, float(np.min(f0 - best.objective)))
        dominated = dominated and bool(np.all(f0 >= best.objective - 1e-9))
    return [
        ("lemma5-gap", gap_ok, f"min over instances of (|beta_j| - lambda) = {worst_gap:.2e}"),
        ("lemma5-global-bound", dominated, f"min (f0(fixed point) - f0(oracle)) = {worst_dom:.2e}"),
    ]


def _suite_lemma7(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    checks = []
    for rule in th.rule_catalog(lam=0.8, eta=0.4, gamma=3.0):
        spec = pen.PenaltySpec(rule=rule)
        worst = math.inf
        for _ in range(5):
            problem = _random_instance(rng, 10, 20)
            scaled = _scaled(problem, 1.02 * problem.norm)
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
    X = _random_instance(rng, 10, 6).X
    beta_ref = np.zeros(6)
    beta_ref[:2] = (1.5, -2.0)
    problem = Problem(X, np.zeros(10))
    convex = [
        th.ThresholdRule(kind="soft", lam=0.8),
        th.ThresholdRule(kind="ridge", eta=0.5),
        th.ThresholdRule(kind="elastic-net", lam=0.8, eta=0.5),
        th.ThresholdRule(kind="berhu", lam=0.8, eta=0.5),
    ]
    worst = math.inf
    for rule in convex:
        lam = 0.0 if rule.kind == "ridge" else 0.8
        config = RegularityProbeConfig(
            assumption="R0", delta=1.0, vartheta=0.5, K=0.5, lam=lam,
            reference_beta=tuple(beta_ref), num_samples=50, sample_radius=3.0,
            seed=seed,
        )
        result = probe_regularity(config, problem, rule)
        worst = min(worst, result.min_slack)
    checks.append(
        ("regularity-R0-convex", worst >= -1e-10, f"min slack over soft/ridge/en/berhu {worst:.2e}")
    )

    zero_problem = Problem(np.zeros((5, 4)), np.zeros(5))
    config = RegularityProbeConfig(
        assumption="R0", delta=1.0, vartheta=0.5, K=0.1, lam=0.8,
        reference_beta=(0.0, 0.0, 0.0, 0.0), num_samples=20, sample_radius=50.0,
        seed=seed,
    )
    result = probe_regularity(config, zero_problem, th.ThresholdRule(kind="hard", lam=0.8))
    checks.append(
        (
            "regularity-R0-falsifier",
            result.violated,
            f"violation reported as a finding: min slack {result.min_slack:.2e} "
            "(expected negative; violations are findings, not failures)",
        )
    )
    return checks


# name -> suite: seed -> [(check, passed, detail)], in `tisp verify`'s order
SUITES = {
    "axioms": _suite_axioms,
    "penalty": _suite_penalty,
    "descent": _suite_descent,
    "theorem1": _suite_theorem1,
    "lemma5": _suite_lemma5,
    "lemma7": _suite_lemma7,
    "regularity": _suite_regularity,
}
