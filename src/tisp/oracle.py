"""Ground-truth machinery at desk scale.

Brute-force global minimizers of the L0-penalized objective, exact cyclic
coordinate descent for the induced penalties, fixed-point certification of
candidate solutions, sampled probes of the comparison regularity
inequalities, and the minimax reference rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import penalty as pen
from . import thresholding as th
from .solver import Problem


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
    squares on each via pseudoinverse with cutoff 1e-10.  The returned
    ``beta`` lives in the scaled coordinates b = rho * beta_original.

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
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive")
    Xs, y = problem.X / rho, problem.y
    half_lam2 = 0.5 * lam * lam

    def objective(b):
        r = y - Xs @ b
        return float(0.5 * r @ r + half_lam2 * np.count_nonzero(b))

    best_beta = np.zeros(p)
    best_obj = objective(best_beta)
    best_support = ()
    for size in range(1, p + 1):
        for support in combinations(range(p), size):
            cols = Xs[:, support]
            coef = np.linalg.pinv(cols, rcond=1e-10) @ y
            b = np.zeros(p)
            b[list(support)] = coef
            obj = objective(b)
            if obj < best_obj or (obj == best_obj and support < best_support):
                best_obj, best_beta, best_support = obj, b, support

    nz = best_beta[best_beta != 0]
    min_mag = float(np.min(np.abs(nz))) if nz.size else math.inf
    gap_ok = min_mag >= lam - 1e-10
    if not gap_ok:
        # degenerate support: re-evaluate through one hard-thresholding step
        hard = th.ThresholdRule(kind="hard", lam=lam)
        v = best_beta + Xs.T @ (y - Xs @ best_beta)
        candidate = th.apply_vec(hard, v)
        cand_obj = objective(candidate)
        if cand_obj <= best_obj + 1e-12 * (1.0 + abs(best_obj)):
            best_beta, best_obj = candidate, cand_obj
            nz = best_beta[best_beta != 0]
            min_mag = float(np.min(np.abs(nz))) if nz.size else math.inf
            gap_ok = min_mag >= lam - 1e-10

    support = tuple(int(j) for j in np.flatnonzero(best_beta))
    return L0Result(
        beta=best_beta,
        objective=best_obj,
        support=support,
        gap_ok=gap_ok,
        min_magnitude=min_mag,
        beta_original=best_beta / rho,
    )


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

    Works in the scaled coordinates b = rho * beta with design X/rho; each
    coordinate update is an exact scalar minimization, so the output is a
    coordinate-wise minimum up to the sweep tolerance.  Non-convergence
    within max_sweeps returns the last iterate with converged=False.
    """
    spec = pen._as_spec(spec)
    if spec.augmentation != "none":
        raise ValueError("coordinate descent supports the induced penalty only")
    rule = spec.rule
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive")
    Xs, y = problem.X / rho, problem.y
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

    The continuity flag is raised when any component of the thresholding
    argument sits within 1e-9 of a jump discontinuity of the rule; residuals
    at flagged points are unreliable certificates.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive")
    Xs, y = problem.X / rho, problem.y
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
        if not (self.delta > 0 and self.vartheta > 0 and self.K >= 0):
            raise ValueError("need delta > 0, vartheta > 0, K >= 0")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be >= 0")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not (math.isfinite(self.sample_radius) and self.sample_radius > 0):
            raise ValueError("sample_radius must be > 0")
        object.__setattr__(self, "reference_beta", tuple(float(v) for v in self.reference_beta))


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
    J(b) the support size of b.
    """
    if assumption not in ASSUMPTIONS:
        raise ValueError(f"unknown assumption {assumption!r}")
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    beta_prime = np.asarray(beta_prime, dtype=float)
    spec = pen.PenaltySpec(rule=rule)
    d = beta_prime - beta
    ph_d = float(np.sum(pen.penalty_hard(d, lam)))
    l2 = float(d @ d)
    xd = X @ d
    xd2 = float(xd @ xd)
    pt_b = float(np.sum(pen.penalty_theta(spec, beta, lam_override=_lam_arg(rule, lam))))
    pt_bp = float(np.sum(pen.penalty_theta(spec, beta_prime, lam_override=_lam_arg(rule, lam))))
    j_b = int(np.count_nonzero(beta))
    L = rule.contraction

    if assumption == "R0":
        lhs = vartheta * ph_d + 0.5 * L * l2
        rhs = 0.5 * (2.0 - delta) * xd2 + pt_bp + K * pt_b
    elif assumption == "R1":
        lhs = vartheta * ph_d + 0.5 * L * l2 + pt_b
        rhs = 0.5 * (2.0 - delta) * xd2 + pt_bp + K * lam * lam * j_b
    elif assumption == "S0":
        lhs = vartheta * ph_d + 0.5 * (L + delta) * l2
        rhs = xd2 + pt_bp + K * pt_b
    else:
        lhs = vartheta * ph_d + 0.5 * (L + delta) * l2 + pt_b
        rhs = xd2 + pt_bp + (K + 1.0) * lam * lam * j_b
    return rhs - lhs


def _lam_arg(rule: th.ThresholdRule, lam: float):
    # ridge and lr penalties take no threshold; others evaluate at the probe lam
    return lam if rule.kind in th.LAMBDA_KINDS else None


def probe_regularity(config: RegularityProbeConfig, problem: Problem,
                     rule: th.ThresholdRule) -> ProbeResult:
    """Minimum sampled slack of a comparison inequality on a problem's design.

    Negative minimum slack certifies a violation (the returned ``argmin`` is
    the violating second vector); nonnegative slack over the samples is
    evidence only, since the inequalities quantify over all of R^p.
    """
    X = problem.X
    p = problem.p
    beta = np.array(config.reference_beta, dtype=float)
    if beta.shape != (p,):
        raise ValueError(f"reference_beta has length {beta.size}, expected {p}")
    r = config.sample_radius
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 4]))

    probes = [beta.copy()]
    for j in range(p):
        e = np.zeros(p)
        e[j] = r
        probes.append(beta + e)
        probes.append(beta - e)
    sparse_size = max(1, p // 10)
    for _ in range(config.num_samples):
        g = rng.standard_normal(p)
        probes.append(beta + r * g / np.linalg.norm(g))
        idx = rng.choice(p, size=sparse_size, replace=False)
        s = np.zeros(p)
        s[idx] = rng.standard_normal(sparse_size)
        probes.append(beta + r * s / np.linalg.norm(s))

    min_slack, argmin = math.inf, probes[0]
    for bp in probes:
        slack = regularity_slack(
            config.assumption, X, beta, bp, rule,
            config.lam, config.delta, config.vartheta, config.K,
        )
        if slack < min_slack:
            min_slack, argmin = slack, bp
    return ProbeResult(
        min_slack=float(min_slack),
        argmin=np.asarray(argmin),
        violated=min_slack < 0.0,
        num_evaluated=len(probes),
    )


def minimax_reference(j: int, p: int, sigma: float) -> float:
    """Benchmark prediction risk sigma^2 * (J + J*log(e*p/J)) for J-sparse signals."""
    if not (1 <= j <= p):
        raise ValueError(f"need 1 <= j <= p, got j={j}, p={p}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return sigma * sigma * (j + j * math.log(math.e * p / j))
