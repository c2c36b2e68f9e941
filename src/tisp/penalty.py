"""Penalties induced by thresholding rules.

Each rule Theta induces P_Theta(t) = integral_0^{|t|} (Theta^{-1}(u) - u) du.
For the eight piecewise-linear kinds `penalty_theta` integrates the pieces of
`thresholding.integrand_pieces` exactly; lr's penalty is written out.  The
adaptive quadrature `penalty_theta_quadrature` integrates the same Theta^{-1}
numerically, as a check of the exact integration.

The objective actually minimized by the fixed-point iteration may add a
nonnegative term q that vanishes on the range of Theta; the `augmentation`
field of `PenaltySpec` selects the classical choices for the hard-type rules
(capped-l1 / l0 for hard, l0+l2 for hard-ridge).  `energy` evaluates that
objective on a `solver.Problem`, whose support memo takes the product with X.

Reference penalties: penalty_hard, penalty_l0, penalty_l1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thresholding import (
    ThresholdRule,
    _lr_jump,
    _lr_zero_boundary,
    integrand_pieces,
    inverse,
    rule_lambda,
)

AUGMENTATIONS = ("none", "capped-l1", "l0", "l0+l2")


@dataclass(frozen=True)
class PenaltySpec:
    """A thresholding rule together with an optional range-vanishing add-on."""

    rule: ThresholdRule
    augmentation: str = "none"

    def __post_init__(self):
        if self.augmentation not in AUGMENTATIONS:
            raise ValueError(f"unknown augmentation {self.augmentation!r}")
        if self.augmentation in ("capped-l1", "l0") and self.rule.kind != "hard":
            raise ValueError(f"augmentation {self.augmentation!r} is only valid for the hard rule")
        if self.augmentation == "l0+l2" and self.rule.kind != "hard-ridge":
            raise ValueError("augmentation 'l0+l2' is only valid for the hard-ridge rule")


def _as_spec(spec) -> PenaltySpec:
    return spec if isinstance(spec, PenaltySpec) else PenaltySpec(rule=spec)


# ---------------------------------------------------------------------------
# reference penalties
# ---------------------------------------------------------------------------

def penalty_hard(t, lam: float):
    """Penalty induced by hard thresholding at lam."""
    z = np.abs(np.asarray(t, dtype=float))
    out = np.where(z < lam, lam * z - 0.5 * z**2, 0.5 * lam**2)
    return out if out.ndim else float(out)


def penalty_l0(t, lam: float):
    """(lam^2/2) per nonzero component."""
    z = np.abs(np.asarray(t, dtype=float))
    out = np.where(z != 0.0, 0.5 * lam**2, 0.0)
    return out if out.ndim else float(out)


def penalty_l1(t, lam: float):
    """lam * |t|."""
    z = np.abs(np.asarray(t, dtype=float))
    out = lam * z
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# induced penalty
# ---------------------------------------------------------------------------

def penalty_theta(spec, t):
    """Induced penalty P_Theta plus the configured augmentation, componentwise.

    `spec` may be a `PenaltySpec` or a bare `ThresholdRule`, at its own
    lambda: a rule template without lambda raises.
    """
    spec = _as_spec(spec)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("penalty input must be finite")
    out = _penalty_z(spec, np.abs(t), rule_lambda(spec.rule))
    return out if out.ndim else float(out)


def _penalty_z(spec: PenaltySpec, z: np.ndarray, lam: float | np.ndarray | None) -> np.ndarray:
    # `penalty_theta` without its checks at magnitudes z = |t| of any shape and a resolved
    # lam, or a (k, 1) column of one per row: solve sums it over a stacked block of iterates
    rule, aug = spec.rule, spec.augmentation
    if aug == "capped-l1":
        return np.minimum(lam * z, 0.5 * lam**2)
    if aug == "l0":
        return np.where(z != 0.0, 0.5 * lam**2, 0.0)
    if aug == "l0+l2":  # on hard-ridge
        return np.where(z != 0.0, lam**2 / (2.0 * (1.0 + rule.eta)), 0.0) + 0.5 * rule.eta * z**2
    if rule.kind == "lr":
        zeta, r = rule.zeta, rule.r
        if zeta == 0.0:
            return np.zeros_like(z)
        t0 = _lr_zero_boundary(zeta, r)
        jump = _lr_jump(zeta, r)

        def quadratic(u):
            # t0 u - u^2/2, positive for u <= jump < t0; at a zeta near the
            # float range both terms overflow to inf - inf, and u (t0 - u/2)
            # gives the value or +inf.  (u * u: a float ** raises where * gives inf)
            q = t0 * u - 0.5 * (u * u)
            return np.where(np.isfinite(q), q, u * (t0 - 0.5 * u))

        zsafe = np.where(z > 0, z, 1.0)
        # overflows only at a zeta near the float range; np.where drops each
        # branch on the other side of the jump
        with np.errstate(over="ignore", invalid="ignore"):
            low = quadratic(z)
            high = quadratic(jump) + zeta * (zsafe**r - jump**r)
        return np.where(z <= jump, low, high)
    # exact integral of the integrand pieces: the piece s(u) = m*u + q on
    # [lo, hi] meets [0, z] in [lo, lo + c], c = clip(z, lo, hi) - lo, where
    # s integrates to c*(q + m*lo + m*c/2)
    out = 0.0
    for lo, hi, m, q in integrand_pieces(rule, lam):
        c = np.clip(z, lo, hi) - lo
        out += c * (q + m * lo + m * c / 2.0)
    return out


# ---------------------------------------------------------------------------
# quadrature route (numerical, at Theta^{-1} from `inverse`)
# ---------------------------------------------------------------------------

def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    # panels halve until Richardson's error estimate meets tol, at most 50 deep
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, 50)


def quadrature_kinks(rule: ThresholdRule) -> list[float]:
    """Interior u-locations where the penalty integrand changes branch."""
    if rule.kind == "lr":
        jump = _lr_jump(rule.zeta, rule.r)
        return [jump] if jump > 0 else []
    pieces = integrand_pieces(rule)
    return [lo for (lo, _, _, _) in pieces if lo > 0.0]


def penalty_theta_quadrature(rule: ThresholdRule, t: float) -> float:
    """P_Theta(t) by adaptive Simpson quadrature of Theta^{-1}(u) - u, to within 1e-10.

    The integration domain is split at integrand kinks so each panel is
    smooth.  Serves as the cross-check of `penalty_theta`'s exact integration.
    """
    z = abs(float(t))
    kinks = quadrature_kinks(rule)  # a template raises here, at every t
    if z == 0.0:
        return 0.0
    cuts = [0.0] + [k for k in kinks if k < z] + [z]

    def integrand(u):
        return inverse(rule, u) - u

    total = 0.0
    per_piece = 1e-10 / max(len(cuts) - 1, 1)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _adaptive_simpson(integrand, lo, hi, per_piece)
    return total


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def energy(spec, problem, beta, rho: float) -> float:
    """Objective 0.5*||X beta - y||^2 + sum_j P(rho*|beta_j|).

    `problem` is a `solver.Problem`, whose memo takes the product X beta;
    beta is in the unscaled coordinate system.
    """
    spec = _as_spec(spec)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({problem.p},)")
    return _objective(spec, problem.memo.times(beta) - problem.y, rho * beta)


def _objective(spec: PenaltySpec, resid, t) -> float:
    # 0.5*||resid||^2 + sum_j P(|t_j|): `energy` without its input checks, at
    # a residual the caller already holds.  `solve` records the same 0.5*r @ r
    # per block of rows at r = y - Xs beta, whose exact negation leaves it equal
    return float(0.5 * resid @ resid + penalty_theta(spec, t).sum())
