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

def penalty_theta(spec, t, lam_override: float | None = None):
    """Induced penalty P_Theta plus the configured augmentation, componentwise.

    `spec` may be a `PenaltySpec` or a bare `ThresholdRule`.  A rule template
    without lambda needs `lam_override`.
    """
    spec = _as_spec(spec)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("penalty input must be finite")
    out = _penalty_z(spec, np.abs(t), rule_lambda(spec.rule, lam_override))
    return out if out.ndim else float(out)


def _penalty_z(spec: PenaltySpec, z: np.ndarray, lam: float | None) -> np.ndarray:
    # `penalty_theta` without its checks, at magnitudes z = |t| of any shape
    # and a resolved lam: the solver sums it over a stacked block of iterates
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
        low = t0 * z - 0.5 * z**2
        head = t0 * jump - 0.5 * jump**2
        zsafe = np.where(z > 0, z, 1.0)
        high = head + zeta * (zsafe**r - jump**r)
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

def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int = 50) -> float:
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

    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def quadrature_kinks(rule: ThresholdRule, lam_override: float | None = None) -> list[float]:
    """Interior u-locations where the penalty integrand changes branch."""
    if rule.kind == "lr":
        jump = _lr_jump(rule.zeta, rule.r)
        return [jump] if jump > 0 else []
    pieces = integrand_pieces(rule, lam_override)
    return [lo for (lo, _, _, _) in pieces if lo > 0.0]


def penalty_theta_quadrature(rule: ThresholdRule, t: float, tol: float = 1e-10,
                             lam_override: float | None = None) -> float:
    """P_Theta(t) by adaptive Simpson quadrature of Theta^{-1}(u) - u.

    The integration domain is split at integrand kinks so each panel is
    smooth.  Serves as the cross-check of `penalty_theta`'s exact integration.
    """
    z = abs(float(t))
    if z == 0.0:
        return 0.0
    cuts = [0.0] + [k for k in quadrature_kinks(rule, lam_override) if k < z] + [z]

    def integrand(u):
        return inverse(rule, u, lam_override) - u

    total = 0.0
    per_piece = tol / max(len(cuts) - 1, 1)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _adaptive_simpson(integrand, lo, hi, per_piece)
    return total


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def energy(spec, problem, beta, rho: float, lam_override: float | None = None) -> float:
    """Objective 0.5*||X beta - y||^2 + sum_j P(rho*|beta_j|).

    `problem` is a `solver.Problem`, whose memo takes the product X beta;
    beta is in the unscaled coordinate system.
    """
    spec = _as_spec(spec)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (problem.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({problem.p},)")
    return _objective(spec, problem.memo.times(beta) - problem.y, rho * beta, lam_override)


def _objective(spec: PenaltySpec, resid, t, lam: float | None = None) -> float:
    # 0.5*||resid||^2 + sum_j P(|t_j|): `energy` without its input checks, at
    # a residual the caller already holds.  `solve` records the same 0.5*r @ r
    # per block of rows at r = y - Xs beta, whose exact negation leaves it equal
    return float(0.5 * resid @ resid + penalty_theta(spec, t, lam).sum())
