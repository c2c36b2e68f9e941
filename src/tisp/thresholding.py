"""Scalar thresholding rules, their generalized inverses, and contraction constants.

A thresholding rule maps a scalar t to a shrunken/selected value Theta(t; lambda).
Every rule here is odd, nondecreasing, unbounded, and satisfies
0 <= Theta(t) <= t for t >= 0.  The generalized inverse
Theta^{-1}(u) = sup{t : Theta(t) <= u} recovers the rule's threshold at u = 0
and drives both the induced penalty and the contraction constant
L = 1 - essinf d Theta^{-1}/du.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

KINDS = (
    "soft",
    "hard",
    "ridge",
    "elastic-net",
    "berhu",
    "hard-ridge",
    "scad",
    "mcp",
    "lr",
)

# parameters each kind accepts (lambda handled separately)
_PARAMS = {
    "soft": (),
    "hard": (),
    "ridge": ("eta",),
    "elastic-net": ("eta",),
    "berhu": ("eta",),
    "hard-ridge": ("eta",),
    "scad": ("a",),
    "mcp": ("gamma",),
    "lr": ("r", "zeta"),
}

# kinds whose threshold parameter is lambda itself
LAMBDA_KINDS = ("soft", "hard", "elastic-net", "berhu", "hard-ridge", "scad", "mcp")


class RuleParseError(ValueError):
    """Raised when a rule spec string cannot be parsed."""


@dataclass(frozen=True)
class ThresholdRule:
    """One scalar thresholding rule with its parameters.

    Parameters
    ----------
    kind : str
        One of `KINDS`.
    lam : float
        Threshold parameter lambda >= 0.  Unused by `ridge` and `lr`,
        whose thresholds are 0 and a function of (zeta, r); use
        `effective_threshold()` for the actual zero-region boundary.
    eta : float
        Quadratic shrinkage weight (ridge family), eta >= 0.
    a : float
        scad knee, a > 2.
    gamma : float
        mcp knee, gamma > 1.
    r, zeta : float
        lr exponent 0 < r < 1 and weight zeta >= 0.
    """

    kind: str
    lam: float | None = None
    eta: float | None = None
    a: float | None = None
    gamma: float | None = None
    r: float | None = None
    zeta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {KINDS}")
        allowed = _PARAMS[self.kind]
        for name in ("eta", "a", "gamma", "r", "zeta"):
            val = getattr(self, name)
            if val is not None and name not in allowed:
                raise ValueError(f"parameter {name!r} not valid for rule {self.kind!r}")
            if val is None and name in allowed:
                raise ValueError(f"rule {self.kind!r} requires parameter {name!r}")
        if self.kind not in LAMBDA_KINDS:
            if self.lam is not None:
                raise ValueError(f"rule {self.kind!r} does not take lambda")
        elif self.lam is not None:
            if not math.isfinite(self.lam) or self.lam < 0:
                raise ValueError("lambda must be finite and >= 0")
        if self.eta is not None and (not math.isfinite(self.eta) or self.eta < 0):
            raise ValueError("eta must be finite and >= 0")
        if self.a is not None and (not math.isfinite(self.a) or self.a <= 2):
            raise ValueError("scad requires a > 2")
        if self.gamma is not None and (not math.isfinite(self.gamma) or self.gamma <= 1):
            raise ValueError("mcp requires gamma > 1")
        if self.r is not None and not (0 < self.r < 1):
            raise ValueError("lr requires 0 < r < 1")
        if self.zeta is not None and (not math.isfinite(self.zeta) or self.zeta < 0):
            raise ValueError("lr requires zeta >= 0")

    @property
    def contraction(self) -> float:
        """Contraction constant L = 1 - essinf d Theta^{-1}/du, minus the least
        slope of the integrand pieces.  The slopes do not depend on lambda, so
        the pieces are taken at lambda = 1: a template without lambda has L too.
        """
        if self.kind == "lr":
            return 1.0
        lam = 1.0 if self.kind in LAMBDA_KINDS else None
        # 0.0 - m keeps a flat least slope at +0.0
        return 0.0 - min(m for _, _, m, _ in integrand_pieces(self, lam))

    def effective_threshold(self) -> float:
        """Boundary of the zero region, tau = Theta^{-1}(0)."""
        return inverse(self, 0.0)

    def with_lambda(self, lam: float) -> "ThresholdRule":
        """Copy of the rule with a different threshold parameter."""
        if self.kind not in LAMBDA_KINDS:
            raise ValueError(f"rule {self.kind!r} has no lambda to replace")
        return replace(self, lam=float(lam))

    def __str__(self) -> str:
        parts = []
        if self.lam is not None:
            parts.append(f"lambda={_fmt(self.lam)}")
        for name in _PARAMS[self.kind]:
            parts.append(f"{name}={_fmt(getattr(self, name))}")
        return f"{self.kind}({','.join(parts)})" if parts else self.kind


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# lr rule internals
# ---------------------------------------------------------------------------

def _lr_zero_boundary(zeta: float, r: float) -> float:
    # sup of |t| for which 0 still (weakly) wins the scalar problem
    if zeta == 0.0:
        return 0.0
    return zeta ** (1.0 / (2.0 - r)) * (2.0 - r) * (2.0 - 2.0 * r) ** ((r - 1.0) / (2.0 - r))


def _lr_bracket_low(zeta: float, r: float) -> float:
    return (zeta * r * (1.0 - r)) ** (1.0 / (2.0 - r))


def _lr_jump(zeta: float, r: float) -> float:
    # magnitude Theta jumps to at |t| = zero boundary; satisfies
    # theta + zeta*r*theta^{r-1} = boundary exactly
    if zeta == 0.0:
        return 0.0
    return (2.0 * zeta * (1.0 - r)) ** (1.0 / (2.0 - r))


def _lr_root(z, zeta, r):
    """Root of g(theta) = theta + zeta*r*theta^{r-1} - z on [bracket_low, z].

    Vectorized safeguarded Newton: at most 200 steps, stopping once no step
    exceeds 1e-12.  g is increasing and convex on the bracket, so Newton
    started at theta = z descends monotonically onto the root and cannot
    leave the bracket.
    """
    z = np.asarray(z, dtype=float)
    lo = _lr_bracket_low(zeta, r)
    theta = z.copy()
    for _ in range(200):
        g = theta + zeta * r * theta ** (r - 1.0) - z
        gp = 1.0 + zeta * r * (r - 1.0) * theta ** (r - 2.0)
        step = g / np.maximum(gp, 1e-300)
        theta = np.maximum(theta - step, lo)
        if np.max(np.abs(step)) <= 1e-12:
            break
    return theta


# ---------------------------------------------------------------------------
# apply / inverse
# ---------------------------------------------------------------------------

def rule_lambda(rule: ThresholdRule, lam_override: float | None = None) -> float | None:
    """Lambda in force for one call: the override if given, else the rule's own."""
    if lam_override is not None and rule.kind not in LAMBDA_KINDS:
        raise ValueError(f"rule {rule.kind!r} has no threshold parameter to override")
    return rule.lam if lam_override is None else float(lam_override)


def apply_vec(rule: ThresholdRule, t, lam_override: float | None = None) -> np.ndarray:
    """Apply the rule componentwise to an array.

    `lam_override` substitutes the threshold parameter for this call only
    (used by threshold schedules); invalid for `ridge` and `lr`.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("thresholding input must be finite")
    return _theta(rule, t, np.abs(t), rule_lambda(rule, lam_override))


# Per kind, not from integrand_pieces: a table lookup ran 2-4x slower per call (2-core VM).
def _theta(rule: ThresholdRule, t: np.ndarray, z: np.ndarray, lam: float | None) -> np.ndarray:
    """Theta(t; lam) for a finite float array t with z = |t| and lam resolved:
    `apply_vec` without its checks, for the solver loop, which holds z anyway.
    Returns a new array on every branch, never t itself or a view of it."""
    kind = rule.kind
    if kind == "hard":
        return np.where(z > lam, t, 0.0)
    if kind == "ridge":
        return t / (1.0 + rule.eta)
    if kind == "hard-ridge":
        return np.where(z > lam, t / (1.0 + rule.eta), 0.0)
    s = np.sign(t)
    if kind == "soft":
        return s * np.maximum(z - lam, 0.0)
    if kind == "elastic-net":
        return np.where(z > lam, s * (z - lam) / (1.0 + rule.eta), 0.0)
    if kind == "berhu":
        eta = rule.eta
        out = np.zeros_like(t)
        if eta == 0.0:
            mid = z > lam
            out[mid] = s[mid] * (z[mid] - lam)
            return out
        hi = lam + lam / eta
        mid = (z > lam) & (z <= hi)
        top = z > hi
        out[mid] = s[mid] * (z[mid] - lam)
        out[top] = t[top] / (1.0 + eta)
        return out
    if kind == "scad":
        a = rule.a
        out = np.zeros_like(t)
        b1 = (z > lam) & (z <= 2.0 * lam)
        b2 = (z > 2.0 * lam) & (z <= a * lam)
        b3 = z > a * lam
        out[b1] = s[b1] * (z[b1] - lam)
        # middle branch lies in [0, z]; clip float dust at the seams
        out[b2] = s[b2] * np.clip(((a - 1.0) * z[b2] - a * lam) / (a - 2.0), 0.0, z[b2])
        out[b3] = t[b3]
        return out
    if kind == "mcp":
        g = rule.gamma
        out = np.zeros_like(t)
        b1 = (z > lam) & (z < g * lam)
        b2 = z >= g * lam
        out[b1] = s[b1] * np.clip((z[b1] - lam) / (1.0 - 1.0 / g), 0.0, z[b1])
        out[b2] = t[b2]
        return out
    if kind == "lr":
        zeta, r = rule.zeta, rule.r
        if zeta == 0.0:
            return t.copy()
        t0 = _lr_zero_boundary(zeta, r)
        out = np.zeros_like(t)
        nz = z > t0
        if np.any(nz):
            out[nz] = s[nz] * _lr_root(z[nz], zeta, r)
        return out
    raise AssertionError(kind)


def apply(rule: ThresholdRule, t: float, lam_override: float | None = None) -> float:
    """Scalar form of `apply_vec`."""
    return float(apply_vec(rule, np.array([t]), lam_override)[0])


def inverse(rule: ThresholdRule, u: float, lam_override: float | None = None) -> float:
    """Generalized inverse Theta^{-1}(u) = sup{t : Theta(t) <= u} for u >= 0.

    inverse(0) is the rule's effective threshold.
    """
    if not (math.isfinite(u) and u >= 0.0):
        raise ValueError("inverse is defined for finite u >= 0")
    if rule.kind != "lr":
        pieces = integrand_pieces(rule, lam_override)
        return next((1.0 + m) * u + q for _, hi, m, q in pieces if u <= hi)
    rule_lambda(rule, lam_override)  # lr has no lambda to override
    zeta, r = rule.zeta, rule.r
    if zeta == 0.0:
        return u
    if u < _lr_jump(zeta, r):
        return _lr_zero_boundary(zeta, r)
    return u + zeta * r * u ** (r - 1.0)


def discontinuities(rule: ThresholdRule, lam_override: float | None = None) -> tuple[float, ...]:
    """Positive |t| locations where the rule jumps (empty for continuous rules).

    Theta jumps where Theta^{-1} is flat: the pieces of slope -1.
    """
    if rule.kind == "lr":
        t0 = inverse(rule, 0.0, lam_override)
        return (t0,) if t0 > 0 else ()
    return tuple(q for _, _, m, q in integrand_pieces(rule, lam_override) if m == -1.0)


def near_jump(z: np.ndarray, jumps, tol: float) -> bool:
    """Whether some magnitude z_j = |t_j| lies within `tol` of a jump location."""
    jumps = np.asarray(jumps)
    return bool(jumps.size and z.size and np.abs(z[:, None] - jumps).min() < tol)


def integrand_pieces(rule: ThresholdRule, lam_override: float | None = None):
    """Pieces of s(u) = Theta^{-1}(u) - u on u > 0 as (lo, hi, slope, intercept).

    For the eight piecewise-linear kinds these pieces are the single source
    of Theta^{-1} (`inverse`), the contraction constant L (minus the least
    slope), the effective threshold tau = Theta^{-1}(0), the jumps (flat
    pieces, slope -1) and the induced penalty (`penalty.penalty_theta`
    integrates them exactly).  Adding a piecewise-linear rule means adding
    its pieces here and its Theta to `_theta`.  lr is not piecewise linear
    and raises.
    Zero-width pieces are dropped.
    """
    if rule.kind == "lr":
        raise ValueError("lr integrand is not piecewise linear")
    # soft and ridge are elastic-net at eta = 0 and at lambda = 0; hard is
    # hard-ridge at eta = 0
    lam = rule_lambda(rule, lam_override) or 0.0
    eta = rule.eta or 0.0
    kind = rule.kind
    inf = math.inf
    if kind in ("soft", "ridge", "elastic-net"):
        pieces = [(0.0, inf, eta, lam)]
    elif kind in ("hard", "hard-ridge"):
        knot = lam / (1.0 + eta)
        pieces = [(0.0, knot, -1.0, lam), (knot, inf, eta, 0.0)]
    elif kind == "berhu":
        knot = lam / eta if eta else inf
        pieces = [(0.0, knot, 0.0, lam), (knot, inf, eta, 0.0)]
    elif kind == "scad":
        a = rule.a
        pieces = [
            (0.0, lam, 0.0, lam),
            (lam, a * lam, -1.0 / (a - 1.0), a * lam / (a - 1.0)),
            (a * lam, inf, 0.0, 0.0),
        ]
    elif kind == "mcp":
        g = rule.gamma
        pieces = [(0.0, g * lam, -1.0 / g, lam), (g * lam, inf, 0.0, 0.0)]
    else:
        raise AssertionError(kind)
    return [(lo, hi, m, q) for (lo, hi, m, q) in pieces if hi > lo]


# ---------------------------------------------------------------------------
# numeric diagnostics
# ---------------------------------------------------------------------------

def estimate_contraction(rule: ThresholdRule, grid) -> float:
    """Estimate L = 1 - min finite-difference slope of Theta^{-1} over `grid`.

    The grid must be strictly increasing with positive entries.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with positive entries")
    vals = np.array([inverse(rule, u) for u in grid])
    slopes = np.diff(vals) / np.diff(grid)
    return float(1.0 - slopes.min())


def default_contraction_grid(rule: ThresholdRule) -> np.ndarray:
    """2001 points evenly spaced on (0, 10*scale], where scale is the rule's
    threshold (or 1 if zero)."""
    tau = rule.effective_threshold()
    scale = tau if tau > 0 else 1.0
    return np.linspace(0.0, 10.0 * scale, 2002)[1:]


@dataclass
class AxiomReport:
    """Worst observed violation per axiom, plus the contraction cross-check."""

    oddness: float
    monotonicity: float
    unboundedness: float
    shrinkage: float
    contraction_stored: float
    contraction_estimated: float

    @property
    def contraction_agrees(self) -> bool:
        return abs(self.contraction_stored - self.contraction_estimated) <= 1e-3

    @property
    def passed(self) -> bool:
        ok = (
            self.oddness <= 1e-12
            and self.monotonicity <= 0.0
            and self.unboundedness <= 0.0
            and self.shrinkage <= 0.0
        )
        return bool(ok and self.contraction_agrees)


def verify_axioms(rule: ThresholdRule, t_grid, apply_fn=None) -> AxiomReport:
    """Check the defining properties of a thresholding rule on grids.

    Rules with lambda are checked at lambda = 0.5, 1 and 2.  Reports worst
    violations; never raises on failure.  `apply_fn(t_array, lam)`
    may replace the rule's own map (used to exercise the report on corrupted
    rules in tests).
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    lams = [0.5, 1.0, 2.0] if rule.kind in LAMBDA_KINDS else [None]
    if apply_fn is None:
        apply_fn = lambda ts, lam: apply_vec(rule, ts, lam)

    odd = mono = unb = shr = -math.inf
    for lam in lams:
        vals = apply_fn(t_grid, lam)
        odd = max(odd, float(np.max(np.abs(vals + apply_fn(-t_grid, lam)))))
        mono = max(mono, float(np.max(-np.diff(vals), initial=-math.inf)))
        tau = rule.effective_threshold() if lam is None else lam
        big = apply_fn(np.array([tau + 1e6]), lam)[0]
        unb = max(unb, 1e5 - float(big))
        pos = t_grid[t_grid >= 0]
        pvals = apply_fn(pos, lam)
        shr = max(shr, float(np.max(np.maximum(-pvals, pvals - pos), initial=-math.inf)))

    grid_rule = rule if rule.kind not in LAMBDA_KINDS else rule.with_lambda(lams[0])
    est = estimate_contraction(grid_rule, default_contraction_grid(grid_rule))
    return AxiomReport(
        oddness=odd,
        monotonicity=mono,
        unboundedness=unb,
        shrinkage=shr,
        contraction_stored=rule.contraction,
        contraction_estimated=est,
    )


# ---------------------------------------------------------------------------
# rule spec strings
# ---------------------------------------------------------------------------

_RULE_RE = re.compile(r"^\s*([a-z0-9-]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def parse_rule(text: str, require_lambda: bool = True) -> ThresholdRule:
    """Parse a rule spec string such as ``scad(lambda=0.5,a=3.7)``.

    With ``require_lambda=False`` the threshold may be omitted (rule
    templates whose lambda is filled in later).
    """
    m = _RULE_RE.match(text)
    if not m:
        raise RuleParseError(f"cannot parse rule spec {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind not in KINDS:
        raise RuleParseError(f"unknown rule kind {kind!r}; expected one of {', '.join(KINDS)}")
    params = {}
    if body:
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise RuleParseError(f"expected key=value, got {item!r} in rule {kind!r}")
            key, _, val = (p.strip() for p in item.partition("="))
            if key != "lambda" and key not in _PARAMS[kind]:
                raise RuleParseError(f"unknown parameter {key!r} for rule {kind!r}")
            if key in params:
                raise RuleParseError(f"duplicate parameter {key!r} for rule {kind!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise RuleParseError(f"parameter {key!r} of rule {kind!r} is not a number: {val!r}") from None
    lam = params.pop("lambda", None)
    if lam is None and require_lambda and kind in LAMBDA_KINDS:
        raise RuleParseError(f"rule {kind!r} requires parameter 'lambda'")
    defaults = {"a": 3.7, "gamma": 3.0}
    for name in _PARAMS[kind]:
        if name not in params:
            if name in defaults:
                params[name] = defaults[name]
            else:
                raise RuleParseError(f"rule {kind!r} requires parameter {name!r}")
    try:
        return ThresholdRule(kind=kind, lam=lam, **params)
    except ValueError as exc:
        raise RuleParseError(str(exc)) from None


def rule_catalog(lam=1.0, eta=0.5, a=3.7, gamma=2.0, r=0.5, zeta=1.0):
    """One instance of every rule kind, with shared default parameters."""
    return [
        ThresholdRule("soft", lam=lam),
        ThresholdRule("hard", lam=lam),
        ThresholdRule("ridge", eta=eta),
        ThresholdRule("elastic-net", lam=lam, eta=eta),
        ThresholdRule("berhu", lam=lam, eta=eta),
        ThresholdRule("hard-ridge", lam=lam, eta=eta),
        ThresholdRule("scad", lam=lam, a=a),
        ThresholdRule("mcp", lam=lam, gamma=gamma),
        ThresholdRule("lr", r=r, zeta=zeta),
    ]
