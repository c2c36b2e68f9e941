"""Fixed-point solver for thresholding-penalized least squares.

The estimator solves rho*beta = Theta(rho*beta + X'y/rho - X'X beta/rho; lambda)
by iterating the scaled map beta~ <- Theta(beta~ + Xs'(y - Xs beta~); lambda)
with Xs = X/rho.  With rho >= ||X||_2 the scaled design has unit spectral
norm and every iteration decreases the objective

    f(beta) = 0.5*||X beta - y||^2 + sum_j P(rho*|beta_j|; lambda).

A Problem holds one copy of X and one `SupportMemo` (defined here), which
takes every product with X or X/rho and is shared by the problem's solves at
any rho, as they apply 1/rho to vectors; X/rho is built only for a dense
product.  `_scaled` is the one view Problem(X/rho, y, rho*beta*) on it, at
any rho > 0; `scale_problem` puts it behind the guard rho >= ||X||_2.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import thresholding as th
from . import penalty as pen


class ConfigurationError(ValueError):
    """Invalid problem/solver configuration."""


class SolverError(RuntimeError):
    """Numerical failure during iteration (non-finite iterates)."""


# ---------------------------------------------------------------------------
# problem container and its support memo
# ---------------------------------------------------------------------------

def _frozen_array(x, copy=True):
    arr = np.array(x, dtype=float) if copy else np.asarray(x, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Problem:
    """Design X (n x p), response y (n,) and optional ground truth beta_star (p,)."""

    X: np.ndarray
    y: np.ndarray
    beta_star: np.ndarray | None = None

    def __post_init__(self, copy=True):
        X = _frozen_array(self.X, copy)
        y = _frozen_array(self.y, copy)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("X and y must be finite")
        bs = self.beta_star
        if bs is not None:
            bs = _frozen_array(bs, copy)
            if bs.shape != (X.shape[1],):
                raise ValueError(f"beta_star has shape {bs.shape}, expected ({X.shape[1]},)")
            if not np.all(np.isfinite(bs)):
                raise ValueError("beta_star must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "beta_star", bs)

    @classmethod
    def _own(cls, X, y, beta_star=None) -> "Problem":
        """`Problem(...)` on arrays nothing else holds: checked, frozen in place, not copied."""
        prob = object.__new__(cls)
        prob.__dict__.update(X=X, y=y, beta_star=beta_star)
        prob.__post_init__(copy=False)
        return prob

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.memo.X.shape[1]  # a scaled problem's X/rho may not exist

    @functools.cached_property
    def norm(self) -> float:
        """||X||_2, computed on first use and then kept: X is frozen, so
        every solve on this problem shares one norm."""
        return spectral_norm(self.X)

    @functools.cached_property
    def memo(self) -> SupportMemo:
        """The design's one `SupportMemo`, through which `solve`,
        `tisp_step`, `error_metrics` and `penalty.energy` multiply by X, and
        by X/rho on a scaled problem; it never changes a result."""
        return SupportMemo(self.X, self.y)


class _ScaledProblem(Problem):
    """`_scaled`'s Problem(X/rho, y, rho*beta*): its memo is the
    problem's at scale rho, and X/rho the memo's, built on first use."""

    X = property(lambda self: self.memo.Xs)


# floats a support memo's store holds at most (16 MB) besides X'y
_MEMO_ENTRIES = 1 << 21
_SCAN = object()  # `SupportMemo.times`/`gradient`: find b's support yourself


class SupportMemo:
    """Products of X/rho with coefficient vectors, over their support.

    A memo made without `store` is a design's store: per column j that
    entered a support, a contiguous copy of x_j and, once a gradient needed
    it, the Gram row G_j = X'x_j; and X'y.  Memos at any rho share it, as
    they apply 1/rho to vectors.  A b with p >= 32 entries, at most p/32 of
    them nonzero, whose pieces fit, is multiplied over its support S at
    u = b/rho: (X/rho) b = u_S x_S, (X/rho)'(y - (X/rho) b) =
    (X'y - u_S G_S)/rho.  Other vectors take dense products with `Xs` =
    X/rho, built on first use.  The gather costs what the dense product does
    near p/28 nonzeros (2000x5000 and 1000x2000, 2 BLAS threads).

    A pure memo: each piece is made by the same one-column product whatever
    else is held, and a product reads only its support's pieces, so which
    columns are held never changes a bit of a result.  A store holds at
    most `_MEMO_ENTRIES` floats besides X'y, its last stacks (reused while
    the support stays) included, and is cleared when a support's missing
    pieces do not fit.
    """

    def __init__(self, X, y=None, rho=1.0, store=None):
        self.X, self.y, self.rho = X, y, rho
        self._store = store  # None: this memo is the store (a self-reference would be a cycle)
        self._cols, self._gram, self._held = {}, {}, 0  # j -> x_j, contiguous; j -> X'x_j; their floats
        self._xty = None
        self._last = {False: (None, None), True: (None, None)}  # gram -> (support bytes, stack)

    @functools.cached_property
    def Xs(self):
        """X/rho for the dense products, read-only, built on first use."""
        if self.rho == 1.0:
            return self.X
        Xs = self.X / self.rho
        Xs.flags.writeable = False
        return Xs

    def support(self, b):
        """b's nonzeros when the products with b go over them, else None.

        A caller that multiplies one b several times finds its support once
        and passes it to `times` and `gradient`.  Below 32 entries b is
        never scanned.
        """
        if b.size < 32:
            return None
        k = np.count_nonzero(b)
        if 32 * k <= b.size and k * (self.X.shape[0] + b.size) <= _MEMO_ENTRIES:
            return np.flatnonzero(b)
        return None

    def _rows(self, nz, gram=False):
        # the support's column copies (k x n), or its Gram rows (k x p), after
        # filling the missing ones one column at a time; a stack is kept only
        # while it fits, and the kept one gives way before the tables do
        key = nz.tobytes()
        last_key, last_rows = self._last[gram]
        if key == last_key:
            return last_rows
        n, p = self.X.shape
        js = nz.tolist()
        new_cols = [j for j in js if j not in self._cols]
        new_gram = [j for j in js if j not in self._gram] if gram else []
        grow, other = n * len(new_cols) + p * len(new_gram), self._last[not gram][1]
        self._last[gram] = (None, None)
        if other is not None and self._held + grow + other.size > _MEMO_ENTRIES:
            self._last[not gram], other = (None, None), None
        if self._held + grow > _MEMO_ENTRIES:
            self._cols, self._gram, self._held = {}, {}, 0
            new_cols, new_gram = js, (js if gram else [])
        for j in new_cols:
            self._cols[j] = self.X[:, j].copy()
        for j in new_gram:
            self._gram[j] = self.X.T @ self._cols[j]
        self._held += n * len(new_cols) + p * len(new_gram)
        table = self._gram if gram else self._cols
        rows = np.array([table[j] for j in js]).reshape(len(js), p if gram else n)
        if self._held + rows.size + (0 if other is None else other.size) <= _MEMO_ENTRIES:
            self._last[gram] = (key, rows)
        return rows

    def times(self, b, nz=_SCAN) -> np.ndarray:
        """(X/rho) @ b; `nz` is `support(b)` when the caller holds it."""
        if nz is _SCAN:
            nz = self.support(b)
        if nz is None:
            return self.Xs @ b  # not .dot: at p = 1 it skips a zero b, and a NaN column with it
        return (b[nz] / self.rho).dot((self._store or self)._rows(nz))

    def gradient(self, b, r, nz=_SCAN) -> np.ndarray:
        """(X/rho)'r at the residual r = y - self.times(b); `nz` as in `times`."""
        if nz is _SCAN:
            nz = self.support(b)
        if nz is None:
            return self.Xs.T @ r
        store = self._store or self
        if store._xty is None:
            store._xty = self.X.T @ self.y
        return (store._xty - (b[nz] / self.rho).dot(store._rows(nz, gram=True))) / self.rho


# ---------------------------------------------------------------------------
# threshold schedules
# ---------------------------------------------------------------------------

# per schedule mode: its own fields, the check they must pass, and its wording
_SCHEDULE_MODES = {
    "constant": (("lam",), lambda s: math.isfinite(s.lam) and s.lam >= 0, "lam >= 0"),
    "geometric": (("lam0", "factor", "floor"),
                  lambda s: math.isfinite(s.lam0) and 0.0 <= s.floor <= s.lam0 and 0.0 < s.factor < 1.0,
                  "lam0 >= 0, factor in (0, 1) and 0 <= floor <= lam0"),
    "explicit": (("values",), lambda s: len(s.values) > 0 and all(math.isfinite(v) and v >= 0 for v in s.values),
                 "one or more values >= 0"),
}


@dataclass(frozen=True)
class LambdaSchedule:
    """Per-iteration threshold sequence.

    Modes: ``constant`` (lam), ``geometric`` (lam0 * factor^t floored at
    ``floor``), ``explicit`` (listed values, last one held).  ValueError
    unless the mode's own fields are given and in range, and the others None.
    """

    mode: str
    lam: float | None = None
    lam0: float | None = None
    factor: float | None = None
    floor: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in _SCHEDULE_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}; expected one of {tuple(_SCHEDULE_MODES)}")
        own, ok, wording = _SCHEDULE_MODES[self.mode]
        if any((getattr(self, f.name) is None) == (f.name in own) for f in fields(self)[1:]) or not ok(self):
            raise ValueError(f"{self.mode} schedule takes {wording}, and no other field")

    @classmethod
    def constant(cls, lam: float) -> "LambdaSchedule":
        return cls(mode="constant", lam=float(lam))

    @classmethod
    def geometric(cls, lam0: float, factor: float, floor: float) -> "LambdaSchedule":
        return cls(mode="geometric", lam0=float(lam0), factor=float(factor), floor=float(floor))

    @classmethod
    def explicit(cls, values) -> "LambdaSchedule":
        return cls(mode="explicit", values=tuple(float(v) for v in values))

    def value(self, t: int) -> float:
        """Threshold for iteration t (0-based)."""
        if self.mode == "constant":
            return self.lam
        if self.mode == "geometric":
            return max(self.lam0 * self.factor**t, self.floor)
        return self.values[min(t, len(self.values) - 1)]

    def settled(self, t: int) -> bool:
        """Whether iteration t's threshold is held at every later iteration."""
        if self.mode == "constant":
            return True
        lam = self.value(t)
        if self.mode == "geometric":
            return lam == self.floor
        return all(v == lam for v in self.values[t:])


def parse_schedule(text: str) -> LambdaSchedule:
    """Parse ``constant:0.5`` / ``geometric:1.0,0.8,0.01`` / ``explicit:0.9,0.5``."""
    mode, _, body = text.partition(":")
    mode = mode.strip()
    try:
        vals = [float(v) for v in body.split(",")] if body.strip() else []
    except ValueError:
        raise ConfigurationError(f"schedule values must be numbers: {body!r}") from None
    if mode == "constant" and len(vals) == 1:
        return LambdaSchedule.constant(vals[0])
    if mode == "geometric" and len(vals) == 3:
        return LambdaSchedule.geometric(*vals)
    if mode == "explicit" and vals:
        return LambdaSchedule.explicit(vals)
    raise ConfigurationError(
        f"cannot parse schedule {text!r}; expected constant:LAM, "
        "geometric:LAM0,FACTOR,FLOOR or explicit:V1,V2,..."
    )


# ---------------------------------------------------------------------------
# solver configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """How to run the iteration.

    rho is ``"auto"`` for (1 + rho_epsilon) * ||X||_2 or an explicit value
    (must be at least ||X||_2).  alpha in (0, 1] is the stepsize of the
    gradient half of the map; thresholds are adjusted per rule so that the
    fixed points still minimize the alpha-scaled objective.
    """

    rule: th.ThresholdRule
    rho: float | str = "auto"
    rho_epsilon: float = 0.01
    alpha: float = 1.0
    schedule: LambdaSchedule | None = None
    tol: float = 1e-8
    max_iter: int = 10000
    record_every: int = 1
    augmentation: str = "none"

    def __post_init__(self):
        if isinstance(self.rho, str):
            if self.rho != "auto":
                raise ConfigurationError(f"rho must be 'auto' or a number, got {self.rho!r}")
            if not (math.isfinite(self.rho_epsilon) and self.rho_epsilon >= 0):
                raise ConfigurationError("rho_epsilon must be >= 0")
        elif not (math.isfinite(self.rho) and self.rho > 0):
            raise ConfigurationError("rho must be positive and finite")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError("alpha must lie in (0, 1]")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigurationError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if self.schedule is not None and self.rule.kind not in th.LAMBDA_KINDS:
            raise ConfigurationError(f"rule {self.rule.kind!r} has no threshold to schedule")
        if self.rule.kind in th.LAMBDA_KINDS and self.rule.lam is None and self.schedule is None:
            raise ConfigurationError(f"rule {self.rule.kind!r} needs lambda or a schedule")
        # validates the augmentation/rule pairing
        pen.PenaltySpec(rule=self.rule, augmentation=self.augmentation)


def stepsize_transform(rule: th.ThresholdRule, alpha: float):
    """Rule for step size alpha, whose penalty is alpha times the original one.

    Returns ``(rule_alpha, lam_scale)``: lambda scales by lam_scale, which is
    alpha, sqrt(alpha (1 + alpha eta) / (1 + eta)) for the jump kinds hard
    (eta = 0) and hard-ridge, and 1 for ridge; eta scales by alpha, gamma by
    1/alpha, and a template without lambda stays one.  For soft, mcp, ridge,
    elastic-net and berhu the induced penalty is alpha times the original
    everywhere.  For hard and hard-ridge it is so only at 0 and over the
    original rule's outputs (from lambda on for hard), while rule_alpha's
    outputs start below them (at sqrt(alpha)*lambda for hard); what the
    transform scales exactly there is the L0-type penalty: lambda^2/2 per
    nonzero for hard, the ``l0+l2`` augmentation for hard-ridge.  Only rule
    families closed under this scaling are supported; scad and lr reject
    alpha < 1.

    The damped step beta <- rule_alpha(beta + alpha Xs'(y - Xs beta)) is
    the plain step on (sqrt(alpha) Xs, sqrt(alpha) y), so it descends
    0.5 ||y - Xs beta||^2 + sum_j P_alpha(|beta_j|) / alpha, P_alpha the
    penalty rule_alpha induces: the original objective wherever P_alpha is
    alpha times the original penalty, and not elsewhere (for hard, P_alpha
    differs below lambda).  `solve` records that objective.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigurationError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return rule, 1.0
    if rule.kind in ("scad", "lr"):
        raise ConfigurationError(f"stepsize alpha < 1 is not supported for rule {rule.kind!r}")
    eta = rule.eta or 0.0  # hard is hard-ridge at eta = 0
    jump = math.sqrt(alpha * (1.0 + alpha * eta) / (1.0 + eta))
    s = {"hard": jump, "hard-ridge": jump, "ridge": 1.0}.get(rule.kind, alpha)
    out = replace(rule, lam=None if rule.lam is None else s * rule.lam,
                  eta=None if rule.eta is None else alpha * rule.eta,
                  gamma=None if rule.gamma is None else rule.gamma / alpha)
    return out, s


# ---------------------------------------------------------------------------
# spectral norm and scaling
# ---------------------------------------------------------------------------

# floats the Gram A may hold for `spectral_norm` to square it (4 MB); a
# larger Gram takes the Lanczos replay
_GRAM_SQUARE_ENTRIES = 1 << 19
# below this largest Gram entry d, a product that moves d by half an ulp
# (d * 2^-53) can be subnormal and lose bits
_GRAM_TINY = 2.0 ** -969
# Lanczos steps between replays
_REPLAY_EVERY = 8


def spectral_norm(X) -> float:
    """Largest singular value of X by power iteration on the smaller Gram matrix.

    The power iteration v <- A v / ||A v|| from a unit v0 estimates the top
    eigenvalue of A at step k as lam_k = ||A v_k||, and stops at the first
    k >= 10 with |lam_k - lam_(k-1)| <= 1e-8 lam_k, or at k = 49999.
    Deterministic: v0 comes from the generator seeded with 0.  ValueError
    when X is not finite; inf when ||X||_2 exceeds the largest float.

    Two paths, chosen by the size of A.  When A holds at most
    `_GRAM_SQUARE_ENTRIES` floats (4 MB), B = A A is formed once and each
    product with B takes two steps: for a unit v and u = B v, ||A v|| =
    sqrt(v'u), the next step's estimate is ||u|| / ||A v||, and u/||u|| is
    the vector two steps on.  The stop test runs after each of the two
    estimates.  Above the budget, where B would add the Gram's size again
    to the peak RSS (32 MB on a 2000x2000 Gram), Lanczos runs on A from the
    same v0 with the three-term recurrence alone: no stored basis, no
    reorthogonalization, a few m-vectors beside A.  Its tridiagonal T_j
    holds the moments m_i = v0'A^i v0 as e1'T_j^i e1 (the Gauss quadrature
    of A's spectral measure at v0, exact for i < 2j), so the squared loop
    on T_j T_j from e1 replays the power loop on A: the same estimates
    lam_k = sqrt(m_(2k+2) / m_(2k)) under the same stop test.  It replays
    every `_REPLAY_EVERY` steps and ends when two successive replays stop
    at the same step with estimates within 2 ulps, or at a breakdown (T_j
    then holds every moment), or at j = m, the order of A, where exact
    arithmetic breaks down.  So it takes at most m products with A and
    keeps a few m-vectors beside it; a replay's products with the
    five-diagonal T_j T_j take O(j) time and memory.  Lost orthogonality
    adds copies of converged eigenvalues to T_j, not errors to its moments
    (Greenbaum, Linear Algebra Appl. 113, 1989), and one Lanczos step
    stands for about eight power steps on the decay-large design.  Under
    the budget the squared loop is the faster: there the replays, each a
    Python loop of power steps, cost more than the products they save.
    Both paths return the power loop's estimate at its stop step, to a few
    ulps, not T_j's top eigenvalue: every rho="auto" and every guard rho >=
    ||X||_2 reads that estimate, and the top eigenvalue lies above it (by
    about 4e-7 relative on the decay-large design).

    Both paths first scale A by 2^-e, e the even exponent at or below that
    of A's largest entry (on its diagonal), and unscale the estimate by
    2^(e/2).  When that entry is not finite, or under `_GRAM_TINY`, the
    Gram is formed again from X scaled by 2^-f, f the exponent of its
    largest |x_ij| (a copy of X, made only then).  The scaling is exact, so
    spectral_norm(2^i X) == 2^i spectral_norm(X) for every finite X whose
    entries and norm stay normal floats.
    """
    return _norm_and_steps(X)[0]


def _norm_and_steps(X) -> tuple[float, int]:
    """`spectral_norm` and the number of power steps it replayed or took."""
    X = np.asarray(X, dtype=float)
    if X.size == 0 or not np.any(X):
        return 0.0, 0
    n, p = X.shape
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is formed again
        A = X.T @ X if p <= n else X @ X.T
    d, f = A.diagonal().max(), 0
    if not _GRAM_TINY <= d < math.inf:
        if not np.isfinite(X).all():
            raise ValueError("X must be finite")
        f = math.frexp(max(X.max(), -X.min()))[1]
        Xf = np.ldexp(X, -f)
        A = Xf.T @ Xf if p <= n else Xf @ Xf.T
        del Xf
        d = A.diagonal().max()
    e = math.frexp(d)[1] & ~1  # even: sqrt unscales exactly
    np.ldexp(A, -e, out=A)
    if A.size <= _GRAM_SQUARE_ENTRIES:
        # one syrk (A is symmetric); B goes with the partial when the loop returns
        lam, steps = _power_squared(functools.partial(np.dot, A @ A.T), _start_vector(A.shape[0]))
    else:
        lam, steps = _lanczos_replay(A)
    try:
        return math.ldexp(math.sqrt(lam), e // 2 + f), steps
    except OverflowError:
        return math.inf, steps


def _start_vector(m):
    v = np.random.default_rng(0).standard_normal(m)
    v /= np.linalg.norm(v)
    return v


def _power_squared(times, v):
    """(top eigenvalue estimate of A, steps) of the power loop on A from the
    unit v, two steps per product times(v, out=u) = B v with B = A A; v is
    overwritten."""
    u = np.empty_like(v)
    lam_prev = 0.0
    for k in range(0, 50000, 2):
        times(v, out=u)
        lam = math.sqrt(max(np.dot(v, u), 0.0))  # below 0 only by rounding at A v = 0
        if lam == 0.0:
            return 0.0, k + 1
        if k >= 10 and abs(lam - lam_prev) <= 1e-8 * lam:
            return lam, k + 1
        norm_u = math.sqrt(np.dot(u, u))
        lam_prev, lam = lam, norm_u / lam
        if k >= 10 and abs(lam - lam_prev) <= 1e-8 * lam:  # step k + 1 >= 10, k even
            break
        lam_prev = lam
        np.divide(u, norm_u, out=v)
    return lam, k + 2


def _lanczos_replay(A):
    """(top eigenvalue estimate of A, steps) of the power loop on A, replayed
    on Lanczos tridiagonals as `spectral_norm` describes."""
    m = A.shape[0]
    q = _start_vector(m)
    q_prev, u = np.zeros_like(q), np.empty_like(q)
    alphas, betas, beta, last = [], [], 0.0, None
    for j in range(1, m + 1):
        np.dot(A, q, out=u)
        if beta:
            u -= beta * q_prev
        alpha = float(np.dot(q, u))
        u -= alpha * q
        beta = math.sqrt(np.dot(u, u))
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or j % _REPLAY_EVERY == 0 or j == m:
            e1 = np.zeros(j)
            e1[0] = 1.0
            got = _power_squared(_tridiagonal_square(alphas, betas[:-1]), e1)
            # in exact arithmetic beta is 0 by j = m: T_m holds every moment
            if beta == 0.0 or j == m or (last is not None and got[1] == last[1]
                                         and abs(got[0] - last[0]) <= 2 * math.ulp(got[0])):
                return got
            last = got
        q_prev, q, u = q, u, q_prev
        q /= beta


def _tridiagonal_square(a, b):
    """times(v, out) writing T T v to out, for the symmetric tridiagonal T
    of order j with diagonal a and off-diagonal b: T T has five diagonals,
    so a product takes O(j) time and memory.  No LAPACK or matrix-matrix
    BLAS call: either would add its code pages, about 1 MB, to the peak RSS
    the Gram sets."""
    a, b = np.array(a), np.array(b)
    main = a * a
    main[1:] += b * b
    main[:-1] += b * b
    near, far = b * (a[:-1] + a[1:]), b[:-1] * b[1:]

    def times(v, out):
        np.multiply(main, v, out=out)
        out[:-1] += near * v[1:]
        out[1:] += near * v[:-1]
        out[:-2] += far * v[2:]
        out[2:] += far * v[:-2]

    return times


def scale_problem(problem: Problem, rho: float):
    """Return (scaled problem with design X/rho, unscale map for coefficients).

    The scaled problem is `_scaled(problem, rho)`.  Refuses rho below
    ||X||_2: the scaled design must satisfy ||X/rho||_2 <= 1 for the
    iteration's objective-descent guarantee.
    """
    norm, scaled = problem.norm, _scaled(problem, rho)  # norm first: 1.2 MB less peak RSS on experiments
    if rho < norm * (1.0 - 1e-9):
        raise ConfigurationError(
            f"rho={rho:.6g} is below the design spectral norm {norm:.6g}; "
            "objective descent requires rho >= ||X||_2"
        )
    # X/rho is finite: |x_ij| <= ||X||_2 <= rho * (1 + 1e-9)

    def unscale(beta_scaled):
        return np.asarray(beta_scaled, dtype=float) / rho

    return scaled, unscale


def _scaled(problem: Problem, rho: float) -> _ScaledProblem:
    """The view Problem(X/rho, y, rho*beta*) on the problem's memo, at
    any rho > 0: `scale_problem` without its norm guard, for the oracles.
    ConfigurationError unless rho is positive and finite, or if a squared
    column norm of X/rho or rho*beta* overflows."""
    if not (math.isfinite(rho) and rho > 0):
        raise ConfigurationError("rho must be positive and finite")
    X = problem.X
    if rho < 1.0 and X.size:  # X/rho and its products can overflow only then
        with np.errstate(over="ignore"):  # an infinite column norm is refused below
            col_max = float(np.einsum("ij,ij->j", X, X).max())  # no n x p temporary
        if math.isinf(col_max / rho / rho):
            raise ConfigurationError(f"X/rho overflows in its products at rho={rho:.6g}")
    bstar = None
    if problem.beta_star is not None:
        with np.errstate(over="ignore"):  # beta_star is finite: only the product can overflow
            bstar = rho * problem.beta_star
        if not np.all(np.isfinite(bstar)):
            raise ConfigurationError(f"rho*beta_star overflows at rho={rho:.6g}")
        bstar.flags.writeable = False
    scaled = object.__new__(_ScaledProblem)
    scaled.__dict__.update(y=problem.y, beta_star=bstar,
                           memo=SupportMemo(problem.X, problem.y, rho, problem.memo))
    return scaled


def tisp_step(beta, scaled_problem: Problem, rule: th.ThresholdRule,
              alpha: float = 1.0) -> np.ndarray:
    """One iteration beta <- Theta(beta + alpha * Xs'(y - Xs beta); lam_alpha).

    Operates in the scaled coordinate system (design Xs with norm <= 1), at
    the rule's own lambda; the alpha adjustment of the threshold is applied
    internally.
    """
    beta = np.asarray(beta, dtype=float)
    p = scaled_problem.p
    if beta.shape != (p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({p},)")
    rule_a = stepsize_transform(rule, alpha)[0]
    memo = scaled_problem.memo
    nz = memo.support(beta)
    with np.errstate(over="ignore", invalid="ignore"):  # _step reports non-finite values
        r = scaled_problem.y - memo.times(beta, nz)
        z, beta_new = _step(beta, r, nz, memo, alpha, rule_a, th.rule_lambda(rule_a))
    if not np.isfinite(beta_new).all():
        raise _nonfinite(1, z)
    return beta_new


def _step(beta, r, nz, memo, alpha, rule_a, lam, it=1):
    """z = |v| at the gradient point v = beta + alpha * Xs'r (r = y - Xs beta,
    Xs and y the scaled problem's, `memo` its support memo and nz =
    `memo.support(beta)`) and the step Theta(v; lam), lam resolved.
    SolverError when v is not finite (`it` numbers the iteration); the check
    must stay on v, because `hard` maps a NaN to 0.  Callers check Theta(v)
    themselves."""
    # .dot is the BLAS call `@` makes, bit for bit, without the matmul ufunc's
    # dispatch; dense, r.dot(Xs) = Xs'r takes no memo call and no .T view
    g = r.dot(memo.Xs) if nz is None else memo.gradient(beta, r, nz)
    v = beta + (g if alpha == 1.0 else alpha * g)  # 1.0 * g == g: skip the multiply
    z = np.abs(v)
    if z.size and not math.isfinite(np.maximum.reduce(z)):
        raise _nonfinite(it, z)
    return z, th._theta(rule_a, v, z, lam)


def _sup_change(beta_new, beta, z, it):
    """||beta_new - beta||_inf; SolverError when beta_new is not finite.  A
    non-finite beta_new makes the sup non-finite, so only then is it scanned."""
    d = beta_new - beta
    res = float(np.maximum.reduce(np.abs(d, out=d))) if d.size else 0.0
    if not math.isfinite(res) and not np.isfinite(beta_new).all():
        raise _nonfinite(it, z)
    return res


def _nonfinite(it, z):
    return SolverError(
        f"non-finite iterate at iteration {it} "
        f"(max |gradient point| = {np.max(z):.3g}); "
        "check the scaling and threshold configuration"
    )


# ---------------------------------------------------------------------------
# error metrics and the iterate trace
# ---------------------------------------------------------------------------

def error_metrics(beta, problem: Problem, rho: float) -> dict:
    """pred = ||X d||^2, est = ||d||^2, weighted = rho^2 est - pred, d = beta - beta*.

    The one computation of the three errors: the trace's error columns and
    the experiments' result rows both come from here.
    """
    if problem.beta_star is None:
        raise ValueError("error metrics require a problem with beta_star")
    delta = np.asarray(beta, dtype=float) - problem.beta_star
    xd = problem.memo.times(delta)  # delta's support is supp beta | supp beta*
    pred = float(xd.dot(xd))
    est = float(delta.dot(delta))
    return {"pred": pred, "est": est, "weighted": rho * rho * est - pred}


TRACE_COLUMNS = ("iter", "objective", "fp_residual", "support", "pred_err", "est_err", "weighted_err")


@dataclass
class IterateTrace:
    """Per-iteration records of the solve.

    Error columns (from `error_metrics`) are present only when the problem
    carries beta_star.
    ``flagged`` lists iterations whose thresholding argument came within
    1e-12 of a jump discontinuity of the rule at that iteration's threshold.

    `solve` appends the error columns per recorded row and the rest per
    stacked block, whose rows carry their own iterations and thresholds: the
    pending rows' iteration numbers, fixed-point residuals, support sizes and
    objectives, and the flagged ones among the buffered gradient magnitudes.
    """

    has_errors: bool
    iterations: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    fp_residual: list = field(default_factory=list)
    support: list = field(default_factory=list)
    pred_err: list = field(default_factory=list)
    est_err: list = field(default_factory=list)
    weighted_err: list = field(default_factory=list)
    flagged: list = field(default_factory=list)

    def write_csv(self, dest) -> None:
        """Write the trace; `dest` is a path or a text file object."""
        with _text_out(dest) as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(TRACE_COLUMNS)
            for i in range(len(self.iterations)):
                row = [
                    self.iterations[i],
                    repr(self.objective[i]),
                    repr(self.fp_residual[i]),
                    self.support[i],
                ]
                if self.has_errors:
                    row += [repr(self.pred_err[i]), repr(self.est_err[i]), repr(self.weighted_err[i])]
                else:
                    row += ["", "", ""]
                w.writerow(row)


@contextlib.contextmanager
def _text_out(dest):
    """`dest` itself if it is a text file object, else the file at path `dest`, for writing."""
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", newline="") as f:
            yield f


# ---------------------------------------------------------------------------
# main solve loop
# ---------------------------------------------------------------------------

# recorded rows x (p + n) entries, iterates and residuals, per stacked block
# whose support sizes and objectives are evaluated at once
_BLOCK_ENTRIES = 1 << 16
# buffered gradient magnitudes x (p + 16) entries, the 16 for each row's
# array object, per stacked jump-graze test (32 KB)
_GRAZE_ENTRIES = 1 << 12

@dataclass
class SolveResult:
    beta: np.ndarray
    trace: IterateTrace
    reason: str
    iterations: int
    rho: float
    theta_residual: float
    final_lambda: float | None
    objective: float

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def resolve_rho(problem: Problem, config: SolverConfig) -> float:
    """Concrete rho for a config: auto picks (1 + eps) * ||X||_2, and raises
    `ConfigurationError` when that passes the largest float."""
    if isinstance(config.rho, str):
        rho = (1.0 + config.rho_epsilon) * problem.norm
        if math.isinf(rho):
            raise ConfigurationError(
                f"the design spectral norm overflows: rho='auto' = (1 + {config.rho_epsilon:g})"
                f" * {problem.norm:.6g} passes the largest float")
        return rho
    return float(config.rho)


def solve(problem: Problem, config: SolverConfig, start=None) -> SolveResult:
    """Run the thresholding iteration until the sup-norm of successive
    iterates falls below config.tol at a threshold the schedule, if any,
    holds from then on (`LambdaSchedule.settled`).

    `start` is an initial coefficient vector in the original (unscaled)
    coordinate system; default is zero.  Returns the unscaled estimate,
    the iterate trace, and the termination reason ("converged" or
    "max_iter").  Raises SolverError if iterates or the estimate become non-finite.

    The trace's objective is the one the iteration descends at rho >=
    ||X||_2: 0.5 ||y - Xs beta~||^2 + sum_j P_alpha(|beta~_j|) / alpha,
    P_alpha the penalty (with the configured augmentation) of
    `stepsize_transform`'s rule at Theta's threshold.  At alpha = 1 it is
    f(beta) of the module docstring.

    Per iteration the loop does only what the next one and the stop test
    read: the step, the sup-change, the new iterate's support and residual,
    and the stop test; a recorded row also takes its error columns.
    The rest of the trace is stacked and flushed per block: the pending
    rows' iteration numbers, residuals, support sizes (one count_nonzero)
    and objectives, `_BLOCK_ENTRIES` entries at most, and the untested
    gradient magnitudes, `_GRAZE_ENTRIES` at most, in one row-wise
    `near_jump`.  Each row and magnitude carries its iteration number and the
    threshold it was made under, where it is evaluated: a column under a schedule.
    """
    rule, schedule, alpha = config.rule, config.schedule, config.alpha
    tol, max_iter, record_every = config.tol, config.max_iter, config.record_every
    rho = resolve_rho(problem, config)
    scaled, unscale = scale_problem(problem, rho)
    memo, y = scaled.memo, scaled.y  # the problem's memo, at scale rho
    support, times = memo.support, memo.times
    rule_a, lam_scale = stepsize_transform(rule, alpha)
    pen_spec = pen.PenaltySpec(rule=rule_a, augmentation=config.augmentation)

    trace = IterateTrace(has_errors=problem.beta_star is not None)
    lam_t = rule.lam if schedule is None else schedule.value(0)  # None for ridge and lr
    override = None if lam_t is None else lam_scale * lam_t  # Theta's threshold
    # empty for continuous rules; under a schedule, whose first lambda may be 0, the kind's at lambda 1
    jumps = th.discontinuities(rule_a, override if schedule is None else 1.0)
    pending = []  # (iteration, fp residual, iterate, y - Xs iterate, threshold) per row not yet in the trace
    grazes = []  # (iteration, gradient magnitudes, threshold) per iteration not yet tested
    block_rows = max(1, _BLOCK_ENTRIES // max(problem.p + problem.n, 1))
    graze_rows = max(1, _GRAZE_ENTRIES // (problem.p + 16))
    reason = "max_iter"

    def flush():
        # the buffered gradient magnitudes: one row-wise test at their thresholds' jumps
        if grazes:
            its, zs, lams = zip(*grazes)
            grazes.clear()
            at = jumps if schedule is None else th.discontinuities(rule_a, np.array(lams)[:, None])
            trace.flagged.extend(its[i] for i in np.flatnonzero(th.near_jump(np.array(zs), at, 1e-12)).tolist())
        # the pending rows: their support sizes, and their objectives, one
        # evaluation of rule_a's penalty over alpha on the stacked iterates,
        # each row at the threshold it was recorded under (row sums of a
        # C-contiguous block equal each row's own sum bit for bit), and one
        # stacked 0.5*r @ r (each row's own dot)
        if pending:
            its, res, betas, rs, lams = zip(*pending)
            pending.clear()
            trace.iterations.extend(its)
            trace.fp_residual.extend(res)
            block = np.array(betas)
            trace.support.extend(np.count_nonzero(block, axis=1).tolist())
            lam = lams[0] if schedule is None else np.array(lams)[:, None]  # one per row
            pens = pen._penalty_z(pen_spec, np.abs(block, out=block), lam).sum(axis=1) / alpha
            R = np.array(rs)
            halves = np.matmul((0.5 * R)[:, None, :], R[:, :, None])[:, 0, 0]
            trace.objective.extend((halves + pens).tolist())

    # Overflow and invalid values are not warned about: the step raises
    # SolverError on the first non-finite gradient point or iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        if start is None:
            beta = np.zeros(problem.p)
        else:
            beta = rho * np.asarray(start, dtype=float)
            if beta.shape != (problem.p,):
                raise ValueError(f"start has shape {beta.shape}, expected ({problem.p},)")
        nz = support(beta)  # found once per iterate, for both products
        r = y - times(beta, nz)  # residual of the current iterate, one per iterate
        for it in range(1, max_iter + 1):
            if schedule is not None:
                override = lam_scale * schedule.value(it - 1)

            z, beta_new = _step(beta, r, nz, memo, alpha, rule_a, override, it)
            if jumps:
                grazes.append((it, z, override))
                if len(grazes) >= graze_rows:
                    flush()
            fp_res = _sup_change(beta_new, beta, z, it)
            beta = beta_new
            nz = support(beta)
            r = y - (memo.Xs.dot(beta) if nz is None else times(beta, nz))  # as in _step

            # converged: within tol at a threshold the schedule no longer lowers
            done = fp_res <= tol and (schedule is None or schedule.settled(it - 1))
            if it % record_every == 0 or done or it == max_iter:
                if trace.has_errors:
                    errs = error_metrics(unscale(beta), problem, rho)
                    trace.pred_err.append(errs["pred"])
                    trace.est_err.append(errs["est"])
                    trace.weighted_err.append(errs["weighted"])
                pending.append((it, fp_res, beta, r, override))
                if len(pending) >= block_rows:
                    flush()

            if done:
                reason = "converged"
                break
        flush()

        # fixed-point residual at the final iterate, at the final threshold
        z, theta_v = _step(beta, r, nz, memo, alpha, rule_a, override, it)
        theta_res = _sup_change(theta_v, beta, z, it)
        estimate = unscale(beta)
    if not np.isfinite(estimate).all():  # a finite iterate over a tiny rho
        raise SolverError(f"non-finite estimate: the iterate over rho={rho:.6g} passes the float range; "
                          "check the scaling of X and y")
    return SolveResult(
        beta=estimate,
        trace=trace,
        reason=reason,
        iterations=it,
        rho=rho,
        theta_residual=theta_res,
        final_lambda=lam_t if schedule is None else schedule.value(it - 1),
        objective=trace.objective[-1],  # the last iteration is always recorded
    )


# ---------------------------------------------------------------------------
# diagnostics and helpers
# ---------------------------------------------------------------------------

def theory_threshold(sigma: float, p: int, a_const: float = 1.0) -> float:
    """Noise-calibrated threshold A * sigma * sqrt(log(e*p))."""
    if sigma < 0 or p < 1:
        raise ValueError("need sigma >= 0 and p >= 1")
    return a_const * sigma * math.sqrt(1.0 + math.log(p))


def t_max_estimate(rho: float, beta0_error: float, sigma: float, lam: float,
                   j_star: int, kappa: float, max_iter: int = 10000) -> int:
    """Iterations to bring the geometric error term below the noise floor.

    ceil( log(rho^2 * beta0_error / (sigma^2 lam^2 J*)) / log(1/kappa) ),
    clamped to [1, max_iter].
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    if min(beta0_error, sigma, lam) <= 0 or j_star < 1 or rho <= 0:
        raise ValueError("rho, beta0_error, sigma, lam must be > 0 and j_star >= 1")
    ratio = rho**2 * beta0_error / (sigma**2 * lam**2 * j_star)
    if ratio <= 1.0:
        return 1
    t = math.log(ratio) / math.log(1.0 / kappa)
    return int(min(max(math.ceil(t), 1), max_iter))


def triangle_inequality_check(beta_t, beta_t1, probe, scaled_problem: Problem, spec) -> float:
    """Slack of the iteration triangle inequality at a probe point.

    For one step beta_t -> beta_t1 of the scaled iteration and any probe b:

        (1-L)/2 ||beta_t1 - b||^2 + 1/2 ||beta_t1 - beta_t||_W^2
            <= 1/2 ||beta_t - b||_W^2 + f(b) - f(beta_t1),

    with W = I - Xs'Xs and f = `penalty.energy` at rho = 1.  Returns rhs - lhs
    (nonnegative up to roundoff when ||Xs||_2 <= 1).
    """
    spec = pen._as_spec(spec)
    Xs = scaled_problem.X
    beta_t = np.asarray(beta_t, dtype=float)
    beta_t1 = np.asarray(beta_t1, dtype=float)
    probe = np.asarray(probe, dtype=float)
    L = spec.rule.contraction

    def wnorm2(v):
        xv = Xs @ v
        return float(v @ v - xv @ xv)

    lhs = 0.5 * (1.0 - L) * float((beta_t1 - probe) @ (beta_t1 - probe)) + 0.5 * wnorm2(beta_t1 - beta_t)
    rhs = (0.5 * wnorm2(beta_t - probe) + pen.energy(spec, scaled_problem, probe, 1.0)
           - pen.energy(spec, scaled_problem, beta_t1, 1.0))
    return rhs - lhs


def gaussian_starts(problem: Problem, n_starts: int, seed: int = 0):
    """Random starts: the least-squares pilot plus Gaussian noise at its RMS entry + 0.01."""
    pilot = np.linalg.lstsq(problem.X, problem.y, rcond=None)[0]
    scale = np.linalg.norm(pilot) / math.sqrt(max(problem.p, 1)) + 1e-2
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    return [pilot + scale * rng.standard_normal(problem.p) for _ in range(n_starts)]
