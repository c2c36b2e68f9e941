"""Fixed-point solver for thresholding-penalized least squares.

The estimator solves rho*beta = Theta(rho*beta + X'y/rho - X'X beta/rho; lambda)
by iterating the scaled map beta~ <- Theta(beta~ + Xs'(y - Xs beta~); lambda)
with Xs = X/rho.  With rho >= ||X||_2 the scaled design has unit spectral
norm and every iteration decreases the objective

    f(beta) = 0.5*||X beta - y||^2 + sum_j P(rho*|beta_j|; lambda).

A Problem holds one copy of X and one `SupportMemo` (defined here), which
takes every product with X or X/rho and is shared by the problem's solves at
any rho, as they apply 1/rho to vectors; X/rho is built only for a dense
product.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
from dataclasses import dataclass, field, replace

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
    """Design X (n x p), response y (n,), optional ground truth and noise scale."""

    X: np.ndarray
    y: np.ndarray
    beta_star: np.ndarray | None = None
    sigma: float | None = None

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
        if self.sigma is not None and (not math.isfinite(self.sigma) or self.sigma < 0):
            raise ValueError("sigma must be finite and >= 0")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "beta_star", bs)

    @classmethod
    def _own(cls, X, y, beta_star=None, sigma=None) -> "Problem":
        """`Problem(...)` on arrays nothing else holds: checked, frozen in place, not copied."""
        prob = object.__new__(cls)
        prob.__dict__.update(X=X, y=y, beta_star=beta_star, sigma=sigma)
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
    """`scale_problem`'s Problem(X/rho, y, rho*beta*, sigma): its memo is the
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
            return self.Xs @ b
        return (b[nz] / self.rho) @ (self._store or self)._rows(nz)

    def gradient(self, b, r, nz=_SCAN) -> np.ndarray:
        """(X/rho)'r at the residual r = y - self.times(b); `nz` as in `times`."""
        if nz is _SCAN:
            nz = self.support(b)
        if nz is None:
            return self.Xs.T @ r
        store = self._store or self
        if store._xty is None:
            store._xty = self.X.T @ self.y
        return (store._xty - (b[nz] / self.rho) @ store._rows(nz, gram=True)) / self.rho


# ---------------------------------------------------------------------------
# threshold schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSchedule:
    """Per-iteration threshold sequence.

    Modes: ``constant`` (lam), ``geometric`` (lam0 * factor^t floored at
    ``floor``), ``explicit`` (listed values, last one held).
    """

    mode: str
    lam: float | None = None
    lam0: float | None = None
    factor: float | None = None
    floor: float | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def constant(cls, lam: float) -> "LambdaSchedule":
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError("constant schedule needs lam >= 0")
        return cls(mode="constant", lam=float(lam))

    @classmethod
    def geometric(cls, lam0: float, factor: float, floor: float) -> "LambdaSchedule":
        if not (math.isfinite(lam0) and lam0 >= 0):
            raise ValueError("geometric schedule needs lam0 >= 0")
        if not (0.0 < factor < 1.0):
            raise ValueError("geometric schedule needs factor in (0, 1)")
        if not (math.isfinite(floor) and 0.0 <= floor <= lam0):
            raise ValueError("geometric schedule needs 0 <= floor <= lam0")
        return cls(mode="geometric", lam0=float(lam0), factor=float(factor), floor=float(floor))

    @classmethod
    def explicit(cls, values) -> "LambdaSchedule":
        vals = tuple(float(v) for v in values)
        if not vals or any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValueError("explicit schedule needs one or more values >= 0")
        return cls(mode="explicit", values=vals)

    def value(self, t: int) -> float:
        """Threshold for iteration t (0-based)."""
        if self.mode == "constant":
            return self.lam
        if self.mode == "geometric":
            return max(self.lam0 * self.factor**t, self.floor)
        return self.values[min(t, len(self.values) - 1)]


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
    """Rule whose induced penalty equals alpha times the original one.

    Returns ``(rule_alpha, lam_scale)`` where the transformed threshold is
    ``lam_scale * lam``.  Only rule families closed under this scaling are
    supported; scad and lr reject alpha < 1.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigurationError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return rule, 1.0
    kind = rule.kind
    if kind == "soft":
        return rule.with_lambda(alpha * rule.lam), alpha
    if kind == "hard":
        s = math.sqrt(alpha)
        return rule.with_lambda(s * rule.lam), s
    if kind == "mcp":
        out = replace(rule, lam=alpha * rule.lam, gamma=rule.gamma / alpha)
        return out, alpha
    if kind == "ridge":
        return replace(rule, eta=alpha * rule.eta), 1.0
    if kind in ("elastic-net", "berhu"):
        out = replace(rule, lam=alpha * rule.lam, eta=alpha * rule.eta)
        return out, alpha
    if kind == "hard-ridge":
        s = math.sqrt(alpha * (1.0 + alpha * rule.eta) / (1.0 + rule.eta))
        out = replace(rule, lam=s * rule.lam, eta=alpha * rule.eta)
        return out, s
    raise ConfigurationError(f"stepsize alpha < 1 is not supported for rule {kind!r}")


# ---------------------------------------------------------------------------
# spectral norm and scaling
# ---------------------------------------------------------------------------

def spectral_norm(X) -> float:
    """Largest singular value of X by power iteration on the smaller Gram matrix.

    Stops once the eigenvalue estimate moves by at most 1e-8 relative (after
    at least 11 and at most 50000 steps).  Deterministic: the start vector
    comes from the generator seeded with 0.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0 or not np.any(X):
        return 0.0
    n, p = X.shape
    A = X.T @ X if p <= n else X @ X.T
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for k in range(50000):
        w = A @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
        if k >= 10 and abs(lam - lam_prev) <= 1e-8 * lam:
            break
        lam_prev = lam
    return math.sqrt(lam)


def scale_problem(problem: Problem, rho: float):
    """Return (scaled problem with design X/rho, unscale map for coefficients).

    It shares the problem's support memo and builds X/rho on first use.
    Refuses rho below ||X||_2: the scaled design must satisfy ||X/rho||_2 <= 1
    for the iteration's objective-descent guarantee.
    """
    norm = problem.norm
    if not (math.isfinite(rho) and rho > 0):
        raise ConfigurationError("rho must be positive and finite")
    if rho < norm * (1.0 - 1e-9):
        raise ConfigurationError(
            f"rho={rho:.6g} is below the design spectral norm {norm:.6g}; "
            "objective descent requires rho >= ||X||_2"
        )
    bstar = None
    if problem.beta_star is not None:
        with np.errstate(over="ignore"):  # beta_star is finite: only the product can overflow
            bstar = rho * problem.beta_star
        if not np.all(np.isfinite(bstar)):
            raise ConfigurationError(f"rho*beta_star overflows at rho={rho:.6g}")
        bstar.flags.writeable = False
    # X/rho is finite: |x_ij| <= ||X||_2 <= rho * (1 + 1e-9)
    scaled = object.__new__(_ScaledProblem)
    scaled.__dict__.update(y=problem.y, beta_star=bstar, sigma=problem.sigma,
                           memo=SupportMemo(problem.X, problem.y, rho, problem.memo))

    def unscale(beta_scaled):
        return np.asarray(beta_scaled, dtype=float) / rho

    return scaled, unscale


def tisp_step(beta, scaled_problem: Problem, rule: th.ThresholdRule,
              lam: float | None = None, alpha: float = 1.0) -> np.ndarray:
    """One iteration beta <- Theta(beta + alpha * Xs'(y - Xs beta); lam_alpha).

    Operates in the scaled coordinate system (design Xs with norm <= 1).
    ``lam`` overrides the rule's threshold for this step; the alpha
    adjustment of the threshold is applied internally.
    """
    beta = np.asarray(beta, dtype=float)
    p = scaled_problem.p
    if beta.shape != (p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({p},)")
    rule_a, lam_scale = stepsize_transform(rule, alpha)
    lam = th.rule_lambda(rule_a, None if lam is None else lam_scale * float(lam))
    memo = scaled_problem.memo
    nz = memo.support(beta)
    with np.errstate(over="ignore", invalid="ignore"):  # _step reports non-finite values
        r = scaled_problem.y - memo.times(beta, nz)
        z, beta_new = _step(beta, r, nz, memo, alpha, rule_a, lam)
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
    g = memo.Xs.T @ r if nz is None else memo.gradient(beta, r, nz)  # dense: one call fewer
    v = beta + (g if alpha == 1.0 else alpha * g)  # 1.0 * g == g: skip the multiply
    z = np.abs(v)
    if z.size and not math.isfinite(np.maximum.reduce(z)):
        raise _nonfinite(it, z)
    return z, th._theta(rule_a, v, z, lam)


def _sup_change(beta_new, beta, z, it):
    """||beta_new - beta||_inf; SolverError when beta_new is not finite.  A
    non-finite beta_new makes the sup non-finite, so only then is it scanned."""
    res = float(np.maximum.reduce(np.abs(beta_new - beta))) if beta.size else 0.0
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
    pred = float(xd @ xd)
    est = float(delta @ delta)
    return {"pred": pred, "est": est, "weighted": rho * rho * est - pred}


TRACE_COLUMNS = ("iter", "objective", "fp_residual", "support", "pred_err", "est_err", "weighted_err")


@dataclass
class IterateTrace:
    """Per-iteration records of the solve.

    Error columns (from `error_metrics`) are present only when the problem
    carries beta_star.
    ``flagged`` lists iterations whose thresholding argument came within
    1e-12 of a jump discontinuity of the rule.
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

    def record(self, t, res, supp, errs):
        """One row, all but its objective, which `solve` appends per block."""
        self.iterations.append(int(t))
        self.fp_residual.append(float(res))
        self.support.append(int(supp))
        if self.has_errors:
            self.pred_err.append(errs["pred"])
            self.est_err.append(errs["est"])
            self.weighted_err.append(errs["weighted"])

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
# whose objectives are evaluated at once
_BLOCK_ENTRIES = 1 << 16

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
    """Concrete rho for a config: auto picks (1 + eps) * ||X||_2."""
    if isinstance(config.rho, str):
        return (1.0 + config.rho_epsilon) * problem.norm
    return float(config.rho)


def solve(problem: Problem, config: SolverConfig, start=None) -> SolveResult:
    """Run the thresholding iteration until the sup-norm of successive
    iterates falls below config.tol.

    `start` is an initial coefficient vector in the original (unscaled)
    coordinate system; default is zero.  Returns the unscaled estimate,
    the iterate trace, and the termination reason ("converged" or
    "max_iter").  Raises SolverError if iterates become non-finite.
    """
    rule, schedule, alpha = config.rule, config.schedule, config.alpha
    tol, max_iter, record_every = config.tol, config.max_iter, config.record_every
    rho = resolve_rho(problem, config)
    scaled, unscale = scale_problem(problem, rho)
    memo, y = scaled.memo, scaled.y  # the problem's memo, at scale rho
    support, times = memo.support, memo.times
    rule_a, lam_scale = stepsize_transform(rule, alpha)
    pen_spec = pen.PenaltySpec(rule=rule, augmentation=config.augmentation)

    trace = IterateTrace(has_errors=problem.beta_star is not None)
    lam_t = rule.lam if schedule is None else schedule.value(0)  # None for ridge and lr
    override = None if lam_t is None else lam_scale * lam_t  # Theta's threshold
    jumps = th.discontinuities(rule_a, override)  # empty for continuous rules
    pending = []  # (iterate, residual) per recorded row still without its objective
    block_rows = max(1, _BLOCK_ENTRIES // max(problem.p + problem.n, 1))
    reason = "max_iter"

    def flush():
        # the pending rows' objectives: one penalty evaluation on the stacked
        # iterates, at the threshold they were recorded under (row sums of a
        # C-contiguous block equal each row's own sum bit for bit), and one
        # stacked 0.5*r @ r (each row's own dot)
        if pending:
            block = np.abs(np.array([b for b, _ in pending]))
            pens = pen._penalty_z(pen_spec, block, th.rule_lambda(rule, lam_t)).sum(axis=1)
            R = np.array([r for _, r in pending])
            halves = np.matmul((0.5 * R)[:, None, :], R[:, :, None])[:, 0, 0]
            trace.objective.extend(float(q + s) for q, s in zip(halves, pens))
            pending.clear()

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
                lam_next = schedule.value(it - 1)
                if lam_next != lam_t:
                    flush()
                    lam_t = lam_next
                    override = lam_scale * lam_t
                    jumps = th.discontinuities(rule_a, override)

            z, beta_new = _step(beta, r, nz, memo, alpha, rule_a, override, it)
            if jumps and th.near_jump(z, jumps, 1e-12):
                trace.flagged.append(it)
            fp_res = _sup_change(beta_new, beta, z, it)
            beta = beta_new
            nz = support(beta)
            r = y - (memo.Xs @ beta if nz is None else times(beta, nz))  # as in _step
            done = fp_res <= tol or it == max_iter

            if it % record_every == 0 or done:
                errs = error_metrics(unscale(beta), problem, rho) if trace.has_errors else None
                trace.record(it, fp_res, int(np.count_nonzero(beta)), errs)
                pending.append((beta, r))
                if len(pending) >= block_rows:
                    flush()

            if fp_res <= tol:
                reason = "converged"
                break
        flush()

        # fixed-point residual at the final iterate, at the final threshold
        z, theta_v = _step(beta, r, nz, memo, alpha, rule_a, override, it)
        theta_res = _sup_change(theta_v, beta, z, it)
    return SolveResult(
        beta=unscale(beta),
        trace=trace,
        reason=reason,
        iterations=it,
        rho=rho,
        theta_residual=theta_res,
        final_lambda=lam_t,
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

    with W = I - Xs'Xs and f the scaled objective.  Returns rhs - lhs
    (nonnegative up to roundoff when ||Xs||_2 <= 1).
    """
    spec = pen._as_spec(spec)
    Xs, y = scaled_problem.X, scaled_problem.y
    beta_t = np.asarray(beta_t, dtype=float)
    beta_t1 = np.asarray(beta_t1, dtype=float)
    probe = np.asarray(probe, dtype=float)
    L = spec.rule.contraction

    def wnorm2(v):
        xv = Xs @ v
        return float(v @ v - xv @ xv)

    def f(b):
        return pen._objective(spec, Xs @ b - y, b)

    lhs = 0.5 * (1.0 - L) * float((beta_t1 - probe) @ (beta_t1 - probe)) + 0.5 * wnorm2(beta_t1 - beta_t)
    rhs = 0.5 * wnorm2(beta_t - probe) + f(probe) - f(beta_t1)
    return rhs - lhs


def gaussian_starts(problem: Problem, n_starts: int, seed: int = 0, spread: float = 1.0):
    """Random starts: Gaussian perturbations of a least-squares pilot."""
    pilot = np.linalg.lstsq(problem.X, problem.y, rcond=None)[0]
    scale = spread * (np.linalg.norm(pilot) / math.sqrt(max(problem.p, 1)) + 1e-2)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    return [pilot + scale * rng.standard_normal(problem.p) for _ in range(n_starts)]
