"""Solver: scaling, fixed points, descent, stepsizes, schedules, traces."""

import dataclasses
import io
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tisp.solver
from tisp.penalty import PenaltySpec, energy, penalty_theta
from tisp.simulate import ExperimentSpec, gen_design
from tisp.solver import (
    ConfigurationError,
    LambdaSchedule,
    Problem,
    SolverConfig,
    SolverError,
    TRACE_COLUMNS,
    error_metrics,
    gaussian_starts,
    parse_schedule,
    resolve_rho,
    scale_problem,
    solve,
    spectral_norm,
    stepsize_transform,
    t_max_estimate,
    theory_threshold,
    tisp_step,
    triangle_inequality_check,
)
from tisp.thresholding import LAMBDA_KINDS, discontinuities, near_jump, parse_rule, rule_catalog


def at_lambda(r, lam):
    """The rule at threshold lam; ridge and lr, whose lam is None, as they are."""
    return r if lam is None else r.with_lambda(lam)


def rule(text):
    return parse_rule(text, require_lambda=False)


def random_problem(seed, n=12, p=30, y_scale=4.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) / math.sqrt(n)
    y = y_scale * rng.standard_normal(n)
    return Problem(X, y)


def csv_text(trace):
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# spectral norm and scaling
# ---------------------------------------------------------------------------

def test_spectral_norm_against_svd():
    rng = np.random.default_rng(0)
    for shape in [(20, 50), (50, 20), (7, 7)]:
        X = rng.standard_normal(shape)
        exact = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(X) == pytest.approx(exact, rel=1e-6)


def test_spectral_norm_special_cases():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)
    assert spectral_norm(np.zeros((4, 2))) == 0.0
    assert spectral_norm(np.diag([1.0, 5.0, 2.0])) == pytest.approx(5.0, rel=1e-9)
    col = np.array([[3.0], [4.0]])
    assert spectral_norm(col) == pytest.approx(5.0, rel=1e-9)


def power_reference(X):
    # the one-step power iteration `spectral_norm` ran before it squared the
    # Gram and scaled it by a power of two: (estimate, steps taken)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    A = X.T @ X if p <= n else X @ X.T
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for k in range(50000):
        w = A @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0, k + 1
        v = w / lam
        if k >= 10 and abs(lam - lam_prev) <= 1e-8 * lam:
            break
        lam_prev = lam
    return math.sqrt(lam), k + 1


def gap_designs(gaps, seed, n=200, p=300):
    # n x p (n <= p) with singular values 1, 1 - gap and the rest in [0, 0.9)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((p, n)))[0]
    rest = 0.9 * rng.random(n - 2)
    return {gap: (U * np.concatenate([[1.0, 1.0 - gap], rest])) @ V.T for gap in gaps}


def norm_panel():
    rng = np.random.default_rng(7)
    panel = {f"gaussian{shape}": rng.standard_normal(shape)
             for shape in [(60, 20), (20, 60), (1, 1), (150, 150)]}
    panel["diag"] = np.diag([1.0, 5.0, 2.0, 4.9])
    panel["rank-deficient"] = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 50))
    for gap, X in gap_designs((1e-3, 1e-4, 1e-5, 1e-6), 3).items():
        panel[f"gap{gap:g}"] = X
    ar1 = ExperimentSpec(ensemble="gaussian-ar1", n=120, p=80, J_star=5, rho_corr=0.9)
    panel["gaussian-ar1"] = gen_design(ar1, 4)
    decay = ExperimentSpec(ensemble="gaussian-iid", n=400, p=200, J_star=5)
    for seed in range(20):  # the acceptance decay designs
        panel[f"decay{seed}"] = gen_design(decay, seed)
    return panel


def over_budget_panel():
    # designs whose Gram holds more than 2**19 floats
    panel = {f"gaussian1000x2000-{seed}": np.random.default_rng(seed).standard_normal((1000, 2000))
             for seed in range(3)}
    ar1 = ExperimentSpec(ensemble="gaussian-ar1", n=900, p=1200, J_star=5, rho_corr=0.9)
    panel["gaussian-ar1"] = gen_design(ar1, 0)
    rng = np.random.default_rng(1)
    panel["orthonormal"] = np.linalg.qr(rng.standard_normal((1000, 800)))[0]
    panel["rank-deficient"] = rng.standard_normal((800, 50)) @ rng.standard_normal((50, 900))
    for gap, X in gap_designs([10.0 ** -i for i in range(2, 9)], 3, 800, 1000).items():
        panel[f"gap{gap:g}"] = X
    return panel


def assert_agrees_with_the_reference_loop(panel):
    # the same stop step, and only rounding between the estimates
    for name, X in panel.items():
        ref, steps = power_reference(X)
        norm, got_steps = tisp.solver._norm_and_steps(X)
        assert got_steps == steps, name
        assert abs(norm - ref) <= 4 * np.spacing(ref), name


def test_spectral_norm_lanczos_replay_agrees_with_the_reference_loop(monkeypatch):
    monkeypatch.setattr(tisp.solver, "_GRAM_SQUARE_ENTRIES", 0)
    assert_agrees_with_the_reference_loop(norm_panel())


def test_spectral_norm_lanczos_replay_over_the_budget_agrees_with_the_reference_loop():
    panel = over_budget_panel()
    assert all(min(X.shape) ** 2 > tisp.solver._GRAM_SQUARE_ENTRIES for X in panel.values())
    assert_agrees_with_the_reference_loop(panel)


def test_spectral_norm_lanczos_replay_ends_at_the_order_of_the_gram(monkeypatch):
    # with no replay due before it, the run ends at j = m, where exact
    # arithmetic breaks down; without that bound it ran on to 50000 steps
    monkeypatch.setattr(tisp.solver, "_GRAM_SQUARE_ENTRIES", 0)
    monkeypatch.setattr(tisp.solver, "_REPLAY_EVERY", 10 ** 9)
    assert_agrees_with_the_reference_loop(norm_panel())


def test_spectral_norm_squared_path_agrees_with_the_reference_loop():
    # B = A A takes two steps a product
    panel = norm_panel()
    assert all(min(X.shape) ** 2 <= tisp.solver._GRAM_SQUARE_ENTRIES for X in panel.values())
    assert_agrees_with_the_reference_loop(panel)


@pytest.mark.parametrize("budget", [0, 1 << 19])
def test_spectral_norm_is_exact_under_power_of_two_scaling(monkeypatch, budget):
    # an overflowing or underflowing |A v|^2 read 0.0; the suite turns the
    # RuntimeWarning an overflow raises into an error
    monkeypatch.setattr(tisp.solver, "_GRAM_SQUARE_ENTRIES", budget)
    X = np.random.default_rng(5).standard_normal((30, 20))
    norm = spectral_norm(X)
    for c in (2.0 ** 300, 2.0 ** -300):
        assert spectral_norm(c * X) == c * norm
    assert spectral_norm(1e-100 * np.eye(3)) == pytest.approx(1e-100, rel=1e-15)
    assert spectral_norm(1e100 * np.eye(3)) == pytest.approx(1e100, rel=1e-15)
    with pytest.raises(ConfigurationError, match="below the design spectral norm"):
        scale_problem(Problem(1e100 * np.eye(3), np.ones(3)), 1.0)


@pytest.mark.parametrize("budget", [0, 1 << 19])
def test_spectral_norm_of_designs_whose_gram_leaves_the_floats(monkeypatch, budget):
    # beyond about 1e+-154 the Gram over- or underflows before it is scaled:
    # it read nan at 2**520 and 0.0 at 2**-560; a non-finite X read nan
    # after 25,000 products
    monkeypatch.setattr(tisp.solver, "_GRAM_SQUARE_ENTRIES", budget)
    X = np.random.default_rng(5).standard_normal((30, 20))
    norm = spectral_norm(X)
    for c in (2.0 ** 520, 2.0 ** -520, 2.0 ** -560):
        assert spectral_norm(c * X) == c * norm
    assert spectral_norm(np.full((2, 2), 1e308)) == math.inf  # 2e308
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="X must be finite"):
            spectral_norm(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ConfigurationError, match="below the design spectral norm"):
        scale_problem(Problem(2.0 ** 520 * X, np.ones(30)), 1.0)


def test_spectral_norm_squares_the_gram_only_within_its_memory_budget():
    # B = A A doubles the memory the norm takes: 2 Grams under the budget,
    # one Gram over it
    rng = np.random.default_rng(2)
    for shape, grams in [((800, 1000), 1.1), ((600, 700), 2.1)]:
        X = rng.standard_normal(shape)
        gram_bytes = 8 * min(shape) ** 2
        tracemalloc.start()
        try:
            spectral_norm(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grams * gram_bytes, (shape, peak / gram_bytes)


def test_dot_spellings_give_the_matmul_bits():
    # the solve loop, the memo's over-support products, error_metrics and
    # the norm's loops spell their products .dot / np.dot(out=), which make
    # the BLAS call `@` makes without the matmul ufunc's dispatch; a numpy
    # that split the two would fail here first
    rng = np.random.default_rng(25)
    for _ in range(20):
        Xs = rng.standard_normal((13, 10)) / 3.7
        b, r = rng.standard_normal(10), rng.standard_normal(13)
        assert Xs.dot(b).tobytes() == (Xs @ b).tobytes()
        assert r.dot(Xs).tobytes() == (Xs.T @ r).tobytes()
        assert float(b.dot(b)) == float(b @ b)
        for k in (1, 5):  # gathered column copies (k x n) and Gram rows (k x p)
            for rows in (rng.standard_normal((k, 13)), rng.standard_normal((k, 3000))):
                u = rng.standard_normal(k)
                assert u.dot(rows).tobytes() == (u @ rows).tobytes()
    G = rng.standard_normal((40, 1000))
    A = G.T @ G  # a Gram of order 1000, over the squaring budget
    for M in (A, A[:300, :300] @ A[:300, :300]):  # and a squared Gram B = A A
        v = rng.standard_normal(len(M))
        got, want = np.empty_like(v), np.empty_like(v)
        np.dot(M, v, out=got)
        np.matmul(M, v, out=want)
        assert got.tobytes() == want.tobytes()


def test_scale_problem_roundtrip_and_refusal():
    prob = random_problem(1, n=10, p=4, y_scale=1.0)
    norm = spectral_norm(prob.X)
    scaled, unscale = scale_problem(prob, 2.0 * norm)
    assert spectral_norm(scaled.X) == pytest.approx(0.5, rel=1e-6)
    beta = np.array([1.0, -2.0, 0.0, 3.0])
    assert np.allclose(unscale(2.0 * norm * beta), beta, atol=1e-14)
    with pytest.raises(ConfigurationError, match="spectral norm"):
        scale_problem(prob, 0.5 * norm)


def test_scale_problem_scales_beta_star():
    X = np.eye(3)
    bstar = np.array([1.0, 2.0, 3.0])
    prob = Problem(X, X @ bstar, beta_star=bstar)
    scaled, _ = scale_problem(prob, 2.0)
    assert np.allclose(scaled.beta_star, 2.0 * bstar)


def test_scale_problem_reports_an_overflowing_beta_star():
    # a finite beta_star whose scaled value overflows is blamed on the
    # product, without a numpy warning ahead of the error
    X = np.diag([4.0, 1.0])
    prob = Problem(X, np.zeros(2), beta_star=np.array([1e308, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigurationError, match=r"rho\*beta_star overflows"):
            scale_problem(prob, 1.01 * prob.norm)
        with pytest.raises(ConfigurationError, match=r"rho\*beta_star overflows"):
            solve(prob, SolverConfig(rule=rule("soft(lambda=1)")))


def test_resolve_rho():
    prob = random_problem(2, n=8, p=3, y_scale=1.0)
    norm = spectral_norm(prob.X)
    cfg = SolverConfig(rule=rule("soft(lambda=1)"), rho_epsilon=0.25)
    assert resolve_rho(prob, cfg) == pytest.approx(1.25 * norm, rel=1e-9)
    cfg2 = SolverConfig(rule=rule("soft(lambda=1)"), rho=7.5)
    assert resolve_rho(prob, cfg2) == 7.5


def test_auto_rho_blames_an_overflowing_design_norm():
    # a finite design whose norm, or (1 + eps) times it, passes the largest
    # float: rho="auto" names the norm, an explicit rho keeps its message
    soft = rule("soft(lambda=1)")
    for X in (np.full((2, 2), 1e308), np.full((2, 2), 0.89e308)):
        prob = Problem(X, np.ones(2))
        with pytest.raises(ConfigurationError, match="design spectral norm overflows"):
            solve(prob, SolverConfig(rule=soft))
        with pytest.raises(ConfigurationError, match="design spectral norm overflows"):
            resolve_rho(prob, SolverConfig(rule=soft))
    with pytest.raises(ConfigurationError, match="below the design spectral norm inf"):
        solve(Problem(np.full((2, 2), 1e308), np.ones(2)), SolverConfig(rule=soft, rho=1.7e308))


def test_problem_norm_is_the_cached_spectral_norm(norm_calls):
    prob = random_problem(3, n=9, p=14)
    assert prob.norm == prob.norm
    assert norm_calls == [(9, 14)]  # computed on the first read only
    assert prob.norm == spectral_norm(prob.X)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.norm = 1.0


def test_auto_rho_solves_share_one_norm(norm_calls):
    prob = random_problem(4, n=10, p=6)
    cfg = SolverConfig(rule=rule("soft(lambda=0.5)"))
    first = solve(prob, cfg)
    second = solve(prob, SolverConfig(rule=rule("hard(lambda=0.5)")))
    assert norm_calls == [(10, 6)]
    assert first.rho == second.rho == 1.01 * prob.norm
    solve(prob, SolverConfig(rule=rule("soft(lambda=0.5)"), rho=2.0 * prob.norm))
    assert len(norm_calls) == 1


def test_scale_problem_guards_rho_at_the_norm():
    prob = random_problem(7, n=8, p=5)
    with pytest.raises(ConfigurationError, match="spectral norm"):
        scale_problem(prob, prob.norm * (1.0 - 2e-9))
    scaled, _ = scale_problem(prob, prob.norm)
    assert np.array_equal(scaled.X, prob.X / prob.norm)


def test_scaled_view_takes_any_positive_rho_without_a_norm(norm_calls):
    # the oracles' view of the problem at scale rho: no norm guard, so no norm
    prob = random_problem(8, n=8, p=5)
    scaled = tisp.solver._scaled(prob, 0.25)
    assert norm_calls == []
    assert np.array_equal(scaled.X, prob.X / 0.25)
    assert scaled.y is prob.y
    for rho in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="rho must be positive and finite"):
            tisp.solver._scaled(prob, rho)


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

def test_problem_validation():
    X = np.eye(2)
    with pytest.raises(ValueError):
        Problem(X, np.zeros(3))
    with pytest.raises(ValueError):
        Problem(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        Problem(X, np.zeros(2), beta_star=np.zeros(3))


def test_problem_arrays_are_frozen():
    prob = Problem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        prob.X[0, 0] = 5.0


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_scalar_fixed_point():
    # X=1, y=3, soft threshold 1 at rho=1: beta = soft(beta + (3 - beta)) = 2
    prob = Problem(np.array([[1.0]]), np.array([3.0]))
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=1)"), rho=1.0))
    assert res.converged
    assert res.beta[0] == pytest.approx(2.0, abs=1e-12)
    assert res.theta_residual <= 1e-12
    assert res.objective == pytest.approx(2.5, abs=1e-12)
    assert res.rho == 1.0


def test_zero_response_gives_zero():
    prob = random_problem(3)
    prob = Problem(prob.X, np.zeros(prob.n))
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=0.5)")))
    assert res.converged
    assert np.array_equal(res.beta, np.zeros(prob.p))
    assert res.iterations == 1


def test_orthonormal_soft_solve_is_componentwise():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 10)))
    bstar = np.zeros(10)
    bstar[:3] = [4.0, -3.0, 2.0]
    y = Q @ bstar + 0.1 * rng.standard_normal(30)
    prob = Problem(Q, y)
    lam = 0.7
    res = solve(prob, SolverConfig(rule=rule(f"soft(lambda={lam})"), rho=1.0, tol=1e-12))
    z = Q.T @ y
    expected = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    assert res.converged
    assert np.max(np.abs(res.beta - expected)) <= 1e-10


def test_converged_solves_satisfy_theta_equation():
    from tisp.oracle import check_theta_equation

    for seed, r in enumerate(rule_catalog(lam=0.7, eta=0.5, gamma=2.5)):
        prob = random_problem(30 + seed, n=20, p=12, y_scale=3.0)
        cfg = SolverConfig(rule=r, tol=1e-9)
        res = solve(prob, cfg)
        assert res.converged, r.kind
        assert res.theta_residual <= 10 * cfg.tol, r.kind
        if r.kind not in ("ridge", "lr"):
            rep = check_theta_equation(res.beta, prob, r, rho=res.rho, tol=10 * cfg.tol)
            assert rep.residual == pytest.approx(res.theta_residual, abs=1e-12)


def test_explicit_rho_below_norm_is_refused():
    prob = random_problem(5)
    cfg = SolverConfig(rule=rule("soft(lambda=1)"), rho=1e-3)
    with pytest.raises(ConfigurationError, match="descent"):
        solve(prob, cfg)


# ---------------------------------------------------------------------------
# objective descent at valid rho
# ---------------------------------------------------------------------------

def test_objective_descends_for_every_rule_at_auto_rho():
    for r in rule_catalog(lam=0.7, eta=0.5, gamma=2.5):
        for seed in range(3):
            prob = random_problem(100 + seed)
            res = solve(prob, SolverConfig(rule=r, max_iter=60, tol=1e-13))
            objs = res.trace.objective
            assert len(objs) >= 2
            rises = [(b - a) / (1.0 + abs(a)) for a, b in zip(objs, objs[1:])]
            assert max(rises) <= 1e-10, r.kind


def test_tisp_step_is_hard_thresholded_gradient():
    prob = random_problem(6, n=10, p=5, y_scale=2.0)
    scaled, _ = scale_problem(prob, 1.1 * spectral_norm(prob.X))
    beta = np.array([0.5, -1.0, 0.0, 2.0, 0.1])
    r = rule("hard(lambda=0.6)")
    v = beta + scaled.X.T @ (scaled.y - scaled.X @ beta)
    expected = np.where(np.abs(v) > 0.6, v, 0.0)
    assert np.array_equal(tisp_step(beta, scaled, r), expected)


def test_support_memo_is_transparent_to_tisp_step():
    # a scaled problem whose memo has held other supports, and has been
    # cleared at its cap, steps to the same bits as a fresh one (the scaled
    # problems of one Problem share its memo: a fresh one needs a new Problem)
    n, p = 10, 3000
    prob = random_problem(8, n=n, p=p, y_scale=10.0)
    rho = 1.01 * prob.norm
    rng = np.random.default_rng(8)
    worn, _ = scale_problem(prob, rho)
    memo, cleared = prob.memo, 0
    for cols in np.array_split(rng.permutation(p), 33):  # 90-91 columns each
        other = np.zeros(p)
        other[cols] = rng.standard_normal(cols.size)
        held = set(memo._cols)
        tisp_step(other, worn, rule("soft(lambda=0.5)"))
        cleared += not held <= set(memo._cols)
    assert cleared >= 2  # 3000 columns through a memo of 2**21 // 3010 = 696
    beta = np.zeros(p)
    nz = rng.choice(p, 93, replace=False)  # the most the support route takes
    beta[nz] = rng.standard_normal(93)
    for j in nz[:4]:  # some of its columns enter the memo alone
        single = np.zeros(p)
        single[j] = 1.0
        tisp_step(single, worn, rule("soft(lambda=0.5)"))
    assert 4 < len(set(nz) & set(memo._gram)) < 93
    for text in ["hard(lambda=0.5)", "soft(lambda=0.1)", "mcp(lambda=0.3,gamma=2)"]:
        fresh, _ = scale_problem(Problem(prob.X, prob.y), rho)
        assert np.array_equal(tisp_step(beta, worn, rule(text)), tisp_step(beta, fresh, rule(text)))


def test_a_solve_does_not_depend_on_earlier_solves():
    # a Problem keeps its norm and its memo across solves; a solve gives the
    # same bits whether or not another rule was solved on it first
    base = random_problem(30000, n=10, p=3000, y_scale=10.0)  # <= 77 nonzeros
    bstar = np.zeros(base.p)
    bstar[:5] = 2.0
    cfgs = [SolverConfig(rule=rule(t), tol=1e-10, max_iter=70)
            for t in ("hard(lambda=0.6)", "soft(lambda=0.6)", "scad(lambda=0.6)")]
    for first, then in [(0, 1), (1, 0), (2, 0)]:
        alone = solve(Problem(base.X, base.y, beta_star=bstar), cfgs[then])
        shared = Problem(base.X, base.y, beta_star=bstar)
        solve(shared, cfgs[first])
        after = solve(shared, cfgs[then])
        assert any(0 < 32 * s <= base.p for s in after.trace.support)
        assert np.array_equal(alone.beta, after.beta)
        assert csv_text(alone.trace) == csv_text(after.trace)
        assert (alone.theta_residual, alone.trace.flagged) == (after.theta_residual, after.trace.flagged)


def test_solves_sharing_a_problem_equal_solves_on_fresh_problems():
    # two rules at two explicit scales on one Problem, whose scaled problems
    # all read its one memo, give the bits of the same solves on new Problems
    base = random_problem(30000, n=10, p=3000, y_scale=10.0)  # <= 77 nonzeros
    bstar = np.zeros(base.p)
    bstar[:5] = 2.0
    shared = Problem(base.X, base.y, beta_star=bstar)
    for factor in (1.01, 1.2):
        for text in ("hard(lambda=0.6)", "soft(lambda=0.6)"):
            cfg = SolverConfig(rule=rule(text), rho=factor * base.norm, tol=1e-10, max_iter=70)
            after = solve(shared, cfg)
            alone = solve(Problem(base.X, base.y, beta_star=bstar), cfg)
            assert any(0 < 32 * s <= base.p for s in after.trace.support)
            assert np.array_equal(alone.beta, after.beta)
            assert csv_text(alone.trace) == csv_text(after.trace)
            assert (alone.theta_residual, alone.trace.flagged) == (after.theta_residual, after.trace.flagged)


def test_a_second_rule_fills_no_gram_row_the_first_filled(monkeypatch):
    # the Gram rows live in the Problem's memo, not in a solve's: a second
    # rule solved on the same Problem reuses every row the first one filled
    prob = random_problem(30000, n=10, p=3000, y_scale=10.0)
    rows = tisp.solver.SupportMemo._rows
    calls = []  # (Gram rows filled, support) per gradient over a support

    def counting(memo, nz, gram=False):
        before = set(memo._gram)
        out = rows(memo, nz, gram)
        assert before <= set(memo._gram)  # never cleared here
        if gram:
            calls.append((set(memo._gram) - before, set(nz.tolist())))
        return out

    monkeypatch.setattr(tisp.solver.SupportMemo, "_rows", counting)
    solve(prob, SolverConfig(rule=rule("hard(lambda=0.6)"), tol=1e-10, max_iter=70))
    first = set().union(*(filled for filled, _ in calls))
    del calls[:]
    solve(prob, SolverConfig(rule=rule("mcp(lambda=0.6,gamma=2.5)"), tol=1e-10, max_iter=70))
    assert len(first) >= 10
    assert first & set().union(*(support for _, support in calls))  # the rows are read again
    assert not first & set().union(*(filled for filled, _ in calls))


def test_a_solve_over_supports_never_builds_the_scaled_design():
    # iterates with at most p/32 nonzeros are multiplied over their support
    # at u = beta~/rho: no second n x p array is made
    n, p = 200, 6400
    rng = np.random.default_rng(31002)
    X = rng.standard_normal((n, p)) / math.sqrt(n)
    bstar = np.zeros(p)
    bstar[rng.choice(p, 5, replace=False)] = 20.0
    prob = Problem(X, X @ bstar + rng.standard_normal(n), beta_star=bstar)
    prob.norm  # noqa: B018 - the power iteration's Gram matrix is not the solve's
    tracemalloc.start()
    try:
        res = solve(prob, SolverConfig(rule=rule("hard(lambda=2.0)"), tol=1e-10, max_iter=300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(0 < 32 * s <= p for s in res.trace.support)
    assert peak < prob.X.nbytes / 2, peak


# ---------------------------------------------------------------------------
# stepsize
# ---------------------------------------------------------------------------

def test_stepsize_transform_scales_penalty():
    # the transformed rule's penalty must equal alpha times the original one;
    # for hard and hard-ridge the induced penalties agree only at zero and
    # over the original rule's outputs (the `kept` grid), though the
    # transformed rule's outputs start below them (at sqrt(alpha)*lambda for
    # hard): there the transform scales the L0-type penalty exactly, not the
    # induced one
    full = np.linspace(-6.0, 6.0, 121)
    kept = np.concatenate([[0.0], np.linspace(0.91, 6.0, 60),
                           -np.linspace(0.91, 6.0, 60)])
    for r in rule_catalog(lam=0.9, eta=0.4, gamma=2.5):
        if r.kind in ("scad", "lr"):
            with pytest.raises(ConfigurationError):
                stepsize_transform(r, 0.5)
            continue
        grid = kept if r.kind in ("hard", "hard-ridge") else full
        for alpha in (0.3, 0.5, 0.9):
            r_a, lam_scale = stepsize_transform(r, alpha)
            want = alpha * penalty_theta(PenaltySpec(rule=r), grid)
            got = penalty_theta(PenaltySpec(rule=r_a), grid)
            assert np.allclose(got, want, atol=1e-12), (r.kind, alpha)
            if r.lam is not None:
                assert r_a.lam == pytest.approx(lam_scale * r.lam)


def test_alpha_objective_on_the_transformed_rules_full_range():
    # f_alpha's penalty P_alpha(u)/alpha against the original P on [0, 4 lam],
    # past the least nonzero outputs of Theta_alpha (m_a) and Theta (m) and
    # their float neighbours: equal where the transform scales the penalty
    # exactly; for hard and hard-ridge without an L0-type augmentation it
    # differs on [m_a, m), outputs of Theta_alpha that Theta never gives
    # (m_a = sqrt(alpha)*lam for hard), and agrees from m on.  capped-l1's min(lam u, lam^2/2) is
    # flat there at alpha >= 1/4 and differs only below m_a, off the range
    augmentations = {"hard": ("none", "capped-l1", "l0"), "hard-ridge": ("none", "l0+l2")}
    exact = {("hard", "l0"), ("hard-ridge", "l0+l2")}
    for r in rule_catalog(lam=0.9, eta=0.4, gamma=2.5):
        if r.kind in ("scad", "lr"):
            continue
        lam = r.lam or 0.9
        for alpha in (0.3, 0.5, 0.9):
            r_a, _ = stepsize_transform(r, alpha)
            # lam/(1 + eta) starts the outputs of hard (eta = 0) and hard-ridge
            m_a, m = ((q.lam or 0.0) / (1.0 + (q.eta or 0.0)) for q in (r_a, r))
            marks = np.array([math.sqrt(alpha) * lam, lam, m_a, m])
            u = np.unique(np.concatenate([np.linspace(0.0, 4.0 * lam, 2001), marks,
                                          np.nextafter(marks, 0.0), np.nextafter(marks, np.inf)]))
            for aug in augmentations.get(r.kind, ("none",)):
                got = penalty_theta(PenaltySpec(rule=r_a, augmentation=aug), u) / alpha
                want = penalty_theta(PenaltySpec(rule=r, augmentation=aug), u)
                differs = np.abs(got - want) > 1e-12 * np.abs(want)
                case = (r.kind, aug, alpha)
                if r.kind not in augmentations or (r.kind, aug) in exact:
                    assert not differs.any(), case
                elif aug == "none":
                    assert differs[(u >= m_a) & (u < m)].any() and not differs[u >= m].any(), case
                else:
                    assert not differs[u >= m_a].any() and differs[u < m_a].any(), case


def test_stepsize_transform_identity_at_one():
    r = rule("scad(lambda=1,a=3.7)")
    assert stepsize_transform(r, 1.0) == (r, 1.0)


def test_alpha_solve_matches_rescaled_problem():
    # the alpha-damped iteration on (X, y) is the plain iteration on
    # (sqrt(alpha) X, sqrt(alpha) y) with threshold alpha*lambda
    prob = random_problem(7, n=15, p=8, y_scale=2.0)
    alpha, lam = 0.5, 0.6
    rho = 1.2 * spectral_norm(prob.X)
    res_a = solve(prob, SolverConfig(rule=rule(f"soft(lambda={lam})"), rho=rho,
                                     alpha=alpha, tol=1e-12))
    shrunk = Problem(math.sqrt(alpha) * prob.X, math.sqrt(alpha) * prob.y)
    res_b = solve(shrunk, SolverConfig(rule=rule(f"soft(lambda={alpha * lam})"),
                                       rho=rho, tol=1e-12))
    assert np.max(np.abs(res_a.beta - res_b.beta)) <= 1e-8


def test_recorded_objective_descends_at_alpha_below_one():
    # the alpha-damped iteration descends 0.5*||y - Xs b||^2 plus the
    # transformed rule's penalty over alpha, which differs from the original
    # penalty for hard and hard-ridge; the trace recorded the original one,
    # which rose (hard-ridge from about iteration 20, hard from about 200)
    specs = [PenaltySpec(r) for r in rule_catalog(lam=0.6, eta=0.5, gamma=2.5)
             if r.kind not in ("scad", "lr")]
    specs += [PenaltySpec(rule("hard(lambda=0.6)"), "capped-l1"),
              PenaltySpec(rule("hard(lambda=0.6)"), "l0"),
              PenaltySpec(rule("hard-ridge(lambda=0.6,eta=0.5)"), "l0+l2")]
    hard_kinds = ("hard", "hard-ridge")  # the kinds whose transform moves the penalty
    cases = [(seed, spec, alpha, 60) for seed in range(200) for spec in specs
             if seed < 20 or spec.rule.kind in hard_kinds for alpha in (0.3, 0.5, 0.9)]
    hard = PenaltySpec(rule("hard(lambda=0.6)"))
    cases += [(89, hard, 0.3, 1000), (95, hard, 0.5, 1000)]  # hard's later rises
    for seed, group in itertools.groupby(cases, key=lambda case: case[0]):
        rng = np.random.default_rng(seed)
        prob = Problem(rng.standard_normal((30, 60)) / math.sqrt(30), 2.0 * rng.standard_normal(30))
        for _, spec, alpha, max_iter in group:
            res = solve(prob, SolverConfig(rule=spec.rule, alpha=alpha, max_iter=max_iter,
                                           augmentation=spec.augmentation))
            objs = res.trace.objective
            assert all(b - a <= 1e-12 * abs(a) for a, b in zip(objs, objs[1:])), (spec, alpha, seed)


def test_template_with_a_schedule_solves_at_alpha_below_one():
    # a rule template takes its lambda from the schedule; stepsize_transform
    # maps it to a template with the same lambda scale, so the solve is the
    # one of the rule with lambda filled in, bit for bit: a constant
    # schedule against the rule's own lambda, a geometric one against the
    # same schedule on the filled-in rule
    prob = random_problem(23, n=20, p=10, y_scale=2.0)
    prob = Problem(prob.X, prob.y, beta_star=np.linspace(-1.0, 1.0, 10))
    geometric = LambdaSchedule.geometric(2.0, 0.9, 0.5)
    for text in ("soft", "hard", "mcp(gamma=2.5)", "elastic-net(eta=0.4)", "berhu(eta=0.4)",
                 "hard-ridge(eta=0.4)"):
        template = rule(text)
        filled = template.with_lambda(0.5)
        for sched, ref_sched in ((LambdaSchedule.constant(0.5), None), (geometric, geometric)):
            got = solve(prob, SolverConfig(rule=template, schedule=sched, alpha=0.5))
            ref = solve(prob, SolverConfig(rule=filled, schedule=ref_sched, alpha=0.5))
            assert got.beta.tobytes() == ref.beta.tobytes(), (text, sched.mode)
            assert (got.trace, got.iterations, got.theta_residual, got.final_lambda) == (
                ref.trace, ref.iterations, ref.theta_residual, ref.final_lambda), (text, sched.mode)
        assert stepsize_transform(template, 0.5)[1] == stepsize_transform(filled, 0.5)[1]


def test_alpha_below_one_rejected_at_solve_for_scad():
    prob = random_problem(8, n=10, p=4)
    cfg = SolverConfig(rule=rule("scad(lambda=0.5,a=3.7)"), alpha=0.5)
    with pytest.raises(ConfigurationError):
        solve(prob, cfg)


# ---------------------------------------------------------------------------
# termination, trace, failure modes
# ---------------------------------------------------------------------------

def test_max_iter_reason():
    prob = random_problem(9, n=20, p=10, y_scale=2.0)
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=0.01)"), tol=1e-16, max_iter=3))
    assert not res.converged
    assert res.reason == "max_iter"
    assert res.iterations == 3


def test_solver_error_on_nonfinite_iterates(monkeypatch):
    prob = random_problem(10, n=6, p=3)

    def poisoned(rule_, v, z, lam):
        return np.full(np.asarray(v).shape, np.nan)

    monkeypatch.setattr(tisp.solver.th, "_theta", poisoned)
    with pytest.raises(SolverError, match="non-finite"):
        solve(prob, SolverConfig(rule=rule("soft(lambda=1)")))


def test_solver_error_on_overflowing_gradient_point():
    # Xs'(y - Xs beta) overflows to inf at the first iteration; the failure
    # is reported by SolverError alone, without a numpy RuntimeWarning
    prob = Problem(np.ones((2, 1)), np.array([1.7e308, 1.7e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="non-finite iterate at iteration 1"):
            solve(prob, SolverConfig(rule=rule("soft(lambda=1)")))
        with pytest.raises(SolverError, match="non-finite iterate"):
            tisp_step(np.zeros(1), prob, rule("soft(lambda=1)"))


def test_solver_error_when_hard_zeroes_a_nan_gradient_point():
    # Xs beta overflows to (+inf, -inf), so every component of Xs'r is
    # inf - inf = NaN.  hard maps a NaN to 0, so the new iterate and the
    # fixed-point residual are finite: only the check on the gradient point
    # can report it.
    X = np.array([[0.4] * 4 + [0.1] * 4, [0.1] * 4 + [0.4] * 4])  # ||X||_2 = 1
    prob = Problem(X, np.zeros(2))
    beta = np.array([1.7e308] * 4 + [-1.7e308] * 4)
    hard = rule("hard(lambda=1)")
    nan = np.full(8, np.nan)
    assert np.array_equal(tisp.solver.th._theta(hard, nan, np.abs(nan), 1.0), np.zeros(8))
    message = ("non-finite iterate at iteration 1 (max |gradient point| = nan); "
               "check the scaling and threshold configuration")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError) as exc:
            solve(prob, SolverConfig(rule=hard, rho=1.0), start=beta)
        assert str(exc.value) == message
        with pytest.raises(SolverError) as exc:
            tisp_step(beta, prob, hard)
        assert str(exc.value) == message


def test_solver_error_on_overflowing_scaled_start():
    # rho * start overflows to inf before the first step; the failure is
    # reported by SolverError alone, without a numpy RuntimeWarning
    X = np.zeros((2, 40))
    X[0, 0] = 4.0  # ||X||_2 = 4
    start = np.zeros(40)
    start[0] = 1.7e308
    message = ("non-finite iterate at iteration 1 (max |gradient point| = nan); "
               "check the scaling and threshold configuration")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError) as exc:
            solve(Problem(X, np.ones(2)), SolverConfig(rule=rule("soft(lambda=1)"), rho=4.0),
                  start=start)
    assert str(exc.value) == message


def test_solver_error_on_an_estimate_past_the_float_range():
    # the scaled iterate is finite, but over rho = 1.01e-200 it passes the
    # float range: SolverError alone, without a numpy RuntimeWarning
    prob = Problem(np.array([[1e-200]]), np.array([1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError) as exc:
            solve(prob, SolverConfig(rule=rule("soft(lambda=0)")))
    assert str(exc.value) == ("non-finite estimate: the iterate over rho=1.01e-200 passes the "
                              "float range; check the scaling of X and y")


def test_trace_csv_columns_and_error_fields():
    bstar = np.array([2.0, 0.0, -1.0])
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 3)) / math.sqrt(20)
    y = X @ bstar + 0.1 * rng.standard_normal(20)
    prob = Problem(X, y, beta_star=bstar)
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=0.3)"), tol=1e-10))
    text = csv_text(res.trace)
    lines = text.splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert all(cell != "" for cell in first)  # error columns populated
    # numbers round-trip exactly through repr
    assert float(first[1]) == res.trace.objective[0]

    # without beta_star the error columns stay empty
    res2 = solve(Problem(X, y), SolverConfig(rule=rule("soft(lambda=0.3)"), tol=1e-10))
    row = csv_text(res2.trace).splitlines()[1].split(",")
    assert row[4:] == ["", "", ""]


def test_trace_flags_threshold_grazing():
    # gradient point lands exactly on the hard rule's jump at iteration 1
    prob = Problem(np.array([[1.0]]), np.array([0.6]))
    res = solve(prob, SolverConfig(rule=rule("hard(lambda=0.6)"), rho=1.0))
    assert res.trace.flagged == [1]
    assert res.beta[0] == 0.0


def test_recorded_objective_and_certificate_at_the_carried_residual():
    # the iterates are replayed with tisp_step, which forms its residual
    # afresh; solve carries one residual per iterate, and the recorded
    # objective and the final certificate must be the same numbers exactly.
    # With beta_star, each recorded error triple is error_metrics at the
    # replayed iterate, again exactly.
    for r in rule_catalog(lam=0.6, eta=0.5, gamma=2.5):
        spec = PenaltySpec(rule=r)
        for seed, max_iter in [(40, 200), (41, 5)]:
            base = random_problem(seed, n=15, p=25, y_scale=3.0)
            bstar = np.random.default_rng(seed).standard_normal(base.p)
            for prob in (base, Problem(base.X, base.y, beta_star=bstar)):
                res = solve(prob, SolverConfig(rule=r, tol=1e-10, max_iter=max_iter))
                trace = res.trace
                assert trace.has_errors == (prob.beta_star is not None)
                scaled, _ = scale_problem(prob, res.rho)
                assert trace.iterations == list(range(1, res.iterations + 1))
                beta = np.zeros(prob.p)
                for i, (t, obj) in enumerate(zip(trace.iterations, trace.objective)):
                    beta = tisp_step(beta, scaled, r)
                    assert obj == energy(spec, scaled, beta, 1.0), (r.kind, t)
                    if trace.has_errors:
                        m = error_metrics(beta / res.rho, prob, res.rho)
                        recorded = (trace.pred_err[i], trace.est_err[i], trace.weighted_err[i])
                        assert recorded == (m["pred"], m["est"], m["weighted"]), (r.kind, t)
                assert np.array_equal(beta / res.rho, res.beta)
                step = tisp_step(beta, scaled, r)
                assert res.theta_residual == float(np.max(np.abs(beta - step))), r.kind


def test_recorded_objective_across_block_flushes(monkeypatch):
    # solve sums the penalty of the recorded iterates per stacked block, each
    # row at its own threshold: every 2**16 entries (rows x (p + n)) and at
    # exit, and nowhere else, so a schedule's rows share blocks.  Every row,
    # in every kind of block, must still carry the objective `energy` gives
    # at the replayed iterate, and its support.
    # Iterates with at most p/32 nonzeros are multiplied over their support
    # (penalty._times) in solve, tisp_step and energy alike.
    flatnonzero = np.flatnonzero
    gathered = []  # support sizes of the products taken over the support

    def recording(a):
        nz = flatnonzero(a)
        if nz.size:
            gathered.append(nz.size)
        return nz

    monkeypatch.setattr(np, "flatnonzero", recording)
    specs = [PenaltySpec(rule=r) for r in rule_catalog(lam=0.6, eta=0.5, gamma=2.5)]
    specs += [PenaltySpec(rule("hard(lambda=0.6)"), "capped-l1"),
              PenaltySpec(rule("hard(lambda=0.6)"), "l0"),
              PenaltySpec(rule("hard-ridge(lambda=0.6,eta=0.5)"), "l0+l2")]
    geometric = LambdaSchedule.geometric(2.0, 0.8, 0.5)
    slow = LambdaSchedule.geometric(2.0, 0.97, 1.0)
    cases = [  # (n, p, y_scale, record_every, schedule, max_iter)
        (15, 25, 3.0, 1, geometric, 300),
        (15, 25, 3.0, 3, None, 300),
        (15, 25, 3.0, 4, geometric, 7),  # max_iter exit between recorded rows
        (10, 3000, 30.0, 1, None, 70),  # up to 70 rows x 3000 = 3.2 blocks
        (10, 3000, 30.0, 2, geometric, 70),
        (10, 3000, 10.0, 1, None, 70),  # at most 77 nonzeros: the support products
        (10, 3000, 30.0, 1, slow, 70),  # supports that move, on a memo of 64 columns
    ]
    # the last case's memo fills in several steps and is cleared when full
    memo_entries = {cases[-1]: 64 * 3010}
    rows = tisp.solver.SupportMemo._rows
    fills = []  # (new Gram rows, held columns dropped) per product that grew the memo

    def counting(memo, nz, gram=False):
        held, grams = set(memo._cols), len(memo._gram)
        out = rows(memo, nz, gram)
        if len(memo._gram) != grams or not held <= set(memo._cols):
            fills.append((len(memo._gram) - grams, not held <= set(memo._cols)))
        return out

    monkeypatch.setattr(tisp.solver.SupportMemo, "_rows", counting)
    penalty_z = tisp.penalty._penalty_z
    blocks = []  # rows per penalty evaluation

    def counted_penalty(spec, z, lam):
        blocks.append(len(z))
        return penalty_z(spec, z, lam)

    monkeypatch.setattr(tisp.penalty, "_penalty_z", counted_penalty)
    many_blocks = sparse_rows = shared = 0
    for case in cases:
        n, p, y_scale, record_every, schedule, max_iter = case
        monkeypatch.setattr(tisp.solver, "_MEMO_ENTRIES",
                            memo_entries.get(case, tisp.solver._MEMO_ENTRIES))
        fills.clear()
        prob = random_problem(n * p, n=n, p=p, y_scale=y_scale)
        for spec in specs:
            if case in memo_entries:  # the solves of one Problem share its memo: start each empty
                prob = Problem(prob.X, prob.y)
            r = spec.rule
            sched = schedule if r.kind in LAMBDA_KINDS else None
            cfg = SolverConfig(rule=r, schedule=sched, tol=1e-10, max_iter=max_iter,
                               record_every=record_every, augmentation=spec.augmentation)
            blocks.clear()
            res = solve(prob, cfg)
            trace = res.trace
            last = res.iterations
            # flushed only when a buffer is full (for a kind with jumps, also
            # the graze buffer) and at exit
            full = len(trace.iterations) // (tisp.solver._BLOCK_ENTRIES // (n + p))
            if discontinuities(r, 1.0 if r.kind in LAMBDA_KINDS else None):
                full += last // (tisp.solver._GRAZE_ENTRIES // (p + 16))
            assert sum(blocks) == len(trace.iterations) and len(blocks) <= full + 1, (r.kind, case)
            if sched is geometric and record_every == 1 and p == 25:
                # fewer blocks than thresholds: a schedule's rows share them
                assert len(blocks) < len({sched.value(t - 1) for t in trace.iterations}), r.kind
                shared += 1
            assert trace.iterations == [t for t in range(1, last + 1)
                                        if t % record_every == 0 or t == last]
            assert len(trace.objective) == len(trace.iterations)
            if max_iter == 7:
                assert res.reason == "max_iter" and last % record_every != 0
            scaled, _ = scale_problem(prob, res.rho)
            recorded = dict(zip(trace.iterations, zip(trace.objective, trace.support)))
            beta = np.zeros(p)
            for t in range(1, last + 1):
                r_t = at_lambda(r, sched.value(t - 1) if sched else r.lam)
                beta = tisp_step(beta, scaled, r_t)
                if t in recorded:
                    obj, supp = recorded[t]
                    assert obj == energy(PenaltySpec(r_t, spec.augmentation), scaled, beta, 1.0), (r.kind, p, t)
                    assert supp == np.count_nonzero(beta), (r.kind, p, t)
            assert res.objective == trace.objective[-1]
            many_blocks += len(trace.iterations) * p >= 3 * 2**16
            sparse_rows += sum(0 < 32 * s <= p for s in trace.support)
        if case in memo_entries:
            assert sum(grew > 0 for grew, _ in fills) >= 20 and any(dropped for _, dropped in fills)
    assert many_blocks >= 5
    assert shared == 10  # the seven lambda kinds, and the three augmentations
    # each such row went through solve's residual and the replay's energy
    assert sparse_rows >= 300 and len(gathered) >= 2 * sparse_rows


def test_trace_columns_and_grazes_across_flushes(monkeypatch):
    # solve stacks each recorded row's iteration, residual and support size,
    # and tests the buffered gradient magnitudes for grazes, per block, each
    # row at its own threshold: when the row or the graze buffer is full, and
    # at exit.  Every kind of flush must give the trace a per-iteration
    # replay gives: tisp_step, near_jump on each gradient point, and
    # np.count_nonzero.  On X = I at rho = 2 the gradient point is
    # 0.75 beta + y/2, so a coordinate with y_j = 2 lam sits on the jump at
    # lam at every iteration while it stays 0, and one with y_j = 2 lam_t
    # grazes only at the iteration whose threshold is lam_t.  The last column
    # of X is 0: its gradient magnitude stays 0, on the flat piece of width 0
    # that hard has at lam = 0, which is no jump.  Under an explicit schedule
    # a lam = 0 iteration makes the coordinate with y_j = 8 lam / 7 equal to
    # 4 lam / 7, on the jump at lam at the next iteration.
    tested = []  # rows per stacked graze test

    def counting(z, jumps, tol):
        tested.append(len(z))
        return near_jump(z, jumps, tol)

    monkeypatch.setattr(tisp.solver.th, "near_jump", counting)
    p, lam = 10, 0.5
    schedule = LambdaSchedule.geometric(2.5, 0.9, lam)
    at = {t: 2.0 * schedule.value(t - 1) for t in (3, 7, 12)}  # grazes once, at t
    y = np.array([10.0, -3.0, 2.0 * lam, 0.2, *at.values(), -0.7, 8.0 * lam / 7.0, 0.3])
    X = np.eye(p)
    X[-1, -1] = 0.0
    lr = rule("lr(r=0.5,zeta=1)")
    cases = [(r, None) for r in (rule("hard(lambda=0.5)"), rule("hard-ridge(lambda=0.5,eta=0.5)"),
                                 rule("scad(lambda=0.5,a=3.7)"), rule("mcp(lambda=0.5,gamma=3)"))]
    cases += [(rule("hard(lambda=0.5)"), schedule), (rule("hard-ridge(lambda=0.5,eta=0.5)"), schedule)]
    # a first threshold of 0 still tests the later ones; one of 0 between them
    explicit = {LambdaSchedule.explicit([0.0, lam]): [2], LambdaSchedule.explicit([lam, 0.0, lam]): [1, 3]}
    cases += [(rule("hard(lambda=0.5)"), sched) for sched in explicit]
    cases.append((lr, None))
    budgets = [(tisp.solver._GRAZE_ENTRIES, tisp.solver._BLOCK_ENTRIES), (3 * (p + 16), 5 * 2 * p)]
    flushes = []
    for (r, sched), record_every, (graze_entries, block_entries) in itertools.product(
            cases, (1, 3), budgets):
        monkeypatch.setattr(tisp.solver, "_GRAZE_ENTRIES", graze_entries)
        monkeypatch.setattr(tisp.solver, "_BLOCK_ENTRIES", block_entries)
        yr = y.copy()
        if r is lr:
            yr[2] = 2.0 * discontinuities(lr)[0]  # on lr's jump while it stays 0
        prob = Problem(X, yr)
        tested.clear()
        res = solve(prob, SolverConfig(rule=r, rho=2.0, tol=1e-10, schedule=sched,
                                       record_every=record_every))
        assert res.converged and res.iterations > 30, (str(r), res.iterations)
        trace = res.trace
        scaled, _ = scale_problem(prob, 2.0)
        Xs = scaled.X
        beta, flagged, rows = np.zeros(p), [], []
        for t in range(1, res.iterations + 1):
            lam_t = sched.value(t - 1) if sched else r.lam
            z = np.abs(beta + Xs.T @ (scaled.y - Xs @ beta))
            if near_jump(z, discontinuities(r, lam_t), 1e-12):
                flagged.append(t)
            step = tisp_step(beta, scaled, at_lambda(r, lam_t))
            fp_res = float(np.max(np.abs(step - beta)))
            beta = step
            if t % record_every == 0 or t == res.iterations:
                rows.append((t, fp_res, np.count_nonzero(beta)))
        assert trace.flagged == flagged, (str(r), sched, record_every)
        assert list(zip(trace.iterations, trace.fp_residual, trace.support)) == rows, str(r)
        assert all(type(v) is int for v in trace.iterations + trace.support + trace.flagged)
        if discontinuities(r, r.lam):
            if sched is None:  # the coordinate on the jump grazes at every iteration
                assert flagged == list(range(1, res.iterations + 1)), str(r)
            elif sched in explicit:  # grazes after the lam = 0 iteration, none at it
                assert flagged == explicit[sched], (str(r), sched)
            else:  # the scheduled grazes, then the one at the floor from where the schedule reaches it
                floor_from = next(t for t in range(1, 100) if schedule.value(t - 1) == lam)
                assert flagged == [*at, *range(floor_from, res.iterations + 1)], str(r)
            graze_rows = max(1, graze_entries // (p + 16))
            assert sum(tested) == res.iterations and max(tested) <= graze_rows
            flushes.append(len(tested))
        else:
            assert flagged == [] and tested == []
    assert max(flushes) >= 10  # the small budget flushed many times


def test_record_every_thins_but_keeps_last():
    prob = random_problem(12, n=20, p=10, y_scale=2.0)
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=0.2)"), tol=1e-12,
                                   record_every=7))
    its = res.trace.iterations
    assert its[-1] == res.iterations
    assert all(t % 7 == 0 for t in its[:-1])


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_values():
    c = LambdaSchedule.constant(0.5)
    assert [c.value(t) for t in (0, 5)] == [0.5, 0.5]
    g = LambdaSchedule.geometric(1.0, 0.5, 0.2)
    assert [g.value(t) for t in range(4)] == [1.0, 0.5, 0.25, 0.2]
    e = LambdaSchedule.explicit([0.9, 0.4])
    assert [e.value(t) for t in range(4)] == [0.9, 0.4, 0.4, 0.4]


def test_schedule_validation():
    with pytest.raises(ValueError):
        LambdaSchedule.geometric(1.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        LambdaSchedule.geometric(1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        LambdaSchedule.explicit([])
    with pytest.raises(ValueError):
        LambdaSchedule.constant(-1.0)


@pytest.mark.parametrize("kwargs", [
    dict(mode="geometric", lam0=-1.0, factor=0.5, floor=-2.0),  # negative thresholds
    dict(mode="constant"),  # no lam: would run at the rule's lambda
    dict(mode="bogus", values=(0.5,)),  # would run as explicit
    dict(mode="constant", lam=0.5, values=(0.5,)),  # another mode's field
    dict(mode="geometric", lam0=1.0, factor=0.5),  # no floor
    dict(mode="geometric", lam0=1.0, factor=1.0, floor=0.1),
    dict(mode="explicit", values=(0.5, math.nan)),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_schedule_built_directly_is_checked(kwargs):
    with pytest.raises(ValueError):
        LambdaSchedule(**kwargs)


def test_parse_schedule():
    assert parse_schedule("constant:0.5") == LambdaSchedule.constant(0.5)
    assert parse_schedule("geometric:1.0,0.8,0.01") == LambdaSchedule.geometric(1.0, 0.8, 0.01)
    assert parse_schedule("explicit:0.9,0.5") == LambdaSchedule.explicit([0.9, 0.5])
    for bad in ["constant:1,2", "geometric:1.0,0.8", "mystery:1", "constant:x"]:
        with pytest.raises(ConfigurationError):
            parse_schedule(bad)


def test_solve_with_geometric_schedule_reaches_floor():
    prob = random_problem(13, n=20, p=10, y_scale=2.0)
    sched = LambdaSchedule.geometric(2.0, 0.5, 0.1)
    cfg = SolverConfig(rule=rule("soft(lambda=1)"), schedule=sched, tol=1e-12,
                       max_iter=5000)
    res = solve(prob, cfg)
    assert res.converged
    assert res.final_lambda == 0.1
    # the solution solves the floor-threshold problem
    direct = solve(prob, SolverConfig(rule=rule("soft(lambda=0.1)"), tol=1e-12))
    assert np.max(np.abs(res.beta - direct.beta)) <= 1e-8


def all_kinds_instance():
    """The all-kinds decay design (gaussian-iid 100x60, J* = 4, seed 0) and
    its theory lambda."""
    spec = ExperimentSpec(ensemble="gaussian-iid", n=100, p=60, J_star=4, sigma=1.0,
                          seeds=(0,), lambda_policy="theory")
    lam = tisp.simulate.resolve_lambda(spec, spec.p)
    return tisp.simulate._instance(spec, 0, lam), lam


@pytest.mark.parametrize("text", ["hard", "hard-ridge(eta=0.5)"])
def test_a_schedule_still_lowering_lambda_does_not_converge(text):
    # from zero, Theta at 4 lambda leaves the iterate at zero: a sup-change of
    # 0 while the geometric schedule has 14 steps to go to its floor
    prob, lam = all_kinds_instance()
    r = parse_rule(text, require_lambda=False).with_lambda(lam)
    res = solve(prob, SolverConfig(rule=r, schedule=LambdaSchedule.geometric(4.0 * lam, 0.9, lam),
                                   alpha=0.5))
    assert res.converged and res.final_lambda == lam
    assert res.iterations > 15 and np.count_nonzero(res.beta) > 0


def test_an_explicit_plateau_is_not_the_last_value():
    # two iterations at 4 lambda leave the iterate at zero; the solve then
    # runs as one at lambda from zero, two iterations later
    prob, lam = all_kinds_instance()
    r = parse_rule("hard", require_lambda=False).with_lambda(lam)
    plateau = LambdaSchedule.explicit([4.0 * lam, 4.0 * lam, lam])
    res = solve(prob, SolverConfig(rule=r, schedule=plateau, alpha=0.5))
    direct = solve(prob, SolverConfig(rule=r, alpha=0.5))
    assert res.converged and res.final_lambda == lam
    assert res.iterations == direct.iterations + 2
    assert res.beta.tobytes() == direct.beta.tobytes()


def test_a_geometric_floor_of_zero_settles_only_where_lambda_underflows():
    # lam0 * factor^t reaches the floor 0 only by underflow (t = 7073 here),
    # and a solve converges no earlier than the iteration after it
    sched = LambdaSchedule.geometric(1.0, 0.9, 0.0)
    underflow = next(t for t in itertools.count() if sched.value(t) == 0.0)
    assert sched.value(underflow - 1) > 0.0 and not sched.settled(underflow - 1)
    prob = random_problem(0, n=20, p=10, y_scale=2.0)
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=1)"), schedule=sched, record_every=100000))
    assert res.converged and res.final_lambda == 0.0
    assert res.iterations >= underflow + 1


def test_schedule_settles_where_its_values_stop_changing():
    assert LambdaSchedule.constant(0.5).settled(0)
    geometric = LambdaSchedule.geometric(4.0, 0.5, 1.0)
    assert [geometric.settled(t) for t in range(4)] == [False, False, True, True]
    explicit = LambdaSchedule.explicit([3.0, 2.0, 2.0, 1.0, 1.0])
    assert [explicit.settled(t) for t in range(7)] == [False, False, False, True, True, True, True]
    assert LambdaSchedule.explicit([2.0, 2.0]).settled(0)


def test_config_validation():
    soft = rule("soft(lambda=1)")
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=soft, alpha=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=soft, alpha=1.5)
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=soft, tol=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=soft, max_iter=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=soft, rho="sometimes")
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=rule("ridge(eta=0.5)"), schedule=LambdaSchedule.constant(1.0))
    with pytest.raises(ConfigurationError):
        SolverConfig(rule=parse_rule("soft", require_lambda=False))  # no lambda anywhere
    # a schedule substitutes for the missing lambda
    SolverConfig(rule=parse_rule("soft", require_lambda=False),
                 schedule=LambdaSchedule.constant(1.0))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_theory_threshold():
    assert theory_threshold(1.0, 200) == pytest.approx(math.sqrt(1 + math.log(200)))
    assert theory_threshold(0.0, 50) == 0.0
    assert theory_threshold(2.0, 10, a_const=1.5) == pytest.approx(3.0 * math.sqrt(1 + math.log(10)))
    with pytest.raises(ValueError):
        theory_threshold(-1.0, 10)


def test_t_max_estimate():
    # ratio 100, kappa 0.5: ceil(log 100 / log 2) = 7
    assert t_max_estimate(1.0, 100.0, 1.0, 1.0, 1, 0.5) == 7
    assert t_max_estimate(1.0, 1e-6, 1.0, 1.0, 1, 0.5) == 1  # already below the floor
    assert t_max_estimate(1.0, 1e12, 1.0, 1.0, 1, 0.9999999, max_iter=500) == 500
    with pytest.raises(ValueError):
        t_max_estimate(1.0, 1.0, 1.0, 1.0, 1, 1.5)
    with pytest.raises(ValueError):
        t_max_estimate(1.0, 0.0, 1.0, 1.0, 1, 0.5)


def test_triangle_inequality_along_iteration():
    rng = np.random.default_rng(14)
    for r in rule_catalog(lam=0.8, eta=0.4, gamma=3.0):
        spec = PenaltySpec(rule=r)
        prob = random_problem(200, n=10, p=20, y_scale=1.0)
        scaled, _ = scale_problem(prob, 1.02 * spectral_norm(prob.X))
        beta = rng.standard_normal(20)
        nxt = tisp_step(beta, scaled, r)
        for probe in [nxt, beta, np.zeros(20), rng.standard_normal(20)]:
            slack = triangle_inequality_check(beta, nxt, probe, scaled, spec)
            f_probe = energy(spec, scaled, probe, 1.0)
            assert slack >= -1e-9 * (1.0 + abs(f_probe)), r.kind


def test_gaussian_starts_deterministic():
    prob = random_problem(15, n=10, p=6, y_scale=1.0)
    a = gaussian_starts(prob, 5, seed=3)
    b = gaussian_starts(prob, 5, seed=3)
    c = gaussian_starts(prob, 5, seed=4)
    assert len(a) == 5 and all(s.shape == (6,) for s in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_start_vector_is_in_original_coordinates():
    prob = Problem(np.array([[1.0]]), np.array([3.0]))
    res = solve(prob, SolverConfig(rule=rule("soft(lambda=1)"), rho=1.0),
                start=np.array([2.0]))
    assert res.iterations == 1  # started at the fixed point
    assert res.beta[0] == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(rule=rule("soft(lambda=1)"), rho=1.0),
              start=np.zeros(2))
