"""Solver: scaling, fixed points, descent, stepsizes, schedules, traces."""

import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tisp.solver
from tisp.penalty import PenaltySpec, energy, penalty_theta
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
from tisp.thresholding import LAMBDA_KINDS, parse_rule, rule_catalog


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
    with pytest.raises(ValueError):
        Problem(X, np.zeros(2), sigma=-1.0)


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
    # for the jump rules that can only hold at zero and past the original
    # threshold, the region thresholded outputs actually occupy
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
        lam = r.lam if r.kind in LAMBDA_KINDS else None
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
                    beta = tisp_step(beta, scaled, r, lam=lam)
                    assert obj == energy(spec, scaled, beta, 1.0, lam), (r.kind, t)
                    if trace.has_errors:
                        m = error_metrics(beta / res.rho, prob, res.rho)
                        recorded = (trace.pred_err[i], trace.est_err[i], trace.weighted_err[i])
                        assert recorded == (m["pred"], m["est"], m["weighted"]), (r.kind, t)
                assert np.array_equal(beta / res.rho, res.beta)
                step = tisp_step(beta, scaled, r, lam=lam)
                assert res.theta_residual == float(np.max(np.abs(beta - step))), r.kind


def test_recorded_objective_across_block_flushes(monkeypatch):
    # solve sums the penalty of the recorded iterates per stacked block: at
    # each threshold change of a schedule, every 2**16 entries (rows x (p + n))
    # and at exit.  Every row, in every kind of block, must still carry the
    # objective `energy` gives at the replayed iterate, and its support.
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
    many_blocks = sparse_rows = 0
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
            res = solve(prob, cfg)
            trace = res.trace
            last = res.iterations
            assert trace.iterations == [t for t in range(1, last + 1)
                                        if t % record_every == 0 or t == last]
            assert len(trace.objective) == len(trace.iterations)
            if max_iter == 7:
                assert res.reason == "max_iter" and last % record_every != 0
            scaled, _ = scale_problem(prob, res.rho)
            recorded = dict(zip(trace.iterations, zip(trace.objective, trace.support)))
            beta = np.zeros(p)
            for t in range(1, last + 1):
                lam = sched.value(t - 1) if sched else r.lam
                beta = tisp_step(beta, scaled, r, lam=lam)
                if t in recorded:
                    obj, supp = recorded[t]
                    assert obj == energy(spec, scaled, beta, 1.0, lam), (r.kind, p, t)
                    assert supp == np.count_nonzero(beta), (r.kind, p, t)
            assert res.objective == trace.objective[-1]
            many_blocks += len(trace.iterations) * p >= 3 * 2**16
            sparse_rows += sum(0 < 32 * s <= p for s in trace.support)
        if case in memo_entries:
            assert sum(grew > 0 for grew, _ in fills) >= 20 and any(dropped for _, dropped in fills)
    assert many_blocks >= 5
    # each such row went through solve's residual and the replay's energy
    assert sparse_rows >= 300 and len(gathered) >= 2 * sparse_rows


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
