"""Oracles: exhaustive l0 search, coordinate descent, stationarity probes."""

import itertools
import math

import numpy as np
import pytest

from tisp import oracle
from tisp.oracle import (
    ASSUMPTIONS,
    RegularityProbeConfig,
    check_theta_equation,
    coordinate_descent_local_min,
    l0_global_min,
    minimax_reference,
    probe_regularity,
    regularity_slack,
)
from tisp.penalty import PenaltySpec, penalty_hard, penalty_theta
from tisp.solver import ConfigurationError, Problem, SolverConfig, solve, spectral_norm
from tisp.thresholding import LAMBDA_KINDS, apply_vec, parse_rule, rule_catalog


def rule(text):
    return parse_rule(text, require_lambda=False)


# ---------------------------------------------------------------------------
# exhaustive l0 oracle
# ---------------------------------------------------------------------------

def test_l0_orthonormal_is_hard_thresholding():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 6)))
    y = rng.standard_normal(12) * 2.0
    lam = 0.8
    z = Q.T @ y
    assert np.min(np.abs(np.abs(z) - lam)) > 0.05  # stay clear of ties
    res = l0_global_min(Problem(Q, y), lam, rho=1.0)
    expected = np.where(np.abs(z) > lam, z, 0.0)
    assert np.allclose(res.beta, expected, atol=1e-10)
    assert res.support == tuple(np.flatnonzero(expected))


def test_l0_zero_response():
    X = np.eye(3)
    res = l0_global_min(Problem(X, np.zeros(3)), 0.5, rho=1.0)
    assert res.support == ()
    assert np.array_equal(res.beta, np.zeros(3))
    assert res.objective == 0.0


def test_l0_refuses_large_p():
    X = np.zeros((3, 15))
    with pytest.raises(ValueError, match="exhaustive"):
        l0_global_min(Problem(X, np.zeros(3)), 0.5, rho=1.0)


def test_l0_tie_breaks_to_lexicographic_support():
    # duplicate columns: supports (0,) and (1,) have equal objective
    X = np.array([[1.0, 1.0]])
    res = l0_global_min(Problem(X, np.array([2.0])), 0.4, rho=1.0)
    assert res.support == (0,)
    assert res.beta[0] == pytest.approx(2.0)
    assert res.gap_ok


def test_l0_reports_both_coordinate_systems():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    res = l0_global_min(Problem(X, y), 0.5, rho=2.0)
    assert np.allclose(res.beta_original, res.beta / 2.0, atol=1e-15)


def test_l0_validation():
    prob = Problem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        l0_global_min(prob, -0.1, rho=1.0)
    with pytest.raises(ValueError):
        l0_global_min(prob, 0.5, rho=0.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
def test_oracles_refuse_a_bad_rho_with_configuration_error(rho):
    prob = Problem(np.eye(2), np.ones(2))
    soft = rule("soft(lambda=0.5)")
    with pytest.raises(ConfigurationError, match="rho must be positive and finite"):
        l0_global_min(prob, 0.5, rho)
    with pytest.raises(ConfigurationError, match="rho must be positive and finite"):
        coordinate_descent_local_min(prob, soft, rho=rho)
    with pytest.raises(ConfigurationError, match="rho must be positive and finite"):
        check_theta_equation(np.zeros(2), prob, soft, rho=rho)


def test_oracles_refuse_a_rho_at_which_x_over_rho_overflows():
    # the suite turns a RuntimeWarning into an error, so each oracle must
    # refuse before it divides or multiplies by the design; at np.eye(2)
    # X/rho is finite, and only its products overflow
    soft = rule("soft(lambda=0.5)")
    for X in (np.array([[2.0, 1.0], [0.0, -3.0]]), np.eye(2)):
        prob = Problem(X, np.ones(2))
        with pytest.raises(ConfigurationError, match="X/rho overflows"):
            l0_global_min(prob, 0.5, 1e-308)
        with pytest.raises(ConfigurationError, match="X/rho overflows"):
            coordinate_descent_local_min(prob, soft, rho=1e-308)
        with pytest.raises(ConfigurationError, match="X/rho overflows"):
            check_theta_equation(np.zeros(2), prob, soft, rho=1e-308)


def loop_l0_global_min(problem, lam, rho):
    # the reference: one pseudoinverse per support, in size-then-lexicographic
    # order, keeping the first least objective; then l0_global_min's gap repair
    Xs, y, p = problem.X / rho, problem.y, problem.p
    half_lam2 = 0.5 * lam * lam

    def objective(b):
        r = y - Xs @ b
        return float(0.5 * r @ r + half_lam2 * np.count_nonzero(b))

    best_beta = np.zeros(p)
    best_obj, best_support = objective(best_beta), ()
    for size in range(1, p + 1):
        for support in itertools.combinations(range(p), size):
            b = np.zeros(p)
            b[list(support)] = np.linalg.pinv(Xs[:, support], rcond=1e-10) @ y
            obj = objective(b)
            if obj < best_obj or (obj == best_obj and support < best_support):
                best_obj, best_beta, best_support = obj, b, support
    nz = best_beta[best_beta != 0]
    min_mag = float(np.min(np.abs(nz))) if nz.size else math.inf
    gap_ok = min_mag >= lam - 1e-10
    if not gap_ok:
        v = best_beta + Xs.T @ (y - Xs @ best_beta)
        candidate = apply_vec(rule(f"hard(lambda={lam})"), v)
        cand_obj = objective(candidate)
        if cand_obj <= best_obj + 1e-12 * (1.0 + abs(best_obj)):
            best_beta, best_obj = candidate, cand_obj
            nz = best_beta[best_beta != 0]
            min_mag = float(np.min(np.abs(nz))) if nz.size else math.inf
            gap_ok = min_mag >= lam - 1e-10
    return (best_beta, best_obj, tuple(int(j) for j in np.flatnonzero(best_beta)),
            gap_ok, min_mag, best_beta / rho)


def assert_same_as_loop(problem, lam, rho):
    got = l0_global_min(problem, lam, rho)
    beta, obj, support, gap_ok, min_mag, beta_original = loop_l0_global_min(problem, lam, rho)
    assert np.array_equal(got.beta, beta)
    assert got.objective == obj
    assert got.support == support
    assert got.gap_ok == gap_ok
    assert got.min_magnitude == min_mag
    assert np.array_equal(got.beta_original, beta_original)
    return got


def criterion6_instance(i):
    rng = np.random.default_rng(6000 + i)
    p = int(rng.integers(3, 11))
    n = int(rng.integers(p, 2 * p + 6))
    X = rng.standard_normal((n, p))
    return Problem(X, 2.0 * rng.standard_normal(n)), 1.05 * spectral_norm(X)


@pytest.mark.parametrize("block", [0, 1])
def test_l0_stacked_solves_equal_the_per_support_loop(block):
    # every matrix of a stack is solved as it would be alone: bit for bit the
    # per-support loop, on 40 of criterion 6's instances
    for i in range(block * 20, block * 20 + 20):
        prob, rho = criterion6_instance(i)
        assert_same_as_loop(prob, 0.5, rho)


def test_l0_stacked_solves_on_degenerate_designs():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((9, 6))
    X[:, 4] = X[:, 1]  # a duplicated column: tied supports
    X[:, 2] = 0.0  # a zero column: rank-deficient supports
    y = 2.0 * rng.standard_normal(9)
    for lam in (0.05, 0.5, 2.0):
        assert_same_as_loop(Problem(X, y), lam, 1.0)
    wide = rng.standard_normal((4, 9))  # n < p
    assert_same_as_loop(Problem(wide, 2.0 * rng.standard_normal(4)), 0.3, 1.1 * spectral_norm(wide))
    # y = 0: every support ties at objective 0 with b = 0, so the empty one wins
    res = assert_same_as_loop(Problem(X, np.zeros(9)), 0.5, 1.0)
    assert res.support == () and res.objective == 0.0


def test_l0_result_does_not_depend_on_the_stack_cap(monkeypatch):
    # blocks of 1, 2 or a few supports of one size give the same bits as one
    # block per size
    cases = [criterion6_instance(i) for i in (0, 3, 7)]
    rng = np.random.default_rng(12)
    X = rng.standard_normal((5, 8))
    X[:, 6] = X[:, 0]
    cases.append((Problem(X, rng.standard_normal(5)), 1.2 * spectral_norm(X)))
    whole = [l0_global_min(prob, 0.5, rho) for prob, rho in cases]
    for cap in (1, 7, 40):
        monkeypatch.setattr(oracle, "_STACK_FLOATS", cap)
        for (prob, rho), want in zip(cases, whole):
            got = l0_global_min(prob, 0.5, rho)
            assert np.array_equal(got.beta, want.beta) and got.objective == want.objective
            assert got[2:4] == want[2:4] and got.min_magnitude == want.min_magnitude
            assert np.array_equal(got.beta_original, want.beta_original)


def test_l0_lower_bounds_hard_fixed_points():
    # any hard-rule fixed point has all magnitudes past the threshold, so its
    # penalized objective coincides with the l0 one and cannot beat the oracle
    lam = 0.5
    failures = []
    for i in range(30):
        rng = np.random.default_rng(400 + i)
        p = int(rng.integers(3, 9))
        n = p + 3
        X = rng.standard_normal((n, p)) / math.sqrt(n)
        y = 2.0 * rng.standard_normal(n)
        prob = Problem(X, y)
        rho = 1.05 * spectral_norm(X)
        oracle = l0_global_min(prob, lam, rho)
        assert oracle.gap_ok, i
        res = solve(prob, SolverConfig(rule=rule(f"hard(lambda={lam})"), rho=rho,
                                       tol=1e-11, max_iter=3000))
        b = rho * res.beta
        f_fp = 0.5 * np.sum((X / rho @ b - y) ** 2) + 0.5 * lam ** 2 * np.count_nonzero(b)
        if f_fp < oracle.objective - 1e-9 * (1.0 + abs(oracle.objective)):
            failures.append((i, f_fp, oracle.objective))
    assert failures == []


# ---------------------------------------------------------------------------
# coordinate descent
# ---------------------------------------------------------------------------

def test_cd_scalar_unit_design_matches_rule():
    # with a single unit column the coordinate update is the rule itself
    for r in rule_catalog(lam=0.7, eta=0.5, gamma=2.5):
        prob = Problem(np.array([[1.0]]), np.array([2.5]))
        res = coordinate_descent_local_min(prob, PenaltySpec(rule=r))
        want = float(apply_vec(r, np.array([2.5]))[0])
        assert res.beta[0] == pytest.approx(want, abs=1e-12), r.kind
        assert res.converged


def test_cd_scalar_update_matches_grid_search():
    # column scale c and target w chosen so the single coordinate update is
    # exactly the penalized scalar minimizer; grid search is the referee
    for r in rule_catalog(lam=0.7, eta=0.5, gamma=2.5):
        spec = PenaltySpec(rule=r)
        for c in (0.3, 1.0, 2.5):
            for w in (0.2, 0.8, 1.2, 2.0, 5.0, -1.7):
                prob = Problem(np.array([[math.sqrt(c)]]),
                               np.array([w * math.sqrt(c)]))
                res = coordinate_descent_local_min(prob, spec, max_sweeps=50)
                grid = np.linspace(-1.5 * abs(w), 1.5 * abs(w), 100001)
                phi = 0.5 * c * (grid - w) ** 2 + penalty_theta(spec, grid)
                phi_cd = 0.5 * c * (res.beta[0] - w) ** 2 + float(
                    penalty_theta(spec, np.array([res.beta[0]]))[0])
                assert phi_cd <= float(np.min(phi)) + 1e-9, (r.kind, c, w)
                assert res.objective == pytest.approx(phi_cd + 0.0, abs=1e-12)


def test_cd_matches_solver_on_convex_problem():
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        X = rng.standard_normal((15, 8)) / math.sqrt(15)
        y = 2.0 * rng.standard_normal(15)
        prob = Problem(X, y)
        rho = 1.05 * spectral_norm(X)
        r = rule("soft(lambda=0.5)")
        res = solve(prob, SolverConfig(rule=r, rho=rho, tol=1e-12, max_iter=20000))
        cd = coordinate_descent_local_min(prob, PenaltySpec(rule=r), rho=rho,
                                          tol=1e-12, max_sweeps=5000)
        assert cd.converged
        assert cd.objective == pytest.approx(res.objective, abs=1e-8)


def test_cd_local_minima_satisfy_theta_equation():
    rules = [rule("soft(lambda=0.4)"), rule("mcp(lambda=0.4,gamma=3)"),
             rule("scad(lambda=0.4,a=3.7)")]
    for i in range(20):
        rng = np.random.default_rng(600 + i)
        X = rng.standard_normal((20, 10)) / math.sqrt(20)
        y = 1.5 * rng.standard_normal(20)
        prob = Problem(X, y)
        rho = 1.05 * spectral_norm(X)
        for r in rules:
            cd = coordinate_descent_local_min(prob, PenaltySpec(rule=r), rho=rho)
            assert cd.converged
            rep = check_theta_equation(cd.beta / rho, prob, r, rho=rho, tol=1e-6)
            if not rep.continuity_flag:
                assert rep.passed, (i, r.kind, rep.residual)


def test_cd_stays_at_l0_optimum():
    lam = 0.6
    for i in range(10):
        rng = np.random.default_rng(700 + i)
        p = int(rng.integers(3, 7))
        X = rng.standard_normal((p + 4, p))
        y = 3.0 * rng.standard_normal(p + 4)
        prob = Problem(X, y)
        rho = 1.05 * spectral_norm(X)
        oracle = l0_global_min(prob, lam, rho)
        if not oracle.gap_ok:
            continue
        cd = coordinate_descent_local_min(prob, PenaltySpec(rule=rule(f"hard(lambda={lam})")),
                                          rho=rho, start=oracle.beta, tol=1e-10)
        assert np.max(np.abs(cd.beta - oracle.beta)) <= 1e-8, i


def test_cd_rejects_augmented_penalties():
    spec = PenaltySpec(rule=rule("hard(lambda=0.5)"), augmentation="l0")
    prob = Problem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="induced penalty"):
        coordinate_descent_local_min(prob, spec)


# ---------------------------------------------------------------------------
# stationarity check
# ---------------------------------------------------------------------------

def test_check_theta_equation_detects_non_stationary_points():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 5))
    y = rng.standard_normal(10) * 3.0
    prob = Problem(X, y)
    rep = check_theta_equation(rng.standard_normal(5), prob, rule("soft(lambda=0.5)"),
                               rho=1.1 * spectral_norm(X), tol=1e-8)
    assert not rep.passed
    assert rep.residual > 1e-3


def test_check_theta_equation_flags_jump_grazing():
    prob = Problem(np.array([[1.0]]), np.array([0.6]))
    rep = check_theta_equation(np.array([0.0]), prob, rule("hard(lambda=0.6)"), rho=1.0)
    assert rep.continuity_flag
    assert rep.residual <= 1e-12


# ---------------------------------------------------------------------------
# regularity probes
# ---------------------------------------------------------------------------

def test_regularity_slack_frozen_example():
    # X = I2, soft threshold 1, beta = (2, 0), beta' = (3, 0),
    # delta = 1, vartheta = 0.5, K = 1; slacks worked out by hand
    X = np.eye(2)
    beta = np.array([2.0, 0.0])
    beta_p = np.array([3.0, 0.0])
    r = rule("soft(lambda=1)")
    args = dict(X=X, beta=beta, beta_prime=beta_p, rule=r, lam=1.0,
                delta=1.0, vartheta=0.5, K=1.0)
    assert regularity_slack("R0", **args) == pytest.approx(5.25, abs=1e-12)
    assert regularity_slack("R1", **args) == pytest.approx(2.25, abs=1e-12)
    assert regularity_slack("S0", **args) == pytest.approx(5.25, abs=1e-12)
    assert regularity_slack("S1", **args) == pytest.approx(3.25, abs=1e-12)


def test_regularity_slack_at_equal_points():
    # beta' = beta leaves only the penalty terms: (1 + K) * P(beta)
    X = np.eye(2)
    beta = np.array([2.0, 0.0])
    s = regularity_slack("R0", X, beta, beta, rule("soft(lambda=1)"), 1.0,
                         delta=1.0, vartheta=0.5, K=1.0)
    assert s == pytest.approx(4.0, abs=1e-12)


def test_probe_regularity_convex_rules_hold():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 6))
    X = X / (1.05 * spectral_norm(X))
    ref = np.linalg.lstsq(X, rng.standard_normal(10), rcond=None)[0]
    cases = [(rule("soft(lambda=1)"), 1.0), (rule("ridge(eta=0.5)"), 0.0),
             (rule("elastic-net(lambda=1,eta=0.5)"), 1.0),
             (rule("berhu(lambda=1,eta=0.5)"), 1.0)]
    for r, lam in cases:
        cfg = RegularityProbeConfig(assumption="R0", delta=1.0, vartheta=0.5,
                                    K=0.5, lam=lam, reference_beta=ref,
                                    sample_radius=3.0, seed=0)
        out = probe_regularity(cfg, Problem(X, np.zeros(10)), r)
        assert not out.violated, (r.kind, out.min_slack)
        assert out.min_slack >= -1e-10


def test_probe_regularity_finds_violation_for_hard_on_degenerate_design():
    # with a zero design nothing offsets the quadratic growth on the left side
    X = np.zeros((5, 4))
    cfg = RegularityProbeConfig(assumption="R0", delta=1.0, vartheta=0.5,
                                K=0.1, lam=0.8, reference_beta=np.zeros(4),
                                sample_radius=50.0, seed=0)
    out = probe_regularity(cfg, Problem(X, np.zeros(5)), rule("hard(lambda=0.8)"))
    assert out.violated
    assert out.min_slack < 0
    assert out.argmin.shape == (4,)


def test_probe_regularity_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((8, 5))
    cfg = RegularityProbeConfig(assumption="S1", delta=0.5, vartheta=1.0,
                                K=1.0, lam=0.7, reference_beta=np.zeros(5),
                                num_samples=40, sample_radius=2.0, seed=9)
    prob = Problem(X, np.zeros(8))
    a = probe_regularity(cfg, prob, rule("soft(lambda=0.7)"))
    b = probe_regularity(cfg, prob, rule("soft(lambda=0.7)"))
    assert a.min_slack == b.min_slack
    assert np.array_equal(a.argmin, b.argmin)
    assert a.num_evaluated == b.num_evaluated >= 1 + 2 * 5 + 2 * 40


def test_probe_config_validation():
    ref = np.zeros(3)
    good = dict(assumption="R0", delta=1.0, vartheta=0.5, K=0.0, lam=1.0,
                reference_beta=ref)
    RegularityProbeConfig(**good)
    assert set(ASSUMPTIONS) == {"R0", "R1", "S0", "S1"}
    for key, bad in [("assumption", "R2"), ("delta", 0.0), ("vartheta", -1.0),
                     ("K", -0.5), ("lam", -1.0), ("num_samples", 0),
                     ("sample_radius", 0.0)]:
        with pytest.raises(ValueError):
            RegularityProbeConfig(**{**good, key: bad})


def regularity_slack_reference(assumption, X, beta, beta_prime, rule, lam, delta, vartheta, K):
    # the reference: one pair per call, each inequality's two sides written out
    spec = PenaltySpec(rule=rule.with_lambda(lam) if rule.kind in LAMBDA_KINDS else rule)
    d = beta_prime - beta
    ph_d = float(np.sum(penalty_hard(d, lam)))
    l2 = float(d @ d)
    xd = X @ d
    xd2 = float(xd @ xd)
    pt_b = float(np.sum(penalty_theta(spec, beta)))
    pt_bp = float(np.sum(penalty_theta(spec, beta_prime)))
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


def loop_probes(config, p):
    # the probes as a list, drawn one at a time
    beta = np.array(config.reference_beta)
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
    return probes


@pytest.mark.parametrize("n,p", [(10, 6), (40, 20), (400, 200)])
def test_stacked_slacks_match_the_reference_loop(n, p, monkeypatch):
    stacked = []  # the probes probe_regularity hands the evaluator
    slacks = oracle._slacks
    monkeypatch.setattr(oracle, "_slacks", lambda *a: stacked.append(a[3]) or slacks(*a))
    rng = np.random.default_rng(19 + p)
    X = rng.standard_normal((n, p)) / math.sqrt(n)
    ref_beta = np.zeros(p)
    ref_beta[rng.choice(p, size=max(2, p // 20), replace=False)] = 2.0 * rng.standard_normal(max(2, p // 20))
    prob = Problem(X, np.zeros(n))
    for assumption in ASSUMPTIONS:
        cfg = RegularityProbeConfig(assumption=assumption, delta=1.0, vartheta=0.5, K=0.5,
                                    lam=1.0, reference_beta=ref_beta, sample_radius=3.0, seed=p)
        probes = loop_probes(cfg, p)
        for r in rule_catalog():
            args = (r, cfg.lam, cfg.delta, cfg.vartheta, cfg.K)
            want = np.array([regularity_slack_reference(assumption, X, ref_beta, bp, *args)
                             for bp in probes])
            got = slacks(assumption, X, ref_beta, np.array(probes), *args)
            # relative to the largest slack: every probe sits at the same
            # radius, and a slack near zero is a difference of terms that size
            tol = 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol, (assumption, r.kind)

            min_slack, argmin = math.inf, probes[0]  # the strict < scan
            for bp, slack in zip(probes, want):
                if slack < min_slack:
                    min_slack, argmin = slack, bp
            out = probe_regularity(cfg, prob, r)
            assert np.array_equal(stacked.pop(), probes), (assumption, r.kind)
            assert np.array_equal(out.argmin, argmin), (assumption, r.kind)
            assert abs(out.min_slack - min_slack) <= tol
            assert out.violated == (min_slack < 0)
            assert out.num_evaluated == len(probes) == 1 + 2 * p + 2 * cfg.num_samples


def test_regularity_slack_refuses_mismatched_shapes():
    r = rule("soft(lambda=1)")
    for beta, beta_prime in [(np.array([1.0]), np.array([2.0, 0, 0])),
                             (np.zeros(3), np.zeros(2)), (np.zeros((1, 3)), np.zeros(3))]:
        with pytest.raises(ValueError, match="has shape"):
            regularity_slack("R0", np.eye(3), beta, beta_prime, r, 1, 1, .5, 1)
    with pytest.raises(ValueError, match="expected a matrix"):
        regularity_slack("R0", np.ones(3), np.zeros(3), np.zeros(3), r, 1, 1, .5, 1)


def test_probe_config_refuses_non_finite_values():
    good = dict(assumption="R0", delta=1.0, vartheta=0.5, K=0.0, lam=1.0,
                reference_beta=np.zeros(3))
    with pytest.raises(ValueError, match="num_samples must be an integer"):
        RegularityProbeConfig(**good, num_samples=2.5)
    for key, bad in [("delta", math.inf), ("vartheta", math.inf), ("K", math.inf),
                     ("delta", math.nan), ("K", math.nan),
                     ("reference_beta", [0.0, math.nan, 1.0]),
                     ("reference_beta", [math.inf, 0.0, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            RegularityProbeConfig(**{**good, key: bad})


# ---------------------------------------------------------------------------
# benchmark error level
# ---------------------------------------------------------------------------

def test_minimax_reference_frozen_values():
    assert minimax_reference(7, 7, 2.0) == pytest.approx(56.0, abs=1e-12)
    assert minimax_reference(1, 10, 1.0) == pytest.approx(1.0 + math.log(10.0 * math.e))
    assert minimax_reference(3, 10, 0.0) == 0.0


def test_minimax_reference_validation():
    with pytest.raises(ValueError):
        minimax_reference(0, 5, 1.0)
    with pytest.raises(ValueError):
        minimax_reference(6, 5, 1.0)
    with pytest.raises(ValueError):
        minimax_reference(2, 5, -1.0)
