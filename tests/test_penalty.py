"""Induced penalties: closed forms vs quadrature, dominance, augmentations."""

import dataclasses

import numpy as np
import pytest

import tisp.solver
from tisp.penalty import (
    AUGMENTATIONS,
    PenaltySpec,
    _penalty_z,
    energy,
    penalty_hard,
    penalty_l0,
    penalty_l1,
    penalty_theta,
    penalty_theta_quadrature,
    quadrature_kinks,
)
from tisp.solver import Problem, SupportMemo
from tisp.thresholding import LAMBDA_KINDS, parse_rule, rule_catalog

CATALOG = rule_catalog()


def rule(text):
    return parse_rule(text, require_lambda=False)


# ---------------------------------------------------------------------------
# frozen values (hand-computed from the piecewise antiderivatives)
# ---------------------------------------------------------------------------

FROZEN = [
    ("soft(lambda=1)", 2.0, 2.0),
    ("hard(lambda=1)", 2.0, 0.5),
    ("hard(lambda=1)", 0.5, 0.375),
    ("ridge(eta=0.5)", 2.0, 1.0),
    ("elastic-net(lambda=1,eta=0.5)", 2.0, 3.0),
    ("berhu(lambda=1,eta=0.5)", 2.0, 2.0),          # branch point lam/eta
    ("berhu(lambda=1,eta=0.5)", 4.0, 5.0),
    ("hard-ridge(lambda=1,eta=0.5)", 2.0, 1.0 + 1.0 / 3.0),
    ("hard-ridge(lambda=1,eta=0.5)", 0.5, 0.375),   # lam t - t^2/2 below lam/(1+eta)
    ("berhu(lambda=1,eta=0.5)", 1.0, 1.0),          # lam t below lam/eta
    ("scad(lambda=1,a=3.7)", 0.5, 0.5),             # lam t below lam
    ("scad(lambda=1,a=3.7)", 2.0, 9.8 / 5.4),       # (2 a lam t - t^2 - lam^2) / (2 (a-1))
    ("scad(lambda=1,a=3.7)", 10.0, 0.5 * 4.7),      # saturates at (a+1) lam^2 / 2
    ("mcp(lambda=1,gamma=2)", 1.0, 0.75),           # lam t - t^2 / (2 gamma)
    ("mcp(lambda=1,gamma=2)", 5.0, 1.0),            # saturates at gamma lam^2 / 2
    ("lr(r=0.5,zeta=1)", 1.0, 1.0),                 # quadratic head up to the jump
    ("lr(r=0.5,zeta=1)", 4.0, 2.0),                 # head + zeta (sqrt(4) - 1)
]


@pytest.mark.parametrize("text,t,expected", FROZEN)
def test_frozen_penalty_values(text, t, expected):
    spec = PenaltySpec(rule=rule(text))
    assert penalty_theta(spec, t) == pytest.approx(expected, abs=1e-12)
    assert penalty_theta(spec, -t) == pytest.approx(expected, abs=1e-12)


def test_lr_penalty_at_a_zeta_whose_jump_squared_overflows():
    # jump = (2 zeta (1 - r))^(1/(2 - r)) = 1e200 here: its square is past
    # the float range, which a float ** raises on; below the jump P is the
    # quadratic head, finite
    spec = PenaltySpec(rule=rule("lr(r=0.5,zeta=1e300)"))
    assert penalty_theta(spec, 0.0) == 0.0
    assert penalty_theta(spec, np.array([0.0, 1.0]))[0] == 0.0


@pytest.mark.parametrize("t", [1e150, 1e160, 1e250])
def test_lr_penalty_past_the_float_range_is_inf(t):
    # P = t0 t - t^2/2 below the jump (1e200) and head + zeta (t^r - jump^r)
    # above it, with t0 = 1.5e200: past 1e308 at each t, where both terms of
    # the quadratic overflow (inf - inf); pytest turns a RuntimeWarning into
    # an error
    spec = PenaltySpec(rule=rule("lr(r=0.5,zeta=1e300)"))
    assert penalty_theta(spec, t) == np.inf
    assert penalty_theta(spec, np.array([t, 1e100]))[0] == np.inf


def test_solve_records_an_inf_objective_past_the_float_range():
    config = tisp.solver.SolverConfig(rule=rule("lr(r=0.5,zeta=1e300)"), max_iter=5)
    result = tisp.solver.solve(Problem(np.eye(3), [1e250, 1.0, 0.0]), config)
    assert result.trace.objective == [np.inf] * 5
    assert result.objective == np.inf


def test_penalty_basic_shape_properties():
    grid = np.linspace(0.0, 12.0, 241)
    for r in CATALOG:
        spec = PenaltySpec(rule=r)
        vals = penalty_theta(spec, grid)
        assert vals[0] == 0.0
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-12), r.kind  # nondecreasing in |t|
        assert np.array_equal(penalty_theta(spec, -grid), vals)


# ---------------------------------------------------------------------------
# closed form vs quadrature: both routes read `integrand_pieces` (exactly
# integrated, and numerically through `inverse`); the frozen rows above anchor
# every piece, and test_inverse_is_grid_supremum ties the pieces to the
# independent per-kind Theta
# ---------------------------------------------------------------------------

def test_closed_form_matches_quadrature():
    for r in CATALOG:
        scale = r.effective_threshold() or 1.0
        spec = PenaltySpec(rule=r)
        for t in np.linspace(-10.0 * scale, 10.0 * scale, 21):
            closed = penalty_theta(spec, t)
            quad = penalty_theta_quadrature(r, t)
            assert abs(closed - quad) <= 1e-8, (r.kind, t)


def test_quadrature_kinks_are_positive_and_sorted():
    for r in CATALOG:
        kinks = quadrature_kinks(r)
        assert all(k > 0 for k in kinks)
        assert kinks == sorted(kinks)
    assert quadrature_kinks(rule("soft(lambda=1)")) == []
    assert quadrature_kinks(rule("hard(lambda=1)")) == [1.0]


# ---------------------------------------------------------------------------
# reference penalties and dominance
# ---------------------------------------------------------------------------

def test_hard_penalty_closed_form():
    lam = 1.0
    t = np.linspace(-3, 3, 301)
    z = np.abs(t)
    expected = np.where(z < lam, lam * z - 0.5 * z * z, 0.5 * lam * lam)
    assert np.max(np.abs(penalty_hard(t, lam) - expected)) == 0.0
    assert penalty_hard(0.5, lam) == 0.375  # scalar in, scalar out
    assert isinstance(penalty_hard(0.5, lam), float)


def test_dominance_chain():
    lam = 1.0
    grid = np.linspace(-10.0, 10.0, 801)
    ph = penalty_hard(grid, lam)

    # P_H is the lower envelope: below both the l0 and l1 references
    assert np.min(np.minimum(penalty_l0(grid, lam), penalty_l1(grid, lam)) - ph) >= -1e-10

    # every lambda-thresholded rule's induced penalty dominates P_H at the
    # same threshold
    for r in rule_catalog(lam=lam):
        if r.kind not in LAMBDA_KINDS:
            continue
        spec = PenaltySpec(rule=r)
        gap = penalty_theta(spec, grid) - ph
        assert np.min(gap) >= -1e-10, r.kind

    # ridge has no threshold and genuinely violates the chain near zero,
    # which is why it sits outside the comparison
    assert penalty_theta(PenaltySpec(rule=rule("ridge(eta=0.5)")), 0.5) < penalty_hard(0.5, lam)


def test_hard_penalty_subadditive():
    lam = 1.0
    vals = np.linspace(-5.0, 5.0, 81)
    lhs = penalty_hard(vals[:, None] + vals[None, :], lam)
    rhs = penalty_hard(vals[:, None], lam) + penalty_hard(vals[None, :], lam)
    assert np.min(rhs - lhs) >= -1e-10


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------

def test_augmentation_pairing_validation():
    hard = rule("hard(lambda=1)")
    hr = rule("hard-ridge(lambda=1,eta=0.5)")
    soft = rule("soft(lambda=1)")
    for aug in ("capped-l1", "l0"):
        PenaltySpec(rule=hard, augmentation=aug)
        with pytest.raises(ValueError):
            PenaltySpec(rule=soft, augmentation=aug)
    PenaltySpec(rule=hr, augmentation="l0+l2")
    with pytest.raises(ValueError):
        PenaltySpec(rule=hard, augmentation="l0+l2")
    with pytest.raises(ValueError):
        PenaltySpec(rule=hard, augmentation="l7")
    assert set(AUGMENTATIONS) == {"none", "capped-l1", "l0", "l0+l2"}


def test_hard_augmentations_dominate_and_agree_on_range():
    # the add-on q = augmented - induced is nonnegative everywhere and
    # vanishes on the rule's range {0} u (lam, inf)
    lam = 1.0
    hard = rule("hard(lambda=1)")
    base = PenaltySpec(rule=hard)
    grid = np.linspace(-4.0, 4.0, 401)
    on_range = np.abs(grid) > lam
    for aug in ("capped-l1", "l0"):
        spec = PenaltySpec(rule=hard, augmentation=aug)
        q = penalty_theta(spec, grid) - penalty_theta(base, grid)
        assert np.min(q) >= -1e-12, aug
        assert np.max(np.abs(q[on_range])) <= 1e-12, aug
        assert penalty_theta(spec, 0.0) == 0.0

    # closed forms of the add-ons themselves
    capped = PenaltySpec(rule=hard, augmentation="capped-l1")
    assert np.array_equal(
        penalty_theta(capped, grid), np.minimum(lam * np.abs(grid), 0.5 * lam * lam)
    )
    l0 = PenaltySpec(rule=hard, augmentation="l0")
    assert np.array_equal(penalty_theta(l0, grid), penalty_l0(grid, lam))


def test_hard_ridge_augmentation():
    lam, eta = 1.0, 0.5
    hr = rule("hard-ridge(lambda=1,eta=0.5)")
    base = PenaltySpec(rule=hr)
    spec = PenaltySpec(rule=hr, augmentation="l0+l2")
    grid = np.linspace(-4.0, 4.0, 401)
    q = penalty_theta(spec, grid) - penalty_theta(base, grid)
    assert np.min(q) >= -1e-12
    on_range = np.abs(grid) > lam / (1.0 + eta)
    assert np.max(np.abs(q[on_range])) <= 1e-12
    expected = np.where(grid != 0.0, lam**2 / (2 * (1 + eta)), 0.0) + 0.5 * eta * grid**2
    assert np.allclose(penalty_theta(spec, grid), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_energy_scalar_frozen():
    prob = Problem(np.array([[1.0]]), np.array([3.0]))
    spec = PenaltySpec(rule=rule("soft(lambda=1)"))
    # 0.5*(2-3)^2 + P(2) = 0.5 + 2
    assert energy(spec, prob, np.array([2.0]), rho=1.0) == pytest.approx(2.5, abs=1e-14)


def test_energy_scaling_identity():
    # evaluating at rho equals evaluating the rho-scaled problem at 1
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 5))
    y = rng.standard_normal(12)
    beta = rng.standard_normal(5)
    rho = 2.3
    for r in CATALOG:
        spec = PenaltySpec(rule=r)
        a = energy(spec, Problem(X, y), beta, rho)
        b = energy(spec, Problem(X / rho, y), rho * beta, 1.0)
        assert a == pytest.approx(b, rel=1e-12), r.kind


def test_energy_accepts_bare_rule_and_checks_shape():
    prob = Problem(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert energy(rule("soft(lambda=1)"), prob, np.zeros(2), 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        energy(rule("soft(lambda=1)"), prob, np.zeros(3), 1.0)


def test_penalty_of_a_template_needs_lambda():
    # a rule template without lambda has no penalty until the rule has one
    for r in CATALOG:
        if r.kind not in LAMBDA_KINDS:
            continue
        template = dataclasses.replace(r, lam=None)
        for call in (lambda: penalty_theta(template, 1.0), lambda: penalty_theta_quadrature(template, 1.0),
                     lambda: quadrature_kinks(template)):
            with pytest.raises(ValueError, match="no lambda"):
                call()
        assert penalty_theta(template.with_lambda(r.lam), 1.5) == penalty_theta(r, 1.5)


def test_quadrature_of_a_template_raises_at_zero_too():
    # as penalty_theta does: a template has no penalty at any t
    for r in CATALOG:
        if r.kind in LAMBDA_KINDS:
            template = dataclasses.replace(r, lam=None)
            for call in (penalty_theta, penalty_theta_quadrature):
                with pytest.raises(ValueError, match="no lambda"):
                    call(template, 0.0)
            assert penalty_theta_quadrature(r, 0.0) == 0.0


def test_penalty_at_a_lambda_column_equals_each_row_at_its_float():
    # solve sums the penalty of a stacked block whose rows were recorded
    # under different lambdas: at a (k, 1) column, each row must equal the
    # float evaluation at its own lambda under ==, for every kind and every
    # augmentation, with rows at lambda = 0 and magnitudes on the knots
    rng = np.random.default_rng(31)
    col = np.array([[0.0], [0.6], [1.7], [0.0], [0.6], [3.2]])
    Z = rng.uniform(0.0, 8.0, (len(col), 40))
    Z[:, :8] = [0.0, 0.6, 1.2, 1.7, 2.2, 3.2, 3.7 * 0.6, 2.5 * 1.7]  # on knots of some rows
    specs = [PenaltySpec(r) for r in rule_catalog(lam=1.0, eta=0.5, gamma=2.5) if r.kind in LAMBDA_KINDS]
    specs += [PenaltySpec(rule("berhu(lambda=1,eta=0)")), PenaltySpec(rule("hard(lambda=1)"), "capped-l1"),
              PenaltySpec(rule("hard(lambda=1)"), "l0"), PenaltySpec(rule("hard-ridge(lambda=1,eta=0.5)"), "l0+l2")]
    assert {s.augmentation for s in specs} == set(AUGMENTATIONS)
    for spec in specs:
        got = _penalty_z(spec, Z, col)
        assert got.shape == Z.shape
        for i, lam in enumerate(col[:, 0].tolist()):
            want = _penalty_z(spec, Z[i], lam)
            assert np.array_equal(got[i], want), (str(spec.rule), spec.augmentation, lam)
            assert np.array_equal(want, penalty_theta(PenaltySpec(spec.rule.with_lambda(lam), spec.augmentation), Z[i]))


def test_penalty_rejects_nonfinite_and_bad_override():
    spec = PenaltySpec(rule=rule("soft(lambda=1)"))
    with pytest.raises(ValueError):
        penalty_theta(spec, np.array([1.0, np.inf]))
    for text in ["ridge(eta=0.5)", "lr(r=0.5,zeta=1)"]:  # no lambda to give them
        with pytest.raises(ValueError):
            PenaltySpec(rule=rule(text).with_lambda(2.0))


# ---------------------------------------------------------------------------
# design products over the support
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 10, 31, 32, 64, 100, 5000])
def test_times_over_the_support(monkeypatch, p):
    # X @ b, taken over b's nonzeros when b has at least 32 entries and at
    # most 1/32 of them are nonzero; below 32 columns never scanned for them
    rng = np.random.default_rng(p)
    X = rng.standard_normal((7, p))
    scans = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a: scans.append(a.size) or count_nonzero(a))
    for nnz in sorted({0, p // 32, p // 32 + 1, p}):
        b = np.zeros(p)
        b[rng.choice(p, nnz, replace=False)] = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 4, nnz)
        got, want = SupportMemo(X).times(b), X @ b
        over_support = p >= 32 and 32 * nnz <= p
        if over_support:
            assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(X) @ np.abs(b))), (p, nnz)
        else:
            assert np.array_equal(got, want), (p, nnz)
        if nnz < p:  # NaN in the zero coefficients' columns shows which product was formed
            probe = np.where(b == 0.0, np.nan, X)
            assert np.isfinite(SupportMemo(probe).times(b)).all() == over_support, (p, nnz)
    assert bool(scans) == (p >= 32)


@pytest.mark.parametrize("p", [32, 64, 3000])
def test_gradient_over_the_support(p):
    # X'(y - X b) is X'y - b_S G_S from the memo's Gram rows when b has at
    # most p/32 nonzeros, and the dense X'r otherwise
    rng = np.random.default_rng(p)
    X = rng.standard_normal((9, p))
    y = rng.standard_normal(9)
    for nnz in (p // 32, p // 32 + 1):
        memo = SupportMemo(X, y)
        b = np.zeros(p)
        b[rng.choice(p, nnz, replace=False)] = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 4, nnz)
        r = y - memo.times(b)
        got, dense = memo.gradient(b, r), X.T @ r
        if 32 * nnz <= p:
            scale = np.abs(X.T) @ (np.abs(y) + np.abs(X) @ np.abs(b))
            assert np.all(np.abs(got - dense) <= 1e-13 * scale), (p, nnz)
            assert sorted(memo._gram) == np.flatnonzero(b).tolist()
        else:
            assert np.array_equal(got, dense), (p, nnz)
            assert not memo._gram


def test_support_memo_takes_the_support_once_and_reuses_its_pieces(monkeypatch):
    # a caller finds b's support once and hands it to both products; while
    # the support stays the same, its stacked pieces are reused, and a memo
    # cleared in between gives the bits of a fresh one
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 320))
    y = rng.standard_normal(7)
    memo = SupportMemo(X, y)
    assert memo.support(np.ones(320)) is None and memo.support(np.zeros(31)) is None
    b = np.zeros(320)
    b[[3, 40, 41, 300]] = rng.standard_normal(4)
    nz = memo.support(b)
    assert nz.tolist() == [3, 40, 41, 300]
    r = y - memo.times(b, nz)
    assert np.array_equal(r, y - SupportMemo(X, y).times(b))
    g = memo.gradient(b, r, nz)
    assert np.array_equal(g, SupportMemo(X, y).gradient(b, r))
    assert memo._rows(nz.copy(), gram=True) is memo._rows(nz, gram=True)
    monkeypatch.setattr(tisp.solver, "_MEMO_ENTRIES", 4 * (7 + 320))
    other = np.zeros(320)
    other[[5, 6, 7, 8]] = 1.0
    memo.gradient(other, y - memo.times(other))  # clears the memo: b's columns leave
    assert 3 not in memo._cols
    for scale in (1.0, -2.5):
        fresh = SupportMemo(X, y)
        assert np.array_equal(memo.times(scale * b), fresh.times(scale * b))
        assert np.array_equal(memo.gradient(scale * b, r), fresh.gradient(scale * b, r))


def test_support_memo_store_holds_its_stacks_within_the_bound(monkeypatch):
    # the tables and the kept stacks of the last supports together stay
    # within _MEMO_ENTRIES, whichever memo on the store (any rho) asks
    rng = np.random.default_rng(9)
    X = rng.standard_normal((7, 320))
    y = rng.standard_normal(7)
    for cap in (500, 2000, 8000):
        monkeypatch.setattr(tisp.solver, "_MEMO_ENTRIES", cap)
        store = SupportMemo(X, y)
        memos = [store, SupportMemo(X, y, 1.7, store)]
        kept = 0
        for _ in range(1000):
            b = np.zeros(320)
            k = int(rng.integers(0, 11))
            b[rng.choice(40 if rng.random() < 0.7 else 320, k, replace=False)] = rng.standard_normal(k)
            memo = memos[int(rng.integers(2))]
            nz = memo.support(b)
            r = y - memo.times(b, nz)
            if rng.random() < 0.7:
                memo.gradient(b, r, nz)
            stacks = [rows.size for _, rows in store._last.values() if rows is not None]
            assert store._held == sum(a.size for t in (store._cols, store._gram) for a in t.values())
            assert store._held + sum(stacks) <= cap
            kept += bool(stacks)
        assert kept > 100  # the stacks are kept while they fit
