"""Thresholding rules: frozen values, axiom sweeps, inverses, parsing.

The generalized inverse and the lr proximal map get independent numerical
oracles here (grid supremum and brute-force minimization); everything else
is checked against hand-computed closed forms.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tisp.penalty import AUGMENTATIONS, PenaltySpec, penalty_theta, penalty_theta_quadrature
from tisp.thresholding import (
    KINDS,
    LAMBDA_KINDS,
    RuleParseError,
    ThresholdRule,
    apply,
    apply_vec,
    default_contraction_grid,
    discontinuities,
    estimate_contraction,
    integrand_pieces,
    inverse,
    near_jump,
    parse_rule,
    rule_catalog,
    rule_lambda,
    verify_axioms,
    _lr_jump,
    _lr_root,
    _lr_zero_boundary,
    _theta_pieces,
)

CATALOG = rule_catalog()


def rule(text):
    return parse_rule(text, require_lambda=False)


def random_rules(seed=0, draws=6):
    """Seeded sweep: every kind at lambda = 0 (lr at zeta = 0) and at random
    lambda with random parameters, plus berhu with eta = 0."""
    rng = np.random.default_rng(seed)
    rules = []
    for i in range(draws):
        lam = 0.0 if i % 2 == 0 else float(rng.uniform(0.1, 2.0))
        eta = float(rng.uniform(0.0, 2.0))
        a = 2.0 + float(rng.uniform(0.05, 3.0))
        gamma = 1.0 + float(rng.uniform(0.05, 3.0))
        r = float(rng.uniform(0.1, 0.9))
        zeta = float(rng.uniform(0.1, 2.0)) if lam else 0.0
        own = {"scad": ThresholdRule("scad", lam=lam, a=a), "lr": ThresholdRule("lr", r=r, zeta=zeta)}
        rules += [own.get(c.kind, c) for c in rule_catalog(lam=lam, eta=eta, gamma=gamma)]
        rules.append(ThresholdRule("berhu", lam=float(rng.uniform(0.1, 2.0)), eta=0.0))
    return rules


SWEEP = random_rules()
OTHER_LAMBDA = dict(zip(CATALOG + SWEEP, np.random.default_rng(1).uniform(0.0, 2.0, len(CATALOG + SWEEP))))


def at_lambdas(r):
    """The rule, plus for lambda kinds the rule at a random other lambda."""
    return [r, r.with_lambda(float(OTHER_LAMBDA[r]))] if r.kind in LAMBDA_KINDS else [r]


def knots(r):
    """Interior knots of Theta^{-1}: where its pieces meet."""
    if r.kind == "lr":
        return [_lr_jump(r.zeta, r.r)]
    return [lo for lo, _, _, _ in integrand_pieces(r) if lo > 0.0]


def theta_reference(rule, t, z, lam):
    """Theta written out per kind: the reference `apply_vec` is compared with.
    Same contract as `tisp.thresholding._theta`."""
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


def seams(r):
    """|t| where Theta changes formula: each end of each piece, mapped into t
    by the piece itself, and the jumps; for lr its zero boundary."""
    if r.kind == "lr":
        return [_lr_zero_boundary(r.zeta, r.r)]
    ends = [(1.0 + m) * u + q for lo, hi, m, q in integrand_pieces(r)
            for u in (lo, hi) if math.isfinite(u)]
    return ends + list(discontinuities(r))


def seam_grid(r, seed=0):
    """Both signs of: 0, every seam with its two float neighbours, and random
    points up to three times the largest seam."""
    at = np.array(seams(r) + [0.0])
    near = np.concatenate([at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)])
    near = near[near >= 0.0]
    top = 3.0 * (at.max() or 1.0)
    grid = np.concatenate([near, np.random.default_rng(seed).uniform(0.0, top, 200)])
    return np.concatenate([grid, -grid])


# ---------------------------------------------------------------------------
# frozen scalar values
# ---------------------------------------------------------------------------

FROZEN = [
    # (rule text, input, output)
    ("soft(lambda=1)", 3.0, 2.0),
    ("soft(lambda=1)", 0.7, 0.0),
    ("hard(lambda=1)", 1.0, 0.0),   # the jump itself maps to zero
    ("hard(lambda=1)", 1.1, 1.1),
    ("ridge(eta=0.5)", 3.0, 2.0),
    ("elastic-net(lambda=1,eta=0.5)", 3.0, 4.0 / 3.0),
    ("berhu(lambda=1,eta=0.5)", 1.5, 0.5),          # soft branch
    ("berhu(lambda=1,eta=0.5)", 3.0, 2.0),          # branch boundary
    ("berhu(lambda=1,eta=0.5)", 6.0, 4.0),          # ridge branch
    ("hard-ridge(lambda=1,eta=0.5)", 1.0, 0.0),
    ("hard-ridge(lambda=1,eta=0.5)", 1.2, 0.8),
    ("scad(lambda=1,a=3.7)", 1.5, 0.5),             # soft branch
    ("scad(lambda=1,a=3.7)", 3.0, 4.4 / 1.7),       # interpolating branch
    ("scad(lambda=1,a=3.7)", 5.0, 5.0),             # identity branch
    ("mcp(lambda=1,gamma=2)", 1.5, 1.0),
    ("mcp(lambda=1,gamma=2)", 3.0, 3.0),
    ("lr(r=0.5,zeta=1)", 1.4, 0.0),
    ("lr(r=0.5,zeta=1)", 2.0, 1.6053779404795958),
]


@pytest.mark.parametrize("text,t,expected", FROZEN)
def test_frozen_values(text, t, expected):
    r = rule(text)
    assert apply(r, t) == pytest.approx(expected, abs=1e-12)
    # oddness at the same point
    assert apply(r, -t) == pytest.approx(-expected, abs=1e-12)


def test_soft_matches_textbook_formula():
    r = rule("soft(lambda=0.8)")
    t = np.linspace(-4, 4, 201)
    expected = np.sign(t) * np.maximum(np.abs(t) - 0.8, 0.0)
    assert np.max(np.abs(apply_vec(r, t) - expected)) == 0.0


def test_hard_keeps_or_kills():
    r = rule("hard(lambda=1)")
    t = np.array([-2.0, -1.0, -0.3, 0.0, 0.9999, 1.0, 1.0001, 7.0])
    out = apply_vec(r, t)
    assert np.array_equal(out, np.where(np.abs(t) > 1.0, t, 0.0))


# Theta from the piece table against the per-kind reference
BIT_EXACT = ("hard", "hard-ridge", "ridge", "elastic-net", "berhu", "lr")
NEAR_LIMIT = [rule("scad(lambda=1,a=2.0001)"), rule("mcp(lambda=1,gamma=1.0001)")]


def at_all_lambdas(r):
    """`at_lambdas` (off CATALOG and SWEEP, the rule alone) plus the rule at
    the extreme thresholds 0, 1e-300 and 1e300."""
    if r.kind not in LAMBDA_KINDS:
        return [r]
    return (at_lambdas(r) if r in OTHER_LAMBDA else [r]) + [r.with_lambda(x) for x in (0.0, 1e-300, 1e300)]


def test_theta_matches_the_reference():
    for r0 in CATALOG + SWEEP + NEAR_LIMIT:
        for r in at_all_lambdas(r0):
            t = seam_grid(r)
            got = apply_vec(r, t)
            want = theta_reference(r, t, np.abs(t), rule_lambda(r))
            assert np.array_equal(got, want) or r.kind in ("scad", "mcp"), str(r)
            if r.kind in BIT_EXACT:
                # bits too, away from t = 0: hard at lambda = 0 and ridge at
                # eta = 0 have the same single piece, and the reference maps
                # -0.0 to +0.0 for the one and to -0.0 for the other
                nz = t != 0.0
                assert np.array_equal(got[nz].view(np.int64), want[nz].view(np.int64)), str(r)
            elif r.kind in ("scad", "mcp"):
                # 1 + m = 1 - 1/(a - 1) or 1 - 1/gamma loses digits as the knee
                # nears its limit
                tame = r.a >= 2.5 if r.kind == "scad" else r.gamma >= 1.5
                scale = np.maximum(np.abs(got), np.abs(want))
                tol = 8.0 * np.spacing(scale) if tame else 2e-12 * scale
                assert np.all(np.abs(got - want) <= tol), str(r)


def test_theta_pieces_start_on_the_reference_seams():
    seams = {"hard": lambda r, lam: [lam], "hard-ridge": lambda r, lam: [lam],
             "berhu": lambda r, lam: [lam + lam / r.eta] if r.eta else [],
             "scad": lambda r, lam: [2.0 * lam, r.a * lam], "mcp": lambda r, lam: [r.gamma * lam]}
    for r0 in CATALOG + SWEEP + NEAR_LIMIT:
        for r in at_all_lambdas(r0):
            if r.kind == "lr":
                continue
            lam = rule_lambda(r)
            want = [x for x in seams.get(r.kind, lambda r, lam: [])(r, lam) if 0.0 < x < math.inf]
            assert [p[0] for p in _theta_pieces(r, lam) if p[0] is not None] == want, str(r)


def test_theta_stays_between_zero_and_t_at_the_seams():
    for r0 in NEAR_LIMIT:
        for r in at_all_lambdas(r0):
            t = seam_grid(r)
            mag = np.sign(t) * apply_vec(r, t)
            assert np.all(mag >= 0.0) and np.all(mag <= np.abs(t)), str(r)


def test_zero_region_gives_positive_zero():
    assert not np.signbit(apply_vec(rule("soft(lambda=1)"), [-0.5, 0.5])).any()
    for r0 in CATALOG + SWEEP:
        for r in at_lambdas(r0):
            tau = inverse(r, 0.0)
            t = np.linspace(-tau, tau, 101)
            out = apply_vec(r, t[t != 0.0])
            assert np.all(out == 0.0) and not np.signbit(out).any(), str(r)


def test_identity_rules_return_a_new_array():
    t = np.array([-2.0, -0.5, 0.0, 1e-300, 3.0])
    for text in ("soft(lambda=0)", "hard(lambda=0)", "scad(lambda=0)", "mcp(lambda=0)",
                 "elastic-net(lambda=0,eta=0)", "ridge(eta=0)", "lr(r=0.5,zeta=0)"):
        out = apply_vec(rule(text), t)
        assert np.array_equal(out, t) and not np.shares_memory(out, t), text


def test_lr_zero_boundary_formula():
    # T0 = zeta^{1/(2-r)} (2-r) (2-2r)^{(r-1)/(2-r)}
    for zeta, r in [(1.0, 0.5), (2.0, 0.3), (0.7, 0.8)]:
        t0 = zeta ** (1 / (2 - r)) * (2 - r) * (2 - 2 * r) ** ((r - 1) / (2 - r))
        assert _lr_zero_boundary(zeta, r) == pytest.approx(t0, rel=1e-14)
    assert _lr_zero_boundary(1.0, 0.5) == pytest.approx(1.5, abs=1e-14)
    assert _lr_jump(1.0, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_lr_matches_brute_force_prox():
    # the rule must return the global minimizer of 0.5(b-t)^2 + zeta*b^r
    zeta, r = 1.0, 0.5
    lr = rule("lr(r=0.5,zeta=1)")

    def objective(b, t):
        return 0.5 * (b - t) ** 2 + zeta * b**r

    for t in [0.5, 1.0, 1.4, 1.6, 2.0, 3.0, 10.0]:
        out = apply(lr, t)
        grid = np.linspace(0.0, 1.5 * t, 200001)
        vals = objective(grid, t)
        best = float(np.min(np.minimum(vals, 0.5 * t * t)))  # include b = 0
        got = 0.5 * t * t if out == 0.0 else objective(out, t)
        assert got <= best + 1e-9


# ---------------------------------------------------------------------------
# generalized inverse
# ---------------------------------------------------------------------------

def test_inverse_is_grid_supremum():
    # Theta^{-1}(u) = sup{t : Theta(t) <= u}, checked against a dense grid,
    # also exactly on the knots and at a second lambda
    t = np.linspace(0.0, 25.0, 50001)
    spacing = t[1] - t[0]
    for r0 in CATALOG + SWEEP:
        for r in at_lambdas(r0):
            out = apply_vec(r, t)
            us = [0.0, 0.25, 0.5, 1.0, 1.7, 2.5, 4.0] + [k for k in knots(r) if k <= 6.0]
            for u in us:
                ok = t[out <= u + 1e-9]
                grid_sup = float(ok[-1])
                assert inverse(r, u) == pytest.approx(grid_sup, abs=2 * spacing), (str(r), u)


def test_inverse_frozen():
    assert inverse(rule("soft(lambda=1)"), 2.0) == pytest.approx(3.0, abs=1e-14)
    assert inverse(rule("mcp(lambda=1,gamma=2)"), 1.0) == pytest.approx(1.5, abs=1e-14)
    # hard: flat at lambda below the jump
    assert inverse(rule("hard(lambda=1)"), 0.5) == pytest.approx(1.0, abs=1e-14)
    assert inverse(rule("ridge(eta=0.5)"), 2.0) == pytest.approx(3.0, abs=1e-14)


def test_integrand_pieces_match_inverse():
    # each piece (lo, hi, m, q) must reproduce Theta^{-1}(u) - u = m*u + q
    for r in CATALOG:
        if r.kind == "lr":
            with pytest.raises(ValueError):
                integrand_pieces(r)
            continue
        pieces = integrand_pieces(r)
        assert pieces[0][0] == 0.0
        assert math.isinf(pieces[-1][1])
        for (lo, hi, m, q), (lo2, _, _, _) in zip(pieces, pieces[1:]):
            assert hi == lo2  # pieces tile [0, inf) without gaps
        for lo, hi, m, q in pieces:
            top = min(hi, lo + 10.0)
            for u in np.linspace(lo, top, 7)[1:-1]:
                assert m * u + q == pytest.approx(inverse(r, u) - u, abs=1e-12), r.kind


# ---------------------------------------------------------------------------
# axioms and contraction constants
# ---------------------------------------------------------------------------

def test_axioms_pass_for_catalog():
    t_grid = np.linspace(-10.0, 10.0, 2001)
    for r in CATALOG:
        report = verify_axioms(r, t_grid)
        assert report.passed, (r.kind, report)
        assert report.oddness <= 1e-12
        assert report.monotonicity <= 0.0
        assert report.shrinkage <= 0.0


def test_axiom_report_catches_oddness_violation():
    r = rule("soft(lambda=1)")
    t_grid = np.linspace(-10.0, 10.0, 2001)

    def shifted(t, lam):
        return apply_vec(r.with_lambda(lam), t) + 0.05

    report = verify_axioms(r, t_grid, apply_fn=shifted)
    assert not report.passed
    assert report.oddness > 1e-12


def test_axiom_report_catches_shrinkage_violation():
    r = rule("soft(lambda=1)")
    t_grid = np.linspace(-10.0, 10.0, 2001)

    def inflated(t, lam):
        return 1.2 * np.asarray(t, dtype=float)

    report = verify_axioms(r, t_grid, apply_fn=inflated)
    assert not report.passed
    assert report.shrinkage > 0.0


EXPECTED_CONTRACTION = {
    "soft": 0.0,
    "hard": 1.0,
    "ridge": -0.5,        # eta = 0.5
    "elastic-net": -0.5,
    "berhu": 0.0,
    "hard-ridge": 1.0,
    "scad": 1.0 / 2.7,    # a = 3.7
    "mcp": 0.5,           # gamma = 2
    "lr": 1.0,
}


def stored_contraction(r):
    """The per-kind constants L as stated in closed form."""
    if r.kind in ("soft", "berhu"):
        return 0.0
    if r.kind in ("ridge", "elastic-net"):
        return -r.eta
    if r.kind == "scad":
        return 1.0 / (r.a - 1.0)
    if r.kind == "mcp":
        return 1.0 / r.gamma
    return 1.0  # hard, hard-ridge, lr


def test_contraction_table():
    for r in CATALOG:
        assert r.contraction == pytest.approx(EXPECTED_CONTRACTION[r.kind], abs=1e-12)
        est = estimate_contraction(r, default_contraction_grid(r))
        assert abs(est - r.contraction) <= 1e-3, (r.kind, est)
    for r in SWEEP:
        assert r.contraction == stored_contraction(r), str(r)
        if r.kind in LAMBDA_KINDS:
            # a template without lambda keeps the constant
            assert replace(r, lam=None).contraction == stored_contraction(r), str(r)
        if r.effective_threshold() > 0 or r.kind == "ridge":
            # at lambda = 0 (zeta = 0) a rule degenerates to a map whose
            # inverse has no piece of least slope to estimate
            est = estimate_contraction(r, default_contraction_grid(r))
            assert abs(est - r.contraction) <= 1e-3, (str(r), est)


def test_contraction_parameter_dependence():
    assert ThresholdRule(kind="scad", lam=1.0, a=3.0).contraction == pytest.approx(0.5)
    assert ThresholdRule(kind="mcp", lam=1.0, gamma=4.0).contraction == pytest.approx(0.25)
    assert ThresholdRule(kind="ridge", eta=0.2).contraction == pytest.approx(-0.2)
    assert ThresholdRule(kind="elastic-net", lam=1.0, eta=0.2).contraction == pytest.approx(-0.2)


def test_effective_threshold():
    values = {r.kind: r.effective_threshold() for r in CATALOG}
    assert values["ridge"] == 0.0
    assert values["lr"] == pytest.approx(1.5)
    for kind in LAMBDA_KINDS:
        assert values[kind] == 1.0
    for r in SWEEP:
        if r.kind == "lr":
            expected = _lr_zero_boundary(r.zeta, r.r)
        else:
            expected = r.lam if r.kind in LAMBDA_KINDS else 0.0
        assert r.effective_threshold() == expected, str(r)


def test_discontinuities():
    expected = {
        "soft": (),
        "hard": (1.0,),
        "ridge": (),
        "elastic-net": (),
        "berhu": (),
        "hard-ridge": (1.0,),
        "scad": (),
        "mcp": (),
        "lr": (1.5,),
    }
    for r in CATALOG:
        assert discontinuities(r) == pytest.approx(expected[r.kind])
    for r0 in SWEEP:
        for r in at_lambdas(r0):
            lam = r.lam
            if r.kind in ("hard", "hard-ridge"):
                want = (lam,) if lam > 0 else ()
            elif r.kind == "lr":
                t0 = _lr_zero_boundary(r.zeta, r.r)
                want = (t0,) if t0 > 0 else ()
            else:
                want = ()
            got = discontinuities(r)
            assert got == want, str(r)
            assert discontinuities(r0, lam) == got, str(r)  # the solve loop's spelling
            for d in got:
                # Theta is zero at the jump and leaps to a fraction of it beyond
                below, beyond = apply_vec(r, np.array([d, d * (1.0 + 1e-12)]))
                assert below == 0.0 and beyond >= 0.1 * d, (str(r), d)


def row(x, i, k):
    """Row i of a piece's or a jump's entry at a column of k lambdas, as a float."""
    return float(np.broadcast_to(x, (k, 1))[i, 0])


def test_a_lambda_column_gives_each_row_its_scalar_pieces_and_jumps():
    # the solve loop stacks rows made under different lambdas: at a (k, 1)
    # column, row i of every piece of width there, and of every jump, is
    # what the float call at lambda_i gives, under ==; rows at lambda = 0
    # keep zero-width pieces, and their flat ones are no jump (+inf)
    columns = [np.array([[0.0], [0.7], [0.0], [1.3], [2.5]]), np.array([[0.0], [0.0]]),
               np.array([[0.45]])]
    masked = 0
    for r in CATALOG + SWEEP:
        if r.kind not in LAMBDA_KINDS:
            continue
        for col in columns:
            k = len(col)
            pieces, jumps = integrand_pieces(r, col), discontinuities(r, col)
            assert len(jumps) <= 1 and all(d.shape == (k, 1) for d in jumps), str(r)
            for i, lam in enumerate(col[:, 0].tolist()):
                wide = [(row(lo, i, k), row(hi, i, k), m, row(q, i, k)) for lo, hi, m, q in pieces
                        if row(hi, i, k) > row(lo, i, k)]
                assert wide == integrand_pieces(r, lam), (str(r), lam)
                at = [row(d, i, k) for d in jumps]
                assert [d for d in at if d != math.inf] == list(discontinuities(r, lam)), (str(r), lam)
                masked += at == [math.inf]
                assert lam > 0 or at in ([], [math.inf]), str(r)
    assert masked >= 20  # hard and hard-ridge rows at lambda = 0
    # a float lambda still gives Python floats
    for r in CATALOG:
        if r.kind in LAMBDA_KINDS:
            assert all(type(v) is float for piece in integrand_pieces(r, 0.7) for v in piece), str(r)
            assert all(type(v) is float for v in discontinuities(r, 0.7)), str(r)
            assert all(type(v) is float for v in discontinuities(r, 0.0)), str(r)


def test_every_lambda_kind_is_lambda_homogeneous():
    # P(lam z; lam) = lam^2 P(z; 1), Theta(lam t; lam) = lam Theta(t; 1) and
    # the jumps at lam are lam times those at 1: why one lambda per row of a
    # stacked block is a broadcast and not a new formula
    rng = np.random.default_rng(29)
    t = rng.uniform(-6.0, 6.0, 400)
    t[:3] = 0.0, 1e-300, -3.0
    rules = [r for r in rule_catalog(lam=1.0, eta=0.5, gamma=2.5) if r.kind in LAMBDA_KINDS]
    rules += [ThresholdRule("berhu", lam=1.0, eta=0.0), ThresholdRule("scad", lam=1.0, a=2.2),
              ThresholdRule("mcp", lam=1.0, gamma=1.1), ThresholdRule("hard-ridge", lam=1.0, eta=3.0)]
    specs = [PenaltySpec(r) for r in rules] + [
        PenaltySpec(ThresholdRule("hard", lam=1.0), aug) for aug in ("capped-l1", "l0")] + [
        PenaltySpec(ThresholdRule("hard-ridge", lam=1.0, eta=0.5), "l0+l2")]
    assert {s.rule.kind for s in specs} == set(LAMBDA_KINDS) and {s.augmentation for s in specs} == set(AUGMENTATIONS)
    for spec in specs:
        r = spec.rule
        for lam in (0.37, 1.7, 3.1, 1e-3, 250.0):
            at_lam = PenaltySpec(r.with_lambda(lam), spec.augmentation)
            tl = lam * t
            scaled, unit = penalty_theta(at_lam, tl), lam * lam * penalty_theta(spec, t)
            assert np.all(np.abs(scaled - unit) <= 1e-15 * np.maximum(np.abs(scaled), np.abs(unit))), (
                str(r), spec.augmentation, lam)
            theta_gap = np.abs(apply_vec(at_lam.rule, tl) - lam * apply_vec(r, t))
            assert np.all(theta_gap <= 1e-13 * np.abs(tl)), (str(r), lam)
            assert discontinuities(r, lam) == tuple(lam * d for d in discontinuities(r, 1.0)), str(r)


def test_near_jump_equals_the_broadcast_test():
    # one pass per jump answers what the (p x k) broadcast did, also at the
    # edge of the tolerance and for empty inputs
    def broadcast(z, jumps, tol):
        jumps = np.asarray(jumps)
        return bool(jumps.size and z.size and np.abs(z[:, None] - jumps).min() < tol)

    tol = 1e-9
    cases = []
    for j in (1.0, 0.5, 1e-12):
        at = [j, j - tol, j + tol]
        edges = at + [np.nextafter(a, d) for a in at for d in (-np.inf, np.inf)]
        cases += [(np.array([3.0, e, 0.0]), (j,)) for e in edges]
        cases += [(np.array([e]), (j, 2.0)) for e in edges]  # two jumps
        cases.append((np.array([j + 0.25, 2.0 + 1e-10]), (j, 2.0)))  # near the second
    cases += [(np.array([]), (1.0,)), (np.array([1.0]), ()), (np.array([]), ()),
              (np.array([0.0, 5.0]), (1.0, 2.0))]
    hits = 0
    for z, jumps in cases:
        want = broadcast(z, jumps, tol)
        assert near_jump(z, jumps, tol) is want, (z, jumps)
        assert near_jump(z, np.array(jumps), tol) is want, (z, jumps)
        hits += want
    assert 0 < hits < len(cases)


def test_near_jump_row_by_row_equals_the_one_row_test():
    # a stack of rows gives a bool array with each row's own answer, for no
    # jump, one jump and several, rows of p = 0 entries, and magnitudes
    # just inside and just outside the tolerance; one row stays a Python bool
    tol = 1e-9
    rng = np.random.default_rng(23)
    for p in (0, 1, 5):
        for jumps in ((), (1.0,), (0.5, 1.0, 2.0), np.array([1.0, 1.5])):
            Z = rng.uniform(0.0, 2.5, size=(7, p))
            for i, j in zip(range(0, 7, 2), (0.5, 1.0, 2.0, 1.5)):
                if p:
                    Z[i, i % p] = j + (i - 3) * tol / 2  # 1.5 tol off, 0.5 tol off (twice), 1.5 tol off
            got = near_jump(Z, jumps, tol)
            assert got.dtype == bool and got.shape == (7,)
            want = [near_jump(row, jumps, tol) for row in Z]
            assert all(type(w) is bool for w in want)
            assert got.tolist() == want, (p, jumps)
            if p and len(jumps) > 1:
                assert 0 < sum(want) < 7
            assert near_jump(Z[:0], jumps, tol).shape == (0,)
            assert near_jump(Z[None], jumps, tol).tolist() == [want]  # over the last axis


def test_default_contraction_grid():
    g = default_contraction_grid(rule("soft(lambda=2)"))
    assert g.shape == (2001,)
    assert g[0] > 0.0
    assert np.all(np.diff(g) > 0)


# ---------------------------------------------------------------------------
# lambda from the rule
# ---------------------------------------------------------------------------

def test_lambda_override_rejected_for_parameterless_rules():
    # only the solve loop's integrand_pieces and discontinuities take a
    # threshold besides the rule's; ridge and lr have none to take
    for text in ["ridge(eta=0.5)", "lr(r=0.5,zeta=1)"]:
        for call in (rule_lambda, integrand_pieces, discontinuities):
            with pytest.raises(ValueError):
                call(rule(text), 2.0)
        with pytest.raises(ValueError):
            rule(text).with_lambda(1.0)


def test_template_without_lambda_needs_an_override():
    # a lambda kind parsed without lambda answers nothing until one is given:
    # every lambda-reading function raises instead of using lambda = 0
    t = np.array([1.0, -2.5])
    for r in CATALOG:
        if r.kind not in LAMBDA_KINDS:
            assert rule_lambda(r) is None
            continue
        template = replace(r, lam=None)  # as parse_rule(..., require_lambda=False) gives
        calls = [lambda: rule_lambda(template), lambda: integrand_pieces(template),
                 lambda: inverse(template, 0.0), template.effective_threshold,
                 lambda: discontinuities(template), lambda: apply_vec(template, t),
                 lambda: apply(template, 1.0), lambda: penalty_theta_quadrature(template, 2.0)]
        for call in calls:
            with pytest.raises(ValueError, match="no lambda; use rule.with_lambda"):
                call()
        # lambda-free: the contraction constant
        assert template.contraction == r.contraction
        assert template.with_lambda(r.lam) == r
        # the solve loop's spelling: the threshold as a float beside the rule
        assert rule_lambda(template, r.lam) == r.lam
        assert integrand_pieces(template, r.lam) == integrand_pieces(r)
        assert discontinuities(template, r.lam) == discontinuities(r)


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------

def test_rule_validation():
    with pytest.raises(ValueError):
        ThresholdRule(kind="nope", lam=1.0)
    with pytest.raises(ValueError):
        ThresholdRule(kind="scad", lam=1.0, a=2.0)      # needs a > 2
    with pytest.raises(ValueError):
        ThresholdRule(kind="mcp", lam=1.0, gamma=1.0)   # needs gamma > 1
    with pytest.raises(ValueError):
        ThresholdRule(kind="lr", r=0.0, zeta=1.0)       # needs 0 < r < 1
    with pytest.raises(ValueError):
        ThresholdRule(kind="lr", r=0.5, zeta=-1.0)
    with pytest.raises(ValueError):
        ThresholdRule(kind="soft", lam=-0.1)
    with pytest.raises(ValueError):
        ThresholdRule(kind="ridge", eta=0.5, lam=1.0)   # ridge takes no lambda


def test_parse_roundtrip():
    for r in CATALOG:
        assert parse_rule(str(r), require_lambda=False) == r


def test_parse_defaults():
    assert parse_rule("scad(lambda=1)").a == 3.7
    assert parse_rule("mcp(lambda=1)").gamma == 3.0


def test_parse_errors_name_the_offender():
    with pytest.raises(RuleParseError, match="bogus"):
        parse_rule("soft(lambda=1,bogus=2)")
    with pytest.raises(RuleParseError, match="lambda"):
        parse_rule("soft(lambda=1,lambda=2)")
    with pytest.raises(RuleParseError):
        parse_rule("soft")  # lambda required by default
    with pytest.raises(RuleParseError):
        parse_rule("soft(lambda=abc)")
    with pytest.raises(RuleParseError):
        parse_rule("frobnicate(lambda=1)")
    with pytest.raises(RuleParseError, match="'eta'"):
        parse_rule("ridge")
    with pytest.raises(RuleParseError, match="'zeta'"):
        parse_rule("lr(r=0.5)")


def test_catalog_covers_all_kinds():
    assert sorted(r.kind for r in CATALOG) == sorted(KINDS)
    assert len(CATALOG) == 9
