"""Experiment layer: configs, data generation, decay and rate pipelines."""

import concurrent.futures
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import tisp.simulate
from tisp.simulate import (
    ExperimentSpec,
    RESULT_COLUMNS,
    SpecError,
    error_metrics,
    fit_decay_rate,
    fit_step_bound,
    gen_beta_star,
    gen_design,
    gen_response,
    rate_grid,
    resolve_lambda,
    run_decay_experiment,
    run_rate_experiment,
    write_results_csv,
    write_summary_json,
)
from tisp.solver import Problem, SolverConfig, solve, spectral_norm, theory_threshold
from tisp.thresholding import parse_rule


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_from_dict_defaults():
    spec = ExperimentSpec.from_dict({"ensemble": "gaussian-iid"})
    assert spec.sigma == 1.0
    assert spec.rules == ("soft",)
    assert spec.lambda_policy == "theory"
    assert spec.A == 1.0
    assert spec.seeds == (0,)
    assert spec.noise_kind == "gaussian"


def test_from_dict_collects_all_problems():
    with pytest.raises(SpecError) as exc:
        ExperimentSpec.from_dict({"ensemble": "gaussian-iid", "bogus": 1, "nope": 2})
    assert "bogus" in str(exc.value) and "nope" in str(exc.value)


def test_from_dict_rejects_bad_configs():
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict({"ensemble": "gaussian-ar1"})  # no rho_corr
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict({"ensemble": "gaussian-iid",
                                  "lambda_policy": "explicit"})  # no value
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict({"ensemble": "gaussian-iid", "seeds": [1, 1]})
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict({"ensemble": "gaussian-iid", "rules": ["sofr"]})
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict([1, 2])


def test_from_dict_refuses_a_non_finite_lambda_value():
    # json.load reads NaN and Infinity; both are refused with the schema
    for text in ("NaN", "Infinity"):
        doc = json.loads('{"ensemble": "gaussian-iid", "n": 20, "p": 10, "J_star": 2,'
                         ' "lambda_policy": "explicit", "lambda_value": %s,'
                         ' "signal_magnitude": 3.0}' % text)
        with pytest.raises(SpecError, match="needs a finite lambda_value >= 0"):
            ExperimentSpec.from_dict(doc)


def test_a_spec_is_checked_when_made():
    # a spec built in Python meets the schema from_dict reads, in its words
    for bad, message in [({"seeds": (0, 0)}, "seeds must be distinct"),
                         ({"rules": ("sofr",)}, "rule 'sofr': unknown rule kind 'sofr'"),
                         ({"seeds": 5}, "seeds must be a nonempty list of integers >= 0"),
                         ({"rules": "soft"}, "rules must be a nonempty list of rule strings"),
                         ({"sigma": -1.0, "tol": 0}, "sigma must be a finite number >= 0; tol must be > 0")]:
        with pytest.raises(SpecError) as exc:
            ExperimentSpec(ensemble="gaussian-iid", **bad)
        assert str(exc.value).startswith("invalid config: " + message)
    spec = ExperimentSpec(seeds=[2, 1], rules=["hard"], p_grid=[40], J_star_grid=[2])
    assert (spec.seeds, spec.rules, spec.p_grid, spec.J_star_grid) == ((2, 1), ("hard",), (40,), (2,))
    with pytest.raises(SpecError, match="seeds must be distinct"):
        dataclasses.replace(spec, seeds=(1, 1))


def test_from_dict_names_unknown_keys_and_schema_problems_in_one_message():
    with pytest.raises(SpecError) as exc:
        ExperimentSpec.from_dict({"ensemble": "gaussian-iid", "zeta": 1, "seeds": [1, 1], "tol": -1})
    assert str(exc.value) == "invalid config: unknown field 'zeta'; seeds must be distinct; tol must be > 0"


def test_each_experiment_kind_checks_its_own_fields_and_scales():
    require = tisp.simulate._require
    decay = ExperimentSpec(n=20, p=10, J_star=2)
    require(decay, "decay")
    with pytest.raises(SpecError, match="^invalid rate config: p_grid must be"):
        require(decay, "rate")
    for change, message in [({"J_star": 11}, "J_star must be <= min(n, p)"),
                            ({"rho_epsilon": 1e300}, "rho_epsilon must be at most 2**200, got 1e+300"),
                            ({"rules": ("hard", "soft(lambda=1e300)")},
                             "rule 'soft(lambda=1e300)' lambda must be at most 2**200, got 1e+300")]:
        with pytest.raises(SpecError) as exc:
            require(dataclasses.replace(decay, **change), "decay")
        assert str(exc.value) == "invalid decay config: " + message


def test_resolve_lambda():
    spec = ExperimentSpec(ensemble="gaussian-iid", sigma=2.0, A=1.5)
    assert resolve_lambda(spec, 50) == theory_threshold(2.0, 50, a_const=1.5)
    ex = ExperimentSpec(ensemble="gaussian-iid", lambda_policy="explicit",
                        lambda_value=0.37)
    assert resolve_lambda(ex, 50) == 0.37


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_gen_design_deterministic_and_normalized():
    spec = ExperimentSpec(ensemble="gaussian-iid", n=400, p=20)
    X1 = gen_design(spec, 5)
    X2 = gen_design(spec, 5)
    assert np.array_equal(X1, X2)
    assert not np.array_equal(X1, gen_design(spec, 6))
    norms = np.linalg.norm(X1, axis=0)
    assert np.all(np.abs(norms - 1.0) < 0.15)


def test_gen_design_orthonormal():
    spec = ExperimentSpec(ensemble="orthonormal", n=20, p=8)
    X = gen_design(spec, 0)
    assert np.max(np.abs(X.T @ X - np.eye(8))) < 1e-12
    tall = ExperimentSpec(ensemble="orthonormal", n=5, p=8)
    with pytest.raises(SpecError, match="n >= p"):
        gen_design(tall, 0)


def test_gen_design_ar1_correlation():
    spec = ExperimentSpec(ensemble="gaussian-ar1", n=2000, p=5, rho_corr=0.8)
    X = gen_design(spec, 1) * math.sqrt(2000)
    for j in range(4):
        r = np.corrcoef(X[:, j], X[:, j + 1])[0, 1]
        assert abs(r - 0.8) < 0.05, j


def test_gen_beta_star():
    spec = ExperimentSpec(ensemble="gaussian-iid", n=50, p=30, J_star=4,
                          signal_magnitude=2.5)
    b = gen_beta_star(spec, 3)
    nz = b[b != 0]
    assert len(nz) == 4
    assert set(np.abs(nz)) == {2.5}
    assert np.array_equal(b, gen_beta_star(spec, 3))


def test_gen_beta_star_default_magnitude_tracks_threshold():
    spec = ExperimentSpec(ensemble="gaussian-iid", n=50, p=30, J_star=2)
    b = gen_beta_star(spec, 0, lam=1.2)
    assert set(np.abs(b[b != 0])) == {6.0}
    with pytest.raises(SpecError, match="signal magnitude"):
        gen_beta_star(spec, 0, lam=0.0)


def test_gen_response_noise_kinds():
    X = np.zeros((100000, 1))
    b = np.zeros(1)
    eps = gen_response(X, b, 1.3, "gaussian", 0)
    assert abs(np.std(eps) - 1.3) < 0.026
    rad = gen_response(X, b, 0.7, "rademacher-scaled", 1)
    assert np.all(np.abs(np.abs(rad) - 0.7) < 1e-12)
    uni = gen_response(X, b, 0.7, "uniform-bounded", 2)
    assert np.max(np.abs(uni)) <= 0.7 * math.sqrt(3.0) + 1e-12
    assert abs(np.std(uni) - 0.7) < 0.035
    rng = np.random.default_rng(3)
    X2 = rng.standard_normal((10, 4))
    b2 = rng.standard_normal(4)
    assert np.array_equal(gen_response(X2, b2, 0.0, "gaussian", 5), X2 @ b2)


def test_instance_problem_holds_the_generated_arrays_checked_and_read_only(monkeypatch):
    # _instance's Problem takes the generated arrays without a copy, yet runs
    # every check Problem(...) runs and freezes what it holds
    spec = ExperimentSpec(ensemble="gaussian-iid", n=30, p=12, J_star=2, sigma=1.0)
    lam = resolve_lambda(spec, spec.p)
    made = []
    monkeypatch.setattr(tisp.simulate, "gen_design", lambda *a, **k: made.append(gen_design(*a, **k)) or made[-1])
    prob = tisp.simulate._instance(spec, 3, lam)
    assert prob.X is made[0] and np.array_equal(prob.X, gen_design(spec, 3))
    assert np.array_equal(prob.beta_star, gen_beta_star(spec, 3, lam=lam))
    for arr in (prob.X, prob.y, prob.beta_star):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    monkeypatch.setattr(tisp.simulate, "gen_response", lambda *a: np.full(30, np.inf))
    with pytest.raises(ValueError, match="finite"):
        tisp.simulate._instance(spec, 3, lam)
    monkeypatch.setattr(tisp.simulate, "gen_design", lambda *a, **k: np.full((30, 12), np.nan))
    with pytest.raises(ValueError, match="finite"):
        tisp.simulate._instance(spec, 3, lam)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def test_error_metrics_zero_at_truth():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 4))
    b = rng.standard_normal(4)
    prob = Problem(X, X @ b, beta_star=b)
    m = error_metrics(b, prob, rho=2.0)
    assert m == {"pred": 0.0, "est": 0.0, "weighted": 0.0}


def test_error_metrics_singular_direction():
    # error along the top singular direction: pred equals the squared top
    # singular value, so rho^2 = s1^2 + 1 leaves a weighted error of exactly 1
    X = np.diag([2.0, 1.0])
    prob = Problem(X, np.zeros(2), beta_star=np.zeros(2))
    m = error_metrics(np.array([1.0, 0.0]), prob, rho=math.sqrt(5.0))
    assert m["pred"] == pytest.approx(4.0, abs=1e-12)
    assert m["est"] == pytest.approx(1.0, abs=1e-12)
    assert m["weighted"] == pytest.approx(1.0, abs=1e-12)


def test_error_metrics_identity_and_lower_bound():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 6))
    bstar = rng.standard_normal(6)
    prob = Problem(X, X @ bstar, beta_star=bstar)
    norm2 = spectral_norm(X) ** 2
    rho = math.sqrt(norm2 + 2.0)
    for _ in range(20):
        beta = rng.standard_normal(6)
        m = error_metrics(beta, prob, rho)
        assert m["weighted"] == pytest.approx(rho ** 2 * m["est"] - m["pred"], rel=1e-12)
        assert m["weighted"] >= (rho ** 2 - norm2) * m["est"] - 1e-9


def test_error_metrics_requires_truth():
    prob = Problem(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        error_metrics(np.zeros(2), prob, 1.0)


def test_trace_errors_satisfy_weighted_identity():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 10)) / math.sqrt(30)
    bstar = np.zeros(10)
    bstar[:2] = [3.0, -2.0]
    y = X @ bstar + 0.2 * rng.standard_normal(30)
    prob = Problem(X, y, beta_star=bstar)
    res = solve(prob, SolverConfig(rule=parse_rule("soft(lambda=0.4)"), tol=1e-10))
    rho2 = res.rho ** 2
    for pred, est, weighted in zip(res.trace.pred_err, res.trace.est_err,
                                   res.trace.weighted_err):
        assert weighted + pred == pytest.approx(rho2 * est, rel=1e-10)


# ---------------------------------------------------------------------------
# decay pipeline
# ---------------------------------------------------------------------------

DECAY_SPEC = ExperimentSpec(ensemble="gaussian-iid", n=60, p=30, J_star=3,
                            sigma=0.5, seeds=(0, 1), rules=("soft", "hard"))


def test_decay_runs_are_sorted_and_reproducible():
    results, summary = run_decay_experiment(DECAY_SPEC)
    assert [(r.seed, r.rule.split("(")[0]) for r in results] == [
        (0, "hard"), (0, "soft"), (1, "hard"), (1, "soft")]
    assert summary["num_runs"] == 4
    assert summary["lambda"] == pytest.approx(theory_threshold(0.5, 30))

    # the first recorded error is the zero-start error, recomputed here
    lam = resolve_lambda(DECAY_SPEC, 30)
    X = gen_design(DECAY_SPEC, 0)
    bstar = gen_beta_star(DECAY_SPEC, 0, lam=lam)
    y = gen_response(X, bstar, 0.5, "gaussian", 0)
    rho = 1.01 * spectral_norm(X)
    prob = Problem(X, y, beta_star=bstar)
    e0 = error_metrics(np.zeros(30), prob, rho)["weighted"]
    for r in results:
        if r.seed == 0:
            assert r.e_seq[0] == pytest.approx(e0, rel=1e-12)
        # the row's error is the last one the decay sequence tracked
        assert r.row["weighted_err"] == r.e_seq[-1]

    buf1, buf2 = io.StringIO(), io.StringIO()
    write_results_csv(results, buf1)
    write_results_csv(run_decay_experiment(DECAY_SPEC)[0], buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_decay_parallel_matches_serial():
    res1, sum1 = run_decay_experiment(DECAY_SPEC, jobs=1)
    res2, sum2 = run_decay_experiment(DECAY_SPEC, jobs=2)
    a, b = io.StringIO(), io.StringIO()
    write_results_csv(res1, a)
    write_results_csv(res2, b)
    assert a.getvalue() == b.getvalue()
    sa, sb = io.StringIO(), io.StringIO()
    write_summary_json(sum1, sa)
    write_summary_json(sum2, sb)
    assert sa.getvalue() == sb.getvalue()


def test_experiments_norm_each_design_once(norm_calls):
    results, _ = run_decay_experiment(DECAY_SPEC, jobs=1)  # 2 seeds x 2 rules
    assert len(results) == 4
    assert norm_calls == [(60, 30)] * 2

    norm_calls.clear()
    spec = ExperimentSpec(ensemble="gaussian-iid", sigma=1.0, seeds=(0, 1),
                          rules=("soft", "hard", "mcp"), A=2.0, p_grid=(40, 80),
                          J_star_grid=(2, 4), n_factor=6.0)
    rows, _ = run_rate_experiment(spec, jobs=1)  # 4 cells x 2 seeds x 3 rules
    assert len(rows) == 24
    assert len(norm_calls) == 8


def test_worker_count_is_clamped_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(tisp.simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    worker_count = tisp.simulate._worker_count
    assert worker_count(1, 10) == 1
    assert worker_count(3, 10) == 3
    assert worker_count(64, 10) == 4
    assert worker_count(64, 2) == 2
    assert worker_count(5, 0) == 1
    for bad in (0, -3):
        with pytest.raises(SpecError, match="jobs must be >= 1"):
            worker_count(bad, 10)
    monkeypatch.setattr(tisp.simulate.os, "sched_getaffinity", lambda pid: {0})  # one usable CPU
    assert worker_count(2, 40) == 1
    monkeypatch.delattr(tisp.simulate.os, "sched_getaffinity")  # a platform without it
    monkeypatch.setattr(tisp.simulate.os, "cpu_count", lambda: None)
    assert worker_count(8, 10) == 1


def test_experiment_pool_size_is_clamped(monkeypatch):
    # no process is started: the pool is replaced by an in-process recorder
    pool_sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(tisp.simulate.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial, _ = run_decay_experiment(DECAY_SPEC, jobs=1)
    pooled, _ = run_decay_experiment(DECAY_SPEC, jobs=1000)
    assert pool_sizes == [2]  # one task per seed
    assert [r.row for r in pooled] == [r.row for r in serial]
    with pytest.raises(SpecError, match="jobs must be >= 1"):
        run_decay_experiment(DECAY_SPEC, jobs=0)
    assert pool_sizes == [2]


def test_decay_orthonormal_gives_no_fit():
    # the weighted error starts near its plateau here, so no geometric leg
    # exists to fit and every run is skipped
    spec = ExperimentSpec(ensemble="orthonormal", n=32, p=32, J_star=3,
                          sigma=1.0, seeds=(0,), rules=("soft",))
    results, summary = run_decay_experiment(spec)
    assert results[0].kappa_hat is None
    assert not results[0].fit_ok
    assert summary["kappa_hat"]["num_skipped"] == 1


def test_decay_requires_size_fields():
    spec = ExperimentSpec(ensemble="gaussian-iid", n=60, p=30)  # J_star missing
    with pytest.raises(SpecError):
        run_decay_experiment(spec)


# ---------------------------------------------------------------------------
# decay fits on synthetic sequences
# ---------------------------------------------------------------------------

def test_fit_decay_rate_recovers_geometric_factor():
    e = [100.0 * 0.25 ** t for t in range(12)] + [1e-9] * 10
    kappa, ok = fit_decay_rate(e, plateau=1e-9)
    assert ok
    assert kappa == pytest.approx(0.25, rel=1e-6)


def test_fit_decay_rate_needs_enough_points():
    e = [100.0, 25.0, 1e-9, 1e-9, 1e-9]
    kappa, ok = fit_decay_rate(e, plateau=1e-9)
    assert kappa is None
    assert not ok


def test_fit_step_bound_synthetic():
    class Run:
        def __init__(self, e_seq, lam, j):
            self.e_seq = e_seq
            self.lam = lam
            self.row = {"J_star": j}
            self.kappa_hat = 0.5
            self.fit_ok = True

    out = fit_step_bound([Run([8.0, 4.0, 2.0, 1.0], 1.0, 1)])
    assert out["kappa"] == 0.5
    assert out["K_prime"] == 0.0
    assert out["num_steps"] == 3
    assert fit_step_bound([Run([8.0, 4.0], None, 1)]) is None
    # lam^2 underflows to 0: no positive normalizer, not a 0/0
    assert fit_step_bound([Run([8.0, 4.0], 1e-300, 1)]) is None


# ---------------------------------------------------------------------------
# rate pipeline
# ---------------------------------------------------------------------------

def test_rate_grid_formula():
    spec = ExperimentSpec(ensemble="gaussian-iid", p_grid=(40, 80),
                          J_star_grid=(2, 4), n_factor=6.0)
    cells = rate_grid(spec)
    assert len(cells) == 4
    for n, p, j in cells:
        assert n == max(math.ceil(6.0 * j * math.log(p)), j)
    bad = ExperimentSpec(ensemble="gaussian-iid", p_grid=(4, 8),
                         J_star_grid=(2, 6), n_factor=6.0)
    with pytest.raises(SpecError):
        rate_grid(bad)


def test_rate_experiment_smoke():
    spec = ExperimentSpec(ensemble="gaussian-iid", sigma=1.0, seeds=(0, 1, 2),
                          rules=("hard",), A=2.0, p_grid=(40, 80),
                          J_star_grid=(2, 4), n_factor=6.0)
    rows, summary = run_rate_experiment(spec)
    assert len(rows) == 4 * 3
    keys = [(r["p"], r["J_star"], r["seed"]) for r in rows]
    assert keys == sorted(keys)
    assert len(summary["cells"]) == 4
    assert summary["num_rows"] == 12
    assert math.isfinite(summary["slope"])
    assert 0.0 <= summary["r_squared"] <= 1.0
    for cell in summary["cells"]:
        assert cell["median_pred_err"] > 0

    rows2, summary2 = run_rate_experiment(spec, jobs=2)
    a, b = io.StringIO(), io.StringIO()
    write_results_csv(rows, a)
    write_results_csv(rows2, b)
    assert a.getvalue() == b.getvalue()
    assert json.dumps(summary, sort_keys=True) == json.dumps(summary2, sort_keys=True)


def test_rate_requires_grid_fields():
    spec = ExperimentSpec(ensemble="gaussian-iid", p_grid=(40, 80))
    with pytest.raises(SpecError):
        run_rate_experiment(spec)
    thin = ExperimentSpec(ensemble="gaussian-iid", p_grid=(40,),
                          J_star_grid=(2, 3))
    with pytest.raises(SpecError):  # fewer than four cells cannot anchor a fit
        run_rate_experiment(thin)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_write_results_csv_format():
    row = {c: None for c in RESULT_COLUMNS}
    row.update(seed=3, rule="soft", n=10, p=5, J_star=2, sigma=1.0,
               iters=7, pred_err=0.125)
    row["lambda"] = 1.5
    buf = io.StringIO()
    write_results_csv([row], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "3"
    assert cells[6] == "1.5"
    assert cells[9] == "0.125"
    assert cells[7] == ""  # unset fields serialize as empty


def test_write_summary_json_is_stable():
    buf = io.StringIO()
    write_summary_json({"b": 1, "a": [1, 2]}, buf)
    assert buf.getvalue() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
