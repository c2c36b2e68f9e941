"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and
then runs passes.  A pass calls the library (or the CLI) on those inputs and
checks every output; it returns how many operations it attempted and how
many failed.  A failure is an exception, a non-zero CLI exit or a failed
check.  Hitting ``max_iter`` is not a failure.

Which inputs the seed controls:

- ``multistart``: the random starts.  The instances are acceptance
  criterion 6's fixed instances (rng ``6000+i``); pass ``k`` draws instance
  ``i``'s starts from ``(seed, k, i)``, so the per-solve percentiles of a run
  pool several hundred distinct solves rather than one pass's 168.
- the other three workloads: nothing, so that a run measures the code and
  not the draw.  ``experiments`` runs the acceptance decay and rate specs
  as the acceptance tests do: in back-to-back passes the decay half's
  median solve took 20.1 ms at seeds 60-79 and 17.1 ms at seeds 80-99, and
  at some rate seed blocks criterion 9's slope or R^2 leaves its band (it
  is a statistical claim stated for seeds 0-9).  ``decay-large`` and
  ``cli-solve`` pin design seed 0: their cost is dominated by power
  iterations whose count is set by the design's top eigen-gap, which swings
  over 4x between gaussian draws of one size (420 to 1916 iterations over
  design seeds 0-15 at 2000x5000).

Reference outputs for ``experiments`` and ``decay-large`` are stored in
``reference/`` (written by ``make_reference.py``).

``single_thread`` workloads run with one BLAS thread and have their times
scaled by ``hostspeed.py``.  ``multistart``, ``experiments`` and
``cli-solve`` spend their time in Python and in BLAS calls on designs of at
most a few hundred thousand entries; with numpy's default two threads the
``experiments`` pass spread 18% between 20-second windows, with one thread
7%.  ``decay-large`` is BLAS-bound on a 2000x5000 design, where a second
thread halves the pass (9 s against 18 s), and stayed within 6% unscaled.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from tisp import cli, oracle, simulate, solver, thresholding

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

REL_TOL = 1e-12


@dataclass
class PassResult:
    attempted: int
    failed: int
    solve_s: list = field(default_factory=list)  # per-solve latency, when not traced in-process
    rss_kb: int | None = None                      # peak RSS of the child process, if any
    child_summary: dict | None = None              # tracer summary from a traced child
    child_wall_s: float | None = None


# ---------------------------------------------------------------------------
# output comparison
# ---------------------------------------------------------------------------

def _as_float(v):
    if isinstance(v, bool) or v is None:
        return None
    if isinstance(v, (int, float)):
        return float(v)
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def mismatches(actual, expected, path="") -> list:
    """Paths where two JSON-like values differ.  Numbers (and numeric strings,
    as read back from CSV) compare at REL_TOL relative; all else exactly."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [path or "/"]
        out = []
        for k in expected:
            out += mismatches(actual[k], expected[k], f"{path}/{k}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return [path or "/"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += mismatches(a, e, f"{path}/{i}")
        return out
    a, e = _as_float(actual), _as_float(expected)
    if a is not None and e is not None:
        ok = a == e or abs(a - e) <= REL_TOL * max(abs(a), abs(e))
    else:
        ok = actual == expected
    return [] if ok else [path or "/"]


def load_reference(name: str, size: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}-{size}.json")) as f:
        return json.load(f)


def _finite(values) -> bool:
    return all(v is None or isinstance(v, str) or math.isfinite(v) for v in values)


def _solve_notes(tracer) -> list:
    return tracer.summary().get("solver.solve", {}).get("notes", [])


# ---------------------------------------------------------------------------
# multistart: criterion 6 instances, one oracle call and 21 solves each
# ---------------------------------------------------------------------------

class MultiStart:
    name = "multistart"
    single_thread = True
    LAM = 0.5
    MARGIN = -1e-9

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.n_instances, self.n_starts = (8, 20) if size == "full" else (2, 3)
        self.solves_per_pass = self.n_instances * (1 + self.n_starts)
        self.oracle_calls_per_pass = self.n_instances
        self.ops_per_pass = self.solves_per_pass + self.n_instances

    def setup(self) -> None:
        self.instances = []
        for i in range(self.n_instances):
            rng = np.random.default_rng(6000 + i)
            p = int(rng.integers(3, 11))
            n = int(rng.integers(p, 2 * p + 6))
            X = rng.standard_normal((n, p))
            y = 2.0 * rng.standard_normal(n)
            self.instances.append(solver.Problem(X, y))
        self.rule = thresholding.parse_rule(f"hard(lambda={self.LAM})")

    def start_seed(self, k: int, i: int) -> int:
        # SeedSequence takes non-negative entropy; fold negative seeds into range
        return int(np.random.SeedSequence([self.seed % 2**64, k, i]).generate_state(1)[0])

    def seeds_used(self, passes: int) -> dict:
        return {"instances": "rng 6000+i, i < %d" % self.n_instances,
                "start_seeds": "SeedSequence([seed, pass, i])", "passes": passes}

    def run_pass(self, k: int, tracer, traced: bool) -> PassResult:
        lam = self.LAM
        failed = 0
        for i, prob in enumerate(self.instances):
            X, y = prob.X, prob.y
            rho = 1.05 * solver.spectral_norm(X)
            best = oracle.l0_global_min(prob, lam, rho)
            failed += not best.gap_ok
            cfg = solver.SolverConfig(rule=self.rule, rho=rho, tol=1e-10, max_iter=1500)
            Xs = X / rho
            starts = [np.zeros(prob.p)] + solver.gaussian_starts(
                prob, self.n_starts, seed=self.start_seed(k, i))
            for start in starts:
                res = solver.solve(prob, cfg, start=start)
                b = rho * res.beta
                f = 0.5 * float(np.sum((Xs @ b - y) ** 2)) + 0.5 * lam * lam * np.count_nonzero(b)
                margin = (f - best.objective) / (1.0 + abs(best.objective))
                failed += not (margin >= self.MARGIN)
        return PassResult(self.ops_per_pass, failed)


# ---------------------------------------------------------------------------
# decay-large: one BLAS-bound decay experiment, every iteration recorded
# ---------------------------------------------------------------------------

def decay_large_spec(size: str) -> simulate.ExperimentSpec:
    n, p, j = (2000, 5000, 20) if size == "full" else (100, 250, 5)
    return simulate.ExperimentSpec(ensemble="gaussian-iid", n=n, p=p, J_star=j, sigma=1.0,
                                   seeds=(0,), rules=("soft", "hard"), lambda_policy="theory")


class DecayLarge:
    name = "decay-large"
    single_thread = False

    def __init__(self, seed: int, size: str, workdir: str):
        self.size = size
        self.solves_per_pass = 2
        self.oracle_calls_per_pass = 0
        self.ops_per_pass = 3  # two runs and the summary

    def setup(self) -> None:
        self.spec = decay_large_spec(self.size)
        self.reference = load_reference(self.name, self.size)

    def seeds_used(self, passes: int) -> dict:
        return {"design_seed": 0, "passes": passes}

    def run_pass(self, k: int, tracer, traced: bool) -> PassResult:
        results, summary = simulate.run_decay_experiment(self.spec, jobs=1)
        ref_rows = self.reference["rows"]
        if len(results) != len(ref_rows):
            return PassResult(self.ops_per_pass, self.ops_per_pass)
        failed = sum(
            not (_finite(r.row.values()) and _finite(r.e_seq)) or bool(mismatches(r.row, ref))
            for r, ref in zip(results, ref_rows))
        failed += bool(mismatches(summary, self.reference["summary"]))
        # certificate at exit: one more step moves a converged iterate by <= 10 tol
        bound = 10.0 * self.spec.tol
        failed += sum(n["converged"] and not n["theta_residual"] <= bound for n in _solve_notes(tracer))
        return PassResult(self.ops_per_pass, min(failed, self.ops_per_pass))


# ---------------------------------------------------------------------------
# experiments: acceptance decay and rate specs, written to memory
# ---------------------------------------------------------------------------

def experiment_specs(size: str):
    """The acceptance decay and rate specs (smaller grids at the tiny size)."""
    if size == "full":
        decay = simulate.ExperimentSpec(
            ensemble="gaussian-iid", n=400, p=200, J_star=5, sigma=1.0,
            seeds=tuple(range(20)), rules=("soft", "hard"), lambda_policy="theory", A=1.0)
        rate = simulate.ExperimentSpec(
            ensemble="gaussian-iid", sigma=1.0, seeds=tuple(range(10)), rules=("hard",),
            lambda_policy="theory", A=2.0, p_grid=(100, 200, 400),
            J_star_grid=(2, 5, 10), n_factor=20.0)
    else:
        decay = simulate.ExperimentSpec(
            ensemble="gaussian-iid", n=200, p=100, J_star=3, sigma=1.0,
            seeds=tuple(range(4)), rules=("soft", "hard"), lambda_policy="theory", A=1.0)
        rate = simulate.ExperimentSpec(
            ensemble="gaussian-iid", sigma=1.0, seeds=(0, 1, 2), rules=("hard",),
            lambda_policy="theory", A=2.0, p_grid=(50, 100, 200),
            J_star_grid=(2, 4, 8), n_factor=20.0)
    return decay, rate


def run_experiments(decay_spec, rate_spec):
    """Both experiments, written as `tisp decay`/`tisp rate` would write them
    (to memory).  Returns the in-memory outputs and, per experiment kind, the
    written rows (as strings) and summary."""
    results, decay_summary = simulate.run_decay_experiment(decay_spec, jobs=1)
    rows, rate_summary = simulate.run_rate_experiment(rate_spec, jobs=1)
    written = {}
    for kind, out, summ in (("decay", results, decay_summary), ("rate", rows, rate_summary)):
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        simulate.write_results_csv(out, csv_buf)
        simulate.write_summary_json(summ, json_buf)
        header, *cells = csv.reader(io.StringIO(csv_buf.getvalue()))
        written[kind] = {"columns": header, "rows": cells, "summary": json.loads(json_buf.getvalue())}
    return results, decay_summary, rate_summary, written


def criterion_failures(results, decay_summary, rate_summary) -> list:
    """Acceptance criteria 8 and 9 on the experiment outputs."""
    out = []
    sb = decay_summary["step_bound"]
    if sb is None or not (sb["kappa"] < 1.0 and sb["K_prime"] <= 20.0):
        out.append("step bound: kappa < 1 and K' <= 20")
    else:
        for run in results:
            d = run.lam ** 2 * run.row["J_star"]
            for a, b in zip(run.e_seq, run.e_seq[1:]):
                bound = sb["kappa"] * a + sb["K_prime"] * d
                if b - bound - 1e-9 * (1.0 + abs(bound)) > 0.0:
                    out.append(f"step bound violated in run ({run.seed}, {run.rule})")
                    break
    if not (0.7 <= rate_summary["slope"] <= 1.3):
        out.append("rate slope in [0.7, 1.3]")
    if not rate_summary["r_squared"] >= 0.8:
        out.append("rate R^2 >= 0.8")
    if len(rate_summary["cells"]) != 9:
        out.append("9 rate cells")
    return out


class Experiments:
    name = "experiments"
    single_thread = True

    def __init__(self, seed: int, size: str, workdir: str):
        self.size = size
        # criteria 8 and 9 need the full-size specs; the tiny smoke size is
        # checked against its stored reference only
        self.check_criteria = size == "full"
        decay, rate = experiment_specs(size)
        self.n_rows = len(decay.seeds) * len(decay.rules) + 9 * len(rate.seeds) * len(rate.rules)
        self.solves_per_pass = self.n_rows
        self.oracle_calls_per_pass = 0
        self.ops_per_pass = self.n_rows + 2  # every row and both summaries

    def setup(self) -> None:
        self.decay_spec, self.rate_spec = experiment_specs(self.size)
        self.reference = load_reference(self.name, self.size)

    def seeds_used(self, passes: int) -> dict:
        return {"decay_seeds": list(self.decay_spec.seeds),
                "rate_seeds": list(self.rate_spec.seeds), "passes": passes}

    def run_pass(self, k: int, tracer, traced: bool) -> PassResult:
        results, decay_summary, rate_summary, written = run_experiments(self.decay_spec, self.rate_spec)
        failed = 0
        for kind in ("decay", "rate"):
            got, ref = written[kind], self.reference[kind]
            if got["columns"] != ref["columns"] or len(got["rows"]) != len(ref["rows"]):
                failed += len(ref["rows"])
            else:
                failed += sum(bool(mismatches(a, e)) for a, e in zip(got["rows"], ref["rows"]))
            failed += bool(mismatches(got["summary"], ref["summary"]))
        if self.check_criteria:
            failed += len(criterion_failures(results, decay_summary, rate_summary))
        return PassResult(self.ops_per_pass, min(failed, self.ops_per_pass))


# ---------------------------------------------------------------------------
# cli-solve: `tisp solve` as a subprocess on a CSV instance
# ---------------------------------------------------------------------------

def cli_instance(size: str) -> dict:
    n, p, j = (1000, 2000, 10) if size == "full" else (60, 120, 3)
    return {"ensemble": "gaussian-iid", "n": n, "p": p, "J_star": j, "sigma": 1.0, "seeds": [0]}


def child_env() -> dict:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_child(argv, stderr_path: str):
    """Run a child process to completion; returns (exit code, peak RSS KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliSolve:
    name = "cli-solve"
    single_thread = True
    TOL = 1e-8

    def __init__(self, seed: int, size: str, workdir: str):
        self.size = size
        self.workdir = workdir
        self.solves_per_pass = 1
        self.oracle_calls_per_pass = 0
        self.ops_per_pass = 1

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def setup(self) -> None:
        doc = cli_instance(self.size)
        with open(self.path("instance.json"), "w") as f:
            json.dump(doc, f)
        code, _ = run_child([sys.executable, "-m", "tisp.cli", "simulate", "--config",
                             self.path("instance.json"), "--seed", "0", "--out", self.path("inst")],
                            self.path("simulate.err"))
        if code != 0:
            raise RuntimeError(f"tisp simulate exited with {code}; see {self.path('simulate.err')}")
        # the in-process reference solve runs on the arrays simulate wrote
        # (regenerated: the CSV holds their exact repr)
        spec = simulate.ExperimentSpec.from_dict(doc)
        lam = simulate.resolve_lambda(spec, spec.p)
        X = simulate.gen_design(spec, 0)
        beta_star = simulate.gen_beta_star(spec, 0, lam=lam)
        y = simulate.gen_response(X, beta_star, spec.sigma, spec.noise_kind, 0)
        self.rule = f"soft(lambda={lam!r})"
        config = solver.SolverConfig(rule=thresholding.parse_rule(self.rule), tol=self.TOL)
        expected = solver.solve(solver.Problem(X, y, beta_star=beta_star), config)
        self.expected_beta = expected.beta
        self.expected_rows = len(expected.trace.iterations)
        self.expected_converged = expected.converged

    def seeds_used(self, passes: int) -> dict:
        return {"design_seed": 0, "passes": passes}

    def argv(self, traced: bool) -> list:
        head = [sys.executable, os.path.join(HERE, "cli_child.py"), self.path("layers.json")] \
            if traced else [sys.executable, "-m", "tisp.cli"]
        return head + [
            "solve", "--design", self.path("inst", "X.csv"), "--response", self.path("inst", "y.csv"),
            "--beta-star", self.path("inst", "beta_star.csv"), "--rule", self.rule,
            "--tol", repr(self.TOL), "--trace", self.path("trace.csv"), "--out", self.path("beta.csv"),
        ]

    def run_pass(self, k: int, tracer, traced: bool) -> PassResult:
        for name in ("beta.csv", "trace.csv", "layers.json"):
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))
        t0 = time.perf_counter()
        code, rss_kb = run_child(self.argv(traced), self.path("solve.err"))
        wall = time.perf_counter() - t0
        ok = code == (0 if self.expected_converged else 2)
        if ok:
            beta = np.loadtxt(self.path("beta.csv"), ndmin=1)
            ok = beta.shape == self.expected_beta.shape and not mismatches(
                beta.tolist(), self.expected_beta.tolist())
        if ok:
            with open(self.path("trace.csv"), newline="") as f:
                rows = list(csv.reader(f))[1:]
            ok = [int(r[0]) for r in rows] == list(range(1, self.expected_rows + 1))
        summary = None
        if traced:
            with open(self.path("layers.json")) as f:
                summary = json.load(f)
        return PassResult(1, int(not ok), solve_s=[wall], rss_kb=rss_kb,
                          child_summary=summary, child_wall_s=wall)


WORKLOADS = {w.name: w for w in (MultiStart, DecayLarge, Experiments, CliSolve)}
