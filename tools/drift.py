"""How far the experiment outputs of one checkout drift from another's.

    python3 tools/drift.py BASE_DIR CHANGE_DIR [--size full|tiny]

Imports `tisp` and `perfbench.workloads` from each checkout in its own
subprocess and runs there, every solve recorded: perfbench's decay-large
spec (`decay_large_spec`), the acceptance decay and rate specs
(`experiment_specs`, written by `run_experiments`), a small all-kinds
decay spec (gaussian-iid 100x60, J*=4, seeds 0-2, one rule of each of the
nine kinds), cli-solve's solve: soft at the theory lambda, tol 1e-8, on
the files `tisp simulate` writes for `cli_instance` (as `CliSolve.setup`
has it write them), read back by `cli.read_matrix` and `cli.read_vector`
as `tisp solve` reads them, soft, hard, mcp and hard-ridge on the
all-kinds design at seed 0 with a geometric schedule, at alpha 0.5 and with
both, and the solves of one pass of perfbench's multistart workload at seed
0 (`MultiStart.run_pass`).  It also runs the
oracles: `l0_global_min` at lambda 0.5 and rho = 1.05 ||X||_2 on 40 of
criterion 6's instances
(`MultiStart.setup`), `coordinate_descent_local_min` with
`check_theta_equation` for soft, mcp and scad on criterion 5's 20 (rng
5000 + i), and `probe_regularity` (delta 1, vartheta 0.5, K 0.5) for the
four assumptions and soft, hard, mcp and scad on the regularity verify
suite's 10x6 instance and on the acceptance decay design at seed 0.
`--size tiny` runs perfbench's tiny specs, 8 and 5 oracle instances and
the 10x6 probes only, for a quick look.  For each output it prints the
largest relative difference |a - b| / max(|a|, |b|) and the path where it
occurs:

- the written result rows (`write_results_csv`), per column
- the written summary (`write_summary_json`), per key
- per solve, its rho, the estimate and the recorded trace columns
- per oracle call, its coefficients, objective, minimum magnitude,
  certificate residual or minimum slack and its probe

Then it says whether every experiment instance (a blake2b digest of the X,
y and beta* of each decay seed and each rate cell and seed, of cli-solve's
as read from its CSV files, and of the bytes of those files), every solve's
iteration count, recorded iterations, support sizes and `flagged`
iterations, and every oracle call's support, gap flag, sweep count,
convergence, continuity flag, violation flag and probe count, are
identical.  The exit status is 1 when they are not, or when a non-numeric
output differs.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

from pairing import child_env

# Runs in the checkout's own interpreter: writes one JSON document to stdout.
CHILD = r"""
import csv, hashlib, io, json, os, sys, tempfile
import numpy as np
from perfbench import workloads
from tisp import cli, oracle, penalty, simulate, solver, thresholding

SIZE = sys.argv[1]
FULL = SIZE == "full"
solves, instances = [], []
solve, instance = solver.solve, simulate._instance


def recording(problem, config, start=None):
    res = solve(problem, config, start)
    t = res.trace
    solves.append({"iterations": res.iterations, "reason": res.reason, "support": t.support,
                   "trace_iterations": t.iterations, "rho": res.rho,
                   "flagged": t.flagged, "beta": res.beta.tolist(), "objective": t.objective,
                   "fp_residual": t.fp_residual, "pred_err": t.pred_err, "est_err": t.est_err,
                   "weighted_err": t.weighted_err, "theta_residual": res.theta_residual})
    return res


def digest(*arrays):
    h = hashlib.blake2b()
    for a in arrays:
        h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digested(*args, **kwargs):  # any signature: the base checkout may differ
    prob = instance(*args, **kwargs)
    instances.append({"instance": digest(prob.X, prob.y, prob.beta_star)})
    return prob


def written(rows, summary):  # as `run_experiments` writes each experiment
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    simulate.write_results_csv(rows, csv_buf)
    simulate.write_summary_json(summary, json_buf)
    header, *cells = csv.reader(io.StringIO(csv_buf.getvalue()))
    return {"columns": header, "rows": cells, "summary": json.loads(json_buf.getvalue())}


simulate.solve, simulate._instance = recording, digested
all_kinds = simulate.ExperimentSpec(
    ensemble="gaussian-iid", n=100, p=60, J_star=4, sigma=1.0, seeds=(0, 1, 2),
    rules=("soft", "hard", "ridge(eta=0.5)", "elastic-net(eta=0.5)", "berhu(eta=0.5)",
           "hard-ridge(eta=0.5)", "scad(a=3.7)", "mcp(gamma=2)", "lr(r=0.5,zeta=1)"),
    lambda_policy="theory")
out, records = {}, {}
for name, spec in (("decay-large", workloads.decay_large_spec(SIZE)), ("all-kinds", all_kinds)):
    out[name] = written(*simulate.run_decay_experiment(spec, jobs=1))
    records[f"{name} solve"] = solves[:]
    solves.clear()
*_, pair = workloads.run_experiments(*workloads.experiment_specs(SIZE))
out["acceptance-decay"], out["acceptance-rate"] = pair["decay"], pair["rate"]
records["acceptance solve"] = solves[:]
solves.clear()
records["experiment instances"] = instances

doc = workloads.cli_instance(SIZE)  # cli-solve's files, read as `tisp solve` reads them
with tempfile.TemporaryDirectory() as tmp:
    with open(os.path.join(tmp, "instance.json"), "w") as f:
        json.dump(doc, f)
    if cli.main(["simulate", "--config", f.name, "--seed", "0", "--out", tmp]) != 0:
        raise RuntimeError("tisp simulate failed")
    X = cli.read_matrix(os.path.join(tmp, "X.csv"))
    y, beta_star = (cli.read_vector(os.path.join(tmp, f"{v}.csv")) for v in ("y", "beta_star"))
    files = hashlib.blake2b()  # the bytes `tisp simulate` wrote, each prefixed by its length
    for v in ("X", "y", "beta_star"):
        with open(os.path.join(tmp, f"{v}.csv"), "rb") as f:
            data = f.read()
        files.update(repr(len(data)).encode() + data)
records["cli-solve files"] = [{"instance": files.hexdigest()}]
records["cli-solve read"] = [{"instance": digest(X, y, beta_star)}]
spec = simulate.ExperimentSpec.from_dict(doc)
lam = simulate.resolve_lambda(spec, spec.p)
config = solver.SolverConfig(rule=thresholding.parse_rule(f"soft(lambda={lam!r})"),
                             tol=workloads.CliSolve.TOL)
recording(solver.Problem(X, y, beta_star=beta_star), config)
records["cli-solve solve"] = solves[:]
solves.clear()

# the threshold paths no experiment takes: a geometric schedule, alpha = 0.5
# and both, for soft, hard, mcp and hard-ridge at the all-kinds design's
# theory lambda (seed 0)
lam = simulate.resolve_lambda(all_kinds, all_kinds.p)
prob = instance(all_kinds, 0, lam)
geometric = solver.LambdaSchedule.geometric(2.0 * lam, 0.9, lam)
for text in ("soft", "hard", "mcp(gamma=3)", "hard-ridge(eta=0.5)"):
    rule = thresholding.parse_rule(text, require_lambda=False).with_lambda(lam)
    for schedule, alpha in ((geometric, 1.0), (None, 0.5), (geometric, 0.5)):
        recording(prob, solver.SolverConfig(rule=rule, schedule=schedule, alpha=alpha))
records["schedule-alpha solve"] = solves[:]
solves.clear()

ms = workloads.MultiStart(0, SIZE, ".")  # one pass of perfbench's multistart, its solves recorded
ms.setup()
solver.solve = recording
try:
    ms.run_pass(0, None, False)
finally:
    solver.solve = solve
records["multistart solve"] = solves

ms = workloads.MultiStart(0, SIZE, ".")
ms.n_instances = 40 if FULL else 8  # more of criterion 6's instances than a pass solves
ms.setup()
records["oracles l0"] = l0 = []
for prob in ms.instances:
    best = oracle.l0_global_min(prob, ms.LAM, 1.05 * prob.norm)
    l0.append({"objective": best.objective, "support": best.support, "gap_ok": best.gap_ok,
               "min_magnitude": best.min_magnitude, "beta": best.beta.tolist()})
rules = [thresholding.parse_rule(t) for t in
         ("soft(lambda=0.4)", "mcp(lambda=0.4,gamma=3)", "scad(lambda=0.4,a=3.7)")]
records["oracles cd"] = cd = []
for i in range(20 if FULL else 5):  # criterion 5's descent instances
    rng = np.random.default_rng(5000 + i)
    X = rng.standard_normal((20, 10))
    k = int(rng.integers(1, 4))
    bstar = np.zeros(10)
    bstar[rng.choice(10, size=k, replace=False)] = 3.0 * rng.standard_normal(k)
    prob = solver.Problem(X, X @ bstar + 0.3 * rng.standard_normal(20))
    rho = 1.05 * prob.norm
    for rule in rules:
        res = oracle.coordinate_descent_local_min(prob, penalty.PenaltySpec(rule=rule), rho=rho)
        rep = oracle.check_theta_equation(res.beta / rho, prob, rule, rho=rho, tol=1e-6)
        cd.append({"beta": res.beta.tolist(), "objective": res.objective, "sweeps": res.sweeps,
                   "converged": res.converged, "residual": rep.residual,
                   "flag": rep.continuity_flag})

# `probe_regularity` at the verify suite's constants: the regularity suite's
# 10x6 instance (seed 0) and, at the full size, the acceptance decay design
# at seed 0 anchored at its beta*
rng = np.random.default_rng(np.random.SeedSequence([0, 14]))
instances = [(oracle._random_instance(rng, 10, 6).X, (1.5, -2.0, 0.0, 0.0, 0.0, 0.0), 0.8,
              dict(num_samples=50, sample_radius=3.0))]
if FULL:
    spec = workloads.experiment_specs(SIZE)[0]
    lam = simulate.resolve_lambda(spec, spec.p)
    instances.append((simulate.gen_design(spec, 0), simulate.gen_beta_star(spec, 0, lam=lam), lam, {}))
records["oracles regularity"] = reg = []
for X, ref, lam, sampling in instances:
    prob = solver.Problem(X, np.zeros(X.shape[0]))
    rules = [r for r in thresholding.rule_catalog(lam=lam) if r.kind in ("soft", "hard", "mcp", "scad")]
    for assumption in oracle.ASSUMPTIONS:
        config = oracle.RegularityProbeConfig(assumption=assumption, delta=1.0, vartheta=0.5, K=0.5,
                                              lam=lam, reference_beta=tuple(ref), **sampling)
        for rule in rules:
            res = oracle.probe_regularity(config, prob, rule)
            reg.append({"min_slack": res.min_slack, "argmin": res.argmin.tolist(),
                        "violated": res.violated, "num_evaluated": res.num_evaluated})
json.dump({"written": out, "records": records}, sys.stdout)
"""

# record keys that must be equal; a record's other keys are numeric outputs
SAME_KEYS = ("instance", "iterations", "reason", "support", "trace_iterations", "flagged", "gap_ok",
             "sweeps", "converged", "flag", "violated", "num_evaluated")


def run_checkout(checkout: str, size: str) -> dict:
    """The outputs of one checkout, from a fresh interpreter importing its src/."""
    proc = subprocess.run([sys.executable, "-c", CHILD, size], cwd=checkout, env=child_env(checkout),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def number(v):
    """v as a float when it is one (a CSV cell holds text), else None."""
    if isinstance(v, bool) or v is None:
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


class Drift:
    """The largest relative difference per output, and the values that differ
    without being numbers."""

    def __init__(self):
        self.worst = {}  # output -> (relative difference, path)
        self.mismatches = []  # paths

    def compare(self, output: str, path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for k in a:
                self.compare(output, f"{path}.{k}", a[k], b[k])
            return
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                self.compare(output, f"{path}[{i}]", x, y)
            return
        x, y = number(a), number(b)
        if x is None or y is None:
            if a != b:
                self.mismatches.append(path)
            return
        d = rel_diff(x, y)
        if output not in self.worst or d > self.worst[output][0]:
            self.worst[output] = (d, path)

    def records(self, name: str, ref: list, got: list) -> bool:
        """Compare paired records, one per solve or oracle call: their
        `SAME_KEYS` must be equal (False when one differs, or the record
        counts do), their other keys are walked as outputs `name.key`."""
        if len(ref) != len(got):
            self.mismatches.append(f"{name}: record count")
            return False
        same = True
        for i, (a, b) in enumerate(zip(ref, got)):
            for key in a:
                if key not in SAME_KEYS:
                    self.compare(f"{name}.{key}", f"{name}[{i}].{key}", a[key], b[key])
                elif a[key] != b[key]:
                    same = False
                    print(f"{name}[{i}].{key} differs", file=sys.stderr)
        return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    base, change = (run_checkout(c, args.size) for c in (args.base, args.change))

    drift, same = Drift(), True
    for name, got in change["records"].items():
        same &= drift.records(name, base["records"][name], got)
    for name, got in change["written"].items():
        ref = base["written"][name]
        if got["columns"] != ref["columns"] or len(got["rows"]) != len(ref["rows"]):
            drift.mismatches.append(f"{name}: result columns or row count")
        else:
            for i, (a, b) in enumerate(zip(ref["rows"], got["rows"])):
                for col, x, y in zip(got["columns"], a, b):
                    drift.compare(f"{name} rows.{col}", f"{name} rows[{i}].{col}", x, y)
        for key in sorted(ref["summary"].keys() | got["summary"].keys()):
            drift.compare(f"{name} summary.{key}", f"{name} summary.{key}",
                          ref["summary"].get(key), got["summary"].get(key))

    print(f"drift of {args.change} against {args.base} ({args.size} size)")
    moved = {o: w for o, w in sorted(drift.worst.items()) if w[0] > 0.0}
    for output, (d, path) in moved.items():
        print(f"{output:40s} {d:.3g}  at {path}")
    print(f"{len(drift.worst) - len(moved)} more numeric outputs identical")
    for path in drift.mismatches:
        print(f"non-numeric difference: {path}")
    print("iteration counts, supports and flags: " + ("identical" if same else "DIFFER"))
    return 0 if same and not drift.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
