"""Interleaved per-iteration solve timing of two checkouts.

    python3 tools/iter_pairs.py BASE_DIR CHANGE_DIR [--kinds hard,soft,scad,mcp]

Starts one long-lived child per checkout, each importing `tisp` from its
checkout's `src/`.  Both build the criterion-6 instances (8 designs, rng
6000 + i, rho = 1.05 ||X||_2) and solve them with `rule_catalog(lam=0.5)`'s
rule of each kind, at tol 1e-10 and max_iter 1500.  A burst of one kind is
24 solves, the same in every burst: each instance from the zero start and
from the first two of criterion 6's 20 Gaussian starts.  The children take
turns: in each of 20 rounds each runs one burst per kind, base first in
even rounds.  The two bursts of a round see nearly the same host speed,
so the median of the per-round ratios cancels the drift that whole
perfbench runs (`tools/ab_pairs.py`) leave in their few-percent readings;
the ratio of the two sides' medians does not, and scatters more.

Per kind it prints each side's median and minimum microseconds per
iteration over its bursts, the change-over-base ratios of both, and the
median of the per-round ratios.  The exit status is 1 when the two sides'
iteration counts differ for some kind.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# Runs in the checkout's own interpreter: one JSON line per burst request.
CHILD = r"""
import json, sys, time
import numpy as np
from tisp import solver, thresholding

rules = {r.kind: r for r in thresholding.rule_catalog(lam=0.5)}
instances = []
for i in range(8):
    rng = np.random.default_rng(6000 + i)
    p = int(rng.integers(3, 11))
    n = int(rng.integers(p, 2 * p + 6))
    prob = solver.Problem(rng.standard_normal((n, p)), 2.0 * rng.standard_normal(n))
    rho = 1.05 * solver.spectral_norm(prob.X)
    instances.append((prob, rho, [np.zeros(p)] + solver.gaussian_starts(prob, 20, seed=i)[:2]))
print("ready", flush=True)
for line in sys.stdin:
    rule = rules[line.strip()]
    cfgs = [solver.SolverConfig(rule=rule, rho=rho, tol=1e-10, max_iter=1500)
            for _, rho, _ in instances]
    t0 = time.perf_counter()
    iterations = sum(solver.solve(prob, cfg, start=s).iterations
                     for (prob, _, starts), cfg in zip(instances, cfgs) for s in starts)
    print(json.dumps([iterations, time.perf_counter() - t0]), flush=True)
"""

ROUNDS = 20


class Child:
    """A child interpreter on one checkout's src/, answering burst requests."""

    def __init__(self, checkout: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
        self.proc = subprocess.Popen([sys.executable, "-c", CHILD], cwd=checkout, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"{checkout}: child failed to start")

    def burst(self, kind: str) -> tuple:
        """(iterations, seconds) of one burst of solves with the kind's rule."""
        self.proc.stdin.write(f"{kind}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited {self.proc.wait()}")
        return tuple(json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def summarize(base: list, change: list) -> dict:
    """One kind's bursts, (iterations, seconds) per burst, base[i] and
    change[i] run in round i: median and minimum microseconds per iteration
    per side, the change-over-base ratios of both, the median per-round
    ratio, and whether every burst on either side took the same number of
    iterations, as bursts that repeat one set of solves must."""
    def us(bursts):
        return [1e6 * s / it for it, s in bursts]

    b, c = us(base), us(change)
    out = {"base": (statistics.median(b), min(b)), "change": (statistics.median(c), min(c))}
    out["ratio"] = (out["change"][0] / out["base"][0], out["change"][1] / out["base"][1])
    out["round_ratio"] = statistics.median(y / x for x, y in zip(b, c))
    out["same_iterations"] = len({it for it, _ in base + change}) == 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--kinds", default="hard,soft,scad,mcp")
    args = ap.parse_args(argv)
    kinds = args.kinds.split(",")

    children = {}
    try:
        for side in ("base", "change"):
            children[side] = Child(getattr(args, side))
        for kind in kinds:  # warm-up, not timed
            for child in children.values():
                child.burst(kind)
        runs = {kind: {"base": [], "change": []} for kind in kinds}
        for rnd in range(ROUNDS):
            order = ("base", "change") if rnd % 2 == 0 else ("change", "base")
            for kind in kinds:
                for side in order:
                    runs[kind][side].append(children[side].burst(kind))
    finally:
        for child in children.values():
            child.close()

    print(f"us/iteration over {ROUNDS} bursts of 24 solves per kind and side")
    same = True
    for kind in kinds:
        s = summarize(runs[kind]["base"], runs[kind]["change"])
        same &= s["same_iterations"]
        print(f"{kind:12s} base median {s['base'][0]:.2f} min {s['base'][1]:.2f}  "
              f"change median {s['change'][0]:.2f} min {s['change'][1]:.2f}  "
              f"ratio median {s['ratio'][0]:.3f} min {s['ratio'][1]:.3f}  "
              f"per-round median {s['round_ratio']:.3f}"
              + ("" if s["same_iterations"] else "  ITERATION COUNTS DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
