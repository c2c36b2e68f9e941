"""Interleaved per-iteration solve timing of two checkouts.

    python3 tools/iter_pairs.py BASE_DIR CHANGE_DIR [--kinds hard,soft,scad,mcp]

Starts three long-lived children, each importing `tisp` from its
checkout's `src/`: one on CHANGE_DIR and two on BASE_DIR, the base and the
null.  Each builds the criterion-6 instances (8 designs, rng 6000 + i,
rho = 1.05 ||X||_2) and solves them with `rule_catalog(lam=0.5)`'s rule of
each kind, at tol 1e-10 and max_iter 1500.  A burst of one kind is 24
solves, the same in every burst: each instance from the zero start and from
the first two of criterion 6's 20 Gaussian starts.  The children take
turns: in each of 21 rounds each runs one burst per kind, in an order that
rotates by one child per round (`order`), so each child runs 7 times in
each slot.  The bursts of a round see nearly the same host speed, so the
median of the per-round ratios cancels the drift that whole perfbench runs
(`tools/ab_pairs.py`) leave in their few-percent readings; the ratio of the
two sides' medians does not, and scatters more.  The null runs the base's
code, so its per-round ratio against the base shows what the tool reads for
no change at all: a change's ratio means something only where it stands
apart from the null's.

Per kind it prints the base's and the change's median and minimum
microseconds per iteration over their bursts, the change-over-base ratios
of both, and the median of the per-round ratios of the change and of the
null.  The exit status is 1 when the children's iteration counts differ
for some kind.
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

ROUNDS = 21
SIDES = ("base", "change", "null")  # the null is a second child on the base


def order(rnd: int) -> tuple:
    """The children's order in round rnd: SIDES rotated by rnd, so over any
    three rounds each child runs once in each slot."""
    k = rnd % len(SIDES)
    return SIDES[k:] + SIDES[:k]


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


def summarize(base: list, change: list, null: list = ()) -> dict:
    """One kind's bursts, (iterations, seconds) per burst, base[i], change[i]
    and null[i] run in round i: median and minimum microseconds per
    iteration of base and change, the change-over-base ratios of both, the
    median per-round ratio of the change and of the null (None without
    null bursts) against the base, and whether every burst took the same
    number of iterations, as bursts that repeat one set of solves must."""
    def us(bursts):
        return [1e6 * s / it for it, s in bursts]

    def round_ratio(side):
        return statistics.median(y / x for x, y in zip(b, us(side))) if side else None

    b, c = us(base), us(change)
    out = {"base": (statistics.median(b), min(b)), "change": (statistics.median(c), min(c))}
    out["ratio"] = (out["change"][0] / out["base"][0], out["change"][1] / out["base"][1])
    out["round_ratio"], out["null_round_ratio"] = round_ratio(change), round_ratio(null)
    out["same_iterations"] = len({it for it, _ in [*base, *change, *null]}) == 1
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
        for side in SIDES:
            children[side] = Child(args.change if side == "change" else args.base)
        for kind in kinds:  # warm-up, not timed
            for child in children.values():
                child.burst(kind)
        runs = {kind: {side: [] for side in SIDES} for kind in kinds}
        for rnd in range(ROUNDS):
            for kind in kinds:
                for side in order(rnd):
                    runs[kind][side].append(children[side].burst(kind))
    finally:
        for child in children.values():
            child.close()

    print(f"us/iteration over {ROUNDS} bursts of 24 solves per kind and child")
    same = True
    for kind in kinds:
        s = summarize(**runs[kind])
        same &= s["same_iterations"]
        print(f"{kind:12s} base median {s['base'][0]:.2f} min {s['base'][1]:.2f}  "
              f"change median {s['change'][0]:.2f} min {s['change'][1]:.2f}  "
              f"ratio median {s['ratio'][0]:.3f} min {s['ratio'][1]:.3f}  "
              f"per-round median {s['round_ratio']:.3f} null {s['null_round_ratio']:.3f}"
              + ("" if s["same_iterations"] else "  ITERATION COUNTS DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
