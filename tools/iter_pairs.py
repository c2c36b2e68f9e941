"""Interleaved per-iteration solve timing of two checkouts, with a null.

    python3 tools/iter_pairs.py BASE_DIR CHANGE_DIR [--kinds hard,soft,scad,mcp,soft@geometric:2,0.99,0.01]

Starts one long-lived child per side of `pairing`'s triples, each importing
`tisp` and criterion 6's instances (perfbench's `MultiStart.setup`) from
its checkout, with the bytecode cache of `pairing.side_envs`.  A burst of
one kind is 24 solves with `rule_catalog(lam=0.5)`'s rule of that kind at
rho = 1.05 ||X||_2, tol 1e-10, max_iter 1500: each instance from the zero
start and from its first two `gaussian_starts(..., 20, seed=i)`.  An entry
KIND@SCHEDULE runs that rule's template (its lambda None) under
`solver.parse_schedule(SCHEDULE)`, every iteration recorded.  In each
of 21 rounds each child runs one burst per kind, in `pairing.order`.  Per
kind it prints the base's and the change's median and minimum
us/iteration and their ratios, the median per-round ratio of the change
and of the null, the null's [q1, q3] and the reading against those
quartiles (`pairing.reading`).  The exit status is 1 when the children's
iteration counts differ for some kind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys

from pairing import SIDES, order, quartiles, ratios, reading, side_envs

# Runs in the checkout's own interpreter: one JSON line per burst request.
CHILD = r"""
import dataclasses, json, sys, time
import numpy as np
from perfbench.workloads import MultiStart
from tisp import solver, thresholding

ms = MultiStart(0, "full", ".")
ms.setup()
rules = {r.kind: r for r in thresholding.rule_catalog(lam=ms.LAM)}
instances = [(prob, 1.05 * solver.spectral_norm(prob.X),
              [np.zeros(prob.p)] + solver.gaussian_starts(prob, 20, seed=i)[:2])
             for i, prob in enumerate(ms.instances)]
print("ready", flush=True)
for line in sys.stdin:
    kind, _, text = line.strip().partition("@")
    rule, schedule = rules[kind], None
    if text:
        rule, schedule = dataclasses.replace(rule, lam=None), solver.parse_schedule(text)
    cfgs = [solver.SolverConfig(rule=rule, rho=rho, tol=1e-10, max_iter=1500, schedule=schedule,
                                record_every=1) for _, rho, _ in instances]
    t0 = time.perf_counter()
    iterations = sum(solver.solve(prob, cfg, start=s).iterations
                     for (prob, _, starts), cfg in zip(instances, cfgs) for s in starts)
    print(json.dumps([iterations, time.perf_counter() - t0]), flush=True)
"""

ROUNDS = 21


def start(checkout: str, env: dict) -> subprocess.Popen:
    """A child interpreter on one checkout under `env`, ready for burst requests."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD], cwd=checkout, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "ready":
        raise RuntimeError(f"{checkout}: child failed to start")
    return proc


def burst(child: subprocess.Popen, kind: str) -> tuple:
    """(iterations, seconds) of one burst of solves with the kind's rule."""
    child.stdin.write(f"{kind}\n")
    child.stdin.flush()
    line = child.stdout.readline()
    if not line:
        raise RuntimeError(f"child exited {child.wait()}")
    return tuple(json.loads(line))


def parse_kinds(text: str) -> list:
    """The --kinds entries, KIND or KIND@SCHEDULE: split at the commas, and a
    piece that does not start with a letter (a schedule's next number) joined
    back onto the entry before it."""
    entries = []
    for piece in text.split(","):
        if entries and "@" in entries[-1] and not piece[:1].isalpha():
            entries[-1] += "," + piece
        else:
            entries.append(piece)
    return entries


def summarize(base: list, change: list, null: list = ()) -> dict:
    """One kind's (iterations, seconds) bursts, side[i] run in round i: what
    `main` prints (the null's median, quartiles and reading None without null
    bursts), and whether every burst took the same number of iterations."""
    b, c, n = ([1e6 * s / it for it, s in side] for side in (base, change, null))
    out = {"base": (statistics.median(b), min(b)), "change": (statistics.median(c), min(c))}
    out["ratio"] = (out["change"][0] / out["base"][0], out["change"][1] / out["base"][1])
    rc, rn = ratios(b, c), ratios(b, n)
    out["round_ratio"] = statistics.median(rc)
    out["null_round_ratio"], out["null_quartiles"], out["reading"] = (
        (statistics.median(rn), quartiles(rn)[1:], reading(rc, rn)) if rn else (None,) * 3)
    out["same_iterations"] = len({it for it, _ in [*base, *change, *null]}) == 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--kinds", default="hard,soft,scad,mcp")
    args = ap.parse_args(argv)
    kinds = parse_kinds(args.kinds)

    with contextlib.ExitStack() as stack:  # on exit each child reads EOF and is waited for
        envs = stack.enter_context(side_envs(args.base, args.change))
        children = {side: stack.enter_context(
                        start(args.change if side == "change" else args.base, envs[side]))
                    for side in SIDES}
        for kind in kinds:  # warm-up, not timed
            for child in children.values():
                burst(child, kind)
        runs = {kind: {side: [] for side in SIDES} for kind in kinds}
        for rnd in range(ROUNDS):
            for kind in kinds:
                for side in order(rnd):
                    runs[kind][side].append(burst(children[side], kind))

    print(f"us/iteration over {ROUNDS} bursts of 24 solves per kind and child")
    same = True
    for kind in kinds:
        s = summarize(**runs[kind])
        same &= s["same_iterations"]
        print(f"{kind:12s} base median {s['base'][0]:.2f} min {s['base'][1]:.2f}  "
              f"change median {s['change'][0]:.2f} min {s['change'][1]:.2f}  "
              f"ratio median {s['ratio'][0]:.3f} min {s['ratio'][1]:.3f}  per-round median "
              f"{s['round_ratio']:.3f} null {s['null_round_ratio']:.3f} "
              f"[{s['null_quartiles'][0]:.3f}, {s['null_quartiles'][1]:.3f}]  -> {s['reading']}"
              + ("" if s["same_iterations"] else "  ITERATION COUNTS DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
