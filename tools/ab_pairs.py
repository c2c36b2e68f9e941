"""Paired A/B runs of one perfbench workload in two checkouts, with a null.

    python3 tools/ab_pairs.py BASE_DIR CHANGE_DIR --workload multistart --pairs 10

Runs `python3 perfbench/run.py --trace 0` in `--pairs` triples of
`pairing`: in BASE_DIR, in CHANGE_DIR and in BASE_DIR again as the null,
all three runs of triple i at seed `--seed + i`, each checkout with the
bytecode cache of `pairing.side_envs`, filled by a tiny run of the
workload.  Per end-to-end metric
(direction and bound from CHANGE_DIR's BENCHMARK.json) it prints each
side's median and [q1, q3], the median per-triple ratio of the change and
of the null, the null's [q1, q3], the triples the change won, the reading
against those quartiles (`pairing.reading`) and `verdict`'s bound
rule; then each side's failed operations and correct runs.  `--out FILE`
writes the raw per-run results as JSON.  The exit status is 1 when a run
fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from pairing import SIDES, order, quartiles, ratios, reading, side_envs, verdict


def run_once(checkout: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One untraced perfbench run in `checkout` under `env`; its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(triples: list, spec: dict) -> list:
    """One line per metric of spec (name -> (better, bound)), then per side."""
    lines = []
    for name, (better, bound) in spec.items():
        if not all(name in t[side]["metrics"] for t in triples for side in SIDES):
            continue
        base, change, null = ([t[side]["metrics"][name]["value"] for t in triples] for side in SIDES)
        rc, rn = ratios(base, change), ratios(base, null)
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        (bm, bq1, bq3), (cm, cq1, cq3), (_, nq1, nq3) = quartiles(base), quartiles(change), quartiles(rn)
        lines.append(f"{name:14s} base {bm:.4g} [{bq1:.4g}, {bq3:.4g}]  change {cm:.4g} [{cq1:.4g}, "
                     f"{cq3:.4g}]  ratio {statistics.median(rc):.4f} null {statistics.median(rn):.4f} "
                     f"[{nq1:.4f}, {nq3:.4f}]  change better {wins}/{len(base)}  -> "
                     f"{reading(rc, rn, better)}, {verdict(base, change, better, bound)}")
    for side in SIDES:
        runs = [t[side] for t in triples]
        lines.append(f"{side}: failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                     f" operations, correct in {sum(bool(r['correct']) for r in runs)}/{len(runs)} runs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10, help="triples of base, change and null runs")
    ap.add_argument("--seed", type=int, default=101, help="seed of the first triple")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", help="write the raw per-run results here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    triples = []
    # the warm-up, a tiny run of the workload, compiles every module a run imports
    warm = ("perfbench/run.py", "--workload", args.workload, "--seed", "0", "--seconds", "0.01",
            "--size", "tiny")
    with side_envs(args.base, args.change, warm) as envs:
        for i in range(args.pairs):
            seed, got = args.seed + i, {}
            for side in order(i):
                got[side] = run_once(args.change if side == "change" else args.base,
                                     args.workload, seed, args.seconds, envs[side])
                print(f"triple {i + 1}/{args.pairs} seed {seed} {side}: wall_s "
                      f"{got[side]['metrics'].get('wall_s', {}).get('value', float('nan')):.4g}",
                      file=sys.stderr)
            triples.append(got)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(triples, f, indent=1)
    print(f"{args.workload}: {args.pairs} triples, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"--seconds {args.seconds:g}")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}
    print("\n".join(summarize(triples, spec)))
    ok = all(r["correct"] and not r["failed"] for t in triples for r in t.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
