"""Paired A/B runs of one perfbench workload in two checkouts.

    python3 tools/ab_pairs.py BASE_DIR CHANGE_DIR --workload multistart --pairs 10

Runs `python3 perfbench/run.py --trace 0` in BASE_DIR and in CHANGE_DIR,
one after the other, `--pairs` times. Both runs of pair i use seed `--seed + i`, and the
order alternates between pairs (base first in even pairs), so a drift of
the host's speed hits both sides alike. For every end-to-end metric it
prints each side's median and [q1, q3], in how many pairs the change was
better, and a verdict (see `verdict`); the metric's direction and bound come
from CHANGE_DIR's BENCHMARK.json. It also prints the failed share of
operations and whether every run reported `correct: true`. `--out FILE`
writes the raw per-run results as JSON. The exit status is 1 when a run
fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `checkout`; its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(median, q1, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def end_to_end(checkout: str) -> dict:
    """End-to-end metric name -> (better, bound), from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """One metric's verdict over paired runs (base[i] and change[i] ran as pair i).

    `bound` is relative to the base median. In this order:
    - "worse": the change's median is worse than the base's by more than the bound
    - "better": the change won at least 9/10 of the pairs, and its median is
      better than the base's by more than the base's IQR
    - "unresolved": the base's IQR is wider than the bound, unless every
      change run beat every base run
    - "within bound": every other case
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - b) > 0: c is worse
    (bm, bq1, bq3), (cm, _, _) = quartiles(base), quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    if sign * (cm - bm) > bound * abs(bm):
        return "worse"
    if 10 * wins >= 9 * len(base) and sign * (bm - cm) > bq3 - bq1:
        return "better"
    if bq3 - bq1 > bound * abs(bm) and not all(sign * (c - b) < 0 for c in change for b in base):
        return "unresolved"
    return "within bound"


def summarize(pairs: list, spec: dict) -> list:
    """One text line per metric, plus the failed share and correctness."""
    lines = []
    for name, (better, bound) in spec.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs if name in b["metrics"]]
        change = [c["metrics"][name]["value"] for _, c in pairs if name in c["metrics"]]
        if not base or len(base) != len(change):
            continue
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        (bm, bq1, bq3), (cm, cq1, cq3) = quartiles(base), quartiles(change)
        lines.append(f"{name:14s} base {bm:.4g} [{bq1:.4g}, {bq3:.4g}]  change {cm:.4g} "
                     f"[{cq1:.4g}, {cq3:.4g}]  ({100.0 * (cm - bm) / bm:+.1f}%)  "
                     f"change better {wins}/{len(base)}  |gap| {abs(cm - bm):.4g} vs base IQR {bq3 - bq1:.4g}"
                     f"  -> {verdict(base, change, better, bound)}")
    for side, idx in (("base", 0), ("change", 1)):
        runs = [pair[idx] for pair in pairs]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{side}: failed {failed}/{attempted} operations, "
                     f"correct in {sum(bool(r['correct']) for r in runs)}/{len(runs)} runs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", help="write the raw per-run results here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            got[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            wall = got[side]["metrics"].get("wall_s", {}).get("value", float("nan"))
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: wall_s {wall:.4g}", file=sys.stderr)
        pairs.append((got["base"], got["change"]))

    if args.out:
        with open(args.out, "w") as f:
            json.dump([{"base": b, "change": c} for b, c in pairs], f, indent=1)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"--seconds {args.seconds:g}")
    for line in summarize(pairs, end_to_end(args.change)):
        print(line)
    ok = all(r["correct"] and not r["failed"] for pair in pairs for r in pair)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
