"""Write the stored reference outputs that the benchmark checks against.

    python3 perfbench/make_reference.py [--size full|tiny]

Runs the ``experiments`` and ``decay-large`` workloads' experiments once
and stores their outputs under ``reference/``.  Regenerate only when the outputs are meant to change; the
benchmark compares them at 1e-12 relative.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tisp import simulate  # noqa: E402

import workloads  # noqa: E402


def write(name: str, size: str, doc: dict) -> None:
    path = os.path.join(workloads.REFERENCE_DIR, f"{name}-{size}.json")
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    size = parser.parse_args(argv).size
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)

    results, decay_summary, rate_summary, written = workloads.run_experiments(
        *workloads.experiment_specs(size))
    failures = workloads.criterion_failures(results, decay_summary, rate_summary)
    if failures:
        print(f"experiments: criteria not met: {failures}", file=sys.stderr)
    write("experiments", size, written)

    results, summary = simulate.run_decay_experiment(workloads.decay_large_spec(size), jobs=1)
    write("decay-large", size, {"rows": [r.row for r in results], "summary": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main())
