"""Benchmark of the tisp library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the benchmark imports ``tisp`` from the
checkout's ``src/`` and exits with status 2 when it is missing.  A run sets
the workload up ``SETUP_REPS`` times, each time importing ``tisp`` in a fresh
interpreter and building the workload's inputs (``setup_s`` is the median),
then runs closed-loop passes, one at a time in this process, until the next
pass would end after ``--seconds``.  Every pass checks its outputs.

The single-threaded workloads run with one BLAS thread (also in their child
processes), and every time they report is scaled to a reference host speed
by the calibration kernel of ``hostspeed.py``, timed between set-ups and
passes; ``decay-large`` runs numpy's default BLAS threads, unscaled.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each pass is followed by the same pass run under the
outside-in tracer (``tracing.py``), and the last line carries the per-layer
metrics, averaged over the traced passes.  The line before it records the
environment, the seeds, the pass-time quartiles and the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

SIZES = ("full", "tiny")
SETUP_REPS = 3
TIME_UNITS = ("s", "ms", "us")  # per-layer units scaled like the end-to-end times
RATE_UNITS = ("MB/s",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    return parser.parse_args(argv)


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def openblas_function(name: str):
    """``name`` (get/set_num_threads) of numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes

    fn = openblas_function("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = []
    return fn()


def use_one_blas_thread() -> None:
    """One BLAS thread here and in every child process started after this."""
    import ctypes

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    fn = openblas_function("set_num_threads")
    if fn is not None:
        fn.restype = None
        fn.argtypes = [ctypes.c_int]
        fn(1)
    if blas_threads() not in (1, None):
        print(f"warning: BLAS still runs {blas_threads()} threads", file=sys.stderr)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(summary: dict, child_wall_s: float | None) -> dict:
    """Per-layer values of one traced pass, in measured (unscaled) time."""
    def get(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    solves = summary.get("solver.solve", {}).get("notes", [])
    iters = sum(n["iterations"] for n in solves)
    norm_calls = get("solver.spectral_norm", "calls")
    designs = set(summary.get("solver.spectral_norm", {}).get("notes", []))
    oracle_ps = summary.get("oracle.l0_global_min", {}).get("notes", [])
    read_bytes = sum(summary.get("cli.read_matrix", {}).get("notes", []))
    main_s = get("cli.main", "s")
    return {
        "solver.solve.calls": len(solves),
        "solver.iterations": iters,
        "solver.nonconverged_frac": ratio(sum(not n["converged"] for n in solves), len(solves)),
        "solver.flagged": sum(n["flagged"] for n in solves),
        # the solve loop does 2 matvecs per iteration, 1 more per recorded
        # row (2 with error columns) and 3 at exit
        "solver.matvecs": sum(2 * n["iterations"] + n["rows"] * (2 if n["has_errors"] else 1) + 3
                              for n in solves),
        "solver.solve.self_s": get("solver.solve"),
        "solver.us_per_iter": ratio(get("solver.solve", "s"), iters) * 1e6,
        "solver.spectral_norm.calls": norm_calls,
        "solver.spectral_norm.s": get("solver.spectral_norm"),
        "solver.spectral_norm.redundant_frac": 1.0 - ratio(len(designs), norm_calls) if norm_calls else 0.0,
        "solver.scale_problem.s": get("solver.scale_problem"),
        "thresholding.apply_vec.calls": get("thresholding.apply_vec", "calls"),
        "thresholding.apply_vec.s": get("thresholding.apply_vec"),
        "thresholding.discontinuities.calls": get("thresholding.discontinuities", "calls"),
        "thresholding.discontinuities.s": get("thresholding.discontinuities"),
        "penalty.penalty_theta.calls": get("penalty.penalty_theta", "calls"),
        "penalty.penalty_theta.s": get("penalty.penalty_theta"),
        "penalty.calls_per_iter": ratio(get("penalty.penalty_theta", "calls"), iters),
        "oracle.l0_global_min.calls": get("oracle.l0_global_min", "calls"),
        "oracle.l0_global_min.s": get("oracle.l0_global_min"),
        "oracle.supports_enumerated": sum(2 ** p - 1 for p in oracle_ps),
        "simulate.gen_design.s": get("simulate.gen_design"),
        "simulate.gen_beta_star.s": get("simulate.gen_beta_star"),
        "simulate.gen_response.s": get("simulate.gen_response"),
        "simulate.fit.s": get("simulate.fit_decay_rate") + get("simulate.fit_step_bound"),
        "simulate.write.s": get("simulate.write_results_csv") + get("simulate.write_summary_json"),
        "cli.read_matrix.calls": get("cli.read_matrix", "calls"),
        "cli.read_matrix.s": get("cli.read_matrix"),
        "cli.read_matrix.mb_per_s": ratio(read_bytes / 1e6, get("cli.read_matrix")),
        "cli.write.s": get("cli._write_vector") + get("solver.IterateTrace.write_csv"),
        "cli.startup_s": child_wall_s - main_s if child_wall_s is not None and main_s else 0.0,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def setup_seconds(wl, host: hostspeed.HostSpeed) -> float:
    """One set-up: the import a user pays in a fresh interpreter, then the
    workload's inputs and references."""
    import workloads

    host.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tisp.cli"], env=workloads.child_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    wl.setup()
    return time.perf_counter() - t0


def run_pass(wl, k: int, traced: bool):
    """One pass under a tracer: every tisp layer when `traced`, else only
    `solve` (for its latency).  Returns (PassResult or None if the pass
    raised, wall seconds, tracer)."""
    tracer = tracing.Tracer(tracing.ALL_TARGETS if traced else (tracing.SOLVE,))
    t0 = time.perf_counter()
    try:
        with tracer:
            result = wl.run_pass(k, tracer, traced)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, time.perf_counter() - t0, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its child process and removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "tisp", "__init__.py")):
        print(f"error: no tisp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tisp.cli  # noqa: F401  (imports every tisp module)
    if os.path.dirname(os.path.abspath(tisp.__file__)) != os.path.join(SRC, "tisp"):
        print(f"error: imported tisp from {tisp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layer_doc = json.load(f)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        if wl.single_thread:
            use_one_blas_thread()
        host = hostspeed.HostSpeed()
        setup_times = [setup_seconds(wl, host) for _ in range(SETUP_REPS)]

        attempted = failed = 0
        walls, traced_walls, solve_s, child_rss, layers = [], [], [], [], []
        count_warnings = []
        start = time.perf_counter()
        k = 0
        while True:
            cycle = time.perf_counter()
            host.sample()
            for traced in ((False, True) if args.trace else (False,)):
                result, wall, tracer = run_pass(wl, k, traced)
                if result is None:
                    result = workloads.PassResult(wl.ops_per_pass, wl.ops_per_pass)
                attempted += result.attempted
                failed += result.failed
                if result.rss_kb is not None:
                    child_rss.append(result.rss_kb)
                if not traced:
                    walls.append(wall)
                    solve_s += result.solve_s or [
                        end - begin for name, begin, end, *_ in tracer.spans if name == "solver.solve"]
                    continue
                traced_walls.append(wall)
                summary = result.child_summary if result.child_summary is not None else tracer.summary()
                layer = layer_metrics(summary, result.child_wall_s)
                for name, want in (("solver.solve.calls", wl.solves_per_pass),
                                   ("oracle.l0_global_min.calls", wl.oracle_calls_per_pass)):
                    if layer[name] != want:
                        count_warnings.append(f"pass {k}: {name} = {layer[name]}, workload issued {want}")
                layers.append(layer)
            k += 1
            now = time.perf_counter()
            if now - start + (now - cycle) > args.seconds:
                break
        host.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for warning in count_warnings:
        print(f"warning: trace count mismatch, {warning}", file=sys.stderr)

    # reported times are measured times at the reference host speed
    scale = host.factor() if wl.single_thread else 1.0
    info = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seeds": wl.seeds_used(k),
        "environment": environment(),
        "host_speed": {"scaled": wl.single_thread, "scale": scale,
                       "reference_s": hostspeed.REFERENCE_S, "kernel_s": quartiles(host.samples)},
        "measured_wall_s": quartiles(walls),
        "solve_samples": len(solve_s),
        "measured_setup_s": quartiles(setup_times),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "computed_metrics": layer_doc["computed"],
        "caveat": layer_doc["caveat"],
    }
    if args.trace:
        info["measured_traced_wall_s"] = quartiles(traced_walls)
        info["trace_count_mismatches"] = count_warnings
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = {name: statistics.fmean(layer[name] for layer in layers)
                  for name in layers[0]}
        for name, unit in units.items():
            if unit in TIME_UNITS:
                values[name] *= scale
            elif unit in RATE_UNITS:
                values[name] /= scale
        values["trace_overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        solve_ms = [s * 1e3 * scale for s in solve_s]
        rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": statistics.median(walls) * scale,
            "solve_ms.p50": float(np.percentile(solve_ms, 50)),
            "solve_ms.p90": float(np.percentile(solve_ms, 90)),
            "setup_s": statistics.median(setup_times) * scale,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
