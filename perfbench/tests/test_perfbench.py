"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import tisp  # noqa: E402
import tisp.cli  # noqa: E402
import tisp.simulate  # noqa: E402
import tisp.solver  # noqa: E402
import tisp.thresholding  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_prints_every_named_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    info = json.loads(proc.stdout.splitlines()[-2])
    single = workloads.WORKLOADS[workload].single_thread
    assert info["host_speed"]["scaled"] is single
    if single:
        assert info["environment"]["blas"]["threads"] == 1
    else:
        assert info["host_speed"]["scale"] == 1.0


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_layer_table_names_match_benchmark_json():
    with open(os.path.join(BENCH, "layers.json")) as f:
        table = json.load(f)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    names = set(workloads.WORKLOADS)
    assert table["claim"] is None
    for row in table["layers"]:
        assert set(row["metrics"]) <= layers
        for pair in row["moves"] + row["flat"]:
            assert pair["metric"] in e2e and pair["workload"] in names


def originals():
    return {
        "solver.solve": tisp.solver.solve,
        "cli.solve": tisp.cli.solve,
        "simulate.solve": tisp.simulate.solve,
        "tisp.solve": tisp.solve,
        "cli.spectral_norm": tisp.cli.spectral_norm,
        "thresholding.apply_vec": tisp.thresholding.apply_vec,
        "tisp.apply_vec": tisp.apply_vec,
        "IterateTrace.write_csv": tisp.solver.IterateTrace.__dict__["write_csv"],
        "cli.read_matrix": tisp.cli.read_matrix,
    }


def test_wrappers_are_gone_after_a_traced_pass(tmp_path):
    before = originals()
    wl = workloads.Experiments(3, "tiny", str(tmp_path))
    wl.setup()
    result, _, tracer = run.run_pass(wl, 0, True)
    assert result.failed == 0
    assert originals() == before
    assert tisp.solver.solve is before["solver.solve"]
    # the tracer saw the solves issued through tisp.simulate's alias
    assert tracer.summary()["solver.solve"]["calls"] == wl.solves_per_pass


def test_wrappers_are_gone_when_the_pass_raises():
    before = originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert tisp.solver.solve is not before["solver.solve"]
            assert tisp.cli.solve is tisp.solver.solve
            1 / 0
    assert originals() == before


def test_self_time_excludes_traced_children(tmp_path):
    wl = workloads.MultiStart(0, "tiny", str(tmp_path))
    wl.setup()
    with tracing.Tracer() as tracer:
        wl.run_pass(0, tracer, True)
    summary = tracer.summary()
    solve = summary["solver.solve"]
    children = sum(summary[n]["s"] for n in ("solver.scale_problem", "thresholding.apply_vec",
                                             "thresholding.discontinuities", "penalty.penalty_theta"))
    assert solve["calls"] == wl.solves_per_pass
    assert solve["self_s"] == pytest.approx(solve["s"] - children, rel=1e-6, abs=1e-9)
    # leaves are aggregated, not kept per call
    assert len(tracer.spans) < summary["thresholding.apply_vec"]["calls"]


def test_mismatches_uses_relative_tolerance():
    assert workloads.mismatches({"a": [1.0, "0.5"]}, {"a": [1.0 + 1e-13, "0.5000000000000001"]}) == []
    assert workloads.mismatches({"a": [1.0]}, {"a": [1.0 + 1e-10]}) == ["/a/0"]
    assert workloads.mismatches("soft(lambda=1)", "hard(lambda=1)") == ["/"]
    assert workloads.mismatches([1, 2], [1, 2, 3]) == ["/"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("multistart", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
