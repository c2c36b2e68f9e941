"""Command line surface: solve, simulate, experiments, verify suites."""

import csv
import io
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tisp.cli
import tisp.oracle
from tisp.cli import main
from tisp.solver import TRACE_COLUMNS


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def scalar_files(tmp_path):
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    design.write_text("1.0\n")
    response.write_text("3.0\n")
    return design, response


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_scalar_to_stdout(capsys, scalar_files):
    design, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)", "--rho", "1"])
    assert code == 0
    assert out == "2.0\n"


def test_solve_writes_estimate_and_trace_files(capsys, tmp_path, scalar_files):
    design, response = scalar_files
    bstar = tmp_path / "bstar.csv"
    bstar.write_text("2.0\n")
    est = tmp_path / "est.csv"
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)", "--rho", "1",
                                  "--beta-star", str(bstar),
                                  "--out", str(est), "--trace", str(trace)])
    assert code == 0
    assert out == ""
    assert est.read_text() == "2.0\n"
    lines = trace.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[1].split(",")[4] != ""  # truth given, error columns filled


def test_solve_rho_below_norm_fails(capsys, scalar_files):
    design, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)", "--rho", "0.001"])
    assert code == 1
    assert "below the design spectral norm" in err


def test_solve_bad_rule(capsys, scalar_files):
    design, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(bogus=1)"])
    assert code == 1
    assert "bogus" in err


def test_solve_rule_without_lambda(capsys, scalar_files):
    # a lambda kind without lambda or a schedule is a configuration error
    design, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response), "--rule", "hard"])
    assert code == 1 and out == ""
    assert "rule 'hard' needs lambda or a schedule" in err


def test_solve_bad_schedule(capsys, scalar_files):
    design, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)",
                                  "--lambda-schedule", "mystery:1"])
    assert code == 1
    assert "cannot parse schedule" in err


def test_solve_malformed_csv(capsys, tmp_path, scalar_files):
    design, response = scalar_files
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nabc\n")
    code, out, err = run(capsys, ["solve", "--design", str(bad),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)"])
    assert code == 1
    assert "line 2" in err


# name -> (file bytes, whether np.loadtxt reads it); read_matrix must agree
# with the csv reader on each, in its array or in its error message
CSV_CASES = {
    "quoted": (b'"1","2"\n3,4\n', False),
    "underscore": (b"1_0,2\n", False),
    "empty": (b"", False),
    "blank_lines_only": (b"\n\n\n", False),
    "ragged": (b"1,2\n3\n", False),
    "trailing_comma": (b"1,2,\n3,4,\n", False),
    "whitespace_only_line": (b"1,2\n   \n3,4\n", False),
    "separator_byte": (b"1,2\x1c\n3,4\n", False),
    "crlf": (b"1,2\r\n\r\n3,4\r\n", True),
    "nan_inf": (b"nan,inf\n-Infinity,NaN\n", True),
    "single_value": (b"3.0", True),
    "spaces_and_exponents": (b" 1e-3 ,-2.5E+2\n0.1000000000000000055511151231257827,-0\n", True),
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_read_matrix_agrees_with_the_csv_reader(tmp_path, name):
    data, fast = CSV_CASES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)

    def outcome(read):
        try:
            m = read(str(path))
        except tisp.cli.CliError as exc:
            return str(exc)
        return m.shape, m.dtype, m.tobytes()

    assert (tisp.cli._loadtxt(str(path)) is not None) == fast
    assert outcome(tisp.cli.read_matrix) == outcome(tisp.cli._read_csv)


def test_writers_match_the_csv_writer():
    # the matrix and vector writers join float reprs; csv.writer over the
    # same reprs is the reference, on values whose reprs are unusual
    mat = np.array([[np.nan, np.inf, -np.inf, -0.0],
                    [1e-300, 5e-324, 3.0, -7.0],
                    [0.1, 2.0**60, -1.5e308, 1.0 / 3.0]])

    def csv_writer(rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    for m in (mat, mat[:, :1], np.zeros((2, 0))):
        buf = io.StringIO()
        tisp.cli._write_matrix(m, buf)
        assert buf.getvalue() == csv_writer([[repr(float(v)) for v in row] for row in m])
    buf = io.StringIO()
    tisp.cli._write_vector(mat.ravel(), buf)
    assert buf.getvalue() == csv_writer([[repr(float(v))] for v in mat.ravel()])


def test_solve_missing_file(capsys, tmp_path, scalar_files):
    _, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(tmp_path / "nope.csv"),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)"])
    assert code == 1
    assert "cannot read" in err


def test_solve_dimension_mismatch(capsys, tmp_path):
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    design.write_text("1.0,0.0\n0.0,1.0\n")
    response.write_text("1.0\n2.0\n3.0\n")
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)"])
    assert code == 1
    assert "error" in err


def test_solve_overflow_is_a_solver_failure(capsys, tmp_path):
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    design.write_text("1.0\n1.0\n")
    response.write_text("1.7e308\n1.7e308\n")
    argv = ["solve", "--design", str(design), "--response", str(response),
            "--rule", "soft(lambda=1)"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, argv)
    assert code == 1
    assert "solver failure: non-finite iterate" in err

    proc = subprocess.run([sys.executable, "-m", "tisp.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("solver failure: non-finite iterate")
    assert "RuntimeWarning" not in proc.stderr


def test_solve_non_convergence_exits_2(capsys, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    design.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")
    response.write_text("\n".join(repr(float(v)) for v in y) + "\n")
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=0.1)",
                                  "--tol", "1e-15", "--max-iter", "2"])
    assert code == 2
    assert "did not converge within 2 iterations" in err
    assert len(out.splitlines()) == 4  # estimate still written


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

DECAY_CONFIG = {"ensemble": "gaussian-iid", "n": 40, "p": 20, "J_star": 2,
                "sigma": 0.5, "seeds": [0, 1], "rules": ["soft"]}


def write_config(tmp_path, payload):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    return cfg


def test_simulate_writes_instance(capsys, tmp_path):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    out_dir = tmp_path / "inst"
    code, out, err = run(capsys, ["simulate", "--config", str(cfg),
                                  "--out", str(out_dir)])
    assert code == 0
    X = (out_dir / "X.csv").read_text()
    assert len(X.splitlines()) == 40
    assert len(X.splitlines()[0].split(",")) == 20
    assert len((out_dir / "y.csv").read_text().splitlines()) == 40
    assert len((out_dir / "beta_star.csv").read_text().splitlines()) == 20

    out_dir2 = tmp_path / "inst2"
    run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir2)])
    assert (out_dir2 / "X.csv").read_text() == X

    out_dir3 = tmp_path / "inst3"
    run(capsys, ["simulate", "--config", str(cfg), "--seed", "7",
                 "--out", str(out_dir3)])
    assert (out_dir3 / "X.csv").read_text() != X


def test_simulate_rejects_unknown_config_field(capsys, tmp_path):
    cfg = write_config(tmp_path, {**DECAY_CONFIG, "mystery_knob": 3})
    code, out, err = run(capsys, ["simulate", "--config", str(cfg),
                                  "--out", str(tmp_path / "x")])
    assert code == 1
    assert "mystery_knob" in err


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_decay_experiment_cli(capsys, tmp_path):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    out_dir = tmp_path / "decay"
    code, out, err = run(capsys, ["decay", "--config", str(cfg),
                                  "--out", str(out_dir)])
    assert code == 0
    summary = json.loads(out)
    assert summary["num_runs"] == 2
    results = (out_dir / "decay_results.csv").read_text()
    assert json.loads((out_dir / "decay_summary.json").read_text()) == summary

    out_dir2 = tmp_path / "decay2"
    run(capsys, ["decay", "--config", str(cfg), "--out", str(out_dir2),
                 "--jobs", "2"])
    assert (out_dir2 / "decay_results.csv").read_text() == results
    assert (out_dir2 / "decay_summary.json").read_text() == \
        (out_dir / "decay_summary.json").read_text()


RATE_CONFIG = {"ensemble": "gaussian-iid", "sigma": 1.0, "seeds": [0],
               "rules": ["hard"], "A": 2.0, "p_grid": [40, 80],
               "J_star_grid": [2, 4], "n_factor": 5.0}


def test_experiment_rejects_jobs_below_one(capsys, tmp_path):
    for kind, payload, jobs in [("decay", DECAY_CONFIG, "0"), ("rate", RATE_CONFIG, "-2")]:
        cfg = write_config(tmp_path, payload)
        code, out, err = run(capsys, [kind, "--config", str(cfg),
                                      "--out", str(tmp_path / kind), "--jobs", jobs])
        assert code == 1
        assert out == ""
        assert err == f"error: jobs must be >= 1, got {jobs}\n"


def test_rate_experiment_cli(capsys, tmp_path):
    cfg = write_config(tmp_path, RATE_CONFIG)
    out_dir = tmp_path / "rate"
    code, out, err = run(capsys, ["rate", "--config", str(cfg),
                                  "--out", str(out_dir)])
    assert code == 0
    summary = json.loads(out)
    assert len(summary["cells"]) == 4
    header = (out_dir / "rate_results.csv").read_text().splitlines()[0]
    assert header.startswith("seed,rule,n,p,J_star")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_axioms_suite(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "axioms"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)


def test_verify_regularity_suite_reports_finding(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "regularity"])
    assert code == 0
    assert "violation reported as a finding" in out
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_verify_all_prints_each_check_in_table_order_and_fails_on_any(capsys, monkeypatch):
    assert list(tisp.oracle.SUITES) == [
        "axioms", "penalty", "descent", "theorem1", "lemma5", "lemma7", "regularity"]

    def suite(*checks):
        return lambda seed: [(f"{name}@{seed}", ok, "detail") for name, ok in checks]

    monkeypatch.setattr(tisp.oracle, "SUITES", {
        "first": suite(("a", True), ("b", True)),
        "second": suite(("c", False)),
        "third": suite(("d", True)),
    })
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--seed", "7"])
    assert code == 1
    assert out.splitlines() == [
        "PASS a@7: detail", "PASS b@7: detail", "FAIL c@7: detail", "PASS d@7: detail"]
    code, out, _ = run(capsys, ["verify", "--suite", "first"])
    assert code == 0
    assert out.splitlines() == ["PASS a@0: detail", "PASS b@0: detail"]
    code, out, _ = run(capsys, ["verify", "--suite", "second"])
    assert code == 1
    assert out.splitlines() == ["FAIL c@0: detail"]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def test_module_entry_point(tmp_path):
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    design.write_text("1.0\n")
    response.write_text("3.0\n")
    proc = subprocess.run([sys.executable, "-m", "tisp.cli", "solve",
                           "--design", str(design), "--response", str(response),
                           "--rule", "soft(lambda=1)", "--rho", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2.0\n"


@pytest.mark.skipif(shutil.which("tisp") is None, reason="console script not on PATH")
def test_console_script(tmp_path):
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    design.write_text("1.0\n")
    response.write_text("3.0\n")
    proc = subprocess.run(["tisp", "solve", "--design", str(design),
                           "--response", str(response),
                           "--rule", "soft(lambda=1)", "--rho", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2.0\n"
