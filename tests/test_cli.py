"""Command line surface: solve, simulate, experiments, verify suites."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tisp.cli
import tisp.oracle
import tisp.solver
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


@pytest.mark.parametrize("max_iter, code", [("10000", 0), ("7", 2)])
def test_solve_without_trace_records_only_its_final_iterate(capsys, tmp_path, monkeypatch,
                                                            max_iter, code):
    # without --trace only the last iteration is recorded (record_every =
    # max_iter); stdout, the --out bytes, stderr and the exit code are those
    # of the solve that records every iteration for --trace
    rng = np.random.default_rng(29)
    X = rng.standard_normal((12, 6))
    bstar = np.array([1.5, 0.0, 0.0, -2.0, 0.0, 0.0])
    y = X @ bstar + 0.1 * rng.standard_normal(12)
    paths = {}
    for name, values in (("X", X), ("y", y), ("bstar", bstar)):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(",".join(map(repr, np.atleast_1d(row).tolist()))
                                         for row in values) + "\n")
    results = []

    def recording(problem, config, start=None):
        results.append(tisp.solver.solve(problem, config, start))
        return results[-1]

    monkeypatch.setattr(tisp.cli, "solve", recording)
    argv = ["solve", "--design", str(paths["X"]), "--response", str(paths["y"]),
            "--rule", "hard(lambda=0.5)", "--beta-star", str(paths["bstar"]), "--max-iter", max_iter]
    seen = {}
    for trace in (False, True):
        for out in (False, True):
            est = tmp_path / f"est-{trace}-{out}.csv"
            extra = (["--trace", str(tmp_path / "trace.csv")] if trace else []) + (
                ["--out", str(est)] if out else [])
            got = run(capsys, argv + extra)
            seen[trace, out] = got + (est.read_bytes() if out else None,)
            result = results[-1]
            rows = result.iterations if trace else 1
            assert result.trace.iterations == list(range(result.iterations - rows + 1, result.iterations + 1))
            assert len(result.trace.objective) == len(result.trace.pred_err) == rows
    assert seen[True, False] == seen[False, False] and seen[True, True] == seen[False, True]
    assert seen[False, False][0] == code and seen[False, True][1] == ""
    assert seen[False, True][3].decode() == seen[False, False][1]
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == results[-1].iterations + 1


def test_solve_rho_below_norm_fails(capsys, scalar_files):
    design, response = scalar_files
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)", "--rho", "0.001"])
    assert code == 1
    assert "below the design spectral norm" in err


def test_solve_overflowing_design_norm_fails(capsys, tmp_path, scalar_files):
    _, response = scalar_files
    design = tmp_path / "huge.csv"
    design.write_text("1e308,1e308\n1e308,1e308\n")
    response.write_text("1.0\n1.0\n")
    code, out, err = run(capsys, ["solve", "--design", str(design),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)"])
    assert code == 1 and out == ""
    assert "design spectral norm overflows" in err


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


def test_solve_undecodable_csv(capsys, tmp_path, scalar_files):
    # a byte that is not text in the locale encoding is a read error that
    # names the file, on one error line
    design, response = scalar_files
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,\xa02\n")
    code, out, err = run(capsys, ["solve", "--design", str(bad),
                                  "--response", str(response),
                                  "--rule", "soft(lambda=1)"])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1, err


def test_solve_template_with_a_schedule_at_alpha_below_one(capsys, tmp_path):
    # the schedule gives a rule template its lambda; at alpha < 1 the solve
    # writes what the rule with that lambda writes, byte for byte
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 10))
    bstar = np.zeros(10)
    bstar[:3] = [2.0, -1.5, 1.0]
    files = {}
    for name, arr in (("X", X), ("y", X @ bstar + 0.3 * rng.standard_normal(20)), ("bstar", bstar)):
        files[name] = tmp_path / f"{name}.csv"
        np.savetxt(files[name], arr, delimiter=",")
    outputs = []
    for i, rule_args in enumerate((["--rule", "soft", "--lambda-schedule", "constant:0.5"],
                                   ["--rule", "soft(lambda=0.5)"])):
        est, trace = tmp_path / f"est{i}.csv", tmp_path / f"trace{i}.csv"
        code, out, err = run(capsys, ["solve", "--design", str(files["X"]),
                                      "--response", str(files["y"]), "--beta-star", str(files["bstar"]),
                                      *rule_args, "--alpha", "0.5", "--out", str(est), "--trace", str(trace)])
        assert code == 0 and out == "", err
        outputs.append((est.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") > 10


def repr_csv(m) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in m.tolist()).encode()


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
    # a binary handle's lines end at \n only, and np.loadtxt refuses a lone \r
    # inside one; the csv reader ends a line there
    "lone_cr": (b"1,2\r3,4\n", False),
    "blank_line_mid_file": (b"1,2\n3,4\n\n5,6\n7,8\n", True),
    "ragged_late": (b"1,2\n3,4\n5,6\n7\n", False),
    "separator_byte_late": (b"1,2\n3,4\n5,6\n7,8\x1d\n", False),
    "no_final_newline": (b"1,2\n3,4\n5,6", True),
    "bom": (b"\xef\xbb\xbf1,2\n3,4\n", False),
    "undecodable": (b"1,\xa02\n", False),  # not UTF-8
    "repr_50x7": (repr_csv(np.random.default_rng(0).standard_normal((50, 7))), True),
}


@pytest.fixture
def forced_ranges(monkeypatch):
    """The CSV reader forced into 1-byte ranges on 4 CPUs: up to three forked
    children per read, each reaped by the time the test ends."""
    monkeypatch.setattr(tisp.cli, "_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_read_matrix_in_ranges_agrees_with_the_csv_reader(tmp_path, forced_ranges, name):
    test_read_matrix_agrees_with_the_csv_reader(tmp_path, name)


def test_read_in_ranges_equals_np_loadtxt_and_reaps_every_child(tmp_path, forced_ranges,
                                                                monkeypatch):
    path = tmp_path / "X.csv"
    path.write_bytes(repr_csv(np.random.default_rng(1).standard_normal((200, 7))))
    m = tisp.cli._loadtxt(str(path))
    assert m.tobytes() == np.loadtxt(str(path), delimiter=",").tobytes() and m.shape == (200, 7)
    # a child writes the shape, then its rows from their own buffer, uncopied
    header, rows = tisp.cli._packed(m)
    assert rows.obj is m and tisp.cli._unpacked(b"".join((header, rows))).tobytes() == m.tobytes()

    # a later range refused: the csv reader reads the file and names the line
    path.write_bytes(path.read_bytes() + b"1,2,3,4,5,6,x\n")
    assert tisp.cli._loadtxt(str(path)) is None
    with pytest.raises(tisp.cli.CliError, match="line 201: value is not a number"):
        tisp.cli.read_matrix(str(path))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    # an exception in this process while children parse
    parent, parse = os.getpid(), tisp.cli._parse_range

    def failing_here(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent fails")
        return parse(*args)

    monkeypatch.setattr(tisp.cli, "_parse_range", failing_here)
    with pytest.raises(RuntimeError, match="parent fails"):
        tisp.cli.read_matrix(str(path))


@pytest.mark.parametrize("mangle", [
    lambda m, sent: np.array([len(m) + 1, m.shape[1]], dtype=np.int64).tobytes() + sent[16:],
    lambda m, sent: sent[:-3],  # cut mid-value
    lambda m, sent: sent[:10],  # cut mid-shape
], ids=["a_row_short", "cut_mid_value", "cut_mid_shape"])
def test_a_child_that_sends_the_wrong_bytes_sends_the_file_to_the_csv_reader(tmp_path, forced_ranges,
                                                                             monkeypatch, mangle):
    path = tmp_path / "X.csv"
    path.write_bytes(repr_csv(np.random.default_rng(4).standard_normal((40, 3))))
    packed = tisp.cli._packed
    monkeypatch.setattr(tisp.cli, "_packed", lambda m: [mangle(m, b"".join(packed(m)))])  # each child's bytes
    assert tisp.cli._loadtxt(str(path)) is None
    m = tisp.cli.read_matrix(str(path))
    assert m.shape == (40, 3) and m.tobytes() == tisp.cli._read_csv(str(path)).tobytes()


def test_read_matrix_forks_only_with_a_cpu_and_a_fork_to_spare(tmp_path, monkeypatch):
    path = tmp_path / "X.csv"
    path.write_bytes(repr_csv(np.random.default_rng(2).standard_normal((40, 3))))
    expected = np.loadtxt(str(path), delimiter=",").tobytes()
    monkeypatch.setattr(tisp.cli, "_RANGE_BYTES", 1)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert tisp.cli._loadtxt(str(path)).tobytes() == expected

    def failing_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert tisp.cli._loadtxt(str(path)) is None  # the csv reader reads the file
    assert tisp.cli.read_matrix(str(path)).tobytes() == expected
    monkeypatch.delattr(os, "fork")  # a platform without fork
    assert tisp.cli._loadtxt(str(path)).tobytes() == expected


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


def test_writers_in_ranges_match_the_csv_writer(forced_ranges):
    test_writers_match_the_csv_writer()


def test_write_in_ranges_gives_the_serial_bytes_and_reaps_every_child(tmp_path, forced_ranges,
                                                                      monkeypatch):
    # the unusual values of test_writers_match_the_csv_writer, and reprs
    mats = [np.array([[np.nan, np.inf, -np.inf, -0.0],
                      [1e-300, 5e-324, 3.0, -7.0],
                      [0.1, 2.0**60, -1.5e308, 1.0 / 3.0]]),
            np.random.default_rng(3).standard_normal((200, 7))]
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def check(forked):
        # each matrix to a StringIO and to a file: the bytes of one range
        for m in mats:
            forks.clear()
            buf = io.StringIO()
            tisp.cli._write_matrix(m, buf)
            path = tmp_path / "m.csv"
            with open(path, "w", newline="") as f:
                tisp.cli._write_matrix(m, f)
            assert buf.getvalue().encode() == path.read_bytes() == repr_csv(m)
            assert len(forks) == (2 * min(3, len(m) - 1) if forked else 0)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    monkeypatch.setattr(os, "fork", counted_fork)
    check(forked=True)

    def failing_fork():
        forks.append(1)
        raise BlockingIOError("no process to spare")

    with monkeypatch.context() as m:
        m.setattr(os, "fork", failing_fork)
        check(forked=True)  # every fork tried, every range formatted here
    with monkeypatch.context() as m:
        m.delattr(os, "fork")  # a platform without fork: one range
        check(forked=False)

    parent, lines = os.getpid(), tisp.cli._lines

    def failing_in_children(mat):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        return lines(mat)

    with monkeypatch.context() as m:
        m.setattr(tisp.cli, "_lines", failing_in_children)
        check(forked=True)  # each child exits 1: its range is formatted here

    def failing_here(mat):
        if os.getpid() == parent:
            raise RuntimeError("parent fails")
        return lines(mat)

    monkeypatch.setattr(tisp.cli, "_lines", failing_here)
    with pytest.raises(RuntimeError, match="parent fails"):
        tisp.cli._write_matrix(mats[1], io.StringIO())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_in_ranges_writes_the_serial_bytes(capsys, tmp_path, forced_ranges, monkeypatch):
    cfg = write_config(tmp_path, DECAY_CONFIG)
    files = {}
    for cpus in ({0, 1, 2, 3}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out_dir = tmp_path / f"inst{len(cpus)}"
        assert run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])[0] == 0
        files[len(cpus)] = [(out_dir / f"{v}.csv").read_bytes() for v in ("X", "y", "beta_star")]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert files[4] == files[1]


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


# (config change, the field its refusal names): each must be refused before
# any solve, with one error line and no traceback
BAD_VALUES = [
    ({"J_star": True}, "J_star"),
    ({"max_iter": True}, "max_iter"),
    ({"seeds": [False, 1]}, "seeds"),
    ({"seeds": [-1]}, "seeds"),
    ({"tol": "1e-8"}, "tol"),
    ({"A": "1"}, "A > 0"),
    ({"rho_epsilon": "0.01"}, "rho_epsilon"),
    ({"rho_epsilon": -1}, "rho_epsilon"),
    ({"signal_magnitude": "2"}, "signal_magnitude"),
    ({"lambda_policy": "explicit", "lambda_value": "0.5"}, "lambda_value"),
    ({"ensemble": "gaussian-ar1", "rho_corr": "0.5"}, "rho_corr"),
    ({"schedule": 5}, "schedule"),
    ({"rules": [5]}, "rules"),
    # a list field that holds no list is named, not iterated
    ({"seeds": 5}, "seeds must be a nonempty list of integers >= 0"),
    ({"seeds": "0"}, "seeds must be a nonempty list of integers >= 0"),
    ({"rules": "soft"}, "rules must be a nonempty list of rule strings"),
    # finite, but past what the run's arithmetic holds
    ({"sigma": 1e300}, "sigma"),
    ({"lambda_policy": "explicit", "lambda_value": 1e300}, "lambda_value"),
    ({"signal_magnitude": 1e300}, "signal_magnitude"),
    ({"rho_epsilon": 1e300}, "rho_epsilon"),
    ({"rules": ["soft(lambda=1e300)"]}, "lambda must be at most"),
    # a rate field is checked wherever it is given (n_factor has a default)
    ({"p_grid": "x"}, "p_grid must be a nonempty list of integers >= 1"),
    ({"J_star_grid": [0]}, "J_star_grid must be a nonempty list of integers >= 1"),
    ({"n_factor": "2"}, "n_factor must be > 0"),
]


@pytest.mark.parametrize("change, field", BAD_VALUES, ids=[str(c) for c, _ in BAD_VALUES])
def test_decay_refuses_a_config_value_of_the_wrong_type_or_range(capsys, tmp_path, change, field):
    doc = {**DECAY_CONFIG, **change}
    with pytest.raises(tisp.simulate.SpecError, match=field):  # before any solve
        tisp.simulate.run_decay_experiment(tisp.simulate.ExperimentSpec.from_dict(doc))
    code, out, err = run(capsys, ["decay", "--config", str(write_config(tmp_path, doc)),
                                  "--out", str(tmp_path / "decay")])
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid ") and field in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["simulate", "--config", "unread.json"],
                                  ["verify", "--suite", "descent"]])
def test_a_negative_seed_is_refused(capsys, argv):
    code, out, err = run(capsys, argv + ["--seed", "-3"])
    assert (code, out, err) == (1, "", "error: --seed must be >= 0, got -3\n")


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


def test_rate_refuses_a_sigma_past_its_arithmetic(capsys, tmp_path):
    doc = {**RATE_CONFIG, "sigma": 1e300}
    with pytest.raises(tisp.simulate.SpecError, match="sigma"):  # before any solve
        tisp.simulate.run_rate_experiment(tisp.simulate.ExperimentSpec.from_dict(doc))
    code, out, err = run(capsys, ["rate", "--config", str(write_config(tmp_path, doc)),
                                  "--out", str(tmp_path / "rate")])
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid rate config: sigma") and len(err.splitlines()) == 1


@pytest.mark.parametrize("change, field", [({"p_grid": 40}, "p_grid"), ({"J_star_grid": "2"}, "J_star_grid")])
def test_rate_refuses_a_grid_that_holds_no_list(capsys, tmp_path, change, field):
    doc = {**RATE_CONFIG, **change}
    message = f"invalid rate config: {field} must be a nonempty list of integers >= 1"
    with pytest.raises(tisp.simulate.SpecError) as exc:  # before any solve
        tisp.simulate.run_rate_experiment(tisp.simulate.ExperimentSpec.from_dict(doc))
    assert str(exc.value) == message
    code, out, err = run(capsys, ["rate", "--config", str(write_config(tmp_path, doc)),
                                  "--out", str(tmp_path / "rate")])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("change, problem", [({"p": "q"}, "p must be an integer >= 1"),
                                             ({"n": True}, "n must be an integer >= 1"),
                                             ({"J_star": 0}, "J_star must be an integer >= 1")])
def test_rate_refuses_a_decay_field_of_the_wrong_type(capsys, tmp_path, change, problem):
    doc = {**RATE_CONFIG, **change}
    message = f"invalid rate config: {problem}"
    with pytest.raises(tisp.simulate.SpecError) as exc:  # before any solve
        tisp.simulate.run_rate_experiment(tisp.simulate.ExperimentSpec.from_dict(doc))
    assert str(exc.value) == message
    code, out, err = run(capsys, ["rate", "--config", str(write_config(tmp_path, doc)),
                                  "--out", str(tmp_path / "rate")])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_refuses_a_rate_field_of_the_wrong_type(capsys, tmp_path):
    cfg = write_config(tmp_path, {"n": 20, "p": 10, "J_star": 2, "p_grid": "x", "n_factor": "2"})
    assert run(capsys, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == (
        1, "", "error: invalid decay config: p_grid must be a nonempty list of integers >= 1; "
               "n_factor must be > 0\n")


BIG_CONFIG = {"ensemble": "gaussian-iid", "n": 1000000, "p": 1000000, "J_star": 2}


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array with shape "
                                     "(1000000, 1000000) and data type float64", ""])
def test_an_allocation_that_fails_exits_1_with_one_line(capsys, tmp_path, monkeypatch, message):
    # the design is never drawn: gen_design raises as numpy would
    def refuse(spec, seed):
        raise MemoryError(message)

    monkeypatch.setattr(tisp.simulate, "gen_design", refuse)
    cfg = str(write_config(tmp_path, BIG_CONFIG))
    for argv in (["simulate", "--config", cfg, "--out", str(tmp_path / "inst")],
                 ["decay", "--config", cfg, "--out", str(tmp_path / "decay")]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")


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


def test_verify_all_runs_every_suite_and_each_check_passes(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "all", "--seed", "0"])
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 47)
    assert all(line.startswith("PASS ") for line in lines)


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
