"""Command-line front end: argument parsing and file I/O only.

Subcommands: ``solve`` one problem from CSV inputs, ``simulate`` a synthetic
dataset, ``decay``/``rate`` experiment drivers, and ``verify``, which prints
the checks of the property suites in `oracle.SUITES`.  stdout carries data,
stderr carries diagnostics.  Exit codes: 0 success, 1 input/configuration
error (or a failed check, or an allocation that failed), 2 solver hit
max_iter.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import locale
import os
import sys
import warnings

import numpy as np

from . import oracle
from . import simulate as sim
from . import thresholding as th
from .solver import Problem, SolverConfig, SolverError, parse_schedule, solve
from .solver import spectral_norm  # noqa: F401  kept bound: perfbench reads tisp.cli.spectral_norm


class CliError(Exception):
    """Input error reportable to the user; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # max_iter, so remap argument errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

# ASCII separators \x1c-\x1f: np.loadtxt skips them as whitespace, float() refuses them
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# Bytes per parsing range at least: a smaller file is one range, parsed here.
_RANGE_BYTES = 4 << 20


def read_matrix(path: str) -> np.ndarray:
    """A headerless numeric CSV file as a 2-d float array.

    np.loadtxt reads it when it can; otherwise `_read_csv`, the reference
    for every value and for every error message, reads it.
    """
    fast = _loadtxt(path)
    return fast if fast is not None else _read_csv(path)


def _read_csv(path: str) -> np.ndarray:
    rows = []
    try:
        with open(path, newline="") as f:
            for i, record in enumerate(csv.reader(f), start=1):
                if not record:
                    continue
                try:
                    row = [float(v) for v in record]
                except ValueError:
                    raise CliError(f"{path}: line {i}: value is not a number") from None
                if rows and len(row) != len(rows[0]):
                    raise CliError(
                        f"{path}: line {i}: expected {len(rows[0])} columns, got {len(row)}"
                    )
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:  # a byte the locale encoding cannot decode
        raise CliError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    if not rows:
        raise CliError(f"{path}: empty input")
    return np.array(rows, dtype=float)


def _loadtxt(path: str) -> np.ndarray | None:
    # None where np.loadtxt raises, warns, reads no value, or could read a
    # file that `_read_csv` refuses (a separator byte); on every other file
    # both give the same array.  The file is parsed in `_workers(size)`
    # line-aligned byte ranges at once (`_in_ranges`): this process parses
    # the first, a forked child each other one and sends back its rows.
    # Each line is one record (no comments, no quotes), so the ranges' rows
    # stacked are the whole file's rows.
    try:
        with open(path, "rb") as f:
            bounds = _range_bounds(f, f.seek(0, os.SEEK_END))
        first, *sent = _in_ranges(list(zip(bounds, bounds[1:])),
                                  lambda r: _parse_range(path, *r),
                                  lambda r: _packed(_parse_range(path, *r)))
        if None in sent:  # a range refused, or a child lost
            return None
        parts = [m for m in [first, *map(_unpacked, sent)] if len(m)]  # blank lines: no rows
        if len({m.shape[1] for m in parts}) != 1:  # no value, or ragged across ranges
            return None
        return np.concatenate(parts) if sent else first
    except (OSError, ValueError, Warning):
        return None


def _workers(size: int) -> int:
    """Ranges for `size` bytes: one per CPU this process may run on and at
    most one per _RANGE_BYTES; one on a platform without fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(sim.usable_cpus(), size // _RANGE_BYTES))


def _range_bounds(f, size: int) -> list:
    """0, the starts of the later ranges and `size`: W - 1 offsets spread
    evenly, each moved forward to the next line start, W = `_workers(size)`;
    where a line spans two offsets, ranges merge."""
    w = _workers(size)
    bounds = [0]
    for k in range(1, w):
        f.seek(k * size // w - 1)
        f.readline()
        if bounds[-1] < f.tell() < size:
            bounds.append(f.tell())
    return bounds + [size]


def _parse_range(path: str, start: int, stop: int) -> np.ndarray:
    # the np.loadtxt call of every range: bytes [start, stop) of path on a
    # handle of its own, decoded as a text-mode open would; a range of blank
    # lines gives no rows, not a warning, and a line that holds a separator
    # byte raises ValueError
    def lines(f):
        # blocks of about 64 KB, each run on to the end of its last line (stop
        # is a line end) and checked for separator bytes at once
        f.seek(start)
        while block := f.read(min(1 << 16, stop - f.tell())):
            if not block.endswith(b"\n"):
                block += f.readline()
            if any(sep in block for sep in _LOADTXT_ONLY_SPACE):
                raise ValueError("a separator byte")
            yield from io.BytesIO(block)

    with open(path, "rb") as f, warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines(f), delimiter=",", comments=None, ndmin=2, dtype=float,
                          encoding=locale.getpreferredencoding(False))


def _packed(m: np.ndarray) -> list:
    # a reading child's rows as it sends them, uncopied: their shape (two int64), then float64 rows
    return [np.array(m.shape, dtype=np.int64), np.ascontiguousarray(m).data]


def _unpacked(sent: bytes) -> np.ndarray:
    # `_packed`'s rows back; ValueError where sent does not hold the rows its shape names
    return np.frombuffer(sent, offset=16).reshape(np.frombuffer(sent, np.int64, 2))


def _in_ranges(ranges: list, here, there) -> list:
    """[here(ranges[0])], then for each later range the bytes that a forked
    child sent, the buffers there(range) in order, or None where the pipe or
    the fork could not be made or the child did not exit with status 0.  The
    children run while this process runs here.  Each closes the read ends it
    inherits, writes there(range) to its pipe and leaves by os._exit: no atexit
    handler or buffer flush of this process runs twice.  Every child is
    reaped on every path; one still working when this process stops
    reading finds its pipe closed when it writes, and exits."""
    children = {}  # index of a later range -> (pid, read end of its pipe), until reaped
    try:
        for k, rng in enumerate(ranges[1:], start=1):
            try:
                r, w = os.pipe()
            except OSError:
                continue
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns that fork() in a process with threads (a
                    # BLAS pool) may deadlock the child.  These children cannot: each
                    # works on its own range, calls no BLAS and leaves by os._exit.
                    warnings.filterwarnings("ignore", r"This process .* use of fork\(\)",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                status = 1
                try:
                    for fd in [r] + [fd for _, fd in children.values()]:
                        os.close(fd)
                    with open(w, "wb") as out:
                        out.writelines(there(rng))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[k] = (pid, r)
        out = [here(ranges[0])] + [None] * (len(ranges) - 1)
        for k, (pid, r) in list(children.items()):
            with open(r, "rb", closefd=False) as pipe:
                sent = pipe.read()
            del children[k]
            os.close(r)
            if os.waitpid(pid, 0)[1] == 0:
                out[k] = sent
        return out
    finally:
        for pid, r in children.values():
            os.close(r)
            os.waitpid(pid, 0)


def read_vector(path: str) -> np.ndarray:
    m = read_matrix(path)
    if m.shape[1] == 1:
        return m[:, 0]
    if m.shape[0] == 1:
        return m[0, :]
    raise CliError(f"{path}: expected a vector (one value per line), got shape {m.shape}")


# Joined float reprs: no repr needs CSV quoting, so this is csv.writer's output.
def _write_vector(vec, f) -> None:
    f.writelines(repr(v) + "\n" for v in np.asarray(vec, dtype=float).tolist())


def _lines(mat):
    return (",".join(map(repr, row)) + "\n" for row in mat.tolist())


def _write_matrix(mat, f) -> None:
    # `_workers(mat.nbytes)` contiguous row ranges, at most one per row
    # (`_in_ranges`): this process streams the first to f, a forked child
    # formats each other one whole and sends its text, which f gets once the
    # child has exited with status 0; where the fork failed or the child did
    # not, this process formats the range.  Either way f gets the text of
    # one range, in row order.
    mat = np.asarray(mat, dtype=float)
    w = max(1, min(_workers(mat.nbytes), len(mat)))
    cuts = [k * len(mat) // w for k in range(w + 1)]
    ranges = [mat[start:stop] for start, stop in zip(cuts, cuts[1:])]
    _, *sent = _in_ranges(ranges, lambda rows: f.writelines(_lines(rows)),
                          lambda rows: ["".join(_lines(rows)).encode()])
    for rows, text in zip(ranges[1:], sent):
        if text is None:
            f.writelines(_lines(rows))
        else:
            f.write(text.decode("ascii"))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    X = read_matrix(args.design)
    y = read_vector(args.response)
    beta_star = read_vector(args.beta_star) if args.beta_star else None
    rule = th.parse_rule(args.rule, require_lambda=False)
    if args.rho == "auto":
        rho = "auto"
    else:
        try:
            rho = float(args.rho)
        except ValueError:
            raise CliError(f"--rho must be 'auto' or a number, got {args.rho!r}") from None
    schedule = parse_schedule(args.lambda_schedule) if args.lambda_schedule else None
    config = SolverConfig(
        rule=rule,
        rho=rho,
        alpha=args.alpha,
        schedule=schedule,
        tol=args.tol,
        max_iter=args.max_iter,
        record_every=1 if args.trace else args.max_iter,  # without --trace only the estimate's row
    )
    problem = Problem._own(X, y, beta_star=beta_star)  # the arrays just read: no copy
    result = solve(problem, config)

    if args.out:
        with open(args.out, "w", newline="") as f:
            _write_vector(result.beta, f)
    else:
        _write_vector(result.beta, sys.stdout)
    if args.trace:
        result.trace.write_csv(args.trace)
    if not result.converged:
        print(
            f"did not converge within {args.max_iter} iterations "
            f"(last fixed-point residual above tol={args.tol:g})",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_config(path: str) -> sim.ExperimentSpec:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    return sim.ExperimentSpec.from_dict(doc)


def _require_seed(seed) -> None:
    # numpy's seeding refuses a negative seed only in its own words
    if seed is not None and seed < 0:
        raise CliError(f"--seed must be >= 0, got {seed}")


def cmd_simulate(args) -> int:
    _require_seed(args.seed)
    spec = _load_config(args.config)
    sim._require(spec, "decay")
    seed = args.seed if args.seed is not None else spec.seeds[0]
    inst = sim._instance(spec, seed, sim.resolve_lambda(spec, spec.p))
    os.makedirs(args.out, exist_ok=True)
    for name, arr in (("X", inst.X), ("y", inst.y), ("beta_star", inst.beta_star)):
        with open(os.path.join(args.out, f"{name}.csv"), "w", newline="") as f:
            (_write_matrix if arr.ndim == 2 else _write_vector)(arr, f)
    return 0


# ---------------------------------------------------------------------------
# decay / rate experiments
# ---------------------------------------------------------------------------

def cmd_experiment(args, kind: str) -> int:
    spec = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    run = sim.run_decay_experiment if kind == "decay" else sim.run_rate_experiment
    rows, summary = run(spec, jobs=args.jobs)
    sim.write_results_csv(rows, os.path.join(args.out, f"{kind}_results.csv"))
    sim.write_summary_json(summary, os.path.join(args.out, f"{kind}_summary.json"))
    sim.write_summary_json(summary, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    _require_seed(args.seed)
    names = list(oracle.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check, ok, detail in oracle.SUITES[name](args.seed):
            print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tisp", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem from CSV inputs")
    p_solve.add_argument("--design", required=True, help="design matrix CSV (headerless)")
    p_solve.add_argument("--response", required=True, help="response vector CSV")
    p_solve.add_argument("--rule", required=True, help="thresholding rule, e.g. soft(lambda=0.5)")
    p_solve.add_argument("--rho", default="auto", help="scaling: 'auto' or a number >= ||X||_2")
    p_solve.add_argument("--alpha", type=float, default=1.0, help="stepsize in (0, 1]")
    p_solve.add_argument("--lambda-schedule", default=None,
                         help="constant:L | geometric:L0,FACTOR,FLOOR | explicit:V1,V2,...")
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("--trace", default=None, help="write per-iteration trace CSV here")
    p_solve.add_argument("--beta-star", default=None, help="ground truth CSV for error columns")
    p_solve.add_argument("--out", default=None, help="write the estimate here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset (X.csv, y.csv, beta_star.csv)")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override the first config seed")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    for kind in ("decay", "rate"):
        p_exp = sub.add_parser(kind, help=f"run the {kind} experiment from a config JSON")
        p_exp.add_argument("--config", required=True)
        p_exp.add_argument("--out", default=".", help="output directory")
        p_exp.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p_exp.set_defaults(func=lambda a, k=kind: cmd_experiment(a, k))

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", required=True, choices=[*oracle.SUITES, "all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    # RuleParseError, ConfigurationError and SpecError are ValueErrors
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
