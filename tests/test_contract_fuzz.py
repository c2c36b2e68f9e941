"""The CLI's failure contract under seeded random inputs.

Each case runs `tisp.cli.main` in-process with every warning raised as an
error.  It must exit 0, 1 or 2, raise nothing and warn nothing.  A refusal
(exit 1) is one stderr line starting `error:` or `solver failure:`; a
success writes nothing to stderr.  Every n and p stays small: a size field
gets small counts or a value the schema refuses, never a large count.
"""

import json
import random
import warnings

import numpy as np

from tisp.cli import main

SEED = 20150

DECAY = {"ensemble": "gaussian-iid", "n": 10, "p": 6, "J_star": 2, "sigma": 0.5,
         "seeds": [0, 1], "rules": ["soft", "hard"], "max_iter": 300}
RATE = {"ensemble": "gaussian-iid", "sigma": 1.0, "seeds": [0], "rules": ["hard"], "A": 2.0,
        "p_grid": [4, 7], "J_star_grid": [1, 2], "n_factor": 1.5, "max_iter": 300}

WRONG = [True, False, None, "1", "x", [], {}, [1, "a"], -1, 0, 2.5]
HUGE = [1e300, 1e308, 2.0**200, 2.0**201, 10**400, float("inf"), float("nan")]
TINY = [1e-300, 5e-324, 1e-12, -1e-300]
# a size field takes no count above 8: a large one would allocate for real
COUNTS = [1, 2, 3, 4, 6, 8, 4.0, 1e300, 10**400, "4", True]
CHOICES = {
    "ensemble": ["gaussian-iid", "gaussian-ar1", "orthonormal", "bogus", 3],
    "noise_kind": ["gaussian", "rademacher-scaled", "uniform-bounded", "bogus"],
    "lambda_policy": ["theory", "explicit", "bogus"],
    "schedule": ["constant:0.5", "geometric:2,0.5,0.01", "explicit:1,0.5", "geometric:1e308,2,1",
                 "constant:1e-300", "bogus", "", 5],
    "seeds": [[0], [0, 0], [3, 1], 5, "0", [-1], [True], [1.0], [2**70], [[0]]],
    "rules": [["soft"], ["hard", "mcp(gamma=3)"], ["scad(a=3.7)"], ["lr(r=0.5,zeta=1)"],
              ["ridge(eta=0.5)"], ["soft(lambda=1e300)"], ["berhu(eta=1e-300)"], ["sofr"], "soft",
              [5], []],
    "p_grid": [[4, 8], [1], [0], [4.0, 8], "8", 8, [True, 4], [4, 4, 8], [3, 5, 7]],
    "J_star_grid": [[1, 2], [2, 9], [0], "2", 2, [1.5, 2], [1, 1]],
    "max_iter": [1, 5, 50, 0, -1, 2.5, "10", True],
    "n_factor": [0.5, 1.0, 3.0, 1e-300, 0, -1, "2", True, float("nan")],
}
NUMBERS = ("sigma", "signal_magnitude", "A", "lambda_value", "tol", "rho_epsilon", "rho_corr")
SIZES = ("n", "p", "J_star")


def field_value(rng, name):
    if name in CHOICES:
        return rng.choice(CHOICES[name] + WRONG)
    if name in SIZES:
        return rng.choice(COUNTS + WRONG)
    return rng.choice(HUGE + TINY + WRONG + [0.0, 0.3, 1.0, 0.9])


def config_cases(rng, count):
    names = [*CHOICES, *NUMBERS, *SIZES]
    for _ in range(count):
        kind = rng.choice(["decay", "rate", "simulate"])
        doc = dict(RATE if kind == "rate" else DECAY)
        for name in rng.sample(names, rng.choice([1, 1, 2, 3])):
            doc[name] = field_value(rng, name)
        if rng.random() < 0.1:
            doc["bogus"] = 1
        yield kind, doc


def matrix_text(a):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.atleast_2d(a))


def pick(rng, good, bad):
    """Mostly one of the good values, so most cases run a solve to its end."""
    return rng.choice(good if rng.random() < 0.93 else bad)


def stray(rng, a):
    """a with, sometimes, one entry set to NaN, +-inf or +-1e308."""
    if a.size and rng.random() < 0.15:
        a.flat[rng.randrange(a.size)] = rng.choice(
            [float("nan"), float("inf"), -float("inf"), 1e308, -1e308])
    return a


RULES = ["soft(lambda={L})", "hard(lambda={L})", "ridge(eta={L})", "elastic-net(lambda={L},eta=0.5)",
         "berhu(lambda={L},eta=2)", "hard-ridge(lambda={L},eta=0.5)", "scad(lambda={L})",
         "mcp(lambda={L},gamma=1.5)", "lr(r=0.5,zeta={L})"]


def solve_cases(rng, count, tmp_path):
    nrng = np.random.default_rng(rng.randrange(2**32))
    for i in range(count):
        n, p = rng.randint(1, 7), rng.randint(1, 7)
        scale = 10.0 ** rng.uniform(-200, 300)
        X = stray(rng, nrng.standard_normal((n, p)) * scale)
        y = stray(rng, nrng.standard_normal(n) * rng.choice([scale, 10.0 ** rng.uniform(-200, 300)]))
        files = {}
        for name, arr in (("X", X), ("y", y[:, None]), ("b", stray(rng, nrng.standard_normal((p, 1))))):
            files[name] = tmp_path / f"{name}{i}.csv"
            files[name].write_text(matrix_text(arr))
        lam = rng.choice(["0", "0.5", "1e-300", "1e300", "1e308", repr(scale), repr(scale * 1e-3)])
        argv = ["solve", "--design", str(files["X"]), "--response", str(files["y"]),
                "--rule", rng.choice(RULES).format(L=lam),
                "--rho", pick(rng, ["auto", "auto", repr(2 * scale)],
                                        ["0", "-1", "1e-300", "0.5", "1e300", repr(0.5 * scale)]),
                "--alpha", pick(rng, ["1", "0.5", "1e-300"], ["0", "1.5"]),
                "--tol", pick(rng, ["1e-8", "1e-300"], ["0", "-1"]),
                "--max-iter", rng.choice(["1", "20", "200"]),
                "--out", str(tmp_path / f"est{i}.csv")]
        if rng.random() < 0.3:
            argv[argv.index("--rule") + 1] = rng.choice(["soft", "hard", "mcp(gamma=3)"])
            argv += ["--lambda-schedule", rng.choice(
                ["constant:0.5", "geometric:2,0.9,0.01", "explicit:1,1e300", "geometric:1e308,0.5,1e300"])]
        if rng.random() < 0.5:
            argv += ["--beta-star", str(files["b"])]
        if rng.random() < 0.3:
            argv += ["--trace", str(tmp_path / f"trace{i}.csv")]
        yield argv


def cases(tmp_path):
    rng = random.Random(SEED)
    for kind, doc in config_cases(rng, 400):
        cfg = tmp_path / f"config-{kind}.json"
        cfg.write_text(json.dumps(doc))
        yield [kind, "--config", str(cfg), "--out", str(tmp_path / kind)]
    yield from solve_cases(rng, 250, tmp_path)


def test_every_case_keeps_the_cli_contract(capsys, tmp_path):
    broken, seen = [], set()
    for argv in cases(tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001  an escape is a finding
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        lines = err.splitlines()
        if code == 1:
            ok = len(lines) == 1 and lines[0].startswith(("error:", "solver failure:"))
        else:
            ok = code == 0 and err == "" or code == 2 and len(lines) == 1
        if not ok:
            broken.append(f"{argv} -> {code!r} {err!r}")
        seen.add((argv[0], code))
    assert not broken, "\n".join(broken[:10])
    # the cases reach every subcommand, each run to the end and refused
    assert {(kind, code) for kind in ("decay", "rate", "simulate", "solve") for code in (0, 1)} <= seen
