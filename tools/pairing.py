"""Rotating triples of base, change and null runs, and how to read them.

`ab_pairs.py` and `iter_pairs.py` run rounds of three sides: the base, the
change and the null, a second run of the base's code.  `order` puts each
side equally often in each slot over any multiple of three rounds.  A
side's paired ratio is its value over the base's in the same round; the
null's show what the tools read for no change at all.  `side_envs` gives
the timed children of both checkouts the same bytecode state.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "change", "null")


def order(rnd: int) -> tuple:
    """The sides' order in round rnd: SIDES rotated by rnd."""
    k = rnd % len(SIDES)
    return SIDES[k:] + SIDES[:k]


def quartiles(values: list) -> tuple:
    """(median, q1, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def ratios(base: list, side: list) -> list:
    """The side's paired ratio per round: side[i] / base[i]."""
    return [s / b for b, s in zip(base, side)]


def reading(change: list, null: list, better: str = "lower") -> str:
    """"moved slower" ("faster") when the median of the change's per-round
    ratios lies beyond the null's quartiles, on the side worse (better) in
    the metric's direction; else "not moved".  Quartiles, not the null's
    full range: one outlier round would widen the range past a real move."""
    med, (_, q1, q3) = statistics.median(change), quartiles(null)
    if q1 <= med <= q3:
        return "not moved"
    return "moved slower" if (med > q3) == (better == "lower") else "moved faster"


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


def child_env(checkout: str, pycache: str | None = None) -> dict:
    """Environment of a child importing `tisp` from the checkout's src/.

    With `pycache` the child reads and writes its bytecode there
    (PYTHONPYCACHEPREFIX), whatever PYTHONDONTWRITEBYTECODE the launching
    shell set: a checkout with a __pycache__ beside its sources imports
    faster than one without, though the sources are the same.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    if pycache is not None:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = pycache
    return env


@contextlib.contextmanager
def side_envs(base: str, change: str, warm: tuple = ("-c", "import tisp.cli")):
    """{side: environment} for the timed children of the three sides.

    Each checkout gets its own bytecode cache in a temporary directory,
    removed on exit, and fills it by one run of `python3 *warm` in the
    checkout before any side runs, so both checkouts are timed in the same
    bytecode state; the null shares the base's.  The warm-up should import
    what the timed children import: a module first compiled in a timed run
    adds the compiler's memory to its peak RSS (about 9 MB on perfbench's
    workloads).
    """
    with tempfile.TemporaryDirectory(prefix="pairing-pycache-") as tmp:
        envs = {}
        for side, checkout in (("base", base), ("change", change)):
            envs[side] = child_env(checkout, os.path.join(tmp, side))
            subprocess.run([sys.executable, *warm], cwd=checkout, env=envs[side],
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
        envs["null"] = envs["base"]
        yield envs
