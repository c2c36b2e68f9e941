"""tools/ab_pairs.py: the verdict per end-to-end metric."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)
verdict = ab_pairs.verdict

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR 0.015


def test_worse_beyond_the_bound():
    assert verdict(BASE, [1.3] * 10, "lower", 0.25) == "worse"
    assert verdict(BASE, [1.2] * 10, "lower", 0.25) != "worse"
    # for a higher-is-better metric the same move is a gain
    assert verdict(BASE, [0.7] * 10, "higher", 0.25) == "worse"
    assert verdict(BASE, [1.3] * 10, "higher", 0.25) == "better"


def test_better_needs_nine_in_ten_pairs_and_a_gap_beyond_the_iqr():
    assert verdict(BASE, [b - 0.05 for b in BASE], "lower", 0.25) == "better"
    # 8/10 pairs won: not enough, whatever the medians
    eight = [b - 0.05 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
    assert verdict(BASE, eight, "lower", 0.25) == "within bound"
    # every pair won, but the medians differ by less than the base IQR
    assert verdict(BASE, [b - 0.005 for b in BASE], "lower", 0.25) == "within bound"


def test_unresolved_when_the_base_spreads_wider_than_the_bound():
    noisy = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.25, 0.75, 1.05, 0.95]  # IQR 0.175
    assert verdict(noisy, [b + 0.01 for b in noisy], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [0.7] * 10, "lower", 0.1) == "better"
    # unless every change run beat every base run
    skewed = [1.0] * 6 + [1.5] * 4  # median 1.0, IQR 0.5
    assert verdict(skewed, [0.99] * 10, "lower", 0.1) == "within bound"
    assert verdict(skewed, [1.01] * 10, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [0.7] * 8 + [0.74, 0.74], "higher", 0.1) == "worse"
    # few-percent moves inside a tight base and the bound
    assert verdict(BASE, [b + 0.02 for b in BASE], "lower", 0.1) == "within bound"
