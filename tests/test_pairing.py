"""tools/pairing.py: the rotation of the three sides and the reading against the null."""

import os
import statistics
from collections import Counter
from pathlib import Path

import pytest

from pairing import SIDES, order, quartiles, ratios, reading, side_envs


@pytest.mark.parametrize("rounds", [3, 6, 30])  # iter_pairs.py's 21: tests/test_iter_pairs.py
def test_each_side_runs_equally_often_in_each_slot(rounds):
    orders = [order(r) for r in range(rounds)]
    assert all(sorted(o) == sorted(SIDES) for o in orders)
    for slot in range(len(SIDES)):
        assert Counter(o[slot] for o in orders) == {side: rounds // 3 for side in SIDES}


def test_paired_ratios_and_quartiles():
    assert ratios([2.0, 4.0], [3.0, 2.0]) == [1.5, 0.5]
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0, 4.0)


NULL = [0.98, 1.01, 1.00, 0.99, 1.02]


def test_a_change_reads_as_moved_only_beyond_the_null_range():
    # the range is the null's interquartile range, [0.99, 1.01] here
    assert reading([1.03, 1.04, 1.05], NULL) == "moved slower"
    assert reading([0.96, 0.97, 0.90], NULL) == "moved faster"
    # every ratio above 1, yet inside the null's quartiles
    assert reading([1.005, 1.01, 1.008], NULL) == "not moved"
    # the quartiles belong to it
    assert reading([1.01], NULL) == reading([0.99], NULL) == "not moved"
    # between a quartile and the null's extreme is beyond it
    assert reading([1.015], NULL) == "moved slower"
    assert reading([0.985], NULL) == "moved faster"
    # the median decides, not the extremes
    assert reading([0.5, 1.0, 1.5], NULL) == "not moved"


def test_one_outlier_round_does_not_hide_a_ten_percent_move():
    # the base ran 1.5x slow in round 4, so the null's ratio there is 1/1.5
    # and the null's full range would hold the change's median
    base = [1.0, 1.01, 0.99, 1.0, 1.5, 1.02, 0.98, 1.0, 1.01, 0.99]
    null = [1.0, 1.0, 1.0, 1.01, 1.0, 0.99, 1.0, 1.02, 1.0, 0.98]  # the base's code again
    rn, rc = ratios(base, null), ratios(base, [0.9 * t for t in null])
    assert min(rn) < statistics.median(rc) < max(rn)
    assert reading(rc, rn) == "moved faster"
    assert reading(ratios(base, null[::-1]), rn) == "not moved"


def test_for_a_higher_is_better_metric_a_rise_reads_faster():
    assert reading([1.05], NULL, better="higher") == "moved faster"
    assert reading([0.9], NULL, better="higher") == "moved slower"


def test_each_checkout_times_with_its_own_bytecode_cache(tmp_path, monkeypatch):
    # a shell that writes no bytecode would leave one checkout's
    # __pycache__ and the other's absent; each side gets a filled cache
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    src = Path(__file__).resolve().parents[1] / "src"
    for name in ("base", "change"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "src").symlink_to(src)
    with side_envs(str(tmp_path / "base"), str(tmp_path / "change")) as envs:
        caches = {side: envs[side]["PYTHONPYCACHEPREFIX"] for side in SIDES}
        assert caches["base"] != caches["change"] and caches["null"] == caches["base"]
        assert not any("PYTHONDONTWRITEBYTECODE" in env for env in envs.values())
        for side in ("base", "change"):
            assert list(Path(caches[side]).rglob("cli*.pyc")), side
    assert not any(os.path.exists(c) for c in caches.values())
