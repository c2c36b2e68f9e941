"""tools/pairing.py: the rotation of the three sides and the reading against the null."""

from collections import Counter

import pytest

from pairing import SIDES, order, quartiles, ratios, reading


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
    assert reading([1.03, 1.04, 1.05], NULL) == "moved slower"
    assert reading([0.96, 0.97, 0.90], NULL) == "moved faster"
    # every ratio above 1, yet inside the null's range
    assert reading([1.01, 1.02, 1.015], NULL) == "not moved"
    # the range's ends belong to it
    assert reading([1.02], NULL) == reading([0.98], NULL) == "not moved"
    # the median decides, not the extremes
    assert reading([0.5, 1.0, 1.5], NULL) == "not moved"


def test_for_a_higher_is_better_metric_a_rise_reads_faster():
    assert reading([1.05], NULL, better="higher") == "moved faster"
    assert reading([0.9], NULL, better="higher") == "moved slower"
