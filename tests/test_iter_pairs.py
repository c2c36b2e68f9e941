"""tools/iter_pairs.py: the per-kind summary of interleaved bursts."""

from collections import Counter

import pytest

import iter_pairs

summarize = iter_pairs.summarize


def test_medians_minimums_and_ratios_in_microseconds_per_iteration():
    # 1000 iterations per burst: seconds * 1e3 is microseconds per iteration
    base = [(1000, s) for s in (0.030, 0.020, 0.025, 0.040)]
    change = [(1000, s) for s in (0.033, 0.021, 0.030, 0.036)]
    s = summarize(base, change)
    assert s["base"] == pytest.approx((27.5, 20.0))
    assert s["change"] == pytest.approx((31.5, 21.0))
    assert s["ratio"] == pytest.approx((31.5 / 27.5, 21.0 / 20.0))
    # per-round ratios 1.1, 1.05, 1.2, 0.9
    assert s["round_ratio"] == pytest.approx(1.075)
    assert s["same_iterations"]


def test_iteration_counts_must_agree_across_sides_and_rounds():
    assert not summarize([(1000, 0.03)] * 3, [(1000, 0.03), (1001, 0.03), (1000, 0.03)])["same_iterations"]
    assert not summarize([(999, 0.03)] * 3, [(1000, 0.03)] * 3)["same_iterations"]


def test_the_null_child_reads_its_own_per_round_ratio():
    base = [(1000, s) for s in (0.030, 0.020, 0.025)]
    change = [(1000, 0.033)] * 3
    null = [(1000, s) for s in (0.030, 0.021, 0.0225)]  # per-round ratios 1.0, 1.05, 0.9
    s = summarize(base, change, null)
    assert s["null_round_ratio"] == pytest.approx(1.0)
    assert s["round_ratio"] == pytest.approx(1.32)
    assert s["same_iterations"]
    assert summarize(base, change)["null_round_ratio"] is None
    assert not summarize(base, change, [(999, 0.03)] * 3)["same_iterations"]


def test_every_child_runs_equally_often_in_every_slot():
    rounds = [iter_pairs.order(r) for r in range(iter_pairs.ROUNDS)]
    assert all(sorted(o) == sorted(iter_pairs.SIDES) for o in rounds)
    for slot in range(len(iter_pairs.SIDES)):
        assert Counter(o[slot] for o in rounds) == {
            side: iter_pairs.ROUNDS // len(iter_pairs.SIDES) for side in iter_pairs.SIDES}


def test_the_change_reads_against_the_null_range():
    base = [(1000, s) for s in (0.030, 0.020, 0.025)]
    null = [(1000, s) for s in (0.030, 0.021, 0.0225)]  # per-round ratios 1.0, 1.05, 0.9
    s = summarize(base, [(1000, 0.033)] * 3, null)  # per-round ratios 1.1, 1.65, 1.32
    assert s["null_quartiles"] == pytest.approx((0.95, 1.025))
    assert s["reading"] == "moved slower"
    assert summarize(base, base, null)["reading"] == "not moved"
    assert summarize(base, base)["null_quartiles"] is summarize(base, base)["reading"] is None


def test_kinds_with_a_schedule_keep_its_commas():
    parse = iter_pairs.parse_kinds
    assert parse("hard,soft,scad,mcp") == ["hard", "soft", "scad", "mcp"]
    assert parse("soft@geometric:2,0.99,0.01") == ["soft@geometric:2,0.99,0.01"]
    assert parse("hard,soft@geometric:2,0.99,.01,mcp@explicit:0,0.6,hard@constant:0.5") == [
        "hard", "soft@geometric:2,0.99,.01", "mcp@explicit:0,0.6", "hard@constant:0.5"]
    assert parse("0.5,hard") == ["0.5", "hard"]  # a number joins only a schedule
