"""Tests of the benchmark's own arithmetic: percentiles and tails, self time
of nested spans, and the bases of the ratios it reports.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from benchstats import (  # noqa: E402
    beyond,
    covered,
    percentile,
    ratio,
    self_times,
    tail,
    tail_percentile,
)
from calibrate import NOMINAL_S, scaled  # noqa: E402
import tracing  # noqa: E402


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 99.5) == 100
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_samples_beyond_a_percentile():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(200, 95) == 10
    assert beyond(10000, 99.9) == 10
    assert beyond(1, 50) == 0


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (10 ** 6, 95.0),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_tail_value_percentile_and_count():
    xs = [float(i) for i in range(1, 101)]
    assert tail(xs) == (90.0, 90.0, 100)
    # too few samples for any ladder percentile: the maximum, marked 100
    assert tail([3.0, 9.0, 1.0]) == (9.0, 100.0, 3)


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(1, 4), (3, 6)]) == 5
    assert covered([(5, 7), (1, 2)]) == 3
    assert covered([(1, 10), (2, 3)]) == 9


def test_self_time_of_nested_spans():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),      # child of root
        (2.0, 3.0, 1),      # grandchild: counts against its parent only
        (5.0, 7.0, 0),      # second child
        (9.0, 12.0, 0),     # runs past the root's end: clipped
    ]
    assert self_times(spans) == [10 - 3 - 2 - 1, 3 - 1, 1, 2, 3]


def test_scaled_time_is_relative_to_the_kernel_time():
    # an operation that takes 100 kernel times takes 100 nominal kernel
    # times, however fast the host ran at the moment
    for kernel_s in (NOMINAL_S, 1.5 * NOMINAL_S, 0.5 * NOMINAL_S):
        assert scaled(100 * kernel_s, kernel_s) == pytest.approx(100 * NOMINAL_S)
    assert scaled(0.03, 2 * NOMINAL_S) == pytest.approx(0.015)
    assert scaled(0.03, 2e-3, nominal_s=1e-3) == pytest.approx(0.015)


def test_ratio_base_zero_means_no_work():
    assert ratio(3.0, 4.0) == 0.75
    assert ratio(0.0, 0.0) == 0.0
    assert ratio(5.0, 0.0) == 0.0


def _span(name, start, end, parent, work=1, error=None):
    return [name, start, end, parent, 7, work, error]


def test_layer_ratios_use_the_stated_bases():
    spans = [_span("harness.train", 0.0, 10.0, None)]
    for ep, t in enumerate((0.0, 4.0)):
        e = len(spans)
        spans.append(_span("harness.run_episode", t, t + 2.0, 0))
        spans.append(_span("agent.forward", t, t + 0.1, e, work=1))
        for k in range(5):
            spans.append(_span("env.score_state", t + 0.2 * k, t + 0.2 * k + 0.1, e))
        for k in range(3):
            spans.append(_span("env.step", t + 1.0 + 0.1 * k, t + 1.05 + 0.1 * k, e))
    u = len(spans)
    spans.append(_span("agent.ppo_update", 7.0, 9.0, 0))
    spans.append(_span("agent.forward", 7.0, 8.0, u, work=256))
    # scoring outside an episode does not count per episode
    spans.append(_span("env.score_state", 9.5, 9.6, None))
    # another run id is ignored
    spans.append(["harness.run_episode", 0.0, 1.0, None, 8, 1, None])

    m = tracing.unit_metrics(tracing.SpanTable(spans, 7))
    assert m["harness.train.ms"] == pytest.approx(10_000.0)
    assert m["harness.rollout_share"] == pytest.approx(4.0 / 10.0)
    assert m["agent.update_share"] == pytest.approx(2.0 / 10.0)
    assert m["harness.run_episode.calls"] == 2
    assert m["env.score_state.calls"] == 11
    assert m["env.score_state.calls_per_episode"] == 5.0
    assert m["env.scoring_useful_ratio"] == pytest.approx((6 + 2) / 10)
    assert m["agent.forward.rows_per_call"] == 1.0
    assert m["agent.forward.calls"] == 3


def test_max_in_flight_counts_uncollected_requests():
    spans = [
        _span("external_scorer.submit", 0.0, 0.1, None),
        _span("external_scorer.submit", 0.2, 0.3, None),
        _span("external_scorer.wait", 0.4, 0.5, None),
        _span("external_scorer.wait", 0.6, 0.7, None),
        _span("external_scorer.submit", 0.8, 0.9, None),
        _span("external_scorer.wait", 1.0, 1.1, None, error="ScorerFault"),
    ]
    t = tracing.SpanTable(spans, 7)
    assert t.max_in_flight() == 2
    assert t.errors("external_scorer.") == 1
