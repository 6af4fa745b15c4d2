import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgchains.errors import DataError
from kgchains.metrics import (
    NoPositives,
    RankedResult,
    average_precision,
    group_results,
    map_score,
)


def brute_force_ap(items):
    """Independent AP: pairwise rank counting per positive."""
    order = sorted(range(len(items)), key=lambda i: -items[i][0])
    total = 0.0
    n_pos = 0
    for rank, i in enumerate(order, start=1):
        if items[i][1] == 1:
            n_pos += 1
            above = sum(1 for j in order[:rank] if items[j][1] == 1)
            total += above / rank
    if n_pos == 0:
        raise NoPositives("none")
    return total / n_pos


def test_ap_hand_example():
    items = [(0.9, 1), (0.8, 0), (0.7, 1)]
    assert average_precision(items) == pytest.approx((1.0 + 2 / 3) / 2)


def test_ap_all_positive():
    assert average_precision([(0.5, 1), (0.4, 1)]) == 1.0


def test_ap_positive_below_negative():
    assert average_precision([(0.9, 0), (0.1, 1)]) == 0.5


def test_ap_no_positive_raises():
    with pytest.raises(NoPositives):
        average_precision([(0.9, 0)])


def test_ap_stable_tie_break():
    # equal scores keep input order: positive first wins
    assert average_precision([(0.5, 1), (0.5, 0)]) == 1.0
    assert average_precision([(0.5, 0), (0.5, 1)]) == 0.5


def test_map_mean_of_groups():
    groups = [
        RankedResult("a", [(0.9, 1), (0.1, 0)]),
        RankedResult("b", [(0.2, 0), (0.9, 0), (0.5, 1)]),
    ]
    expected = (1.0 + average_precision(groups[1].items)) / 2
    assert map_score(groups) == pytest.approx(expected)


def test_map_single_group_equals_ap():
    items = [(0.3, 0), (0.9, 1)]
    assert map_score([RankedResult("x", items)]) == average_precision(items)


def test_map_skips_groups_without_positives():
    groups = [RankedResult("a", [(0.9, 1)]), RankedResult("b", [(0.5, 0)])]
    assert map_score(groups) == 1.0


def test_map_all_skipped_errors():
    with pytest.raises(DataError):
        map_score([RankedResult("a", [(0.5, 0)])])


def test_map_matches_brute_force_on_random_groups():
    rng = np.random.default_rng(0)
    for _ in range(200):
        groups = []
        expected = []
        for _ in range(rng.integers(1, 6)):
            n = int(rng.integers(1, 8))
            items = [(float(rng.random()), int(rng.random() < 0.4)) for _ in range(n)]
            groups.append(RankedResult(len(groups), items))
            try:
                expected.append(brute_force_ap(items))
            except NoPositives:
                pass
        if not expected:
            continue
        assert map_score(groups) == pytest.approx(np.mean(expected), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 1)), min_size=1, max_size=12
    ).filter(lambda items: any(label for _, label in items))
)
def test_ap_invariant_under_monotone_transform(int_items):
    items = [(s / 10.0, l) for s, l in int_items]
    base = average_precision(items)
    squashed = [(np.tanh(s) * 3 + 7, l) for s, l in items]
    assert average_precision(squashed) == pytest.approx(base, abs=1e-12)


def test_map_one_iff_perfect_ranking():
    perfect = RankedResult("a", [(0.9, 1), (0.8, 1), (0.2, 0)])
    imperfect = RankedResult("b", [(0.9, 0), (0.8, 1)])
    assert map_score([perfect]) == 1.0
    assert map_score([perfect, imperfect]) < 1.0


def test_group_results_by_head_and_global():
    keys = ["a", "b", "a"]
    scores = [0.1, 0.2, 0.3]
    labels = [0, 1, 1]
    by_head = group_results(keys, scores, labels, "head")
    assert {g.key for g in by_head} == {"a", "b"}
    by_global = group_results(keys, scores, labels, "global")
    assert len(by_global) == 1
    assert len(by_global[0].items) == 3


def test_non_finite_score_rejected():
    with pytest.raises(DataError):
        average_precision([(float("nan"), 1)])
