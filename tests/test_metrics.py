import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgchains.errors import DataError
from kgchains.metrics import mean_average_precision

import map_oracle


def brute_force_ap(items):
    """Independent AP: pairwise rank counting per positive; None without a positive."""
    order = sorted(range(len(items)), key=lambda i: -items[i][0])
    total = 0.0
    n_pos = 0
    for rank, i in enumerate(order, start=1):
        if items[i][1] == 1:
            n_pos += 1
            above = sum(1 for j in order[:rank] if items[j][1] == 1)
            total += above / rank
    return total / n_pos if n_pos else None


def map_of(*groups):
    """(MAP, skipped) of groups of (score, label) items, each group under its own head."""
    keys = [i for i, items in enumerate(groups) for _ in items]
    scores = [score for items in groups for score, _ in items]
    labels = [label for items in groups for _, label in items]
    return mean_average_precision(keys, scores, labels)


def ap(items):
    return map_of(items)[0]


def test_ap_hand_example():
    items = [(0.9, 1), (0.8, 0), (0.7, 1)]
    assert ap(items) == pytest.approx((1.0 + 2 / 3) / 2)


def test_ap_all_positive():
    assert ap([(0.5, 1), (0.4, 1)]) == 1.0


def test_ap_positive_below_negative():
    assert ap([(0.9, 0), (0.1, 1)]) == 0.5


def test_ap_no_positive_raises():
    with pytest.raises(DataError, match="no group with a positive item"):
        ap([(0.9, 0)])


def test_ap_stable_tie_break():
    # equal scores keep input order: positive first wins
    assert ap([(0.5, 1), (0.5, 0)]) == 1.0
    assert ap([(0.5, 0), (0.5, 1)]) == 0.5
    # -0.0 and 0.0 are equal scores too
    assert ap([(-0.0, 0), (0.0, 1)]) == 0.5
    assert ap([(0.0, 0), (-0.0, 1)]) == 0.5


def test_map_mean_of_groups():
    a = [(0.9, 1), (0.1, 0)]
    b = [(0.2, 0), (0.9, 0), (0.5, 1)]
    expected = (1.0 + ap(b)) / 2
    assert map_of(a, b) == (pytest.approx(expected), 0)


def test_map_single_group_equals_ap():
    items = [(0.3, 0), (0.9, 1)]
    assert map_of(items)[0] == brute_force_ap(items)


def test_map_skips_groups_without_positives():
    assert map_of([(0.9, 1)], [(0.5, 0)]) == (1.0, 1)


def test_map_all_skipped_errors():
    with pytest.raises(DataError):
        map_of([(0.5, 0)])


def test_map_of_nothing_errors():
    with pytest.raises(DataError, match="no group with a positive item"):
        mean_average_precision([], [], [])


def test_map_matches_brute_force_on_random_groups():
    rng = np.random.default_rng(0)
    for _ in range(200):
        groups = []
        expected = []
        for _ in range(rng.integers(1, 6)):
            n = int(rng.integers(1, 8))
            items = [(float(rng.random()), int(rng.random() < 0.4)) for _ in range(n)]
            groups.append(items)
            if brute_force_ap(items) is not None:
                expected.append(brute_force_ap(items))
        if not expected:
            continue
        assert map_of(*groups) == (pytest.approx(np.mean(expected), abs=1e-9), len(groups) - len(expected))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 1)), min_size=1, max_size=12
    ).filter(lambda items: any(label for _, label in items))
)
def test_ap_invariant_under_monotone_transform(int_items):
    items = [(s / 10.0, l) for s, l in int_items]
    base = ap(items)
    squashed = [(np.tanh(s) * 3 + 7, l) for s, l in items]
    assert ap(squashed) == pytest.approx(base, abs=1e-12)


def test_map_one_iff_perfect_ranking():
    perfect = [(0.9, 1), (0.8, 1), (0.2, 0)]
    imperfect = [(0.9, 0), (0.8, 1)]
    assert map_of(perfect)[0] == 1.0
    assert map_of(perfect, imperfect)[0] < 1.0


def test_grouping_by_head_and_global():
    keys = ["a", "b", "a"]
    scores = [0.1, 0.2, 0.3]
    labels = [1, 0, 0]
    # by head: a ranks (0.3, 0) over (0.1, 1); b has no positive
    assert mean_average_precision(keys, scores, labels) == (0.5, 1)
    # global: one key for every item, one ranking of all three
    assert mean_average_precision([None] * 3, scores, labels) == (1 / 3, 0)


def test_map_mean_adds_left_to_right_on_every_python():
    # sum([0.1] * 10) is 0.9999999999999999 added left to right and 1.0 compensated (Python >= 3.12)
    assert functools.reduce(operator.add, [0.1] * 10) != math.fsum([0.1] * 10)
    keys = [row // 10 for row in range(100)]
    labels = [int(row % 10 == 9) for row in range(100)]  # each head's positive ranked 10th: AP 0.1
    scores = [-float(row % 10) for row in range(100)]
    assert map_oracle.evaluate(keys, scores, labels) == (0.9999999999999999 / 10, 0)
    assert mean_average_precision(keys, scores, labels) == (0.9999999999999999 / 10, 0)


def test_group_sums_add_left_to_right():
    # long groups whose hits / rank terms sum differently pairwise: each AP must be the oracle's bit for bit
    rng = np.random.default_rng(4)
    differ = 0
    for _ in range(40):
        n = int(rng.integers(20, 400))
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0] = 1
        scores = -np.arange(n, dtype=float)
        ranks = np.arange(1, n + 1)
        terms = np.where(labels == 1, np.cumsum(labels) / ranks, 0.0)
        differ += float(np.sum(terms)) != functools.reduce(operator.add, terms.tolist())
        expected = map_oracle.evaluate([0] * n, scores, labels)
        assert mean_average_precision([0] * n, scores, labels) == expected
    assert differ  # the cases tell a pairwise sum apart


def test_non_finite_score_rejected():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DataError, match="^non-finite score in ranking$"):
            ap([(bad, 1)])
        with pytest.raises(DataError, match="^non-finite score in ranking$"):
            # before the no-positive error, in any group
            map_of([(0.5, 0)], [(0.2, 0), (bad, 0)])


# -- against the per-group oracle ------------------------------------------------

SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5 + 2**-52, 1.0, -3.0, 1e-300, 0.1, 0.7])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), SCORES, st.integers(0, 1)), max_size=60),
    st.sampled_from(["head", "global"]),
    st.sampled_from([None, float("nan"), float("inf")]),
    st.integers(0, 59),
)
def test_map_equals_the_per_group_oracle(items, group_by, bad, at):
    keys = [key for key, _, _ in items]
    scores = [score for _, score, _ in items]
    labels = np.array([label for _, _, label in items], dtype=np.int64)
    if bad is not None and items:
        scores[at % len(items)] = bad
    # the oracle's global mode is the reference for one key on every item
    ranked = keys if group_by == "head" else [0] * len(keys)
    try:
        expected = map_oracle.evaluate(keys, scores, labels, group_by)
    except DataError as err:
        with pytest.raises(DataError) as got:
            mean_average_precision(ranked, scores, labels)
        assert str(got.value) == str(err)
        return
    got = mean_average_precision(ranked, scores, labels)
    assert type(got[0]) is float and type(got[1]) is int
    assert (np.float64(got[0]).view(np.int64), got[1]) == (np.float64(expected[0]).view(np.int64), expected[1])
