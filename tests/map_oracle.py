"""MAP as it was computed per group, for the equivalence tests of ``metrics.mean_average_precision``.

``group_results`` buckets (score, label) items by key in first-seen order,
``average_precision`` ranks one group with Python's stable sort and sums
hits / rank item by item, and ``map_score`` is the mean AP over the groups
with a positive. ``evaluate`` is what ``evaluate_task`` reported from them:
(MAP, groups without a positive). The mean adds left to right, as ``sum()``
did before Python 3.12 compensated it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from kgchains.errors import DataError, KgchainsError


class NoPositives(KgchainsError):
    """Raised for a group without positives; callers skip such groups."""


@dataclass
class RankedResult:
    key: object
    items: list[tuple[float, int]]


def average_precision(items: Sequence[tuple[float, int]]) -> float:
    """AP with scores sorted descending; ties keep the original item order."""
    if not items:
        raise NoPositives("empty group")
    for score, _ in items:
        if not math.isfinite(score):
            raise DataError("non-finite score in ranking")
    hits = 0
    precision_sum = 0.0
    # a reverse sort is stable too: equal scores keep their order
    for rank, (_, label) in enumerate(sorted(items, key=itemgetter(0), reverse=True), start=1):
        if label == 1:
            hits += 1
            precision_sum += hits / rank
    if hits == 0:
        raise NoPositives("group has no positive items")
    return precision_sum / hits


def map_score(groups: Sequence[RankedResult]) -> float:
    """Unweighted mean AP over groups that contain at least one positive, added left to right."""
    aps = []
    for group in groups:
        try:
            aps.append(average_precision(group.items))
        except NoPositives:
            continue
    if not aps:
        raise DataError("no group with a positive item; MAP undefined")
    return functools.reduce(operator.add, aps) / len(aps)


def group_results(
    keys: Sequence, scores: Sequence[float], labels: Sequence[int], group_by: str = "head"
) -> list[RankedResult]:
    """Bucket (score, label) items by key, preserving input order within groups."""
    if group_by not in ("global", "head"):
        raise ValueError(f"unknown grouping: {group_by!r}")
    items = zip(np.asarray(scores, dtype=np.float64).tolist(), np.asarray(labels, dtype=np.int64).tolist())
    if group_by == "global":
        return [RankedResult(key=None, items=list(items))]
    buckets: dict[object, list[tuple[float, int]]] = {}
    for key, item in zip(keys, items):
        buckets.setdefault(key, []).append(item)
    return [RankedResult(key=k, items=v) for k, v in buckets.items()]


def evaluate(keys, scores, labels, group_by: str = "head") -> tuple[float, int]:
    """(MAP, groups without a positive), as ``evaluate_task`` reported them."""
    groups = group_results(keys, scores, labels, group_by)
    skipped = sum(1 for group in groups if not any(label for _, label in group.items))
    return map_score(groups), skipped
