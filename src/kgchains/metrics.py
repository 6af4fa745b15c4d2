"""MAP over query groups, in array operations.

Queries are grouped by head entity, as in the NELL-995 protocol of DeepPath
(Xiong et al., EMNLP 2017).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DataError


def mean_average_precision(keys: Sequence, scores, labels) -> tuple[float, int]:
    """(MAP, groups skipped) of scored 0/1-labelled items, grouped by ``keys``.

    A group's AP ranks its items by decreasing score, equal scores in input order, and averages
    hits / rank over its positives; MAP is the mean AP over the groups with a positive, in first-seen
    group order, and the others are skipped and counted. Both sums add left to right on every Python:
    bincount adds each group's terms one at a time in rank order, and the mean is the last of a cumsum
    (``sum()`` compensates from Python 3.12 on, and ``np.sum`` adds pairwise).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise DataError("non-finite score in ranking")
    ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    group = np.fromiter(map(ids.__getitem__, keys), np.intp, len(scores))
    order = np.lexsort((-scores, group))  # stable: equal scores keep input order
    group = group[order]
    hit = np.asarray(labels)[order] == 1
    sizes = np.bincount(group)
    first = (sizes.cumsum() - sizes)[group]  # each item's group start
    hits = hit.cumsum()
    hits -= (hits - hit)[first]  # hits so far within the group
    terms = hit * (hits / (np.arange(1, len(group) + 1) - first))  # at each positive: hits / rank
    positives = np.bincount(group, hit, len(sizes))
    scored = positives > 0
    aps = np.bincount(group, terms, len(sizes))[scored] / positives[scored]
    if not len(aps):
        raise DataError("no group with a positive item; MAP undefined")
    return float(aps.cumsum()[-1] / len(aps)), len(sizes) - len(aps)
