"""Top-d selection by a full stable argsort, as it was before the argmax rounds, for the equivalence tests.

``top_order`` sorts every row of keys -probability (+inf where unavailable)
with a stable sort and keeps its first d positions; ``top_d`` marks them in a
mask times the availability.
"""

import numpy as np


def top_order(probs: np.ndarray, availability: np.ndarray, d: int) -> np.ndarray:
    """Each row's first d positions, available ones first, by decreasing probability,
    ties to the lower index."""
    return np.where(availability > 0, -probs, np.inf).argsort(axis=-1, kind="stable")[..., :d]


def top_d(probs: np.ndarray, availability: np.ndarray, d: int) -> np.ndarray:
    """Each row's top-d available positions by probability, ties to the lower index, as 1s
    times the availability (0 elsewhere)."""
    top = top_order(probs, availability, d)
    selected = np.zeros(availability.shape)
    firsts = np.arange(0, selected.size, selected.shape[-1]).reshape(*selected.shape[:-1], 1)
    selected.put(top + firsts, 1.0)
    selected *= availability
    return selected
