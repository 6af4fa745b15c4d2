"""Per-instance selection log-probability and its gradient, for the oracle tests.

The training step computes the same gradient batched; these single-row forms
are what the finite-difference and exhaustive-REINFORCE oracles check.
"""

import math

import numpy as np

from kgchains.chains import Instance, SelectionMask
from kgchains.game import GameModel, _generator_forward, _selection_dout
from kgchains.neural import backward


def selection_log_prob(probs: np.ndarray, availability: np.ndarray, mask: SelectionMask) -> float:
    """log pi(mask | probs) summed over available positions."""
    total = 0.0
    for j in np.flatnonzero(availability > 0):
        p = probs[j]
        total += math.log(p) if mask.selected[j] > 0 else math.log(1.0 - p)
    return total


def selection_grad(model: GameModel, instance: Instance, mask: SelectionMask):
    """Gradient of -log pi(mask) wrt the generator parameters, in their layout, and the probabilities."""
    probs, row_softmax, cache = _generator_forward(model, instance.availability)
    dout = _selection_dout(row_softmax, instance.availability, mask.selected)
    return backward(model.generator, cache, dout), probs
