"""Per-instance selection log-probability and its gradient, for the oracle tests.

The training step computes the same gradient batched; these single-row forms
are what the finite-difference and exhaustive-REINFORCE oracles check.
``selection_dout`` is the gradient wrt the generator logits in the form the
training step computed it before it wrote the two logit columns directly.
``dense_head`` is the generator's selection head in the form it had before it
ran the softmax on available chains only.
"""

import math

import numpy as np

from kgchains.chains import Instance, SelectionMask
from kgchains.game import GameModel
from kgchains.neural import backward, forward, softmax


def dense_head(model: GameModel, availability: np.ndarray):
    """(selection probabilities, every chain's (keep-out, select) softmax, backward cache) for (D,) or
    (B, D) availability: the softmax over all pairs of generator logits, then probabilities forced to 0
    where a chain is unavailable."""
    out, cache = forward(model.generator, availability)
    row_softmax = softmax(out.reshape(*availability.shape, 2))
    return np.where(availability > 0, row_softmax[..., 1], 0.0), row_softmax, cache


def selection_dout(row_softmax: np.ndarray, availability: np.ndarray, selected: np.ndarray):
    """d(-log pi(selected)) wrt the generator logits, shaped like the logits.

    Each available chain contributes the two-way softmax cross-entropy
    gradient for its (keep-out, select) logit pair; unavailable chains
    contribute nothing, matching their forced zero probability.
    """
    choice = (selected > 0)[..., None] == np.array([False, True])
    dout = np.where((availability > 0)[..., None], row_softmax - choice, 0.0)
    return dout.reshape(*availability.shape[:-1], -1)


def selection_log_prob(probs: np.ndarray, availability: np.ndarray, mask: SelectionMask) -> float:
    """log pi(mask | probs) summed over available positions."""
    total = 0.0
    for j in np.flatnonzero(availability > 0):
        p = probs[j]
        total += math.log(p) if mask.selected[j] > 0 else math.log(1.0 - p)
    return total


def selection_grad(model: GameModel, instance: Instance, mask: SelectionMask):
    """Gradient of -log pi(mask) wrt the generator parameters, in their layout, and the probabilities."""
    probs, row_softmax, cache = dense_head(model, instance.availability)
    dout = selection_dout(row_softmax, instance.availability, mask.selected)
    return backward(model.generator, cache, dout), probs
