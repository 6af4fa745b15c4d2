"""Minimal dense neural core in float64 numpy.

Covers exactly what the models need: affine layers with ReLU between them,
two-class softmax cross-entropy, exact analytic gradients, and Adam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DenseParams:
    """(weight, bias) pairs with ReLU between layers, as views into one float64 buffer ``flat``, (P,) or (S, P)
    for a stack of S networks: each weight row-major, then its bias. ``layers`` is copied, or laid over ``flat``.
    ``affine`` holds the same pairs as ``forward`` applies them: each weight transposed, each bias a row."""

    def __init__(self, layers: list[list[np.ndarray]], flat: np.ndarray | None = None) -> None:
        if flat is None:
            flat = np.concatenate([np.ravel(a) for layer in layers for a in layer], dtype=np.float64)
        self.flat, self.layers, start = flat, [], 0
        for weight, _ in layers:
            out_dim, in_dim = np.shape(weight)[-2:]
            end = start + out_dim * in_dim
            view = flat[..., start:end].reshape(*flat.shape[:-1], out_dim, in_dim)
            self.layers.append([view, flat[..., end : end + out_dim]])
            start = end + out_dim
        self.shapes = [weight.shape for weight, _ in self.layers]
        self.affine = [(weight.swapaxes(-1, -2), bias[..., None, :]) for weight, bias in self.layers]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[-1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[-2]


def mlp_dims(input_dim: int, output_dim: int = 2) -> list[int]:
    """Three-layer halving widths: D -> D//2 -> D//4 -> output (hidden >= 2)."""
    h1 = max(2, input_dim // 2)
    h2 = max(2, input_dim // 4)
    return [input_dim, h1, h2, output_dim]


def linear_dims(input_dim: int, output_dim: int = 2) -> list[int]:
    return [input_dim, output_dim]


def init_dense(dims: list[int], rng: np.random.Generator) -> DenseParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append([weight, np.zeros(fan_out, dtype=np.float64)])
    return DenseParams(layers=layers)


def clone_params(params: DenseParams) -> DenseParams:
    return DenseParams(params.layers, params.flat.copy())


def count_params(params: DenseParams) -> int:
    return params.flat.size


def forward(params: DenseParams, x: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Return (logits, cache) for a batch ``x`` of shape (B, D), or (S, B, D) for a stack of S networks.

    An ``x`` without the B axis is a batch of one and gives logits without it. The cache
    holds the per-layer (..., B, fan_in) inputs and (..., B, fan_out) pre-activations.
    """
    batched = params.flat.ndim + 1
    if x.ndim not in (batched - 1, batched) or x.shape[-1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match input dim {params.input_dim}")
    cache = []
    current = x if x.ndim == batched else x[..., None, :]
    last = len(params.layers) - 1
    for i, (weight_t, bias_row) in enumerate(params.affine):
        z = current @ weight_t
        z += bias_row
        cache.append((current, z))
        current = z if i == last else np.maximum(z, 0.0)
    return (current if x.ndim == batched else current[..., 0, :]), cache


def _shifted(logits: np.ndarray) -> np.ndarray:
    """A new array of the logits minus their row max, over a last axis that must have length 2.
    Numpy reduces and broadcasts along a length-2 axis slowly, so the two columns go one at a time."""
    if logits.shape[-1] != 2:
        raise ValueError(f"expected a last axis of 2 logits, got shape {logits.shape}")
    peak, shifted = np.maximum(logits[..., 0], logits[..., 1]), np.empty(logits.shape)
    for j in (0, 1):
        np.subtract(logits[..., j], peak, out=shifted[..., j])
    return shifted


def softmax(logits: np.ndarray) -> np.ndarray:
    """Two-way softmax over the last axis; bit-equal to numpy's max and sum reduction form on NaN-free logits."""
    probs = _shifted(logits)
    np.exp(probs, out=probs)
    total = probs[..., 0] + probs[..., 1]
    for j in (0, 1):
        probs[..., j] /= total
    return probs


_CLASSES = np.arange(2)


def cross_entropy(logits: np.ndarray, label: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Stabilized -log softmax(logits)[label] and its gradient wrt the logits.

    One pair of logits with an int label gives a float loss; a batch (B, 2)
    with labels (B,) gives the per-row losses.
    """
    shifted = _shifted(logits)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp[..., 0] + exp[..., 1])[..., None]
    one_hot = _CLASSES == np.asarray(label)[..., None]
    loss = -np.where(one_hot[..., 1], log_probs[..., 1], log_probs[..., 0])
    dlogits = np.exp(log_probs) - one_hot
    return (float(loss) if logits.ndim == 1 else loss), dlogits


def losses_and_scores(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cross_entropy``'s per-row losses of (B, 2) logits and ``softmax``'s positive column,
    bit for bit, from one shift and one exp, and without the gradient."""
    shifted = _shifted(logits)
    exp = np.exp(shifted)
    total = exp[:, 0] + exp[:, 1]
    shifted -= np.log(total)[:, None]
    return -np.where(labels == 1, shifted[:, 1], shifted[:, 0]), exp[:, 1] / total


def backward(
    params: DenseParams,
    cache: list[tuple[np.ndarray, np.ndarray]],
    dlogits: np.ndarray,
    grads: DenseParams | None = None,
) -> DenseParams:
    """Exact gradients of every weight and bias, summed over the batch, into ``grads`` or a new one like ``params``.

    ``dlogits`` is (..., B, out), or without the B axis for a batch of one. ReLU subgradient at 0 is 0.
    """
    dz = dlogits if dlogits.ndim == cache[0][0].ndim else dlogits[..., None, :]
    if dz.shape != (*cache[0][0].shape[:-1], params.output_dim):
        raise ValueError("dlogits shape does not match the batch and output dimension")
    grads = grads or DenseParams(params.layers, np.empty_like(params.flat))
    for i in range(len(params.layers) - 1, -1, -1):
        x, _ = cache[i]
        np.matmul(dz.swapaxes(-1, -2), x, out=grads.layers[i][0])
        dz.sum(axis=-2, out=grads.layers[i][1])
        if i > 0:
            _, z_prev = cache[i - 1]
            dz = (dz @ params.layers[i][0]) * (z_prev > 0.0)
    return grads


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
ADAM_CHUNK = 32768  # elements per Adam pass: the scratch pair stays this small whatever the model's size


@dataclass
class AdamState:
    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        self.scratch = (np.empty(min(ADAM_CHUNK, self.m.size)), np.empty(min(ADAM_CHUNK, self.m.size)))
        starts = range(0, self.m.size, ADAM_CHUNK)
        self.chunks = [(slice(s, s + ADAM_CHUNK), *(x[: self.m.size - s] for x in self.scratch)) for s in starts]

    @classmethod
    def for_params(cls, params: DenseParams, lr: float = 0.001) -> "AdamState":
        return cls(lr, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: DenseParams, grads: DenseParams, state: AdamState) -> None:
    """One in-place Adam update with bias correction, ADAM_CHUNK elements at a time. The temporaries of
    lr * (m / bc1) / (sqrt(v / bc2) + eps) live in ``state.scratch``, made in the same order, so the bits match."""
    if grads.shapes != params.shapes or state.m.shape != params.flat.shape:
        raise ValueError("gradient or Adam state layout does not match the parameters")
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for span, a, b in state.chunks:
        p, g, m, v = params.flat[span], grads.flat[span], state.m[span], state.v[span]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.square(g, out=a), 1.0 - BETA2, out=a)
        np.multiply(np.divide(m, bc1, out=a), state.lr, out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPSILON, out=b)
        p -= np.divide(a, b, out=a)
