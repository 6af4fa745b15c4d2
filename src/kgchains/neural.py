"""Minimal dense neural core in float64 numpy.

Covers exactly what the models need: affine layers with ReLU between them,
two-class softmax cross-entropy, exact analytic gradients, and Adam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DenseParams:
    """(weight, bias) pairs with ReLU between layers, as views into one float64 buffer ``flat``:
    each weight row-major, then its bias. ``layers`` is copied into a new buffer, or laid over ``flat``."""

    def __init__(self, layers: list[list[np.ndarray]], flat: np.ndarray | None = None) -> None:
        if flat is None:
            flat = np.concatenate([np.ravel(a) for layer in layers for a in layer], dtype=np.float64)
        self.flat, self.layers, start = flat, [], 0
        for weight, _ in layers:
            out_dim, in_dim = np.shape(weight)
            end = start + out_dim * in_dim
            self.layers.append([flat[start:end].reshape(out_dim, in_dim), flat[end : end + out_dim]])
            start = end + out_dim

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]


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
    """Return (logits, cache) for a batch ``x`` of shape (B, D).

    A 1-D ``x`` is a batch of one and gives 1-D logits. The cache holds the
    per-layer (B, fan_in) inputs and (B, fan_out) pre-activations.
    """
    if x.ndim not in (1, 2) or x.shape[-1] != params.input_dim:
        raise ValueError(f"input shape {x.shape} does not match input dim {params.input_dim}")
    cache = []
    current = np.atleast_2d(x)
    last = len(params.layers) - 1
    for i, (weight, bias) in enumerate(params.layers):
        z = current @ weight.T + bias
        cache.append((current, z))
        current = z if i == last else np.maximum(z, 0.0)
    return (current[0] if x.ndim == 1 else current), cache


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


def cross_entropy(logits: np.ndarray, label: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Stabilized -log softmax(logits)[label] and its gradient wrt the logits.

    One pair of logits with an int label gives a float loss; a batch (B, 2)
    with labels (B,) gives the per-row losses.
    """
    shifted = _shifted(logits)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp[..., 0] + exp[..., 1])[..., None]
    label = np.asarray(label)[..., None]
    loss = -np.take_along_axis(log_probs, label, axis=-1)[..., 0]
    dlogits = np.exp(log_probs) - (np.arange(2) == label)
    return (float(loss) if logits.ndim == 1 else loss), dlogits


def backward(
    params: DenseParams,
    cache: list[tuple[np.ndarray, np.ndarray]],
    dlogits: np.ndarray,
) -> DenseParams:
    """Exact gradients of every weight and bias, summed over the batch, laid out as ``params``.

    ``dlogits`` is (B, out), or 1-D for a batch of one. ReLU subgradient at 0
    is 0.
    """
    dz = np.atleast_2d(dlogits)
    if dz.shape != (len(cache[0][0]), params.output_dim):
        raise ValueError("dlogits shape does not match the batch and output dimension")
    grads = DenseParams(params.layers, np.empty_like(params.flat))
    for i in range(len(params.layers) - 1, -1, -1):
        x, _ = cache[i]
        np.matmul(dz.T, x, out=grads.layers[i][0])
        dz.sum(axis=0, out=grads.layers[i][1])
        if i > 0:
            _, z_prev = cache[i - 1]
            dz = (dz @ params.layers[i][0]) * (z_prev > 0.0)
    return grads


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: DenseParams, lr: float = 0.001) -> "AdamState":
        return cls(lr, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: DenseParams, grads: DenseParams, state: AdamState) -> None:
    """One in-place Adam update with bias correction, on the whole buffer. The temporaries of
    lr * (m / bc1) / (sqrt(v / bc2) + eps) live in ``state.scratch``, made in the same order, so the bits match."""
    if [w.shape for w, _ in grads.layers] != [w.shape for w, _ in params.layers]:
        raise ValueError("gradient layout does not match the parameters")
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    a, b = state.scratch
    state.m *= BETA1
    state.m += np.multiply(grads.flat, 1.0 - BETA1, out=a)
    state.v *= BETA2
    state.v += np.multiply(np.square(grads.flat, out=a), 1.0 - BETA2, out=a)
    np.multiply(np.divide(state.m, bc1, out=a), state.lr, out=a)
    np.add(np.sqrt(np.divide(state.v, bc2, out=b), out=b), EPSILON, out=b)
    params.flat -= np.divide(a, b, out=a)


def param_count(input_dim: int, arch: str, submodels: int = 3) -> int:
    """Trainable parameter count (weights and biases) for a model configuration.

    ``mlp``: ``submodels`` copies of the halving three-layer net. ``linear``:
    one such net (the selector) plus ``submodels - 1`` single-layer scorers.
    """

    def tally(dims: list[int]) -> int:
        return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))

    if arch == "mlp":
        if input_dim < 4:
            raise ValueError("mlp architecture requires input_dim >= 4")
        return submodels * tally(mlp_dims(input_dim))
    if arch == "linear":
        if input_dim < 4:
            raise ValueError("linear configuration still uses an mlp selector; input_dim >= 4")
        return tally(mlp_dims(input_dim)) + (submodels - 1) * tally(linear_dims(input_dim))
    raise ValueError(f"unknown architecture: {arch!r}")
