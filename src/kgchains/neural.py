"""Minimal dense neural core in float64 numpy.

Covers exactly what the models need: affine layers with ReLU between them,
two-class softmax cross-entropy, exact analytic gradients, and Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DenseParams:
    """Stack of (weight, bias) pairs; ReLU between layers, none after the last."""

    layers: list[list[np.ndarray]]

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
    return DenseParams(layers=[[w.copy(), b.copy()] for w, b in params.layers])


def count_params(params: DenseParams) -> int:
    return sum(w.size + b.size for w, b in params.layers)


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Stabilized -log softmax(logits)[label] and its gradient wrt the logits.

    One row of logits with an int label gives a float loss; a batch (B, C)
    with labels (B,) gives the per-row losses.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    label = np.asarray(label)[..., None]
    loss = -np.take_along_axis(log_probs, label, axis=-1)[..., 0]
    dlogits = np.exp(log_probs) - (np.arange(logits.shape[-1]) == label)
    return (float(loss) if logits.ndim == 1 else loss), dlogits


def backward(
    params: DenseParams,
    cache: list[tuple[np.ndarray, np.ndarray]],
    dlogits: np.ndarray,
) -> list[list[np.ndarray]]:
    """Exact gradients for every weight and bias, summed over the batch.

    ``dlogits`` is (B, out), or 1-D for a batch of one. ReLU subgradient at 0
    is 0.
    """
    dz = np.atleast_2d(dlogits)
    if dz.shape != (len(cache[0][0]), params.output_dim):
        raise ValueError("dlogits shape does not match the batch and output dimension")
    grads: list[list[np.ndarray]] = [[] for _ in params.layers]
    for i in range(len(params.layers) - 1, -1, -1):
        x, _ = cache[i]
        weight, _ = params.layers[i]
        grads[i] = [dz.T @ x, dz.sum(axis=0)]
        if i > 0:
            _, z_prev = cache[i - 1]
            dz = (dz @ weight) * (z_prev > 0.0)
    return grads


def zero_grads(params: DenseParams) -> list[list[np.ndarray]]:
    return [[np.zeros_like(w), np.zeros_like(b)] for w, b in params.layers]


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list[list[np.ndarray]] = field(default_factory=list)
    v: list[list[np.ndarray]] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: DenseParams, lr: float = 0.001) -> "AdamState":
        state = cls(lr=lr)
        state.m = zero_grads(params)
        state.v = zero_grads(params)
        return state


def adam_step(params: DenseParams, grads: list[list[np.ndarray]], state: AdamState) -> None:
    """One in-place Adam update with bias correction."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for layer, grad, m, v in zip(params.layers, grads, state.m, state.v):
        for k in range(2):
            if grad[k].shape != layer[k].shape:
                raise ValueError("gradient shape does not match parameter shape")
            m[k] *= state.beta1
            m[k] += (1.0 - state.beta1) * grad[k]
            v[k] *= state.beta2
            v[k] += (1.0 - state.beta2) * (grad[k] * grad[k])
            layer[k] -= state.lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + state.epsilon)


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
