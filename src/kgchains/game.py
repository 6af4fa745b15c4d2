"""Three-player selection game: generator, predictor, complement predictor.

Per training step the generator samples a hard chain subset for each
instance of the mini-batch; both predictors take one cross-entropy Adam step
on the selected and complement encodings; the generator then takes a
policy-gradient step on the bounded reward

    R = acc_predictor - acc_complement - lambda_s * sparsity

with an exponential-moving-average baseline for variance reduction. At
inference the generator's top-d chains feed the predictor. Every network
pass runs on a (rows, D) matrix: a mini-batch, or a chunk of a split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .chains import EncodedTask, Instance, SelectionMask, Split, mask_from_selected
from .errors import DataError, NumericError
from .metrics import group_results, map_score
from .neural import (
    AdamState,
    DenseParams,
    adam_step,
    backward,
    clone_params,
    cross_entropy,
    forward,
    init_dense,
    linear_dims,
    mlp_dims,
    softmax,
)
from .util import STREAM_INIT, STREAM_SAMPLE, STREAM_SHUFFLE, batches, stream_rng

ARCH_MLP = "mlp"
ARCH_LINEAR = "linear"
MODE_GAME = "game"
MODE_ALL_CHAINS = "d_all"
# Rows per network pass when scoring, so a large split never sits in
# memory as one (N, 2D) generator output.
SCORE_CHUNK = 256
# Grouping for the per-epoch dev ranking used to pick the checkpoint.
# Instance-level splitting scatters head groups, leaving mostly
# singletons whose AP is 1 regardless of the model; a global ranking
# keeps the selection signal informative.
DEV_GROUP_BY = "global"


@dataclass
class GameModel:
    input_dim: int
    d: int
    lambda_s: float
    predictor_arch: str
    mode: str
    predictor: DenseParams
    generator: DenseParams | None = None
    complement: DenseParams | None = None


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 20
    lr: float = 0.001
    seed: int = 0
    baseline_momentum: float = 0.9
    mc_samples_per_instance: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.baseline_momentum < 1:
            raise ValueError("baseline_momentum must be in [0, 1)")
        if self.mc_samples_per_instance < 1:
            raise ValueError("mc_samples_per_instance must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    loss_p: float
    loss_c: float
    mean_reward: float
    mean_selected: float
    dev_map: float

    def as_line(self) -> str:
        return (
            f"{self.epoch}\t{self.loss_p:.6f}\t{self.loss_c:.6f}"
            f"\t{self.mean_reward:.6f}\t{self.mean_selected:.6f}\t{self.dev_map:.6f}"
        )


@dataclass
class TrainResult:
    model: GameModel
    log: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_map: float = 0.0


def _predictor_dims(arch: str, input_dim: int) -> list[int]:
    if arch == ARCH_MLP:
        return mlp_dims(input_dim, 2)
    if arch == ARCH_LINEAR:
        return linear_dims(input_dim, 2)
    raise ValueError(f"unknown predictor architecture: {arch!r}")


def build_model(
    input_dim: int, d: int, lambda_s: float, predictor_arch: str = ARCH_MLP, seed: int = 0, mode: str = MODE_GAME
) -> GameModel:
    """Fresh model; init draws happen generator, predictor, complement in order."""
    if input_dim < 1:
        raise DataError("empty vocabulary: cannot build a model")
    if d < 1:
        raise ValueError("d must be >= 1")
    if lambda_s < 0:
        raise ValueError("lambda_s must be >= 0")
    rng = stream_rng(seed, STREAM_INIT)
    is_game = mode == MODE_GAME
    generator = init_dense(mlp_dims(input_dim, 2 * input_dim), rng) if is_game else None
    predictor = init_dense(_predictor_dims(predictor_arch, input_dim), rng)
    complement = init_dense(_predictor_dims(predictor_arch, input_dim), rng) if is_game else None
    return GameModel(input_dim, d, lambda_s, predictor_arch, mode, predictor, generator, complement)


def clone_model(model: GameModel) -> GameModel:
    nets = {name: getattr(model, name) for name in ("predictor", "generator", "complement")}
    return replace(model, **{name: net and clone_params(net) for name, net in nets.items()})


# -- generator ------------------------------------------------------------


def _generator_forward(model: GameModel, availability: np.ndarray):
    """Per-chain selection probabilities plus what backward needs, for (D,) or (B, D).

    The generator maps each availability row to 2*D logits, viewed as one
    (keep-out, select) pair per chain; the selection probability is the
    two-way softmax of each pair, forced to 0 where the chain is unavailable.
    """
    assert model.generator is not None
    out, cache = forward(model.generator, availability)
    row_softmax = softmax(out.reshape(*availability.shape, 2))
    probs = np.where(availability > 0, row_softmax[..., 1], 0.0)
    return probs, row_softmax, cache


def generator_probs(model: GameModel, instance: Instance) -> np.ndarray:
    return _generator_forward(model, instance.availability)[0]


def sample_mask(probs: np.ndarray, availability: np.ndarray, rng: np.random.Generator) -> SelectionMask:
    """Independent Bernoulli draw per position; unavailable chains stay 0.

    A (rows, D) batch draws its numbers row by row, as ``rows`` calls on
    single rows would.
    """
    draws = rng.random(probs.shape)
    selected = ((draws < probs) & (availability > 0)).astype(np.float64)
    return mask_from_selected(availability, selected)


def select_top_d(probs: np.ndarray, availability: np.ndarray, d: int) -> SelectionMask:
    """Top-d available positions of each row by probability, ties to the lower index."""
    keys = np.where(availability > 0, -probs, np.inf)
    top = np.argsort(keys, axis=-1, kind="stable")[..., :d]
    selected = np.zeros_like(availability)
    np.put_along_axis(selected, top, 1.0, axis=-1)
    return mask_from_selected(availability, selected)


def sparsity_loss(mask: SelectionMask, d: int):
    """max{(|selected| - d) / |available|, 0} per row; 0 for rows with no chains."""
    n_selected = mask.selected.sum(axis=-1)
    n_available = n_selected + mask.complement.sum(axis=-1)
    return np.maximum(n_selected - d, 0.0) / np.maximum(n_available, 1.0)


def _selection_dout(row_softmax: np.ndarray, availability: np.ndarray, selected: np.ndarray):
    """d(-log pi(selected)) wrt the generator logits, shaped like the logits.

    Each available chain contributes the two-way softmax cross-entropy
    gradient for its (keep-out, select) logit pair; unavailable chains
    contribute nothing, matching their forced zero probability.
    """
    choice = (selected > 0)[..., None] == np.array([False, True])
    dout = np.where((availability > 0)[..., None], row_softmax - choice, 0.0)
    return dout.reshape(*availability.shape[:-1], -1)


# -- training steps --------------------------------------------------------


def predictor_gradient(params: DenseParams, grads: DenseParams, x: np.ndarray, labels: np.ndarray):
    """The gradient of the batch-mean cross-entropy of rows ``x``, (B, D) or stacked (S, B, D), into ``grads``;
    returns the mean loss, per network of a stack, and per-row 0/1 accuracy (argmax logit equals label)."""
    logits, cache = forward(params, x)
    losses, dlogits = cross_entropy(logits, labels)
    backward(params, cache, dlogits / x.shape[-2], grads)
    return losses.mean(axis=-1), (logits.argmax(axis=-1) == labels).astype(np.float64)


def instance_reward(model: GameModel, mask: SelectionMask, acc_p, acc_c):
    """acc_p - acc_c - lambda_s * sparsity, per row of the mask."""
    return acc_p - acc_c - model.lambda_s * sparsity_loss(mask, model.d)


Step = Callable[[np.ndarray, np.ndarray], tuple[float, float, float, float, int]]


def _game_step(model: GameModel, config: TrainConfig) -> Step:
    """Sample masks, take both predictors' gradients and the generator's by REINFORCE, then one Adam step.

    The networks are rebound as views into one buffer [generator | predictor | complement],
    the predictor pair as one (2, P) stack. Adam is elementwise and the generator's gradient
    does not read the predictors, so the one step is the three networks' own. The estimator
    is -mean_rows (R - baseline) * grad log pi(mask); the baseline is updated afterwards as
    an EMA of the batch-mean reward.
    """
    gen, pair, cut = model.generator.layers, model.predictor.layers, model.generator.flat.size
    store = DenseParams(gen + pair + model.complement.layers)
    grads = DenseParams(store.layers, np.empty_like(store.flat))
    (model.generator, stack), (grads_g, grads_pair) = (
        (DenseParams(gen, flat[:cut]), DenseParams(pair, flat[cut:].reshape(2, -1)))
        for flat in (store.flat, grads.flat)
    )
    model.predictor, model.complement = (DenseParams(pair, row) for row in stack.flat)
    state = AdamState.for_params(store, config.lr)
    rng_sample = stream_rng(config.seed, STREAM_SAMPLE)
    samples = config.mc_samples_per_instance
    baseline = 0.0

    def step(availability: np.ndarray, labels: np.ndarray):
        nonlocal baseline
        probs, row_softmax, cache = _generator_forward(model, availability)
        # instance-major rows draw the same numbers as one instance at a time
        availability = np.repeat(availability, samples, axis=0)
        mask = sample_mask(np.repeat(probs, samples, axis=0), availability, rng_sample)
        labels = np.repeat(labels, samples)
        losses, accs = predictor_gradient(stack, grads_pair, np.array((mask.selected, mask.complement)), labels)
        rewards = instance_reward(model, mask, *accs)
        rows = len(rewards)
        dout = _selection_dout(np.repeat(row_softmax, samples, axis=0), availability, mask.selected)
        dout *= ((rewards - baseline) / rows)[:, None]
        backward(model.generator, cache, dout.reshape(len(probs), samples, -1).sum(axis=1), grads_g)
        if not (np.isfinite(rewards).all() and np.isfinite(grads_g.flat).all()):
            raise NumericError("non-finite generator reward or gradient")
        adam_step(store, grads, state)
        mean_reward = float(np.mean(rewards))
        baseline = config.baseline_momentum * baseline + (1.0 - config.baseline_momentum) * mean_reward
        return *losses.tolist(), mean_reward, float(mask.selected.sum()), rows

    return step


def _predictor_only_step(model: GameModel, config: TrainConfig) -> Step:
    """Supervised predictor on its inference-time inputs; no game."""
    state = AdamState.for_params(model.predictor, config.lr)
    grads = DenseParams(model.predictor.layers, np.empty_like(model.predictor.flat))

    def step(availability: np.ndarray, labels: np.ndarray):
        x = _predictor_inputs(model, availability, selection_probs(model, availability))
        loss, _ = predictor_gradient(model.predictor, grads, x, labels)
        adam_step(model.predictor, grads, state)
        return float(loss), 0.0, 0.0, float(x.sum()), len(labels)

    return step


# -- inference -------------------------------------------------------------


def selection_probs(model: GameModel, availability: np.ndarray) -> np.ndarray:
    """Per-chain selection probabilities of (rows, D) availability rows: the
    generator's, or the availability itself for a model with no generator."""
    if model.generator is None:
        return availability
    return _generator_forward(model, availability)[0]


def _predictor_inputs(model: GameModel, availability: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Rows the predictor scores: all available chains, or the top-d by the
    selection probabilities ``probs``."""
    if model.mode == MODE_ALL_CHAINS or model.generator is None:
        return availability
    return select_top_d(probs, availability, model.d).selected


def _row_keys(x: np.ndarray) -> list[bytes]:
    """Exact, compact identity of each sparse row: its nonzero positions' bytes, then their values'."""
    flat = np.flatnonzero(x != 0)  # as np.nonzero: NaN counts, -0.0 does not
    cols, values = (flat % x.shape[1]).tobytes(), x.ravel()[flat].tobytes()  # intp, float64: 8 bytes each
    ends = (np.searchsorted(flat, np.arange(1, len(x) + 1) * x.shape[1]) * 8).tolist()
    return [cols[a:b] + values[a:b] for a, b in zip([0, *ends], ends)]


def score_chunks(
    model: GameModel, availability: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(availability, selection probabilities, predictor logits) per slice of
    SCORE_CHUNK rows of an (N, D) availability matrix, one generator pass each.

    BLAS rounds a row differently depending on its place in the batch, and
    AP breaks exact score ties by input order. So each distinct predictor
    input is scored once, and rows that share it (duplicated rows, or rows
    with the same top-d selection) share its logits bit for bit.
    """
    by_input: dict[bytes, np.ndarray] = {}
    for start in range(0, len(availability), SCORE_CHUNK):
        chunk = availability[start : start + SCORE_CHUNK]
        probs = selection_probs(model, chunk)
        x = _predictor_inputs(model, chunk, probs)
        keys = _row_keys(x)
        fresh = {key: i for i, key in enumerate(keys) if key not in by_input}
        if fresh:
            out, _ = forward(model.predictor, x[list(fresh.values())])
            by_input.update(zip(fresh, out))
        yield chunk, probs, np.array([by_input[key] for key in keys])


def _logits(model: GameModel, availability: np.ndarray) -> np.ndarray:
    """Predictor logits (N, 2) of (N, D) availability rows, one chunk at a time."""
    return np.concatenate([logits for _, _, logits in score_chunks(model, availability)] or [np.empty((0, 2))])


def score_instances(model: GameModel, availability: np.ndarray) -> np.ndarray:
    """Positive-class confidence per row of an (N, D) availability matrix from
    the predictor on the top-d selection; in all-chains mode, on the full row."""
    return softmax(_logits(model, availability))[:, 1]


def predict(model: GameModel, instance: Instance) -> float:
    """score_instances for one row."""
    return float(score_instances(model, instance.availability[None])[0])


def _dev_quality(model: GameModel, split: Split) -> tuple[float, float]:
    """(dev MAP, -dev cross-entropy) for checkpoint selection, from one scoring pass.

    MAP is 0.0 when no dev group has a positive. Small dev rankings saturate
    quickly, so exact MAP ties are common; the cross-entropy of the
    predictor on its inference-time inputs keeps discriminating between
    equally-ranked checkpoints.
    """
    logits = _logits(model, split.availability)
    losses, _ = cross_entropy(logits, split.labels)
    groups = group_results(split.heads, softmax(logits)[:, 1], split.labels, DEV_GROUP_BY)
    try:
        dev_map = map_score(groups)
    except DataError:
        dev_map = 0.0
    return dev_map, -float(losses.mean())


# -- training loop ------------------------------------------------------------


def _fit(data: EncodedTask, config: TrainConfig, model: GameModel, step: Step, rng_shuffle) -> TrainResult:
    """The epoch loop of every mode; returns the best-dev checkpoint.

    Per epoch: shuffle, run ``step`` on each mini-batch's availability rows
    and labels, then score dev once. ``step`` returns (loss_p, loss_c, mean
    reward, chains selected, rows). Ties in dev quality keep the earlier epoch.
    """
    if set(data.train.labels.tolist()) != {0, 1}:
        raise DataError("training set must contain at least one positive and one negative")
    if not data.dev:
        raise DataError("empty dev split: no data to select the checkpoint on")
    best = clone_model(model)
    best_quality = _dev_quality(model, data.dev)
    best_epoch = 0
    log: list[EpochStats] = []

    for epoch in range(1, config.epochs + 1):
        totals = np.zeros(5)
        n_steps = 0
        for rows in batches(rng_shuffle.permutation(len(data.train)).tolist(), config.batch_size):
            stats = step(data.train.availability[rows], data.train.labels[rows])
            if not np.isfinite(stats[:2]).all():
                raise NumericError(f"non-finite predictor loss at epoch {epoch}")
            totals += stats
            n_steps += 1
        quality = _dev_quality(model, data.dev)
        loss_p, loss_c, mean_reward = (totals[:3] / n_steps).tolist()
        log.append(EpochStats(epoch, loss_p, loss_c, mean_reward, float(totals[3] / totals[4]), quality[0]))
        if quality > best_quality:
            best = clone_model(model)
            best_quality = quality
            best_epoch = epoch
    return TrainResult(model=best, log=log, best_epoch=best_epoch, best_dev_map=best_quality[0])


def train_task(
    data: EncodedTask, config: TrainConfig, d: int, predictor_arch: str = ARCH_MLP, lambda_s: float = 1.0
) -> TrainResult:
    """Full three-player training; returns the best-dev-MAP checkpoint."""
    model = build_model(data.size, d, lambda_s, predictor_arch, config.seed, MODE_GAME)
    return _fit(data, config, model, _game_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE))


def train_predictor_only(data: EncodedTask, config: TrainConfig) -> TrainResult:
    """All-chains mode: supervised predictor on full availability, no game."""
    model = build_model(data.size, 1, 0.0, ARCH_MLP, config.seed, MODE_ALL_CHAINS)
    step = _predictor_only_step(model, config)
    return _fit(data, config, model, step, stream_rng(config.seed, STREAM_SHUFFLE))


def train_fixed_generator(
    data: EncodedTask, config: TrainConfig, generator: DenseParams, d: int, predictor_arch: str = ARCH_MLP
) -> TrainResult:
    """Train a fresh predictor on deterministic top-d selections from a frozen generator."""
    predictor = init_dense(_predictor_dims(predictor_arch, data.size), stream_rng(config.seed, STREAM_INIT, 2))
    model = GameModel(data.size, d, 0.0, predictor_arch, MODE_GAME, predictor, clone_params(generator))
    step = _predictor_only_step(model, config)
    return _fit(data, config, model, step, stream_rng(config.seed, STREAM_SHUFFLE, 2))
