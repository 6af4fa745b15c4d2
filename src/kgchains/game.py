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

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .chains import EncodedTask, Instance, SelectionMask, Split
from .errors import DataError, NumericError
from .metrics import mean_average_precision
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
    losses_and_scores,
    mlp_dims,
    softmax,
)
from .util import STREAM_INIT, STREAM_SAMPLE, STREAM_SHUFFLE, stream_rng

ARCH_MLP = "mlp"
ARCH_LINEAR = "linear"
MODE_GAME = "game"
MODE_ALL_CHAINS = "d_all"
NETWORKS = ("generator", "predictor", "complement")  # a model's networks, in init and checkpoint payload order
# Run modes: the game with MLP or linear predictors, the predictor alone on every available
# chain (MODE_ALL_CHAINS, also that model's mode), and a predictor on a frozen d=1 generator.
MODE_GAME_MLP = "game_mlp"
MODE_GAME_LINEAR = "game_linear"
MODE_SINGLE_CHAIN_GEN = "single_chain_gen"
ALL_MODES = (MODE_GAME_MLP, MODE_GAME_LINEAR, MODE_ALL_CHAINS, MODE_SINGLE_CHAIN_GEN)
# Top-d by argmax rounds up to TOP_ROUNDS positions on at least ROUNDS_MIN_SIZE entries, else
# by one stable sort: on (256, D) chunks a sort costs about as much as 14 rounds at D = 182 and
# 1000 (3 at D = 23), and below about 3,000 entries its lower fixed cost wins at d = 2.
TOP_ROUNDS = 8
ROUNDS_MIN_SIZE = 3000
# Rows per network pass when scoring, so a large split never sits in
# memory as one (N, 2D) generator output.
SCORE_CHUNK = 256
# Grouping for the per-epoch dev ranking used to pick the checkpoint.
# Instance-level splitting scatters head groups, leaving mostly
# singletons whose AP is 1 regardless of the model; a global ranking
# keeps the selection signal informative.
DEV_GROUP_BY = "global"
# Momentum of the REINFORCE baseline, an exponential moving average of the batch-mean reward.
BASELINE_MOMENTUM = 0.9


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

    def __post_init__(self) -> None:
        """Raise ``ValueError`` unless ``build_model`` could have built this model, weights aside: each of its
        networks in the layer shapes ``checked_shapes`` gives."""
        nets = {name: getattr(self, name) for name in NETWORKS if getattr(self, name) is not None}
        fields = self.input_dim, self.d, self.lambda_s, self.predictor_arch, self.mode
        for name, shapes in checked_shapes(*fields, list(nets)).items():
            if nets[name].shapes != shapes:
                got = nets[name].shapes
                raise ValueError(f"input_dim = {self.input_dim} needs {name} layer shapes {shapes}, not {got}")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 20
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EpochStats:
    # a train log's schema and column lines, above one as_line() an epoch
    LOG_HEADER = ("# kgchains train log v1", "epoch\tloss_p\tloss_c\tmean_reward\tmean_selected\tdev_map")

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


def _network_dims(input_dim: int, predictor_arch: str, mode: str) -> dict[str, list[int]]:
    """Each network's layer widths in a model of this mode, in init and payload order."""
    predictor = (mlp_dims if predictor_arch == ARCH_MLP else linear_dims)(input_dim, 2)
    if mode == MODE_ALL_CHAINS:
        return {"predictor": predictor}
    return {"generator": mlp_dims(input_dim, 2 * input_dim), "predictor": predictor, "complement": predictor}


def checked_shapes(input_dim: int, d: int, lambda_s: float, predictor_arch: str, mode: str,
                   networks: list[str]) -> dict[str, list[tuple[int, int]]]:
    """The (out, in) layer shapes ``_network_dims`` gives each of ``networks``, if ``build_model`` could have built
    a model of these fields with just those networks; else a ``ValueError`` that names the first field or network
    at fault. A game model may lack the complement, as ``single_chain_gen``'s second stage does."""
    for key, value, ok, expected in (
        ("input_dim", input_dim, input_dim >= 1, "an integer >= 1"),
        ("d", d, d >= 1, "an integer >= 1"),
        ("lambda_s", lambda_s, math.isfinite(lambda_s) and lambda_s >= 0, "a finite number >= 0"),
        ("predictor_arch", predictor_arch, predictor_arch in (ARCH_MLP, ARCH_LINEAR), f"{ARCH_MLP} or {ARCH_LINEAR}"),
        ("mode", mode, mode in (MODE_GAME, MODE_ALL_CHAINS), f"{MODE_GAME} or {MODE_ALL_CHAINS}"),
    ):
        if not ok:
            raise ValueError(f"{key} = {value} must be {expected}")
    widths = _network_dims(input_dim, predictor_arch, mode)
    for name in NETWORKS:
        if name in networks and name not in widths:
            raise ValueError(f"mode = {mode} has no {name} network")
        if name not in networks and name in widths and name != "complement":
            raise ValueError(f"mode = {mode} needs a {name} network")
    return {name: list(zip(widths[name][1:], widths[name][:-1])) for name in networks}


def build_model(
    input_dim: int, d: int, lambda_s: float, predictor_arch: str = ARCH_MLP, seed: int = 0, mode: str = MODE_GAME
) -> GameModel:
    """Fresh model; init draws happen generator, predictor, complement in order. ``GameModel`` checks the
    fields."""
    if input_dim < 1:
        raise DataError("empty vocabulary: cannot build a model")
    rng = stream_rng(seed, STREAM_INIT)
    nets = {name: init_dense(dims, rng) for name, dims in _network_dims(input_dim, predictor_arch, mode).items()}
    return GameModel(input_dim, d, lambda_s, predictor_arch, mode, **nets)


def clone_model(model: GameModel) -> GameModel:
    nets = {name: getattr(model, name) for name in NETWORKS}
    return replace(model, **{name: net and clone_params(net) for name, net in nets.items()})


# -- generator ------------------------------------------------------------


def _generator_forward(model: GameModel, availability: np.ndarray):
    """Per-chain selection and keep-out probabilities, 0 where unavailable, and what backward needs.

    The generator maps each (D,) or (B, D) availability row to 2*D logits, one (keep-out, select) pair
    per chain. The two-way softmax runs on the available (> 0) pairs only, and that is exact: a pair's
    softmax reads that pair alone, and the others would be forced to 0.
    """
    assert model.generator is not None
    out, cache = forward(model.generator, availability)
    at = np.flatnonzero(availability > 0)
    pairs = np.zeros((*availability.shape, 2))  # (keep-out, select), as the logits pair them
    pairs.reshape(-1, 2)[at] = softmax(out.reshape(-1, 2)[at])
    return pairs[..., 1], pairs[..., 0], cache


def generator_probs(model: GameModel, instance: Instance) -> np.ndarray:
    return _generator_forward(model, instance.availability)[0]


def top_order(probs: np.ndarray, availability: np.ndarray, d: int) -> np.ndarray:
    """Each row's first d positions (all if fewer): available ones by decreasing probability, ties to the
    lower index, then unavailable ones, then available ones with a NaN probability, each in index order,
    as a stable sort of -probs puts them. The order of top-d selection and of exported rules; a prefix
    is the order for fewer positions. ``probs`` are above -1 or NaN, as probabilities are: the argmax
    rounds run over the probabilities, -1 where unavailable and -1.5 for NaN, each pick set to -inf."""
    if d > TOP_ROUNDS or (0 < d and availability.size < ROUNDS_MIN_SIZE):
        return np.where(availability > 0, -probs, np.inf).argsort(axis=-1, kind="stable")[..., :d]
    *lead, width = availability.shape
    order = np.empty((min(d, width), math.prod(lead)), np.intp)
    if len(order):
        keys = np.where(availability > 0, probs, -1.0)
        np.fmax(keys, -1.5, out=keys)  # argmax would stop at the first NaN
        keys = keys.reshape(-1, width)
        rows = np.arange(len(keys))
        keys.argmax(axis=1, out=order[0])
        for last, pick in zip(order, order[1:]):
            keys[rows, last] = -np.inf
            keys.argmax(axis=1, out=pick)
    return order.T.reshape(*lead, len(order))


def _top_d(order: np.ndarray, availability: np.ndarray, d: int) -> np.ndarray:
    """The top-d selection of each row, as 1s at the first d positions of its ``top_order`` times the
    availability (0 elsewhere)."""
    selected = np.zeros(availability.shape)
    # the flat position of each row's first element, (..., 1)
    firsts = np.arange(0, selected.size, selected.shape[-1]).reshape(*selected.shape[:-1], 1)
    selected.put(order[..., :d] + firsts, 1.0)
    selected *= availability
    return selected


def select_top_d(probs: np.ndarray, availability: np.ndarray, d: int) -> SelectionMask:
    """The top-d selection of each row and its complement among the available chains."""
    selected = _top_d(top_order(probs, availability, d), availability, d)
    return SelectionMask(selected=selected, complement=availability * (1.0 - selected))


# -- training steps --------------------------------------------------------


def predictor_gradient(params: DenseParams, grads: DenseParams, x: np.ndarray, labels: np.ndarray):
    """The gradient of the batch-mean cross-entropy of rows ``x``, (B, D) or stacked (S, B, D), into ``grads``;
    returns the mean loss, per network of a stack, and the logits."""
    logits, cache = forward(params, x)
    losses, dlogits = cross_entropy(logits, labels)
    backward(params, cache, dlogits / x.shape[-2], grads)
    return losses.sum(axis=-1) / x.shape[-2], logits


Step = Callable[[np.ndarray, np.ndarray], tuple[float, float, float, float]]


def _game_step(model: GameModel, config: TrainConfig) -> Step:
    """Sample masks, take both predictors' gradients and the generator's by REINFORCE, then one Adam step.

    The networks are rebound as views into one buffer [generator | predictor | complement],
    the predictor pair as one (2, P) stack. Adam is elementwise and the generator's gradient
    does not read the predictors, so the one step is the three networks' own. Each row draws
    one mask. The reward is acc_predictor - acc_complement - lambda_s * max{(|selected| - d) /
    |available|, 0}; the estimator is -mean_rows (R - baseline) * grad log pi(mask), and the
    baseline is updated afterwards as an EMA, of momentum BASELINE_MOMENTUM, of the batch-mean
    reward. A batch's rows are 0/1 availability rows.
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
    baseline = 0.0

    def step(availability: np.ndarray, labels: np.ndarray):
        nonlocal baseline
        probs, keep, cache = _generator_forward(model, availability)
        rows, width = availability.shape
        # x[0] the selected chains, x[1] the rest; probs is 0 on unavailable chains
        x = np.empty((2, rows, width))
        np.less(rng_sample.random((rows, width)), probs, out=x[0])
        np.subtract(availability, x[0], out=x[1])
        # d(-log pi(selected)) wrt each (keep-out, select) logit pair, 0 on unavailable chains
        dout = np.empty((rows, width, 2))
        np.subtract(keep, x[1], out=dout[..., 0])
        np.subtract(probs, x[0], out=dout[..., 1])
        losses, logits = predictor_gradient(stack, grads_pair, x, labels)
        acc_p, acc_c = (logits.argmax(axis=-1) == labels).astype(np.float64)
        n_selected, n_left = x.sum(axis=-1)
        rewards = acc_p - acc_c - model.lambda_s * (
            np.maximum(n_selected - model.d, 0.0) / np.maximum(n_selected + n_left, 1.0)
        )
        dout = dout.reshape(rows, -1)
        dout *= ((rewards - baseline) / rows)[:, None]
        backward(model.generator, cache, dout, grads_g)
        # a non-finite reward scales its whole row of dout, so it reaches the bias gradient
        if not np.isfinite(grads_g.flat).all():
            raise NumericError("non-finite generator reward or gradient")
        adam_step(store, grads, state)
        mean_reward = float(rewards.sum()) / rows
        baseline = BASELINE_MOMENTUM * baseline + (1.0 - BASELINE_MOMENTUM) * mean_reward
        return *losses.tolist(), mean_reward, float(n_selected.sum())

    return step


def _predictor_only_step(model: GameModel, config: TrainConfig) -> Step:
    """Supervised predictor on its inference-time inputs; no game."""
    state = AdamState.for_params(model.predictor, config.lr)
    grads = DenseParams(model.predictor.layers, np.empty_like(model.predictor.flat))

    def step(availability: np.ndarray, labels: np.ndarray):
        x = _predictor_inputs(model, availability, selection_probs(model, availability))[0]
        loss, _ = predictor_gradient(model.predictor, grads, x, labels)
        adam_step(model.predictor, grads, state)
        return float(loss), 0.0, 0.0, float(x.sum())

    return step


# -- inference -------------------------------------------------------------


def selection_probs(model: GameModel, availability: np.ndarray) -> np.ndarray:
    """Per-chain selection probabilities of (rows, D) availability rows: the
    generator's, or the availability itself for a model with no generator."""
    if model.generator is None:
        return availability
    return _generator_forward(model, availability)[0]


def _predictor_inputs(model: GameModel, availability: np.ndarray, probs: np.ndarray, n: int = 0):
    """(Rows the predictor scores, each row's ``top_order`` by the selection probabilities ``probs``
    for max(n, d) positions): the rows are all available chains, or the first d of that order."""
    d = 0 if model.generator is None else model.d
    order = top_order(probs, availability, max(n, d))
    return (_top_d(order, availability, d) if d else availability), order


def _row_keys(x: np.ndarray) -> list[bytes]:
    """The identity of each 0/1 row: its bits, packed eight to a byte, as one bytes object a row."""
    packed = np.packbits(x != 0, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()


def score_chunks(
    model: GameModel, availability: np.ndarray, n: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(availability, selection probabilities, order, predictor logits) per
    slice of SCORE_CHUNK rows of an (N, D) availability matrix, one generator
    pass each. The order is each row's ``top_order`` for max(n, d) positions
    (n in all-chains mode), ranked once: the top-d selection is its first d.
    Each slice is cast to float64 for the networks, and yielded so.

    BLAS rounds a row differently depending on its place in the batch, and
    AP breaks exact score ties by input order. So each distinct predictor
    input is scored once, and rows that share it (duplicated rows, or rows
    with the same top-d selection) share its logits bit for bit. A predictor
    input is 0/1, as ``Split`` holds it and ``read_instances`` checks it, so
    an input is keyed by its packed bits: a row of other values would share
    the key of its nonzero pattern.
    """
    table = np.empty((len(availability), 2))  # each distinct input's logits, in first-seen order
    row_of: dict[bytes, int] = {}
    for start in range(0, len(availability), SCORE_CHUNK):
        chunk = np.asarray(availability[start : start + SCORE_CHUNK], np.float64)
        probs = selection_probs(model, chunk)
        x, order = _predictor_inputs(model, chunk, probs, n)
        keys = _row_keys(x)
        fresh = {key: i for i, key in enumerate(keys) if key not in row_of}
        if fresh:
            seen = len(row_of)
            table[seen : seen + len(fresh)] = forward(model.predictor, x[list(fresh.values())])[0]
            row_of.update(zip(fresh, range(seen, seen + len(fresh))))
        yield chunk, probs, order, table[[row_of[key] for key in keys]]


def _logits(model: GameModel, availability: np.ndarray) -> np.ndarray:
    """Predictor logits (N, 2) of (N, D) availability rows, one chunk at a time."""
    return np.concatenate([logits for _, _, _, logits in score_chunks(model, availability)] or [np.empty((0, 2))])


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
    losses, scores = losses_and_scores(_logits(model, split.availability), split.labels)
    try:
        dev_map = mean_average_precision(split.heads, scores, split.labels, DEV_GROUP_BY)[0]
    except DataError:
        dev_map = 0.0
    return dev_map, -float(losses.sum()) / len(losses)


# -- training loop ------------------------------------------------------------


def _fit(data: EncodedTask, config: TrainConfig, model: GameModel, step: Step, rng_shuffle) -> TrainResult:
    """The epoch loop of every mode; returns the best-dev checkpoint.

    Per epoch: shuffle, run ``step`` on each mini-batch's availability rows
    and labels, then score dev once. ``step`` returns (loss_p, loss_c, mean
    reward, chains selected). Ties in dev quality keep the earlier epoch.
    Training reads the split as float64 only here: each epoch's shuffled rows
    are one gather into one float64 buffer, and the mini-batches slice it.
    """
    if set(data.train.labels.tolist()) != {0, 1}:
        raise DataError("training set must contain at least one positive and one negative")
    if not data.dev:
        raise DataError("empty dev split: no data to select the checkpoint on")
    best = clone_model(model)
    best_quality = _dev_quality(model, data.dev)
    best_epoch = 0
    log: list[EpochStats] = []

    shuffled = np.empty(data.train.availability.shape)
    starts = range(0, len(data.train), config.batch_size)
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(len(data.train))
        shuffled[...] = data.train.availability[order]
        labels = data.train.labels[order]
        totals = [0.0] * 4
        for start in starts:
            rows = slice(start, start + config.batch_size)
            stats = step(shuffled[rows], labels[rows])
            if not (math.isfinite(stats[0]) and math.isfinite(stats[1])):
                raise NumericError(f"non-finite predictor loss at epoch {epoch}")
            totals = list(map(operator.add, totals, stats))
        quality = _dev_quality(model, data.dev)
        mean_selected = totals[3] / order.size
        log.append(EpochStats(epoch, *(total / len(starts) for total in totals[:3]), mean_selected, quality[0]))
        if quality > best_quality:
            best = clone_model(model)
            best_quality = quality
            best_epoch = epoch
    return TrainResult(model=best, log=log, best_epoch=best_epoch, best_dev_map=best_quality[0])


def train_mode(data: EncodedTask, config: TrainConfig, mode: str, d: int, lambda_s: float = 1.0) -> TrainResult:
    """Train under one run mode without touching the test split; returns the best-dev checkpoint.

    ``d_all`` ignores d and lambda_s. ``single_chain_gen`` trains a d=1 game, then a fresh predictor
    on the top-d selections of its frozen generator, from the streams (seed, INIT, 2) and
    (seed, SHUFFLE, 2).
    """
    if mode not in ALL_MODES:
        raise DataError(f"unknown run mode: {mode!r}")
    if mode == MODE_ALL_CHAINS:
        model = build_model(data.size, 1, 0.0, ARCH_MLP, config.seed, MODE_ALL_CHAINS)
        return _fit(data, config, model, _predictor_only_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE))
    if d < 1:
        raise ValueError("d must be >= 1")
    arch = ARCH_LINEAR if mode == MODE_GAME_LINEAR else ARCH_MLP
    two_stage = mode == MODE_SINGLE_CHAIN_GEN
    model = build_model(data.size, 1 if two_stage else d, lambda_s, arch, config.seed)
    result = _fit(data, config, model, _game_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE))
    if not two_stage:
        return result
    dims = _network_dims(data.size, arch, MODE_GAME)["predictor"]
    predictor = init_dense(dims, stream_rng(config.seed, STREAM_INIT, 2))
    model = GameModel(data.size, d, 0.0, arch, MODE_GAME, predictor, result.model.generator)
    return _fit(data, config, model, _predictor_only_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE, 2))
