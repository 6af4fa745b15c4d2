"""The training loop as it was before the trimmed steps, for the bit-equality tests.

``game_step``, ``predictor_only_step`` and ``fit`` are the game's mini-batch
steps and epoch loop in their earlier form: a ``SelectionMask`` per batch from
``sample_mask``, the reward from ``instance_reward``, the generator's head from
``dense_head`` and the selection gradient from ``selection_dout``, per-epoch
totals in a numpy vector, batches as lists of row numbers, and a dev pass that
stacks per-row logits and ranks numpy scalars. ``train`` runs one run mode through them. The library's trimmed loop
must give the same checkpoints and train logs bit for bit.
"""

from typing import Iterator, Sequence, TypeVar

import numpy as np

from kgchains import game
from kgchains.chains import SelectionMask
from kgchains.errors import NumericError
from kgchains.neural import (
    AdamState,
    DenseParams,
    adam_step,
    backward,
    clone_params,
    cross_entropy,
    forward,
    init_dense,
    softmax,
)
from kgchains.util import STREAM_INIT, STREAM_SAMPLE, STREAM_SHUFFLE, stream_rng

from selection_oracle import dense_head, selection_dout

T = TypeVar("T")
MOMENTUM = 0.9  # the REINFORCE baseline's, as the README states it


def batches(items: Sequence[T], size: int) -> Iterator[list[T]]:
    """Yield consecutive chunks of at most ``size`` items."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    for start in range(0, len(items), size):
        yield list(items[start : start + size])


def mask_from_selected(availability: np.ndarray, selected: np.ndarray) -> SelectionMask:
    selected = selected * availability
    return SelectionMask(selected=selected, complement=availability * (1.0 - selected))


def sample_mask(probs: np.ndarray, availability: np.ndarray, rng: np.random.Generator) -> SelectionMask:
    """Independent Bernoulli draw per position; unavailable chains stay 0.

    A (rows, D) batch draws its numbers row by row, as ``rows`` calls on
    single rows would.
    """
    draws = rng.random(probs.shape)
    selected = ((draws < probs) & (availability > 0)).astype(np.float64)
    return mask_from_selected(availability, selected)


def sparsity_loss(mask: SelectionMask, d: int):
    """max{(|selected| - d) / |available|, 0} per row; 0 for rows with no chains."""
    n_selected = mask.selected.sum(axis=-1)
    n_available = n_selected + mask.complement.sum(axis=-1)
    return np.maximum(n_selected - d, 0.0) / np.maximum(n_available, 1.0)


def instance_reward(model: game.GameModel, mask: SelectionMask, acc_p, acc_c):
    """acc_p - acc_c - lambda_s * sparsity, per row of the mask."""
    return acc_p - acc_c - model.lambda_s * sparsity_loss(mask, model.d)


def predictor_gradient(params: DenseParams, grads: DenseParams, x: np.ndarray, labels: np.ndarray):
    """The gradient of the batch-mean cross-entropy of rows ``x`` into ``grads``; returns the
    mean loss, per network of a stack, and per-row 0/1 accuracy (argmax logit equals label)."""
    logits, cache = forward(params, x)
    losses, dlogits = cross_entropy(logits, labels)
    backward(params, cache, dlogits / x.shape[-2], grads)
    return losses.mean(axis=-1), (logits.argmax(axis=-1) == labels).astype(np.float64)


def predictor_inputs(model: game.GameModel, availability: np.ndarray) -> np.ndarray:
    """All available chains, or the generator's top-d of each row, ties to the lower index."""
    if model.mode == game.MODE_ALL_CHAINS or model.generator is None:
        return availability
    probs = dense_head(model, availability)[0]
    top = np.argsort(np.where(availability > 0, -probs, np.inf), axis=-1, kind="stable")[..., : model.d]
    selected = np.zeros_like(availability)
    np.put_along_axis(selected, top, 1.0, axis=-1)
    return mask_from_selected(availability, selected).selected


def game_step(model: game.GameModel, config: game.TrainConfig):
    """Sample masks, take both predictors' gradients and the generator's by REINFORCE, then one Adam step,
    over the one parameter store [generator | predictor | complement]."""
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
        probs, row_softmax, cache = dense_head(model, availability)
        mask = sample_mask(probs, availability, rng_sample)
        losses, accs = predictor_gradient(stack, grads_pair, np.array((mask.selected, mask.complement)), labels)
        rewards = instance_reward(model, mask, *accs)
        dout = selection_dout(row_softmax, availability, mask.selected)
        dout *= ((rewards - baseline) / len(rewards))[:, None]
        backward(model.generator, cache, dout, grads_g)
        if not (np.isfinite(rewards).all() and np.isfinite(grads_g.flat).all()):
            raise NumericError("non-finite generator reward or gradient")
        adam_step(store, grads, state)
        mean_reward = float(np.mean(rewards))
        baseline = MOMENTUM * baseline + (1.0 - MOMENTUM) * mean_reward
        return *losses.tolist(), mean_reward, float(mask.selected.sum()), len(rewards)

    return step


def predictor_only_step(model: game.GameModel, config: game.TrainConfig):
    """Supervised predictor on its inference-time inputs; no game."""
    state = AdamState.for_params(model.predictor, config.lr)
    grads = DenseParams(model.predictor.layers, np.empty_like(model.predictor.flat))

    def step(availability: np.ndarray, labels: np.ndarray):
        x = predictor_inputs(model, availability)
        loss, _ = predictor_gradient(model.predictor, grads, x, labels)
        adam_step(model.predictor, grads, state)
        return float(loss), 0.0, 0.0, float(x.sum()), len(labels)

    return step


def global_map(scores, labels) -> float:
    """AP of one ranking of numpy scalars by descending score, ties in input order;
    0.0 without a positive or with a non-finite score."""
    items = list(zip(scores, labels))
    if not all(np.isfinite(score) for score, _ in items):
        return 0.0
    hits, precision_sum = 0, 0.0
    for rank, (_, label) in enumerate(sorted(items, key=lambda item: -item[0]), start=1):
        if label == 1:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / hits if hits else 0.0


def dev_quality(model: game.GameModel, split) -> tuple[float, float]:
    """(dev MAP, -dev cross-entropy): each distinct predictor input scored once per split, in
    chunks of SCORE_CHUNK rows, and the rows' logits stacked from a dict of per-row keys."""
    by_input: dict[bytes, np.ndarray] = {}
    chunks = []
    for start in range(0, len(split), game.SCORE_CHUNK):
        chunk = split.availability[start : start + game.SCORE_CHUNK]
        x = predictor_inputs(model, chunk)
        keys = [np.flatnonzero(row).tobytes() + row[np.flatnonzero(row)].tobytes() for row in x]
        fresh = {key: i for i, key in enumerate(keys) if key not in by_input}
        if fresh:
            out, _ = forward(model.predictor, x[list(fresh.values())])
            by_input.update(zip(fresh, out))
        chunks.append(np.array([by_input[key] for key in keys]))
    logits = np.concatenate(chunks or [np.empty((0, 2))])
    losses, _ = cross_entropy(logits, split.labels)
    return global_map(softmax(logits)[:, 1], split.labels), -float(losses.mean())


def fit(data, config: game.TrainConfig, model: game.GameModel, step, rng_shuffle) -> game.TrainResult:
    """The epoch loop of every mode; returns the best-dev checkpoint (ties keep the earlier epoch)."""
    best = game.clone_model(model)
    best_quality = dev_quality(model, data.dev)
    best_epoch = 0
    log = []
    for epoch in range(1, config.epochs + 1):
        totals = np.zeros(5)
        n_steps = 0
        for rows in batches(rng_shuffle.permutation(len(data.train)).tolist(), config.batch_size):
            stats = step(data.train.availability[rows], data.train.labels[rows])
            if not np.isfinite(stats[:2]).all():
                raise NumericError(f"non-finite predictor loss at epoch {epoch}")
            totals += stats
            n_steps += 1
        quality = dev_quality(model, data.dev)
        loss_p, loss_c, mean_reward = (totals[:3] / n_steps).tolist()
        log.append(game.EpochStats(epoch, loss_p, loss_c, mean_reward, float(totals[3] / totals[4]), quality[0]))
        if quality > best_quality:
            best = game.clone_model(model)
            best_quality = quality
            best_epoch = epoch
    return game.TrainResult(model=best, log=log, best_epoch=best_epoch, best_dev_map=best_quality[0])


def train(data, config: game.TrainConfig, mode: str, d: int, lambda_s: float = 1.0) -> game.TrainResult:
    """``evaluate.train_mode`` through the loop above."""
    if mode == "d_all":
        model = game.build_model(data.size, 1, 0.0, game.ARCH_MLP, config.seed, game.MODE_ALL_CHAINS)
        return fit(data, config, model, predictor_only_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE))
    arch = game.ARCH_LINEAR if mode == "game_linear" else game.ARCH_MLP
    stage_d = 1 if mode == "single_chain_gen" else d
    model = game.build_model(data.size, stage_d, lambda_s, arch, config.seed, game.MODE_GAME)
    result = fit(data, config, model, game_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE))
    if mode != "single_chain_gen":
        return result
    predictor = init_dense(game._network_dims(data.size, arch, game.MODE_GAME)["predictor"], stream_rng(config.seed, STREAM_INIT, 2))
    model = game.GameModel(data.size, d, 0.0, arch, game.MODE_GAME, predictor, clone_params(result.model.generator))
    step = predictor_only_step(model, config)
    return fit(data, config, model, step, stream_rng(config.seed, STREAM_SHUFFLE, 2))
