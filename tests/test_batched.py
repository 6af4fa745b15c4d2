"""Batched game against a per-instance reference of the one-row-at-a-time path.

The reference below trains and scores one instance at a time through 1-D
``neural.forward``/``backward`` calls, as the game did before it ran on
(rows, D) matrices. Batching only changes the float summation order, so
parameters agree to 1e-9 after an epoch and the printed epoch stats agree
exactly. Section (d) keeps the game step as it was before the three networks
shared one buffer, and the shared-buffer step must match it bit for bit.
Section (e) trains every run mode through ``step_oracle``, the loop before
its steps and dev pass were trimmed, and the checkpoints and train logs must
match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from kgchains import checkpoint, game
from kgchains.benchmark import BenchmarkSpec, make_benchmark
from kgchains.chains import EncodedTask, Instance, build_vocabulary, encode_task
from kgchains.errors import DataError, NumericError
from kgchains.evaluate import evaluate_task
from kgchains.game import ALL_MODES, train_mode
from kgchains.neural import (
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
from kgchains.util import STREAM_INIT, STREAM_SAMPLE, STREAM_SHUFFLE, stream_rng

from adam_oracle import whole_buffer_adam_step
from map_oracle import group_results, map_score
from selection_oracle import dense_head, selection_dout
from splits import split_of
from step_oracle import MOMENTUM, batches, instance_reward, mask_from_selected, sample_mask
from step_oracle import dev_quality as oracle_dev_quality
from step_oracle import train as oracle_train

# -- per-instance reference ---------------------------------------------------


def ref_generator(model, avail):
    out, cache = forward(model.generator, avail)
    rows = out.reshape(model.input_dim, 2)
    exp = np.exp(rows - rows.max(axis=1, keepdims=True))
    row_softmax = exp / exp.sum(axis=1, keepdims=True)
    return np.where(avail > 0, row_softmax[:, 1], 0.0), row_softmax, cache


def ref_top_d(probs, avail, d):
    avail_idx = np.flatnonzero(avail > 0)
    selected = np.zeros_like(avail)
    order = np.argsort(-probs[avail_idx], kind="stable")
    selected[avail_idx[order[:d]]] = 1.0
    return selected * avail


def ref_inputs(model, avail, d):
    if model.generator is None:
        return avail
    return ref_top_d(ref_generator(model, avail)[0], avail, d)


def ref_logits(model, inst, d=None):
    return forward(model.predictor, ref_inputs(model, inst.availability, model.d if d is None else d))[0]


def ref_predict(model, inst, d=None):
    return float(softmax(ref_logits(model, inst, d))[1])


def ref_quality(model, instances, group_by="global"):
    scores = [ref_predict(model, inst) for inst in instances]
    groups = group_results([i.head for i in instances], scores, [i.label for i in instances], group_by)
    loss = sum(cross_entropy(ref_logits(model, inst), inst.label)[0] for inst in instances)
    return map_score(groups), -loss / len(instances)


def ref_sum_grads(params, rows, scale):
    """Sum of per-row gradients ``scale * dlogits`` over (x, dlogits) rows."""
    total = DenseParams(params.layers, np.zeros_like(params.flat))
    for x, dlogits in rows:
        _, cache = forward(params, x)
        for acc, grad in zip(total.layers, backward(params, cache, dlogits).layers):
            acc[0] += scale * grad[0]
            acc[1] += scale * grad[1]
    return total


def ref_predictor_step(params, state, rows):
    """rows: (input, label); returns (mean loss, accuracy bits) before the update."""
    losses, accs, grads_in = [], [], []
    for x, label in rows:
        logits, _ = forward(params, x)
        loss, dlogits = cross_entropy(logits, label)
        losses.append(loss)
        accs.append(int(int(np.argmax(logits)) == label))
        grads_in.append((x, dlogits))
    total = ref_sum_grads(params, grads_in, 1.0)
    for layer in total.layers:
        layer[0] *= 1.0 / len(rows)
        layer[1] *= 1.0 / len(rows)
    adam_step(params, total, state)
    return sum(losses) / len(rows), accs


def ref_epoch(model, data, config, kind):
    """One epoch of a mode, one instance at a time; returns the log line and dev quality."""
    if kind == "fixed":
        rng_shuffle = stream_rng(config.seed, STREAM_SHUFFLE, 2)
    else:
        rng_shuffle = stream_rng(config.seed, STREAM_SHUFFLE)
    rng_sample = stream_rng(config.seed, STREAM_SAMPLE)
    states = {
        name: AdamState.for_params(net, config.lr)
        for name, net in (("p", model.predictor), ("c", model.complement), ("g", model.generator))
        if net is not None
    }
    baseline = 0.0
    sums = np.zeros(4)
    steps = 0
    train = list(data.train)
    for idx in batches(rng_shuffle.permutation(len(train)).tolist(), config.batch_size):
        batch = [train[i] for i in idx]
        if kind != "game":
            rows = [(ref_inputs(model, inst.availability, model.d), inst.label) for inst in batch]
            lp, _ = ref_predictor_step(model.predictor, states["p"], rows)
            sums += [lp, 0.0, 0.0, sum(x.sum() for x, _ in rows)]
            steps += 1
            continue
        masked = []
        for inst in batch:
            probs, _, _ = ref_generator(model, inst.availability)
            draws = rng_sample.random(len(probs))
            sel = ((draws < probs) & (inst.availability > 0)).astype(float)
            masked.append((inst, mask_from_selected(inst.availability, sel)))
        lp, acc_p = ref_predictor_step(
            model.predictor, states["p"], [(m.selected, inst.label) for inst, m in masked]
        )
        lc, acc_c = ref_predictor_step(
            model.complement, states["c"], [(m.complement, inst.label) for inst, m in masked]
        )
        rewards, grad_rows = [], []
        for (inst, mask), ap, ac in zip(masked, acc_p, acc_c):
            n_selected = int(mask.selected.sum())
            n_avail = n_selected + int(mask.complement.sum())
            sparsity = 0.0 if n_avail == 0 else max((n_selected - model.d) / n_avail, 0.0)
            reward = ap - ac - model.lambda_s * sparsity
            rewards.append(reward)
            _, row_softmax, _ = ref_generator(model, inst.availability)
            dout = np.zeros((model.input_dim, 2))
            for j in np.flatnonzero(inst.availability > 0):
                dout[j] = row_softmax[j]
                dout[j, 1 if mask.selected[j] > 0 else 0] -= 1.0
            grad_rows.append((inst.availability, (reward - baseline) * dout.reshape(-1)))
        total = ref_sum_grads(model.generator, grad_rows, 1.0 / len(masked))
        adam_step(model.generator, total, states["g"])
        mean_reward = float(np.mean(rewards))
        baseline = MOMENTUM * baseline + (1 - MOMENTUM) * mean_reward
        sums += [lp, lc, mean_reward, sum(int(m.selected.sum()) for _, m in masked)]
        steps += 1
    dev = ref_quality(model, data.dev)
    stats = game.EpochStats(1, *(sums[:3] / steps), sums[3] / len(train), dev[0])
    return stats.as_line(), dev


# -- fixtures -------------------------------------------------------------------


def planted(seed=0, n=160, d_input=8):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = int(rng.random() < 0.5)
        avail = (rng.random(d_input) < 0.4).astype(float)
        avail[0] = float(label)
        out.append(Instance(head=i // 4, tail=i, label=label, availability=avail))
    return EncodedTask(
        "planted", d_input, split_of(out[: n // 2]), split_of(out[n // 2 : 3 * n // 4]), split_of(out[3 * n // 4 :])
    )


def conjunction_task():
    kg, task = make_benchmark(BenchmarkSpec(rule="conjunction", seed=7, train_groups=30, test_groups=20))
    positives = [(kg.entity_id(p.head), kg.entity_id(p.tail)) for p in task.train if p.label == 1]
    return encode_task(build_vocabulary(kg, positives, task.target, max_hops=2), kg, task)


def params_close(a, b, tol):
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.abs(wa - wb).max() <= tol
        assert np.abs(ba - bb).max() <= tol


# -- (a) batched backward ---------------------------------------------------------


@pytest.mark.parametrize("dim", [23, 365])
@pytest.mark.parametrize("arch", [mlp_dims, linear_dims])
@pytest.mark.parametrize("rows", [1, 7, 20])
def test_batched_backward_is_sum_of_per_row_backward(dim, arch, rows):
    rng = np.random.default_rng(dim + rows)
    params = init_dense(arch(dim), rng)
    x = rng.normal(size=(rows, dim))
    dlogits = rng.normal(size=(rows, 2))
    logits, cache = forward(params, x)
    batched = backward(params, cache, dlogits)
    per_row = ref_sum_grads(params, zip(x, dlogits), 1.0)
    for i, row in enumerate(x):
        assert np.abs(forward(params, row)[0] - logits[i]).max() <= 1e-12 * np.abs(logits).max()
    for (bw, bb), (rw, rb) in zip(batched.layers, per_row.layers):
        for got, want in ((bw, rw), (bb, rb)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# -- (b) one epoch of each mode ------------------------------------------------------


@pytest.mark.parametrize("batch_size", [20, 7])  # 80 training rows: 4 whole batches, or a ragged 3
def test_game_epoch_matches_per_instance_reference(batch_size):
    data = planted()
    config = game.TrainConfig(epochs=1, batch_size=batch_size, seed=4, lr=0.01)
    result = train_mode(data, config, "game_mlp", 2)
    ref = game.build_model(data.size, 2, 1.0, "mlp", config.seed)
    line, dev = ref_epoch(ref, data, config, "game")
    assert [s.as_line() for s in result.log] == [line]
    assert result.best_epoch == 1
    assert result.best_dev_map == pytest.approx(dev[0], abs=1e-12)
    for name in ("generator", "predictor"):
        params_close(getattr(result.model, name), getattr(ref, name), 1e-9)
    assert result.model.complement is None  # the best-dev copy holds the networks scoring reads


def test_predictor_only_epoch_matches_per_instance_reference():
    data = planted(1)
    config = game.TrainConfig(epochs=1, seed=3, lr=0.01)
    result = train_mode(data, config, "d_all", 2)
    ref = game.build_model(data.size, 1, 0.0, "mlp", config.seed, game.MODE_ALL_CHAINS)
    line, _ = ref_epoch(ref, data, config, "d_all")
    assert [s.as_line() for s in result.log] == [line]
    assert result.best_epoch == 1
    params_close(result.model.predictor, ref.predictor, 1e-9)


def test_fixed_generator_epoch_matches_per_instance_reference():
    data = planted(2)
    config = game.TrainConfig(epochs=1, seed=4, lr=0.01)
    generator = train_mode(data, config, "game_mlp", 1).model.generator  # single_chain_gen's first stage
    result = train_mode(data, config, "single_chain_gen", 2)
    ref = game.GameModel(
        input_dim=data.size, d=2, lambda_s=0.0, predictor_arch="mlp", mode=game.MODE_GAME,
        predictor=init_dense(mlp_dims(data.size), stream_rng(config.seed, STREAM_INIT, 2)),
        generator=clone_params(generator),
    )
    line, _ = ref_epoch(ref, data, config, "fixed")
    assert [s.as_line() for s in result.log] == [line]
    assert result.best_epoch == 1
    params_close(result.model.predictor, ref.predictor, 1e-9)


def test_batched_draws_are_the_per_row_draws():
    probs = np.random.default_rng(0).random((5, 7))
    avail = np.ones((5, 7))
    batched = sample_mask(probs, avail, stream_rng(1, STREAM_SAMPLE))
    rng = stream_rng(1, STREAM_SAMPLE)
    per_row = [sample_mask(p, a, rng).selected for p, a in zip(probs, avail)]
    assert np.array_equal(batched.selected, np.stack(per_row))


def test_batched_top_d_matches_per_row():
    rng = np.random.default_rng(3)
    probs = np.round(rng.random((50, 12)), 1)  # plenty of ties
    avail = (rng.random((50, 12)) < 0.5).astype(float)
    for d in (1, 3, 20):
        batched = game.select_top_d(probs, avail, d).selected
        assert np.array_equal(batched, np.stack([ref_top_d(p, a, d) for p, a in zip(probs, avail)]))


# -- (c) the chunked scorer ------------------------------------------------------------


@pytest.mark.parametrize("mode", [game.MODE_GAME, game.MODE_ALL_CHAINS])
def test_scorer_shares_scores_between_equal_inputs(mode):
    # at this width BLAS rounds most rows differently at other batch positions
    width = 204
    rng = np.random.default_rng(8)
    model = game.build_model(width, 2, 1.0, "mlp", seed=8, mode=mode)
    pool = []
    for i in range(300):
        avail = np.zeros(width)
        if i % 2:  # chains 0 and 1 plus one more: often the same top-2 selection
            avail[[0, 1, rng.integers(2, width)]] = 1.0
        else:
            avail[rng.random(width) < 0.05] = 1.0
        pool.append(avail)
    # copies of the pool rows, scattered over chunks and positions
    instances = [
        Instance(head=0, tail=i, label=i % 2, availability=pool[j].copy())
        for i, j in enumerate(rng.integers(len(pool), size=3 * game.SCORE_CHUNK + 17))
    ]
    scores = game.score_instances(model, split_of(instances).availability)
    by_row, by_input = {}, {}
    for inst, score in zip(instances, scores):
        assert score == pytest.approx(ref_predict(model, inst), abs=1e-12)
        by_row.setdefault(inst.availability.tobytes(), set()).add(float(score))
        selected = ref_inputs(model, inst.availability, model.d)
        by_input.setdefault(selected.tobytes(), set()).add(float(score))
    assert all(len(s) == 1 for s in by_row.values())
    assert all(len(s) == 1 for s in by_input.values())
    if mode == game.MODE_GAME:
        assert len(by_input) < len(by_row)  # distinct rows sharing a top-d selection
    assert game.predict(model, instances[0]) == pytest.approx(scores[0], abs=1e-12)


@pytest.mark.parametrize("mode", ["game_mlp", "d_all"])
def test_evaluate_map_equals_per_row_map(mode):
    data = conjunction_task()
    config = game.TrainConfig(epochs=5, seed=7, lr=0.01)
    if mode == "d_all":
        model = train_mode(data, config, "d_all", 2).model
    else:
        model = train_mode(data, config, "game_mlp", 2).model
    scores = [ref_predict(model, inst) for inst in data.test]
    groups = group_results([i.head for i in data.test], scores, [i.label for i in data.test])
    assert evaluate_task(model, data.test).map == map_score(groups)


# -- (d) the one-store game step ------------------------------------------------------


def three_network_game_step(model, config):
    """The game step before the one parameter store: three networks in their own buffers,
    three AdamStates, and three Adam updates, the predictors' before the generator's check."""
    nets = (model.predictor, model.complement, model.generator)
    state_p, state_c, state_g = (AdamState.for_params(net, config.lr) for net in nets)
    rng_sample = stream_rng(config.seed, STREAM_SAMPLE)
    baseline = 0.0

    def predictor_step(params, state, x, labels):
        logits, cache = forward(params, x)
        losses, dlogits = cross_entropy(logits, labels)
        whole_buffer_adam_step(params, backward(params, cache, dlogits / len(x)), state)
        return float(losses.mean()), (logits.argmax(axis=1) == labels).astype(np.float64)

    def step(availability, labels):
        nonlocal baseline
        probs, row_softmax, cache = dense_head(model, availability)
        mask = sample_mask(probs, availability, rng_sample)
        loss_p, acc_p = predictor_step(model.predictor, state_p, mask.selected, labels)
        loss_c, acc_c = predictor_step(model.complement, state_c, mask.complement, labels)
        rewards = instance_reward(model, mask, acc_p, acc_c)
        dout = selection_dout(row_softmax, availability, mask.selected)
        dout *= ((rewards - baseline) / len(rewards))[:, None]
        grads = backward(model.generator, cache, dout)
        if not (np.isfinite(rewards).all() and np.isfinite(grads.flat).all()):
            raise NumericError("non-finite generator reward or gradient")
        whole_buffer_adam_step(model.generator, grads, state_g)
        mean_reward = float(np.mean(rewards))
        baseline = MOMENTUM * baseline + (1.0 - MOMENTUM) * mean_reward
        return loss_p, loss_c, mean_reward, float(mask.selected.sum())

    return step


@pytest.mark.parametrize("dim", [7, 23, 196])
@pytest.mark.parametrize("arch", [game.ARCH_MLP, game.ARCH_LINEAR])
@pytest.mark.parametrize("batch_size", [20, 7])  # 80 training rows: 4 whole batches, or a ragged 3
def test_one_store_game_step_matches_the_three_network_step_bit_for_bit(dim, arch, batch_size):
    data = planted(dim, d_input=dim)
    config = game.TrainConfig(epochs=4, batch_size=batch_size, seed=dim, lr=0.01)
    runs = []
    for make_step in (game._game_step, three_network_game_step):
        model = game.build_model(data.size, 2, 1.0, arch, config.seed)
        result = game._fit(data, config, model, make_step(model, config), stream_rng(config.seed, STREAM_SHUFFLE))
        runs.append((model, result))
    (model, result), (ref, ref_result) = runs
    assert [s.as_line() for s in result.log] == [s.as_line() for s in ref_result.log]
    assert (result.best_epoch, result.best_dev_map) == (ref_result.best_epoch, ref_result.best_dev_map)
    for name in ("generator", "predictor", "complement"):  # the networks as trained
        assert getattr(model, name).flat.tobytes() == getattr(ref, name).flat.tobytes()
    for name in ("generator", "predictor"):  # and the best-dev copies a checkpoint is written from
        assert getattr(result.model, name).flat.tobytes() == getattr(ref_result.model, name).flat.tobytes()
    assert result.model.complement is ref_result.model.complement is None


@pytest.mark.parametrize("dim", [7, 23, 196, 300])
@pytest.mark.parametrize("rows", [1, 20, 256])
@pytest.mark.parametrize("arch", [mlp_dims, linear_dims])
def test_stacked_pair_passes_match_the_per_network_passes_bit_for_bit(dim, rows, arch):
    rng = np.random.default_rng(dim * rows)
    generator = init_dense(mlp_dims(dim, 2 * dim), rng)
    pair = [init_dense(arch(dim), rng) for _ in range(2)]
    # laid out as the game lays them: [generator | predictor | complement], the pair a (2, P) view
    store = DenseParams(generator.layers + pair[0].layers + pair[1].layers)
    grads = np.full_like(store.flat, np.nan)
    cut = generator.flat.size
    stack = DenseParams(pair[0].layers, store.flat[cut:].reshape(2, -1))
    stack_grads = DenseParams(pair[0].layers, grads[cut:].reshape(2, -1))
    x = (rng.random((2, rows, dim)) < 0.3).astype(np.float64)
    dlogits = rng.normal(size=(2, rows, 2)) / rows
    logits, cache = forward(stack, x)
    backward(stack, cache, dlogits, stack_grads)
    for s, net in enumerate(pair):
        want, want_cache = forward(net, x[s])
        assert logits[s].tobytes() == want.tobytes()
        assert stack_grads.flat[s].tobytes() == backward(net, want_cache, dlogits[s]).flat.tobytes()
    assert np.isnan(grads[:cut]).all()


@pytest.mark.parametrize("dim", [23, 182, 300])
@pytest.mark.parametrize("lead", [(1,), (20,), (256,), (2, 20), ()])
def test_byte_rows_pass_as_float64_rows_bit_for_bit(dim, lead):
    """Splits hold uint8 rows, and a library caller may pass them straight in: numpy casts them
    before BLAS, so forward and backward, the generator's pass and the scores match float64 rows."""
    rng = np.random.default_rng(dim + len(lead))
    model = game.build_model(dim, 2, 1.0, game.ARCH_MLP, seed=dim)
    net = model.generator
    if len(lead) == 2:  # a stacked pair, as the game's predictors run
        net = DenseParams(model.predictor.layers, np.stack([model.predictor.flat, model.complement.flat]))
    rows = (rng.random((*lead, dim)) < 0.2).astype(np.uint8)
    rows.reshape(-1, dim)[:, 0] = 1  # each row has a chain available
    dlogits = rng.normal(size=(*lead, net.output_dim))
    passes = []
    for x in (rows, rows.astype(np.float64)):
        out, cache = forward(net, x)
        gen_x = x.reshape(-1, dim) if len(lead) == 2 else x  # the generator is one network
        probs, keep, gen_cache = game._generator_forward(model, gen_x)
        dout = np.ones((*gen_x.shape[:-1], 2 * dim))
        got = [out, backward(net, cache, dlogits).flat, probs, keep, backward(model.generator, gen_cache, dout).flat]
        passes.append(got + [z for _, z in cache + gen_cache])
        if len(lead) == 1:
            passes[-1].append(game.score_instances(model, x))
    for got, want in zip(*passes):
        assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()


# -- (e) the trimmed training loop ------------------------------------------------------


@pytest.mark.parametrize("dim", [7, 23, 196])
@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_training_matches_the_step_oracle_bit_for_bit(dim, batch_size, mode, tmp_path):
    # 30 training rows: batches of one row each, or batches of 8 that leave a ragged 6
    data = planted(dim, n=60, d_input=dim)
    config = game.TrainConfig(epochs=3, batch_size=batch_size, seed=dim, lr=0.01)
    runs = []
    for train in (train_mode, oracle_train):
        result = train(data, config, mode, 2)
        path = tmp_path / f"{train.__module__}.txt"
        checkpoint.save_checkpoint(str(path), result.model, {"best_epoch": result.best_epoch})
        runs.append((path.read_bytes(), [s.as_line() for s in result.log], result.best_dev_map))
    assert runs[0] == runs[1]


def dev_split(kind: str, dim: int):
    """A dev split of ``planted`` rows: "tied" holds each row seven times with both labels, over two
    SCORE_CHUNK chunks, and rows without chains; "one_row" is one positive row; "no_positive" has none."""
    rows = planted(dim, d_input=dim).dev.availability
    if kind == "one_row":
        return split_of([Instance(0, 0, 1, rows[0])])
    if kind == "no_positive":
        return split_of([Instance(i, i, 0, row) for i, row in enumerate(rows)])
    copies = [Instance(i, i, (i + copy) % 2, row) for copy in range(7) for i, row in enumerate(rows)]
    return split_of(copies + [Instance(-1, -1, label, np.zeros(dim)) for label in (0, 1, 0)])


@pytest.mark.parametrize("kind", ["tied", "one_row", "no_positive"])
@pytest.mark.parametrize("mode", [game.MODE_GAME, game.MODE_ALL_CHAINS])
def test_dev_quality_matches_the_step_oracle_bit_for_bit(mode, kind):
    """Checkpoint selection's (dev MAP, -dev cross-entropy) is the oracle's: the eval path's loss,
    scores and MAP over one ranking of all dev rows."""
    dim = 23
    model = game.build_model(dim, 2, 1.0, game.ARCH_MLP, seed=dim, mode=mode)
    split = dev_split(kind, dim)
    got, want = game._dev_quality(model, split), oracle_dev_quality(model, split)
    assert [type(v) for v in got] == [float, float]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if kind == "tied":
        assert len(split) > game.SCORE_CHUNK
        assert len(set(game.score_instances(model, split.availability).tolist())) < len(split)
    if kind == "no_positive":
        assert got[0] == 0.0


@pytest.mark.parametrize("mode", ALL_MODES)
def test_byte_splits_train_and_score_as_their_float64_copies(mode, tmp_path):
    """Extraction's uint8 splits and float64 copies of them give the same checkpoint bytes and
    train log, and ``score_chunks`` the same probabilities, orders and logits."""
    data = conjunction_task()
    assert data.train.availability.dtype == np.uint8
    copies = {name: getattr(data, name) for name in ("train", "dev", "test")}
    wide = replace(data, **{name: replace(s, availability=s.availability.astype(float)) for name, s in copies.items()})
    config = game.TrainConfig(epochs=2, batch_size=8, seed=3, lr=0.01)
    runs = []
    for task in (data, wide):
        result = train_mode(task, config, mode, 2)
        path = tmp_path / f"{task.train.availability.dtype}.txt"
        checkpoint.save_checkpoint(str(path), result.model, {"best_epoch": result.best_epoch})
        scored = [a.tobytes() for chunk in game.score_chunks(result.model, task.test.availability, 3) for a in chunk]
        runs.append((path.read_bytes(), [s.as_line() for s in result.log], scored))
    assert runs[0] == runs[1]


# -- guards ---------------------------------------------------------------------------


def test_empty_dev_split_is_an_error():
    data = planted()
    no_dev = EncodedTask("planted", data.size, data.train, split_of([], data.size), data.test)
    config = game.TrainConfig(epochs=1, seed=0)
    for mode in ALL_MODES:
        with pytest.raises(DataError, match="empty dev split"):
            train_mode(no_dev, config, mode, 1)


def test_non_finite_generator_gradient_raises(monkeypatch):
    build = game.build_model
    poison = None
    built = []

    def poisoned(*args, **kwargs):
        model = build(*args, **kwargs)
        layer, k, index = poison
        model.generator.layers[layer][k][index] = np.inf
        built.append((model, build(*args, **kwargs)))
        return model

    monkeypatch.setattr(game, "build_model", poisoned)
    # the first weight and the last bias: both ends of the generator's flat buffer
    for poison in ((0, 0, (0, 0)), (-1, 1, -1)):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="generator"):
                train_mode(planted(), game.TrainConfig(epochs=1, seed=0), "game_mlp", 1)
        model, fresh = built[-1]
        for name in ("predictor", "complement"):
            assert getattr(model, name).flat.tobytes() == getattr(fresh, name).flat.tobytes()
