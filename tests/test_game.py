import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgchains import game
from kgchains.chains import EncodedTask, Instance
from kgchains.errors import DataError
from kgchains.evaluate import evaluate_task
from kgchains.game import (
    MODE_ALL_CHAINS,
    MODE_GAME,
    TrainConfig,
    build_model,
    generator_probs,
    predict,
    predictor_gradient,
    select_top_d,
    train_mode,
)
from kgchains.neural import DenseParams
from kgchains.util import STREAM_SAMPLE, stream_rng

import selection_oracle
import topd_oracle
from selection_oracle import selection_grad, selection_log_prob
from splits import split_of
from step_oracle import instance_reward, mask_from_selected, sample_mask, sparsity_loss


def instance(avail, label=1, head=0, tail=1):
    return Instance(head=head, tail=tail, label=label, availability=np.array(avail, dtype=float))


def zero_generator_model(d_input, d=2, lambda_s=1.0):
    model = build_model(d_input, d, lambda_s, "mlp", seed=0)
    for w, b in model.generator.layers:
        w[:] = 0.0
        b[:] = 0.0
    return model


def test_generator_probs_masking():
    model = zero_generator_model(4)
    inst = instance([1, 1, 0, 1])
    probs = generator_probs(model, inst)
    assert probs.tolist() == [0.5, 0.5, 0.0, 0.5]


def test_generator_probs_zero_availability():
    model = zero_generator_model(4)
    probs = generator_probs(model, instance([0, 0, 0, 0]))
    assert not probs.any()


def test_generator_probs_bounded_by_availability():
    model = build_model(6, 2, 1.0, "mlp", seed=3)
    inst = instance([1, 0, 1, 0, 1, 1])
    probs = generator_probs(model, inst)
    assert ((probs > 0) <= (inst.availability > 0)).all()
    assert (probs <= 1.0).all()


# logits that overflow, cancel or propagate through the pair softmax, and ordinary ones
LOGITS = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, 1.5, -2.25, 700.0])
# only > 0 counts as available
AVAILABILITY = st.sampled_from([0.0, 1.0, 0.5, -1.0, np.nan])


def assert_head_matches_dense_head(model, availability, logits, monkeypatch):
    """``_generator_forward`` on given generator logits, against ``dense_head`` bit for bit: the
    probabilities everywhere, the keep-out probabilities at available chains and 0 elsewhere."""
    fake = lambda params, x: (logits, "cache")  # noqa: E731
    monkeypatch.setattr(game, "forward", fake)
    monkeypatch.setattr(selection_oracle, "forward", fake)
    with np.errstate(over="ignore", invalid="ignore"):
        probs, keep, cache = game._generator_forward(model, availability)
        dense_probs, row_softmax, _ = selection_oracle.dense_head(model, availability)
    assert cache == "cache"
    assert probs.shape == keep.shape == availability.shape
    assert probs.tobytes() == dense_probs.tobytes()
    assert keep.tobytes() == np.where(availability > 0, row_softmax[..., 0], 0.0).tobytes()


def test_generator_head_matches_the_dense_head_on_rows_with_no_some_and_every_chain(monkeypatch):
    model = build_model(5, 2, 1.0, "mlp", seed=0)
    availability = np.array([
        [0.0, -1.0, np.nan, 0.0, 0.0],  # no chain available
        [1.0, 0.0, 0.5, -1.0, np.nan],  # some
        [1.0, 0.5, 1.0, 2.0, 1e-300],  # every chain
    ])
    inf, nan = np.inf, np.nan
    logits = np.array([  # (keep-out, select) pairs
        [nan, inf, -inf, 1e308, -1e308, 1.0, 0.0, -0.0, 2.0, -2.0],
        [inf, 1.0, nan, nan, -inf, 1e308, inf, inf, -1e308, -1e308],
        [1e308, -1e308, inf, -inf, -inf, -inf, nan, 1.0, 1e308, 1e308],
    ])
    assert_head_matches_dense_head(model, availability, logits, monkeypatch)
    for row, row_logits in zip(availability, logits):  # (D,) inputs
        assert_head_matches_dense_head(model, row, row_logits, monkeypatch)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generator_head_matches_the_dense_head(data):
    rows, width = data.draw(st.sampled_from([None, 0, 1, 2, 5])), data.draw(st.integers(1, 7))
    shape = (width,) if rows is None else (rows, width)
    size = math.prod(shape)
    availability = np.array(data.draw(st.lists(AVAILABILITY, min_size=size, max_size=size))).reshape(shape)
    logits = np.array(data.draw(st.lists(LOGITS, min_size=2 * size, max_size=2 * size)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        model = build_model(width, 2, 1.0, "mlp", seed=0)
        assert_head_matches_dense_head(model, availability, logits.reshape(*shape[:-1], 2 * width), monkeypatch)


def test_sample_mask_extremes():
    avail = np.array([1.0, 0.0, 1.0])
    rng = stream_rng(0, STREAM_SAMPLE)
    all_in = sample_mask(np.array([1.0, 0.0, 1.0]), avail, rng)
    assert np.array_equal(all_in.selected, avail)
    none = sample_mask(np.zeros(3), avail, rng)
    assert not none.selected.any()
    assert np.array_equal(none.complement, avail)


def test_sample_mask_monte_carlo_frequency():
    avail = np.array([1.0])
    probs = np.array([0.3])
    rng = stream_rng(1, STREAM_SAMPLE)
    draws = 100_000
    hits = sum(int(sample_mask(probs, avail, rng).selected.sum()) for _ in range(draws))
    assert abs(hits / draws - 0.3) < 0.01


def test_sparsity_loss_grid():
    # (selected, d, available) -> expected, including clamp cases
    cases = [
        (7, 5, 20, 0.1),
        (5, 5, 20, 0.0),
        (2, 5, 4, 0.0),
        (4, 1, 4, 0.75),
        (1, 1, 1, 0.0),
        (0, 3, 5, 0.0),
    ]
    for n_sel, d, n_avail, expected in cases:
        avail = np.zeros(25)
        avail[:n_avail] = 1.0
        sel = np.zeros(25)
        sel[:n_sel] = 1.0
        mask = mask_from_selected(avail, sel)
        assert sparsity_loss(mask, d) == pytest.approx(expected)


def test_sparsity_loss_empty_availability():
    mask = mask_from_selected(np.zeros(4), np.zeros(4))
    assert sparsity_loss(mask, 1) == 0.0


def test_select_top_d_examples():
    avail = np.ones(4)
    mask = select_top_d(np.array([0.9, 0.1, 0.8, 0.4]), avail, 2)
    assert np.flatnonzero(mask.selected).tolist() == [0, 2]

    avail = np.array([1.0, 1.0, 0.0, 1.0])
    mask = select_top_d(np.array([0.2, 0.3, 0.0, 0.1]), avail, 5)
    assert np.array_equal(mask.selected, avail)

    mask = select_top_d(np.array([0.5, 0.5, 0.5]), np.ones(3), 2)
    assert np.flatnonzero(mask.selected).tolist() == [0, 1]


# ties, a zero probability on an available chain, NaN; above -1 as the keys of the argmax rounds need
PROBS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1e-300, 0.5 + 2**-53, -0.0, np.nan])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_top_order_and_top_d_equal_the_stable_argsort(data):
    rows, width = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 12))
    probs = np.array(data.draw(st.lists(PROBS, min_size=rows * width, max_size=rows * width))).reshape(rows, width)
    avail = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows * width, max_size=rows * width)))
    avail = avail.reshape(rows, width)
    if data.draw(st.booleans()):  # as the generator gives them: 0 where unavailable
        probs = np.where(avail > 0, probs, 0.0)
    d = data.draw(st.integers(0, game.TOP_ROUNDS + 5))  # d >= width too, and both ranking paths
    wider = d + data.draw(st.integers(0, 4))
    # small matrices are sorted; with no size floor they take the argmax rounds too
    for min_size in (game.ROUNDS_MIN_SIZE, 0):
        with mock.patch.object(game, "ROUNDS_MIN_SIZE", min_size):
            for p, a in [(probs, avail)] + list(zip(probs, avail)):  # a matrix and its single rows
                order = game.top_order(p, a, d)
                assert order.dtype == np.intp
                assert np.array_equal(order, topd_oracle.top_order(p, a, d))
                expected = topd_oracle.top_d(p, a, d)
                # the top-d of a longer order's prefix
                assert np.array_equal(game._top_d(game.top_order(p, a, wider), a, d), expected)
                assert np.array_equal(game.select_top_d(p, a, d).selected, expected)


@pytest.mark.parametrize("width", [23, 182])
def test_top_order_equals_the_stable_argsort_on_scoring_chunks(width):
    assert game.SCORE_CHUNK * width >= game.ROUNDS_MIN_SIZE  # argmax rounds up to TOP_ROUNDS
    rng = np.random.default_rng(width)
    avail = (rng.random((game.SCORE_CHUNK, width)) < 0.1).astype(float)
    avail[:5] = 0.0  # rows without chains
    probs = np.where(avail > 0, np.round(rng.random(avail.shape), 1), 0.0)  # many ties
    probs[7, np.flatnonzero(avail[7])[:2]] = np.nan
    for d in (1, 2, 5, game.TOP_ROUNDS, game.TOP_ROUNDS + 1, 50, width + 1):
        assert np.array_equal(game.top_order(probs, avail, d), topd_oracle.top_order(probs, avail, d))


def test_reward_definition():
    model = zero_generator_model(4, d=2, lambda_s=1.0)
    avail = np.ones(4)
    mask = mask_from_selected(avail, np.array([1.0, 1.0, 0.0, 0.0]))
    assert instance_reward(model, mask, 1, 0) == 1.0
    assert instance_reward(model, mask, 1, 1) == 0.0
    over = mask_from_selected(avail, np.ones(4))
    assert instance_reward(model, over, 1, 1) == pytest.approx(-0.5)


def test_reward_bounds_property():
    rng = np.random.default_rng(0)
    model = build_model(6, 2, 1.0, "mlp", seed=1)
    for _ in range(200):
        avail = (rng.random(6) < 0.6).astype(float)
        sel = (rng.random(6) < 0.5).astype(float)
        mask = mask_from_selected(avail, sel)
        r = instance_reward(model, mask, int(rng.integers(2)), int(rng.integers(2)))
        assert -1.0 - model.lambda_s <= r <= 1.0


def test_mask_validity_property():
    rng_np = np.random.default_rng(2)
    model = build_model(8, 3, 1.0, "mlp", seed=2)
    rng = stream_rng(2, STREAM_SAMPLE)
    for _ in range(100):
        avail = (rng_np.random(8) < 0.5).astype(float)
        inst = instance(avail)
        probs = generator_probs(model, inst)
        for mask in (sample_mask(probs, avail, rng), select_top_d(probs, avail, 3)):
            assert ((mask.selected > 0) <= (avail > 0)).all()
            assert not (mask.selected * mask.complement).any()
            assert np.array_equal(mask.selected + mask.complement, avail)


def test_selection_log_prob_matches_manual():
    model = build_model(5, 2, 1.0, "mlp", seed=4)
    inst = instance([1, 1, 0, 1, 0])
    probs = generator_probs(model, inst)
    mask = mask_from_selected(inst.availability, np.array([1.0, 0.0, 0.0, 1.0, 0.0]))
    manual = np.log(probs[0]) + np.log(1 - probs[1]) + np.log(probs[3])
    assert selection_log_prob(probs, inst.availability, mask) == pytest.approx(manual)


def test_selection_grad_matches_finite_differences():
    model = build_model(6, 2, 1.0, "mlp", seed=5)
    inst = instance([1, 0, 1, 1, 0, 1])
    rng = stream_rng(5, STREAM_SAMPLE)
    probs = generator_probs(model, inst)
    mask = sample_mask(probs, inst.availability, rng)
    grads, _ = selection_grad(model, inst, mask)
    h = 1e-6
    for li, (w, _) in enumerate(model.generator.layers):
        flat = w.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 7)):
            old = flat[k]
            flat[k] = old + h
            up = selection_log_prob(
                generator_probs(model, inst), inst.availability, mask
            )
            flat[k] = old - h
            down = selection_log_prob(
                generator_probs(model, inst), inst.availability, mask
            )
            flat[k] = old
            numeric = -(up - down) / (2 * h)  # selection_grad returns d(-log pi)
            assert grads.layers[li][0].reshape(-1)[k] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


def test_predict_zero_weights_gives_half():
    model = zero_generator_model(4)
    for w, b in model.predictor.layers:
        w[:] = 0.0
        b[:] = 0.0
    assert predict(model, instance([1, 0, 1, 0])) == 0.5


def test_predict_zero_availability_is_constant():
    model = build_model(4, 2, 1.0, "mlp", seed=6)
    empty1 = predict(model, instance([0, 0, 0, 0], head=1))
    empty2 = predict(model, instance([0, 0, 0, 0], head=2))
    assert empty1 == empty2


def make_planted_task(seed=0, n=160, d_input=8):
    """Chain 0 carries the label; the rest is noise."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = int(rng.random() < 0.5)
        avail = (rng.random(d_input) < 0.4).astype(float)
        avail[0] = float(label)
        out.append(Instance(head=i // 4, tail=i, label=label, availability=avail))
    return EncodedTask(
        "planted", d_input, split_of(out[: n // 2]), split_of(out[n // 2 : n // 2 + n // 4]), split_of(out[-n // 4 :])
    )


def test_zero_epochs_returns_initial_model():
    data = make_planted_task()
    result = train_mode(data, TrainConfig(epochs=0, seed=1), "game_mlp", 1)
    assert result.log == []
    assert result.best_epoch == 0
    fresh = build_model(data.size, 1, 1.0, "mlp", seed=1)
    for (w1, _), (w2, _) in zip(result.model.predictor.layers, fresh.predictor.layers):
        assert np.array_equal(w1, w2)
    assert result.best_dev_map == pytest.approx(evaluate_task(fresh, data.dev, group_by="global").map)


def test_training_is_deterministic():
    data = make_planted_task()
    a = train_mode(data, TrainConfig(epochs=4, seed=3), "game_mlp", 1)
    b = train_mode(data, TrainConfig(epochs=4, seed=3), "game_mlp", 1)
    assert [s.as_line() for s in a.log] == [s.as_line() for s in b.log]
    for (w1, _), (w2, _) in zip(a.model.predictor.layers, b.model.predictor.layers):
        assert np.array_equal(w1, w2)


def test_first_batch_loss_is_ln2_with_zero_predictors():
    data = make_planted_task()
    model = build_model(data.size, 1, 1.0, "mlp", seed=0)
    for net in (model.predictor, model.complement):
        for w, b in net.layers:
            w[:] = 0.0
            b[:] = 0.0
    batch = list(data.train)[:20]
    avail = np.stack([inst.availability for inst in batch])
    labels = np.array([inst.label for inst in batch])
    rng = stream_rng(0, STREAM_SAMPLE)
    mask = sample_mask(np.stack([generator_probs(model, inst) for inst in batch]), avail, rng)
    for net, x in ((model.predictor, mask.selected), (model.complement, mask.complement)):
        loss, _ = predictor_gradient(net, DenseParams(net.layers, np.empty_like(net.flat)), x, labels)
        assert loss == pytest.approx(np.log(2), abs=1e-12)


def test_game_learns_planted_signal():
    data = make_planted_task()
    result = train_mode(data, TrainConfig(epochs=120, seed=2, lr=0.01), "game_mlp", 1)
    scores_pos = [predict(result.model, i) for i in data.test if i.label == 1]
    scores_neg = [predict(result.model, i) for i in data.test if i.label == 0]
    assert np.mean(scores_pos) > np.mean(scores_neg) + 0.1


def test_predictor_only_mode():
    data = make_planted_task()
    result = train_mode(data, TrainConfig(epochs=60, seed=2, lr=0.01), "d_all", 1)
    assert result.model.generator is None
    scores_pos = [predict(result.model, i) for i in data.test if i.label == 1]
    scores_neg = [predict(result.model, i) for i in data.test if i.label == 0]
    assert np.mean(scores_pos) > np.mean(scores_neg) + 0.2


def test_single_class_training_set_rejected():
    data = make_planted_task()
    only_pos = EncodedTask(
        "bad", data.size, split_of(i for i in data.train if i.label == 1), data.dev, data.test
    )
    with pytest.raises(DataError):
        train_mode(only_pos, TrainConfig(epochs=1, seed=0), "game_mlp", 1)


def test_sparsity_pressure_reduces_selection():
    data = make_planted_task()
    result = train_mode(data, TrainConfig(epochs=6, seed=4, lr=0.01), "game_mlp", 1, lambda_s=4.0)
    sizes = [s.mean_selected for s in result.log]
    assert sizes[-1] <= sizes[0] + 0.2


def old_row_key(row):
    """The per-row key that ``game._row_keys`` replaced, kept as the reference."""
    nonzero = np.flatnonzero(row)
    return nonzero.tobytes() + row[nonzero].tobytes()


def first_sightings(keys):
    """Each key's first position: two lists are equal exactly when they group rows alike."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.float32, np.float64])
@pytest.mark.parametrize("rows, width", [(0, 5), (1, 1), (7, 3), (40, 8), (256, 40), (300, 200)])
def test_row_keys_group_01_rows_as_the_per_row_keys(rows, width, dtype):
    """0/1 rows of every dtype a split or a network pass holds group as the per-row keys group them:
    equal rows share a key, and no other rows do, across chunk-wide batches and widths that are
    and are not a multiple of 8."""
    rng = np.random.default_rng(rows + width)
    for density in (0.05, 0.3, 0.9):
        x = (rng.random((rows, width)) < density).astype(dtype)
        x[rng.random(rows) < 0.2] = 0  # all-zero rows
        x[rng.random(rows) < 0.1] = 1  # all-one rows
        x[rows // 2 :] = x[: rows - rows // 2][rng.permutation(rows - rows // 2)]  # each repeats a row
        keys = game._row_keys(x)
        assert len(keys) == rows and all(type(key) is bytes for key in keys)
        assert first_sightings(keys) == first_sightings([old_row_key(row) for row in x])
        assert first_sightings(keys) == first_sightings(game._row_keys(x.astype(np.float64)))


@pytest.mark.parametrize("mode", [MODE_GAME, MODE_ALL_CHAINS])
def test_score_chunks_logits_equal_the_per_row_key_path(mode, monkeypatch):
    rng = np.random.default_rng(5)
    availability = (rng.random((2 * game.SCORE_CHUNK + 40, 30)) < 0.15).astype(float)
    boundary = game.SCORE_CHUNK
    availability[[3, boundary + 20, 2 * boundary + 1]] = 0.0
    availability[boundary - 6 : boundary + 6] = availability[:12]  # duplicates on both sides of the cut
    model = build_model(30, 2, 1.0, "mlp", seed=8, mode=mode)

    def logits():
        return np.concatenate([out for *_, out in game.score_chunks(model, availability)])

    new = logits()
    monkeypatch.setattr(game, "_row_keys", lambda x: [old_row_key(row) for row in x])
    old = logits()
    assert np.array_equal(new.view(np.int64), old.view(np.int64))
    for i in range(12):
        assert np.array_equal(new[boundary - 6 + i].view(np.int64), new[i].view(np.int64))
