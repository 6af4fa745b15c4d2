from unittest import mock

import numpy as np
import pytest

from kgchains import evaluate, game
from kgchains.chains import EncodedTask, Instance
from kgchains.errors import DataError
from kgchains.evaluate import evaluate_task, run_mode
from kgchains.game import ALL_MODES, GameModel, TrainConfig, build_model, score_instances, train_mode
from kgchains.metrics import mean_average_precision
from kgchains.neural import DenseParams

from splits import split_of


def scripted_model(score_of):
    """GameModel whose predict() is driven by a hand-made linear predictor."""
    # identity trick: availability dot weights -> logit gap
    d = len(score_of)
    w = np.zeros((2, d))
    w[1] = np.array(score_of)
    return GameModel(
        input_dim=d,
        d=d,
        lambda_s=0.0,
        predictor_arch="linear",
        mode="d_all",
        predictor=DenseParams(layers=[[w, np.zeros(2)]]),
    )


def inst(head, label, bits, d=4):
    avail = np.zeros(d)
    for b in bits:
        avail[b] = 1.0
    return Instance(head=head, tail=0, label=label, availability=avail)


def test_perfect_scorer_gives_map_one():
    model = scripted_model([5.0, 0.0, 0.0, 0.0])  # bit 0 decides
    instances = [
        inst("a", 1, [0]), inst("a", 0, [1]), inst("b", 1, [0, 2]), inst("b", 0, [3]),
    ]
    report = evaluate_task(model, split_of(instances))
    assert report.map == 1.0
    assert report.skipped == 0


def test_constant_scorer_matches_stable_order_oracle():
    model = scripted_model([0.0, 0.0, 0.0, 0.0])
    instances = [
        inst("a", 0, [1]), inst("a", 1, [0]),
        inst("b", 1, [2]), inst("b", 0, [3]), inst("b", 1, [1]),
    ]
    report = evaluate_task(model, split_of(instances))
    # constant scores keep input order: group a has its positive second,
    # group b has positives at ranks 1 and 3
    expected_a = 1 / 2
    expected_b = (1 / 1 + 2 / 3) / 2
    assert report.map == pytest.approx((expected_a + expected_b) / 2)


def test_groups_without_positives_are_skipped_and_counted():
    model = scripted_model([1.0, 0.0, 0.0, 0.0])
    instances = [inst("a", 1, [0]), inst("b", 0, [1]), inst("b", 0, [2])]
    report = evaluate_task(model, split_of(instances))
    assert report.skipped == 1
    assert report.map == 1.0


def test_empty_test_set_errors():
    model = scripted_model([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DataError, match="empty test set"):
        evaluate_task(model, split_of([], 4))


def test_global_grouping():
    model = scripted_model([1.0, 0.0, 0.0, 0.0])
    split = split_of([inst("a", 1, [0]), inst("b", 0, [1])])
    scores = score_instances(model, split.availability)
    assert mean_average_precision([None] * len(split), scores, split.labels) == (1.0, 0)  # one group
    assert evaluate_task(model, split).skipped == 1  # by head, "b" has no positive


def make_task(seed=0, n=120, d_input=8):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = int(rng.random() < 0.5)
        avail = (rng.random(d_input) < 0.4).astype(float)
        avail[0] = float(label)
        out.append(Instance(head=i // 4, tail=i, label=label, availability=avail))
    return EncodedTask("synthetic", d_input, split_of(out[:72]), split_of(out[72:96]), split_of(out[96:]))


def test_unknown_mode_rejected():
    data = make_task()
    with pytest.raises(DataError, match="unknown run mode"):
        train_mode(data, TrainConfig(epochs=1, seed=0), "bogus", 2)


def test_one_trainer_serves_every_mode():
    assert evaluate.train_mode is game.train_mode
    for name in ("train_task", "train_predictor_only", "train_fixed_generator"):
        assert not hasattr(game, name)
    for name in ("train_single_chain_gen", "ALL_MODES"):
        assert not hasattr(evaluate, name)


@pytest.mark.parametrize("mode", ["game_mlp", "game_linear", "single_chain_gen"])
def test_d_below_one_is_rejected_before_training(mode, monkeypatch):
    monkeypatch.setattr(game, "_fit", mock.Mock(side_effect=AssertionError("trained")))
    with pytest.raises(ValueError, match="^d must be >= 1$"):
        train_mode(make_task(), TrainConfig(epochs=1, seed=0), mode, 0)


def test_d_all_ignores_d():
    assert train_mode(make_task(), TrainConfig(epochs=1, seed=0), "d_all", 0).model.d == 1


@pytest.mark.parametrize("mode", ALL_MODES)
def test_all_modes_run_and_evaluate(mode):
    data = make_task()
    result = run_mode(data, TrainConfig(epochs=2, seed=1), mode, 2)
    assert 0.0 <= result.test_map <= 1.0
    if mode == "d_all":
        assert result.model.generator is None
    else:
        assert result.model.generator is not None


def test_single_chain_gen_freezes_stage_one_generator():
    data = make_task()
    cfg = TrainConfig(epochs=3, seed=2)
    stage_one = train_mode(data, cfg, "game_mlp", 1)
    combined = train_mode(data, cfg, "single_chain_gen", 2)
    for (w1, _), (w2, _) in zip(
        stage_one.model.generator.layers, combined.model.generator.layers
    ):
        assert np.array_equal(w1, w2)
    assert combined.model.complement is None
    assert combined.model.d == 2
