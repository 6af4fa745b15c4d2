"""Task evaluation and the ablation run modes."""

from __future__ import annotations

from dataclasses import dataclass

from .chains import EncodedTask, Split
from .errors import DataError
from .game import (
    ARCH_LINEAR,
    ARCH_MLP,
    GameModel,
    TrainConfig,
    TrainResult,
    score_instances,
    train_fixed_generator,
    train_predictor_only,
    train_task,
)
from .metrics import mean_average_precision

MODE_GAME_MLP = "game_mlp"
MODE_GAME_LINEAR = "game_linear"
MODE_D_ALL = "d_all"
MODE_SINGLE_CHAIN_GEN = "single_chain_gen"
ALL_MODES = (MODE_GAME_MLP, MODE_GAME_LINEAR, MODE_D_ALL, MODE_SINGLE_CHAIN_GEN)


@dataclass
class EvalReport:
    map: float
    skipped: int = 0


def evaluate_task(model: GameModel, split: Split, group_by: str = "head") -> EvalReport:
    """Score every row of the split with the model and report MAP over query groups.

    Groups without a positive are excluded from the mean and counted in
    the report.
    """
    if not split:
        raise DataError("empty test set")
    scores = score_instances(model, split.availability)
    return EvalReport(*mean_average_precision(split.heads, scores, split.labels, group_by))


@dataclass
class ModeResult:
    mode: str
    d: int
    test_map: float
    model: GameModel
    log: list
    report: EvalReport
    best_epoch: int
    best_dev_map: float


def train_single_chain_gen(
    data: EncodedTask,
    config: TrainConfig,
    d: int,
    predictor_arch: str = ARCH_MLP,
    lambda_s: float = 1.0,
) -> TrainResult:
    """Two-stage baseline: train a d=1 game, then fit a fresh predictor on
    deterministic top-d selections from the frozen stage-one generator."""
    stage_one = train_task(data, config, d=1, predictor_arch=predictor_arch, lambda_s=lambda_s)
    assert stage_one.model.generator is not None
    return train_fixed_generator(data, config, stage_one.model.generator, d, predictor_arch)


def train_mode(
    data: EncodedTask,
    config: TrainConfig,
    mode: str,
    d: int,
    lambda_s: float = 1.0,
) -> TrainResult:
    """Train under one ablation mode without touching the test split."""
    if mode == MODE_GAME_MLP:
        return train_task(data, config, d, ARCH_MLP, lambda_s)
    if mode == MODE_GAME_LINEAR:
        return train_task(data, config, d, ARCH_LINEAR, lambda_s)
    if mode == MODE_D_ALL:
        return train_predictor_only(data, config)
    if mode == MODE_SINGLE_CHAIN_GEN:
        return train_single_chain_gen(data, config, d, ARCH_MLP, lambda_s)
    raise DataError(f"unknown run mode: {mode!r}")


def run_mode(
    data: EncodedTask,
    config: TrainConfig,
    mode: str,
    d: int,
    lambda_s: float = 1.0,
    group_by: str = "head",
) -> ModeResult:
    """Train one ablation mode and evaluate it on the task's test split."""
    result = train_mode(data, config, mode, d, lambda_s)
    report = evaluate_task(result.model, data.test, group_by=group_by)
    return ModeResult(
        mode=mode,
        d=d,
        test_map=report.map,
        model=result.model,
        log=result.log,
        report=report,
        best_epoch=result.best_epoch,
        best_dev_map=result.best_dev_map,
    )
