"""Test-split evaluation: MAP over query groups, and ``run_mode``, which trains one run mode
with ``game.train_mode`` and evaluates it."""

from __future__ import annotations

from dataclasses import dataclass

from .chains import EncodedTask, Split
from .errors import DataError
from .game import GameModel, TrainConfig, TrainResult, score_instances, train_mode
from .metrics import mean_average_precision


@dataclass
class EvalReport:
    map: float
    skipped: int = 0


def evaluate_task(model: GameModel, split: Split) -> EvalReport:
    """Score every row of the split with the model and report MAP over its head groups.

    Groups without a positive are excluded from the mean and counted in
    the report.
    """
    if not split:
        raise DataError("empty test set")
    scores = score_instances(model, split.availability)
    return EvalReport(*mean_average_precision(split.heads, scores, split.labels))


@dataclass(kw_only=True)
class ModeResult(TrainResult):
    """A run mode's training result and its test report."""

    report: EvalReport

    @property
    def test_map(self) -> float:
        return self.report.map


def run_mode(data: EncodedTask, config: TrainConfig, mode: str, d: int, lambda_s: float = 1.0) -> ModeResult:
    """Train one ablation mode and evaluate it on the task's test split, ranked per head."""
    result = train_mode(data, config, mode, d, lambda_s)
    return ModeResult(**vars(result), report=evaluate_task(result.model, data.test))
