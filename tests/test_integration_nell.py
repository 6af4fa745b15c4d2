"""Optional integration tier against an externally obtained NELL-995 dataset.

Point KGCHAINS_NELL_DIR at a directory in the task format (graph.tsv plus
tasks/<relation>/{train,test}.pairs, e.g. produced by `kgchains
adapt-deeppath`). The dataset is not bundled, so these runs are skipped by
default.
"""

import os

import numpy as np
import pytest

from kgchains import chains, evaluate, game, graph

NELL_DIR = os.environ.get("KGCHAINS_NELL_DIR")

pytestmark = pytest.mark.skipif(
    not NELL_DIR, reason="set KGCHAINS_NELL_DIR to an adapted NELL-995 root"
)


def build(relation, max_hops=3, seed=0):
    kg = graph.load_triples(os.path.join(NELL_DIR, "graph.tsv"))
    task = graph.load_task(os.path.join(NELL_DIR, "tasks"), relation, kg, seed=seed)
    train = graph.downsample_negatives(task.train, 1.0, seed)
    task = graph.TaskDataset(task.target, task.relation, train, task.dev, task.test)
    positives = [(kg.entity_id(p.head), kg.entity_id(p.tail)) for p in task.train if p.label == 1]
    vocab = chains.build_vocabulary(kg, positives, task.target, max_hops)
    return chains.encode_task(vocab, kg, task), vocab


def test_athleteplayssport_chain_statistics():
    data, vocab = build("concept:athleteplayssport")
    mean = float(np.concatenate([s.availability.sum(axis=1) for s in (data.train, data.dev, data.test)]).mean())
    assert abs(vocab.size - 143) / 143 < 0.30
    assert abs(mean - 3.3) / 3.3 < 0.30


def test_athleteplaysinleague_map():
    data, _ = build("concept:athleteplaysinleague")
    cfg = game.TrainConfig(epochs=300, seed=0, lr=0.001)
    result = evaluate.run_mode(data, cfg, "game_mlp", 5)
    assert result.test_map >= 0.95
