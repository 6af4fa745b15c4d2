"""Each library entry point rejects an argument it cannot work on with its own exception and message."""

import re

import numpy as np
import pytest

from kgchains import chains, game, graph, neural, util
from kgchains.benchmark import BenchmarkSpec
from kgchains.errors import DataError


def backward_with_a_batch_of_three_columns():
    params = neural.init_dense(neural.mlp_dims(4), np.random.default_rng(0))
    _, cache = neural.forward(params, np.ones((5, 4)))
    neural.backward(params, cache, np.zeros((5, 3)))


def enumerate_paths_of_no_hops():
    kg = graph.KnowledgeGraph.from_triples([("a", "r", "b")])
    chains.enumerate_paths(kg, 0, 1, 0)


CASES = {
    "benchmark-unknown-rule": (lambda: BenchmarkSpec(rule="bogus"), DataError, "unknown benchmark rule: 'bogus'"),
    "benchmark-noise-1": (lambda: BenchmarkSpec(noise=1.0), DataError, "noise must be in [0, 1)"),
    "benchmark-no-train-group": (lambda: BenchmarkSpec(train_groups=0),
                                 DataError, "need at least one train and one test group"),
    "train-config-batch-0": (lambda: game.TrainConfig(1, batch_size=0), ValueError, "batch_size must be >= 1"),
    "build-model-no-chains": (lambda: game.build_model(0, 1, 1.0),
                              DataError, "empty vocabulary: cannot build a model"),
    "graph-no-triples": (lambda: graph.KnowledgeGraph.from_triples([]), DataError, "no triples"),
    "downsample-ratio-0": (lambda: graph.downsample_negatives([graph.LabeledPair("a", "b", 1)], 0, 0),
                           ValueError, "ratio must be positive"),
    "stream-rng-negative-seed": (lambda: util.stream_rng(-1), ValueError, "seed must be non-negative"),
    "backward-misshaped-dlogits": (backward_with_a_batch_of_three_columns,
                                   ValueError, "dlogits shape does not match the batch and output dimension"),
    "enumerate-paths-0-hops": (enumerate_paths_of_no_hops, ValueError, "max_hops must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejection_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
