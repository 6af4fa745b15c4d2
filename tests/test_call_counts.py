"""Call-count pins: the Python and C calls a fixed piece of work makes.

Wall time on a shared machine moves by several percent on code that did not
change, while the number of calls a pass makes does not move at all. So a
pin counts the ``call`` and ``c_call`` events that ``sys.setprofile`` sees
during the work, and a change that adds a numpy call to a pinned path fails
here, on any machine.

The scope of each assertion is chosen up front:

- Exact counts hold for one (Python, numpy) version pair only, the one
  recorded in ``RECORDED``: another numpy may implement a function in Python
  or in C. On that pair the counts must equal the pinned ones exactly.
- On any pair the invariants must hold: the same count at two widths (a pass
  over a wider vocabulary makes no more calls), or for a reader on files of
  different lengths, and the same count on every repeat (no warm-up at this
  level). The chain walk's count grows with its graph, whose layers it takes
  in chunks, so for it only the repeat invariant holds.

A change that moves a pinned count updates it here and states the delta in
``CHANGES.md``, as a change to an artifact's bits is stated. The scope above
is this module's, and no change may narrow it to hide a regression.
"""

import platform
import sys

import numpy as np
import pytest

from kgchains import chains, game, graph
from kgchains.checkpoint import load_checkpoint, save_checkpoint
from kgchains.cli import main

RECORDED = ("3.11.7", "2.4.6")  # (Python, numpy) of the exact counts below
ROWS = 700  # three SCORE_CHUNK chunks, the last one short
BATCH = 20  # the CLI's default --batch-size
WIDTHS = (23, 300)
REPEATS = 3


def count_calls(fn) -> tuple[int, int]:
    """(Python calls, C calls) that ``fn()`` makes, generator resumptions among the former."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def scoring_counts(mode: str, width: int) -> list[tuple[int, int]]:
    """The counts of each of REPEATS ``score_chunks`` passes over a ROWS-row 0/1 matrix. Every chunk of
    it holds a predictor input that no earlier row had, so every chunk runs the predictor."""
    rng = np.random.default_rng(width)
    availability = (rng.random((ROWS, width)) < 0.15).astype(np.uint8)
    model = game.build_model(width, 2, 1.0, game.ARCH_MLP, seed=1, mode=mode)
    return [count_calls(lambda: list(game.score_chunks(model, availability))) for _ in range(REPEATS)]


def assert_pinned(counts: dict[object, list[tuple[int, int]]], pinned: tuple[int, int]) -> None:
    """Each case's repeats made the same calls, and every case alike; on the RECORDED pair, ``pinned``."""
    assert all(len(set(repeats)) == 1 for repeats in counts.values()), counts  # every repeat alike
    assert len({repeats[0] for repeats in counts.values()}) == 1, counts  # and every case
    if (platform.python_version(), np.__version__) == RECORDED:
        assert next(iter(counts.values()))[0] == pinned, next(iter(counts.values()))[0]


# (Python, C) calls of one score_chunks pass on the RECORDED pair
SCORING = {game.MODE_GAME: (77, 130), game.MODE_ALL_CHAINS: (35, 64)}


@pytest.mark.parametrize("mode", [game.MODE_GAME, game.MODE_ALL_CHAINS])
def test_scoring_pass_call_counts(mode):
    assert_pinned({width: scoring_counts(mode, width) for width in WIDTHS}, SCORING[mode])


CONFIG = game.TrainConfig(epochs=1, seed=1)
# each training step's maker, from the input width, and its (Python, C) calls a step on the RECORDED pair
STEPS = {
    "game": (lambda width: game._game_step(game.build_model(width, 2, 1.0, game.ARCH_MLP, seed=1), CONFIG), (36, 56)),
    "predictor_only": (lambda width: game._predictor_only_step(
        game.build_model(width, 1, 0.0, game.ARCH_MLP, seed=1, mode=game.MODE_ALL_CHAINS), CONFIG), (19, 28)),
}


def step_counts(make_step, width: int) -> list[tuple[int, int]]:
    """The counts of each of REPEATS steps on one BATCH-row batch of float64 0/1 rows, as ``game._fit`` passes."""
    rng = np.random.default_rng(width)
    batch = (rng.random((BATCH, width)) < 0.3).astype(np.float64)
    labels = np.arange(BATCH) % 2
    step = make_step(width)
    return [count_calls(lambda: step(batch, labels)) for _ in range(REPEATS)]


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_training_step_call_counts(kind):
    make_step, pinned = STEPS[kind]
    assert_pinned({width: step_counts(make_step, width) for width in WIDTHS}, pinned)


@pytest.fixture(scope="module")
def conj_train(tmp_path_factory):
    """The seed-5 artifacts of the conj-train benchmark workload: the default conjunction benchmark, at k=2."""
    root = tmp_path_factory.mktemp("conj-train")
    assert main(["benchmark", "--kind", "conjunction", "--out", str(root / "inputs"), "--seed", "5"]) == 0
    assert main(["extract", "--graph", str(root / "inputs" / "graph.tsv"), "--tasks", str(root / "inputs" / "tasks"),
                 "--relation", "target", "--out", str(root), "--max-hops", "2", "--seed", "5"]) == 0
    return root / "target"


def reads(read, path) -> list[tuple[int, int]]:
    path = str(path)  # a Path's str() would count as a call of its own
    return [count_calls(lambda: read(path)) for _ in range(REPEATS)]


def test_instance_cache_read_call_counts(conj_train):
    # 100, 160 and 40 rows
    assert_pinned({split: reads(chains.read_instances, conj_train / f"{split}.inst")
                   for split in ("test", "train", "dev")}, (17, 43))


def test_vocabulary_read_call_counts(conj_train):
    assert_pinned({"vocab.tsv": reads(chains.read_vocabulary_names, conj_train / "vocab.tsv")}, (11, 32))


def split(rows: int, width: int, rng) -> chains.Split:
    """``rows`` random 0/1 rows of ``width`` chains, a third of them available, labels alternating."""
    availability = (rng.random((rows, width)) < 0.3).astype(np.uint8)
    return chains.Split(list(range(rows)), list(range(rows)), np.arange(rows) % 2, availability)


# (Python, C) calls of a one-epoch ``_fit`` on the RECORDED pair: its set-up (a clone and a dev pass), then one
# epoch of 3 BATCH-row steps and a dev pass over 150 rows, enough for top-d by argmax rounds at both WIDTHS. At
# lr = 0 no weight moves, so dev quality ties and the epoch copies no checkpoint, a branch whose count would
# otherwise depend on the data.
FIT = {game.MODE_GAME: (239, 371), game.MODE_ALL_CHAINS: (139, 219)}


def fit_counts(mode: str, width: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(width)
    data = chains.EncodedTask("target", width, split(3 * BATCH, width, rng), split(150, width, rng), split(0, width, rng))
    config = game.TrainConfig(epochs=1, lr=0.0, seed=1)
    counts = []
    for _ in range(REPEATS):
        model = game.build_model(width, 2, 1.0, game.ARCH_MLP, seed=1, mode=mode)
        step = (game._game_step if mode == game.MODE_GAME else game._predictor_only_step)(model, config)
        shuffle = np.random.default_rng(0)
        counts.append(count_calls(lambda: game._fit(data, config, model, step, shuffle)))
    return counts


@pytest.mark.parametrize("mode", [game.MODE_GAME, game.MODE_ALL_CHAINS])
def test_one_epoch_fit_call_counts(mode):
    assert_pinned({width: fit_counts(mode, width) for width in WIDTHS}, FIT[mode])


# (Python, C) calls of a ``load_checkpoint`` on the RECORDED pair, of a checkpoint with the extra fields
# ``kgchains train`` writes
LOAD = {game.MODE_GAME: (67, 140), game.MODE_ALL_CHAINS: (33, 96)}
TRAIN_META = {"relation": "target", "run_mode": "game_mlp", "seed": 5, "epochs": 12, "best_epoch": 7,
              "best_dev_map": "0.812500", "max_hops": 2, "vocab": "vocab.tsv"}


@pytest.mark.parametrize("mode", [game.MODE_GAME, game.MODE_ALL_CHAINS])
def test_checkpoint_load_call_counts(tmp_path, mode):
    counts = {}
    for width in WIDTHS:
        path = tmp_path / f"checkpoint.{width}.txt"
        save_checkpoint(str(path), game.build_model(width, 2, 1.0, game.ARCH_MLP, seed=1, mode=mode), TRAIN_META)
        counts[width] = reads(load_checkpoint, path)
    assert_pinned(counts, LOAD[mode])


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The README walkthrough's graph and its task, split as ``extract --seed 7`` splits it."""
    root = tmp_path_factory.mktemp("walkthrough")
    assert main(["benchmark", "--kind", "conjunction", "--out", str(root), "--seed", "7"]) == 0
    kg = graph.load_triples(str(root / "graph.tsv"))
    return kg, graph.load_task(str(root / "tasks"), "target", kg, seed=7)


def test_chain_walk_call_counts(walkthrough):
    """One ``chains._walks`` over every split's pairs at k=3, as ``extract --max-hops 3`` makes it."""
    kg, task = walkthrough
    ids = chains._ids(kg, task.train + task.dev + task.test)
    counts = [count_calls(lambda: chains._walks(kg, ids, 3, task.target)) for _ in range(REPEATS)]
    assert_pinned({"walkthrough": counts}, (745, 679))
