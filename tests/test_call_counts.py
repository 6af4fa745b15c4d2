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
  over a wider vocabulary makes no more calls), and the same count on every
  repeat (no warm-up at this level).

A change that moves a pinned count updates it here and states the delta in
``CHANGES.md``, as a change to an artifact's bits is stated. The scope above
is this module's, and no change may narrow it to hide a regression.
"""

import platform
import sys

import numpy as np
import pytest

from kgchains import game

RECORDED = ("3.11.7", "2.4.6")  # (Python, numpy) of the exact counts below
ROWS = 700  # three SCORE_CHUNK chunks, the last one short
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


# (Python, C) calls of one score_chunks pass on the RECORDED pair
SCORING = {game.MODE_GAME: (77, 130), game.MODE_ALL_CHAINS: (35, 64)}


@pytest.mark.parametrize("mode", [game.MODE_GAME, game.MODE_ALL_CHAINS])
def test_scoring_pass_call_counts(mode):
    counts = {width: scoring_counts(mode, width) for width in WIDTHS}
    assert all(len(set(repeats)) == 1 for repeats in counts.values()), counts  # every repeat alike
    assert len({repeats[0] for repeats in counts.values()}) == 1, counts  # and every width
    if (platform.python_version(), np.__version__) == RECORDED:
        assert counts[WIDTHS[0]][0] == SCORING[mode]
