"""Seed-stream derivation and small shared helpers.

All randomness in the package flows from one master seed through named
sub-streams, so any component can be re-run or tested against a pinned
stream without replaying the rest of the pipeline.
"""

from __future__ import annotations

import contextlib
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DataError

# Named sub-stream tags. Never renumber: stream identity is part of the
# reproducibility contract for saved artifacts.
STREAM_SPLIT = 1
STREAM_INIT = 2
STREAM_SAMPLE = 3
STREAM_DOWNSAMPLE = 4
STREAM_BENCHMARK = 5
STREAM_SHUFFLE = 6


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for the sub-stream named by ``tags``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(t) for t in tags))
    return np.random.default_rng(ss)


@contextlib.contextmanager
def open_text(path: str) -> Iterator[IO[str]]:
    """Open an input file as UTF-8 text; a byte that does not decode is a
    ``DataError`` that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not UTF-8 text (byte {err.object[err.start]:#04x}: {err.reason})") from None


def write_fields(fh: IO[str], fields: dict) -> None:
    """``key = value`` lines in key order (``meta.txt``, a checkpoint's ``[meta]``)."""
    for key in sorted(fields):
        fh.write(f"{key} = {fields[key]}\n")


def read_fields(lines: Iterable[str], path: str, first_lineno: int = 1) -> dict[str, str]:
    """Inverse of ``write_fields``; blank lines are skipped."""
    fields = {}
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line:
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        fields[key] = value
    return fields
