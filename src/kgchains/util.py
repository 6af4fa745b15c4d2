"""Seed-stream derivation and small shared helpers, for input files among them.

All randomness in the package flows from one master seed through named
sub-streams, so any component can be re-run or tested against a pinned
stream without replaying the rest of the pipeline.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Callable, Iterable, Iterator, NamedTuple

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


_WORDS = 1 << 12  # 8-byte words a pass of ``_parted`` compares, unless it has more spans than that
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # a word's first k bytes, little-endian


def intern_spans(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Ids of the byte spans ``data[starts[i] : starts[i] + lengths[i]]``, equal spans alike, numbered in
    order of first sighting, and the distinct spans decoded from UTF-8, by id; ``data`` runs 8 bytes past
    every span, and the spans are fewer than 2**32 and shorter than 4 GiB.

    Spans group by their bytes, with no hash. A sort on (length, last 8 bytes) makes runs, each led by its
    first span; the others are compared with their lead word by word, with no sort. Those that differ from
    their lead at word m are sorted again on (lead, m, word m), and so on. So a prefix that names share
    costs a compare a word, only the words where names part cost a sort, and each word is read about once."""
    words = np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))
    size, stop = int(lengths.max(initial=0)) // 8 + 2, (lengths - 1) // 8  # stop: words before the last 8 bytes
    lead = np.arange(len(starts))
    todo, group, at = lead, lengths, np.zeros_like(lead)  # spans to sort on (group, at, word)
    word = words[starts + np.maximum(lengths - 8, 0)] & _MASKS[np.minimum(lengths, 8)]
    while len(todo):
        key = group * size + at
        o = np.argsort(word)
        o = o[np.argsort(key[o].astype(np.min_scalar_type(key.max())), kind="stable")]
        todo, key, word, at = todo[o], key[o], word[o], at[o]
        new = np.append(True, (key[1:] != key[:-1]) | (word[1:] != word[:-1]))
        lead[todo] = np.minimum.reduceat(todo, np.flatnonzero(new))[np.cumsum(new) - 1]
        led = (lead[todo] != todo) & (at < stop[todo])  # led, and with words to compare
        todo, at = _parted(words, starts, stop, lead, todo[led], at[led])
        group, word, at = lead[todo], words[starts[todo] + 8 * at], at + 1
    first = lead == np.arange(len(lead))  # a run's lead is its first sighting
    spans = zip(starts[first].tolist(), lengths[first].tolist())
    return (np.cumsum(first) - 1)[lead], [data[a : a + n].decode("utf-8", "surrogatepass") for a, n in spans]


def _parted(words: np.ndarray, starts: np.ndarray, stop: np.ndarray, lead: np.ndarray, span: np.ndarray,
            at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spans that differ from their lead in a word from ``at`` up to ``stop``, and the first such word
    of each; a pass compares about max(_WORDS, spans) words."""
    parted = [(span[:0], at[:0])]
    a, last, lag = starts[span] + 8 * at, starts[span] + 8 * stop[span] - 8, starts[lead[span]] - starts[span]
    while len(span):
        cells = np.minimum(a[:, None] + np.arange(0, 8 * max(1, _WORDS // len(span)), 8), last[:, None])
        diff = words[cells] != words[cells + lag[:, None]]
        differs = diff.any(axis=1)
        done = differs | (cells[:, -1] == last)
        a += 8 * cells.shape[1]
        if done.any():
            cell = cells[differs, diff[differs].argmax(axis=1)]
            parted.append((span[differs], (cell - starts[span[differs]]) // 8))
            span, a, last, lag = span[~done], a[~done], last[~done], lag[~done]
    return tuple(map(np.concatenate, zip(*parted)))


def not_utf8(path: str, err: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not UTF-8 text (byte {err.object[err.start]:#04x}: {err.reason})")


@contextlib.contextmanager
def open_text(path: str) -> Iterator[IO[str]]:
    """Open an input file as UTF-8 text; a byte that does not decode is a
    ``DataError`` that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise not_utf8(path, err) from None


class Table(NamedTuple):
    """The kept lines of a file of n tab-separated fields: row ``i``'s field ``j`` is ``data[bounds[i, j] + 1 :
    bounds[i, j + 1]]``, ``data`` being the file with LF line ends after an LF and before 16 more (room for n + 1
    separators and 8 bytes past them). A ``miscounted`` row has not n fields; its fields are those that follow."""

    path: str
    data: bytes
    bounds: np.ndarray
    miscounted: np.ndarray

    def lengths(self) -> np.ndarray:
        return self.bounds[:, 1:] - self.bounds[:, :-1] - 1

    def text(self, first: int, last: int) -> list[str]:
        """Fields ``first`` to ``last`` of every row, row by row."""
        before, after = self.bounds[:, first], self.bounds[:, last + 1]  # the separators around them
        ends = (after - before).cumsum()  # of each row's fields and the separator after them, joined
        at = np.arange(np.add.reduce(ends[-1:])) + (after + 1 - ends).repeat(after - before)
        joined = np.frombuffer(self.data, np.uint8)[at]
        joined[ends - 1] = ord("\t")
        return joined.tobytes().decode("utf-8").split("\t")[:-1]

    def off_range(self, j: int, low: str, high: str) -> np.ndarray:
        """Rows whose field ``j`` is empty or has a byte outside ``low`` to ``high``, which are above LF."""
        outside = np.frombuffer(self.data, np.uint8) - ord(low) > ord(high) - ord(low)
        # an empty field reduces to the separator after it
        return np.logical_or.reduceat(outside, (self.bounds[:, j : j + 2] + [1, 0]).ravel())[::2]

    def check(self, *checks: tuple[np.ndarray, str | Callable[[int], str]]) -> None:
        """Raise ``path:line: message`` for the first row that fails a check, with its first check's message. A
        check is a mask of failing rows, or of (rows, k) cells failing their row, and a message or a function of it."""
        firsts = [bad.nonzero()[0][0] if np.count_nonzero(bad) else len(bad) for bad, _ in checks]
        row = min(firsts)
        if row < len(self.bounds):
            message = checks[firsts.index(row)][1]
            line = self.data.count(b"\n", 0, self.bounds[row, 0] + 1)  # with the LF before the file
            raise DataError(f"{self.path}:{line}: {message(row) if callable(message) else message}")


def read_table(path: str, what: str, n: int, comments: bool = False) -> Table:
    """The lines of ``n`` tab-separated fields of a UTF-8 file, read as bytes with one open. A byte that is
    not UTF-8 is an error before any line is. Lines end at LF, CR or CRLF; blank lines are skipped, and
    with ``comments`` so are lines that start with ``#``. A missing file is a "``what`` not found" error."""
    if not os.path.isfile(path):
        raise DataError(f"{what} not found: {path}")
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise not_utf8(path, err) from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    data = b"".join((b"\n", raw, b"\n" * 16))
    del raw  # the file is held once while the masks below are made
    text = np.frombuffer(data, np.uint8)
    seps = ((text == 9) | (text == 10)).nonzero()[0]  # tabs and LFs
    ends = (text[seps] == 10).nonzero()[0]  # the LFs, as indices into seps
    lfs = seps[ends]
    kept = lfs[1:] - lfs[:-1] > 1  # not blank
    if comments:
        kept &= text[lfs[:-1] + 1] != ord("#")
    before = ends[:-1][kept]  # the LF before each row
    miscounted = ends[1:][kept] - before != n
    bounds = np.ndarray((len(seps) - n, n + 1), seps.dtype, seps, 0, seps.strides * 2)[before]  # each row's seps
    return Table(path, data, bounds, miscounted)


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write a text artifact in one call: UTF-8, each line ended by LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([*lines, ""]))


def field_lines(fields: dict) -> list[str]:
    """``key = value`` lines in key order (``meta.txt``, a checkpoint's header). A field that ``read_fields``
    would not read back as written (a key with `` = ``, a line break) is a ``ValueError``."""
    lines = [f"{key} = {fields[key]}" for key in sorted(fields)]
    for key, line in zip(sorted(fields), lines):
        if line.partition(" = ")[0] != key or "\n" in line or "\r" in line:
            raise ValueError(f"field {key!r} = {fields[key]!r} would not read back")
    return lines


def read_fields(lines: Iterable[str], path: str, first_lineno: int = 1) -> dict[str, str]:
    """Inverse of ``field_lines``; blank lines are skipped, and a key read twice is an error at its second line."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line:
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        if key in fields:
            raise DataError(f"{path}:{lineno}: repeated key {key!r}")
        fields[key] = value
    return fields
