"""The line-by-line readers of the four tab-separated formats, the references for ``util.read_table`` and
its callers (``graph.load_triples``, ``graph._read_pairs``, ``chains.read_vocabulary_names`` and
``chains.read_instances``), a comparison of two splits, and the line-by-line cache writer, the reference for
``chains.write_instances``.

Each reader decodes the whole file before it looks at a line, so a byte that is not UTF-8 is the error at
any file size, and counts lines as text mode does: LF, CR and CRLF each end one line."""

import os

import numpy as np

from kgchains.chains import Split
from kgchains.errors import DataError
from kgchains.graph import NOT_INVOLUTIVE, LabeledPair
from kgchains.util import open_text


def numbered_lines(path, what):
    """``(line number, line)`` of every line of ``path``, a ``what`` that must exist."""
    if not os.path.isfile(path):
        raise DataError(f"{what} not found: {path}")
    with open_text(path) as fh:
        return enumerate(fh.read().split("\n"), start=1)


def reference_read_triples(path):
    """The (head, relation, tail) lines of a triples file; ``#`` lines and blank lines are skipped."""
    triples = []
    for lineno, line in numbered_lines(path, "triples file"):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not all(fields):
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        if fields[1].endswith(NOT_INVOLUTIVE):
            raise DataError(f"{path}:{lineno}: relation {fields[1]!r} ends in {NOT_INVOLUTIVE!r}")
        triples.append(tuple(fields))
    if not triples:
        raise DataError(f"no triples in {path}")
    return triples


def reference_read_pairs(path):
    pairs = []
    for lineno, line in numbered_lines(path, "pairs file"):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not all(fields):
            raise DataError(f"{path}:{lineno}: expected head TAB tail TAB label")
        if fields[2] not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: label must be '0' or '1', got {fields[2]!r}")
        pairs.append(LabeledPair(fields[0], fields[1], int(fields[2])))
    return pairs


def reference_read_vocabulary_names(path):
    names, supports = [], []
    for lineno, line in numbered_lines(path, "vocabulary file"):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not (fields[1].isascii() and fields[1].isdigit()):
            raise DataError(f"{path}:{lineno}: expected index TAB support TAB chain")
        names.append(fields[2])
        supports.append(int(fields[1]))
    return names, supports


def reference_read_instances(path, expected_size=None):
    rows = []
    width = expected_size
    for lineno, line in numbered_lines(path, "instance cache"):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4 or fields[2] not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: malformed instance line")
        if fields[3].strip("01"):
            raise DataError(f"{path}:{lineno}: availability must be a 0/1 string")
        width = len(fields[3]) if width is None else width
        if len(fields[3]) != width:
            against = "first row's length" if expected_size is None else "vocabulary size"
            raise DataError(f"{path}:{lineno}: availability length {len(fields[3])} != {against} {width}")
        rows.append(fields)
    heads, tails, labels, bits = map(list, zip(*rows)) if rows else ([], [], [], [])
    flat = np.frombuffer("".join(bits).encode("ascii"), np.uint8) - ord("0")
    availability = flat.reshape(len(rows), width or 0)
    return Split(heads, tails, np.array(labels, dtype=np.int64), availability)


def assert_same_split(a, b):
    assert (a.heads, a.tails) == (b.heads, b.tails)
    assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)
    assert a.availability.dtype == b.availability.dtype and a.availability.shape == b.availability.shape
    assert a.availability.flags.c_contiguous and a.availability.tobytes() == b.availability.tobytes()


def reference_write_instances(path, split, graph):
    def name(value):
        return value if isinstance(value, str) else graph.entity_names[value]

    width = split.availability.shape[1]
    bits = ((split.availability > 0).astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        for i, (head, tail, label) in enumerate(zip(split.heads, split.tails, split.labels.tolist())):
            fh.write(f"{name(head)}\t{name(tail)}\t{label}\t{bits[i * width : (i + 1) * width]}\n")
