"""The line-by-line instance-cache reader and writer, the references for the bulk
``chains.read_instances`` and ``chains.write_instances``."""

import os

import numpy as np

from kgchains.chains import Split
from kgchains.errors import DataError
from kgchains.util import open_text


def reference_read_instances(path, expected_size=None):
    if not os.path.isfile(path):
        raise DataError(f"instance cache not found: {path}")
    rows = []
    width = expected_size
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
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
    availability = flat.reshape(len(rows), width or 0).astype(np.float64)
    return Split(heads, tails, np.array(labels, dtype=np.int64), availability)


def reference_write_instances(path, split, graph):
    def name(value):
        return value if isinstance(value, str) else graph.entity_name(value)

    width = split.availability.shape[1]
    bits = ((split.availability > 0).astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        for i, (head, tail, label) in enumerate(zip(split.heads, split.tails, split.labels.tolist())):
            fh.write(f"{name(head)}\t{name(tail)}\t{label}\t{bits[i * width : (i + 1) * width]}\n")
