"""Checkpoints for trained models: a UTF-8 text header, then raw float64 bytes.

The header (v5) is the line ``# kgchains checkpoint v5``, ``key = value`` lines sorted by key, each key once,
and ``[end]``. Its fields are the model's five and the caller's meta. After ``[end]`` come the little-endian
float64 bytes of each flat buffer (each layer's row-major weight, then its bias) of the networks that scoring
reads, ``game.SCORED`` of the mode: the generator, if the mode has one, then the predictor. The layer
shapes are not in the file: they are the model's rule, ``game.checked_shapes``, which a file must keep.
Reloading reproduces those networks bit for bit; the complement, which only training reads, is not saved.

Only v5 is read: a file whose first line names another version (v1's decimal rows, v2's base64 lines, v3's
``[net ...]`` shape sections, v4's complement) is a data error naming the file.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DataError
from .game import SCORED, GameModel, checked_shapes
from .neural import DenseParams
from .util import field_lines, not_utf8, read_fields

HEADER = "# kgchains checkpoint v5"
_END = b"[end]\n"


def save_checkpoint(path: str, model: GameModel, meta: dict | None = None) -> None:
    """Write the model's fields, ``meta``'s extra fields (none a model field) and the networks scoring reads."""
    record = {key: getattr(model, key) for key in ("input_dim", "d", "lambda_s", "predictor_arch", "mode")}
    for key in meta or {}:
        if key in record:
            raise ValueError(f"meta key {key!r} is the model's own field")
        record[key] = meta[key]
    header = "\n".join([HEADER, *field_lines(record), "[end]", ""]).encode("utf-8")
    flats = [np.ascontiguousarray(getattr(model, name).flat, "<f8") for name in SCORED[model.mode]]
    with open(path, "wb") as fh:
        fh.writelines([header, *flats])


def load_checkpoint(path: str) -> tuple[GameModel, dict]:
    """Every malformed or truncated file is a ``DataError``.

    The header is read a line at a time through the file's buffer, up to ``[end]``; its lines end at LF, so a
    CRLF header has no ``[end]``. Its fields are checked before the payload, whose size the layer shapes give.
    The payload then goes with one ``readinto`` into one float64 buffer, which the networks view in payload
    order, so a load holds each parameter once, and a file that fits the buffer's first fill costs one read."""
    if not os.path.isfile(path):
        raise DataError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        head = [fh.readline()]
        first = head[0].removesuffix(b"\n").removesuffix(b"\r")
        if first != HEADER.encode():
            if first.startswith(b"# kgchains checkpoint v"):  # v1 to v4 no longer load
                raise DataError(f"unsupported {first[2:].decode('utf-8', 'replace')}: {path}")
            raise DataError(f"not a kgchains checkpoint: {path}")
        while head[-1] and head[-1] != _END:
            head.append(fh.readline())
        if not head[-1]:
            raise DataError(f"truncated checkpoint (no [end]): {path}")
        header = b"".join(head)
        try:
            meta = read_fields(header.decode("utf-8").split("\n")[1:-2], path, 2)
        except UnicodeDecodeError as err:
            raise not_utf8(path, err) from None
        try:
            numbers = int(meta["input_dim"]), int(meta["d"]), float(meta["lambda_s"])
            fields = *numbers, meta["predictor_arch"], meta["mode"]
        except KeyError as err:
            raise DataError(f"checkpoint missing meta key {err}: {path}") from None
        except ValueError as err:  # a number that does not parse
            raise DataError(f"corrupt checkpoint {path}: {err}") from None
        try:
            shapes = checked_shapes(*fields)
        except ValueError as err:  # a model that build_model could not have built
            raise DataError(f"checkpoint meta {err}: {path}") from None
        shapes = {name: shapes[name] for name in SCORED[fields[4]]}  # the networks the file holds
        sizes = [sum(out_dim * in_dim + out_dim for out_dim, in_dim in layers) for layers in shapes.values()]
        need, payload_bytes = 8 * sum(sizes), os.fstat(fh.fileno()).st_size - len(header)
        if payload_bytes == need:
            flat = np.empty(need // 8, "<f8")
            payload_bytes = fh.readinto(flat)  # short only if the file shrank since its size was read
    if payload_bytes != need:
        raise DataError(f"checkpoint payload has {payload_bytes} bytes, its layer shapes need {need}: {path}")
    flat = flat.astype(np.float64, copy=False)  # a copy only on a big-endian host
    nets, offset = {}, 0
    for (name, layers), size in zip(shapes.items(), sizes):
        view = flat[offset : offset + size]
        offset += size
        if not (math.isfinite(view.min()) and math.isfinite(view.max())):  # NaN propagates through both
            raise DataError(f"checkpoint {name} network has a non-finite value: {path}")
        nets[name] = DenseParams([[np.empty((0, *shape)), None] for shape in layers], view)  # empty: shapes only
    return GameModel(*fields, **nets), meta
