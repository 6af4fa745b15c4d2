"""Checkpoints for trained models: a UTF-8 text header, then raw float64 bytes.

The header (v3) is a ``[meta]`` section of ``key = value`` lines, each key once, one
``[net ...]`` section per present network giving ``layers = n`` and one
``layer i out in`` shape line per layer, and ``[end]``. After ``[end]`` come
the little-endian float64 bytes of each network's flat buffer (each layer's
row-major weight, then its bias), in section order: generator, predictor,
complement. Reloading reproduces the weights bit for bit. A network's name is
one of those three, at most once; which ones a model has, and in what shapes,
is ``GameModel``'s rule, and breaking it is a data error too.

Only v3 is read: a file whose first line names another version (v1's decimal
rows, v2's base64 lines) is a data error naming the file.
"""

from __future__ import annotations

import io
import math
import os

import numpy as np

from .errors import DataError
from .game import GameModel
from .neural import DenseParams
from .util import field_lines, not_utf8, read_fields

HEADER = "# kgchains checkpoint v3"
_END = b"[end]\n"

_REQUIRED_META = ("input_dim", "d", "lambda_s", "predictor_arch", "mode")
_NETS = ("generator", "predictor", "complement")  # the sections' order, and the payload's


def save_checkpoint(path: str, model: GameModel, meta: dict | None = None) -> None:
    """Write the model and ``meta``'s extra ``[meta]`` fields, which may not set a model field."""
    record = {key: getattr(model, key) for key in _REQUIRED_META}
    for key in meta or {}:
        if key in record:
            raise ValueError(f"meta key {key!r} is the model's own field")
        record[key] = meta[key]
    nets = [(name, getattr(model, name)) for name in _NETS if getattr(model, name) is not None]
    lines = [HEADER, "[meta]", *field_lines(record)]
    for name, net in nets:
        lines += [f"[net {name}]", f"layers = {len(net.layers)}"]
        lines += [f"layer {i} {out_dim} {in_dim}" for i, (out_dim, in_dim) in enumerate(net.shapes)]
    header = "\n".join([*lines, "[end]", ""]).encode("utf-8")
    with open(path, "wb") as fh:
        fh.writelines([header, *(np.ascontiguousarray(net.flat, "<f8") for _, net in nets)])


def _parse_net(lines: list[str], pos: int, path: str) -> tuple[list, int]:
    """A ``[net]`` section's layer shapes."""
    if not lines[pos].startswith("layers = "):
        raise DataError(f"{path}:{pos + 1}: expected the layer count")
    n_layers = int(lines[pos].split("=")[1])
    if n_layers < 1:
        raise DataError(f"{path}:{pos + 1}: a network needs at least one layer")
    pos += 1
    shapes = []
    for _ in range(n_layers):
        fields = lines[pos].split()
        if len(fields) != 4 or fields[0] != "layer":
            raise DataError(f"{path}:{pos + 1}: malformed layer header")
        out_dim, in_dim = int(fields[2]), int(fields[3])
        if out_dim < 1 or in_dim < 1:
            raise DataError(f"{path}:{pos + 1}: layer shape must be positive")
        shapes.append((out_dim, in_dim))
        pos += 1
    return shapes, pos


def load_checkpoint(path: str) -> tuple[GameModel, dict]:
    """Every malformed or truncated file is a ``DataError``.

    The header is read a line at a time through the file's buffer, up to ``[end]`` or the end of
    the file; its lines end at LF, so a CRLF header is malformed. The payload then goes with one
    ``readinto`` into one float64 buffer, which the networks view in payload order [generator |
    predictor | complement], so a load holds each parameter once, and a file that fits the
    buffer's first fill costs one read."""
    if not os.path.isfile(path):
        raise DataError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        head = [fh.readline()]
        first = head[0].removesuffix(b"\n").removesuffix(b"\r")
        if first != HEADER.encode():
            if first.startswith(b"# kgchains checkpoint v"):  # v1 (decimal rows) and v2 (base64 lines) no longer load
                raise DataError(f"unsupported {first[2:].decode('utf-8', 'replace')}: {path}")
            raise DataError(f"not a kgchains checkpoint: {path}")
        while head[-1] and head[-1] != _END:
            head.append(fh.readline())
        header = b"".join(head)
        try:
            lines = header.decode("utf-8").removesuffix("\n").split("\n")
        except UnicodeDecodeError as err:
            raise not_utf8(path, err) from None
        try:
            return _parse_checkpoint(lines, path, fh, os.fstat(fh.fileno()).st_size - len(header))
        except IndexError:  # a section ran past the last line
            raise DataError(f"truncated checkpoint: {path}") from None
        except ValueError as err:  # a count, dimension or number that does not parse
            raise DataError(f"corrupt checkpoint {path}: {err}") from None


def _parse_checkpoint(lines: list[str], path: str, fh: io.BufferedReader, payload_bytes: int) -> tuple[GameModel, dict]:
    """``fh`` is at the start of the payload, the ``payload_bytes`` after the header."""
    meta: dict[str, str] = {}
    sections: list[tuple[str, list]] = []
    pos = 1
    while pos < len(lines):
        line = lines[pos]
        if line == "[meta]":
            end = pos + 1
            while end < len(lines) and not lines[end].startswith("["):
                end += 1
            read_fields(lines[pos + 1 : end], path, pos + 2, meta)
            pos = end
        elif line.startswith("[net ") and line.endswith("]"):
            name = line[len("[net ") : -1]
            if name not in _NETS or name in dict(sections):
                raise DataError(f"{path}:{pos + 1}: {'repeated' if name in _NETS else 'unknown'} network {line}")
            shapes, pos = _parse_net(lines, pos + 1, path)
            sections.append((name, shapes))
        elif line == "[end]":
            break
        else:
            raise DataError(f"{path}:{pos + 1}: expected a section header")
    else:
        raise DataError(f"truncated checkpoint (no [end]): {path}")

    sizes = [sum(out_dim * in_dim + out_dim for out_dim, in_dim in shapes) for _, shapes in sections]
    need = 8 * sum(sizes)
    if payload_bytes == need:
        flat = np.empty(need // 8, "<f8")
        payload_bytes = fh.readinto(flat)  # short only if the file shrank since its size was read
    if payload_bytes != need:
        raise DataError(f"checkpoint payload has {payload_bytes} bytes, its layer shapes need {need}: {path}")
    flat = flat.astype(np.float64, copy=False)  # a copy only on a big-endian host
    nets: dict[str, DenseParams | None] = dict.fromkeys(_NETS)
    offset = 0
    for (name, shapes), size in zip(sections, sizes):
        view = flat[offset : offset + size]
        offset += size
        if not (math.isfinite(view.min()) and math.isfinite(view.max())):  # NaN propagates through both
            raise DataError(f"checkpoint {name} network has a non-finite value: {path}")
        nets[name] = DenseParams([[np.empty((0, *shape)), None] for shape in shapes], view)  # empty: shapes only

    for key in _REQUIRED_META:
        if key not in meta:
            raise DataError(f"checkpoint missing meta key {key!r}: {path}")
    input_dim, d, lambda_s = int(meta["input_dim"]), int(meta["d"]), float(meta["lambda_s"])
    try:
        model = GameModel(input_dim, d, lambda_s, meta["predictor_arch"], meta["mode"], **nets)
    except ValueError as err:  # a model that build_model could not have built
        raise DataError(f"checkpoint meta {err}: {path}") from None
    return model, meta
