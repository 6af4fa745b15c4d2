"""Sectioned text checkpoints for trained models.

The envelope is plain UTF-8: a ``[meta]`` section of ``key = value`` lines
followed by one ``[net ...]`` section per present network and ``[end]``.
Each layer is a ``layer i out in`` shape header, then a ``weight`` and a
``bias`` line, each holding the base64 of the row-major little-endian
float64 bytes (v2). Reloading reproduces the weights bit for bit.

Version 1 files, which print one decimal row per weight row and the bias as
decimals, still load; only v2 is written.
"""

from __future__ import annotations

import base64
import math
import os

import numpy as np

from .errors import DataError
from .game import ARCH_LINEAR, ARCH_MLP, MODE_ALL_CHAINS, MODE_GAME, GameModel
from .neural import DenseParams
from .util import open_text, read_fields, write_fields

HEADER = "# kgchains checkpoint v2"
_DECIMAL_HEADER = "# kgchains checkpoint v1"

_REQUIRED_META = ("input_dim", "d", "lambda_s", "predictor_arch", "mode")


def _encode(values: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(values, "<f8").tobytes()).decode("ascii")


def _write_net(fh, name: str, params: DenseParams) -> None:
    fh.write(f"[net {name}]\n")
    fh.write(f"layers = {len(params.layers)}\n")
    for i, (weight, bias) in enumerate(params.layers):
        out_dim, in_dim = weight.shape
        fh.write(f"layer {i} {out_dim} {in_dim}\n")
        fh.write(f"weight {_encode(weight)}\n")
        fh.write(f"bias {_encode(bias)}\n")


def save_checkpoint(path: str, model: GameModel, meta: dict | None = None) -> None:
    record = {
        "input_dim": model.input_dim,
        "d": model.d,
        "lambda_s": model.lambda_s,
        "predictor_arch": model.predictor_arch,
        "mode": model.mode,
    }
    if meta:
        record.update(meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        fh.write("[meta]\n")
        write_fields(fh, record)
        if model.generator is not None:
            _write_net(fh, "generator", model.generator)
        _write_net(fh, "predictor", model.predictor)
        if model.complement is not None:
            _write_net(fh, "complement", model.complement)
        fh.write("[end]\n")


def _payload(line: str, key: str, path: str, lineno: int) -> str:
    if not line.startswith(key + " "):
        raise DataError(f"{path}:{lineno}: expected {key}")
    return line[len(key) + 1 :]


def _decode(text: str, n: int, binary: bool, path: str, lineno: int) -> np.ndarray:
    """``n`` finite float64 values: base64 little-endian bytes (v2) or decimals (v1)."""
    if binary:
        raw = base64.b64decode(text, validate=True)
        if len(raw) != 8 * n:
            raise DataError(f"{path}:{lineno}: {len(raw)} payload bytes, expected {8 * n}")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    else:
        values = np.array([float(v) for v in text.split()], dtype=np.float64)
        if values.shape != (n,):
            raise DataError(f"{path}:{lineno}: expected {n} values")
    if not np.isfinite(values).all():
        raise DataError(f"{path}:{lineno}: non-finite value")
    return values


def _parse_net(lines: list[str], pos: int, binary: bool, path: str) -> tuple[DenseParams, int]:
    if not lines[pos].startswith("layers = "):
        raise DataError(f"{path}:{pos + 1}: expected the layer count")
    n_layers = int(lines[pos].split("=")[1])
    if n_layers < 1:
        raise DataError(f"{path}:{pos + 1}: a network needs at least one layer")
    pos += 1
    layers = []
    for _ in range(n_layers):
        fields = lines[pos].split()
        if len(fields) != 4 or fields[0] != "layer":
            raise DataError(f"{path}:{pos + 1}: malformed layer header")
        out_dim, in_dim = int(fields[2]), int(fields[3])
        if out_dim < 1 or in_dim < 1:
            raise DataError(f"{path}:{pos + 1}: layer shape must be positive")
        pos += 1
        if binary:
            weight = _decode(_payload(lines[pos], "weight", path, pos + 1), out_dim * in_dim, True, path, pos + 1)
            pos += 1
        else:
            rows = [_decode(lines[pos + r], in_dim, False, path, pos + r + 1) for r in range(out_dim)]
            weight = np.concatenate(rows)
            pos += out_dim
        bias = _decode(_payload(lines[pos], "bias", path, pos + 1), out_dim, binary, path, pos + 1)
        pos += 1
        layers.append([weight.reshape(out_dim, in_dim), bias])
    return DenseParams(layers=layers), pos


def load_checkpoint(path: str) -> tuple[GameModel, dict]:
    """Every malformed or truncated file is a ``DataError``."""
    if not os.path.isfile(path):
        raise DataError(f"checkpoint not found: {path}")
    with open_text(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] not in (HEADER, _DECIMAL_HEADER):
        raise DataError(f"not a kgchains checkpoint: {path}")
    try:
        return _parse_checkpoint(lines, path, binary=lines[0] == HEADER)
    except IndexError:  # a section ran past the last line
        raise DataError(f"truncated checkpoint: {path}") from None
    except ValueError as err:  # a count, dimension, number or base64 payload that does not parse
        raise DataError(f"corrupt checkpoint {path}: {err}") from None


def _parse_checkpoint(lines: list[str], path: str, binary: bool) -> tuple[GameModel, dict]:
    meta: dict[str, str] = {}
    nets: dict[str, DenseParams] = {}
    pos = 1
    while pos < len(lines):
        line = lines[pos]
        if line == "[meta]":
            end = pos + 1
            while end < len(lines) and not lines[end].startswith("["):
                end += 1
            meta.update(read_fields(lines[pos + 1 : end], path, pos + 2))
            pos = end
        elif line.startswith("[net "):
            name = line[len("[net ") : -1]
            params, pos = _parse_net(lines, pos + 1, binary, path)
            nets[name] = params
        elif line == "[end]":
            break
        else:
            raise DataError(f"{path}:{pos + 1}: expected a section header")
    else:
        raise DataError(f"truncated checkpoint (no [end]): {path}")

    for key in _REQUIRED_META:
        if key not in meta:
            raise DataError(f"checkpoint missing meta key {key!r}: {path}")
    if "predictor" not in nets:
        raise DataError(f"checkpoint has no predictor network: {path}")
    model = GameModel(
        input_dim=int(meta["input_dim"]),
        d=int(meta["d"]),
        lambda_s=float(meta["lambda_s"]),
        predictor_arch=meta["predictor_arch"],
        mode=meta["mode"],
        predictor=nets["predictor"],
        generator=nets.get("generator"),
        complement=nets.get("complement"),
    )
    valid = {
        "d": (model.d >= 1, "an integer >= 1"),
        "lambda_s": (math.isfinite(model.lambda_s) and model.lambda_s >= 0, "a finite number >= 0"),
        "predictor_arch": (model.predictor_arch in (ARCH_MLP, ARCH_LINEAR), f"{ARCH_MLP} or {ARCH_LINEAR}"),
        "mode": (model.mode in (MODE_GAME, MODE_ALL_CHAINS), f"{MODE_GAME} or {MODE_ALL_CHAINS}"),
    }
    for key, (ok, expected) in valid.items():
        if not ok:
            raise DataError(f"checkpoint meta {key} = {meta[key]} must be {expected}: {path}")
    output_dims = {"generator": 2 * model.input_dim, "predictor": 2, "complement": 2}
    for name, net in nets.items():
        if (net.input_dim, net.output_dim) != (model.input_dim, output_dims.get(name)):
            raise DataError(f"checkpoint {name} network does not fit input_dim {model.input_dim}: {path}")
    return model, meta
