"""Sectioned text checkpoints for trained models.

The envelope is plain UTF-8: a ``[meta]`` section of ``key = value`` lines
followed by one ``[net ...]`` section per present network, each layer as a
shape header plus row-major float64 values printed with full round-trip
precision. Reloading reproduces bit-identical predictions.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError
from .game import GameModel
from .neural import DenseParams
from .util import read_fields, write_fields

HEADER = "# kgchains checkpoint v1"

_REQUIRED_META = ("input_dim", "d", "lambda_s", "predictor_arch", "mode")


def _write_net(fh, name: str, params: DenseParams) -> None:
    fh.write(f"[net {name}]\n")
    fh.write(f"layers = {len(params.layers)}\n")
    for i, (weight, bias) in enumerate(params.layers):
        out_dim, in_dim = weight.shape
        fh.write(f"layer {i} {out_dim} {in_dim}\n")
        for row in weight:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write("bias " + " ".join(repr(float(v)) for v in bias) + "\n")


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


def _parse_net(lines: list[str], pos: int) -> tuple[DenseParams, int]:
    if not lines[pos].startswith("layers = "):
        raise DataError(f"checkpoint: expected layer count at line {pos + 1}")
    n_layers = int(lines[pos].split("=")[1])
    if n_layers < 1:
        raise DataError(f"checkpoint: a network needs at least one layer at line {pos + 1}")
    pos += 1
    layers = []
    for _ in range(n_layers):
        fields = lines[pos].split()
        if len(fields) != 4 or fields[0] != "layer":
            raise DataError(f"checkpoint: malformed layer header at line {pos + 1}")
        out_dim, in_dim = int(fields[2]), int(fields[3])
        pos += 1
        rows = []
        for _ in range(out_dim):
            row = np.array([float(v) for v in lines[pos].split()], dtype=np.float64)
            if row.shape != (in_dim,):
                raise DataError(f"checkpoint: row length mismatch at line {pos + 1}")
            rows.append(row)
            pos += 1
        if not lines[pos].startswith("bias "):
            raise DataError(f"checkpoint: expected bias at line {pos + 1}")
        bias = np.array([float(v) for v in lines[pos].split()[1:]], dtype=np.float64)
        if bias.shape != (out_dim,):
            raise DataError(f"checkpoint: bias length mismatch at line {pos + 1}")
        pos += 1
        layers.append([np.vstack(rows), bias])
    return DenseParams(layers=layers), pos


def load_checkpoint(path: str) -> tuple[GameModel, dict]:
    """Every malformed or truncated file is a ``DataError``."""
    if not os.path.isfile(path):
        raise DataError(f"checkpoint not found: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != HEADER:
        raise DataError(f"not a kgchains checkpoint: {path}")
    try:
        return _parse_checkpoint(lines, path)
    except IndexError:  # a section ran past the last line
        raise DataError(f"truncated checkpoint: {path}") from None
    except ValueError as err:  # a count, dimension or number that does not parse
        raise DataError(f"corrupt checkpoint {path}: {err}") from None


def _parse_checkpoint(lines: list[str], path: str) -> tuple[GameModel, dict]:
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
            params, pos = _parse_net(lines, pos + 1)
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
    output_dims = {"generator": 2 * model.input_dim, "predictor": 2, "complement": 2}
    for name, net in nets.items():
        if (net.input_dim, net.output_dim) != (model.input_dim, output_dims.get(name)):
            raise DataError(f"checkpoint {name} network does not fit input_dim {model.input_dim}: {path}")
    return model, meta
