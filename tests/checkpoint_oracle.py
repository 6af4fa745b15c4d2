"""Writers of the checkpoint versions ``kgchains`` no longer writes or reads, and a reference v4 reader.

``load_checkpoint`` must reject v1, v2 and v3 as data errors naming the file, and must read a v4 file
as ``read_v4`` does: it takes each network's layer shapes from the README's width formula, not from
``kgchains.game``, and copies each network out of the payload bytes on its own.
"""

import base64

import numpy as np

NETS = ("generator", "predictor", "complement")


def _write(path, model, meta, version, layer_lines, payload=b""):
    """The v1-v3 layout: a ``[meta]`` section, a ``[net name]`` section per network with its layer count and
    one ``layer i out in`` line per layer, each followed by ``layer_lines``, then ``[end]`` and ``payload``."""
    record = {"input_dim": model.input_dim, "d": model.d, "lambda_s": model.lambda_s,
              "predictor_arch": model.predictor_arch, "mode": model.mode, **meta}
    record.pop("networks", None)  # a v4 field
    lines = [f"# kgchains checkpoint v{version}", "[meta]", *(f"{key} = {record[key]}" for key in sorted(record))]
    for name in NETS:
        params = getattr(model, name)
        if params is None:
            continue
        lines += [f"[net {name}]", f"layers = {len(params.layers)}"]
        for i, (weight, bias) in enumerate(params.layers):
            lines += [f"layer {i} {weight.shape[0]} {weight.shape[1]}", *layer_lines(weight, bias)]
    with open(path, "wb") as fh:
        fh.write("\n".join([*lines, "[end]", ""]).encode("utf-8") + payload)


def _base64(values):
    return base64.b64encode(np.ascontiguousarray(values, "<f8").tobytes()).decode("ascii")


def write_v3(path, model, meta):
    """The version 3 writer: no values in the header, then each network's flat buffer as raw little-endian
    float64 bytes."""
    nets = [getattr(model, name) for name in NETS if getattr(model, name) is not None]
    payload = b"".join(np.ascontiguousarray(net.flat, "<f8").tobytes() for net in nets)
    _write(path, model, meta, 3, lambda weight, bias: [], payload)


def write_v2(path, model, meta):
    """The version 2 writer: each weight and bias as one base64 line of little-endian float64 bytes."""
    _write(path, model, meta, 2, lambda weight, bias: [f"weight {_base64(weight)}", f"bias {_base64(bias)}"])


def write_v1(path, model, meta):
    """The version 1 writer: each weight row and the bias as round-trip decimals."""

    def layer(weight, bias):
        rows = [" ".join(repr(float(v)) for v in row) for row in weight]
        return [*rows, "bias " + " ".join(repr(float(v)) for v in bias)]

    _write(path, model, meta, 1, layer)


def readme_widths(input_dim, predictor_arch):
    """Each network's layer widths as the README's parameter count gives them: with h1 = max(2, D // 2) and
    h2 = max(2, D // 4), the generator D -> h1 -> h2 -> 2D, and each predictor D -> h1 -> h2 -> 2 (mlp) or
    D -> 2 (linear)."""
    h1, h2 = max(2, input_dim // 2), max(2, input_dim // 4)
    predictor = [input_dim, h1, h2, 2] if predictor_arch == "mlp" else [input_dim, 2]
    return {"generator": [input_dim, h1, h2, 2 * input_dim], "predictor": predictor, "complement": predictor}


def read_v4(raw):
    """A well-formed v4 file's fields, and each network's layer shapes and flat buffer, by name: the header
    split at its first `` = `` a line, the shapes from ``readme_widths``, each network copied out of the
    payload with ``frombuffer(...).astype(np.float64)``."""
    header, _, payload = raw.partition(b"\n[end]\n")
    meta = dict(line.split(" = ", 1) for line in header.decode("utf-8").split("\n")[1:])
    widths = readme_widths(int(meta["input_dim"]), meta["predictor_arch"])
    nets, offset = {}, 0
    for name in meta["networks"].split(" "):
        shapes = list(zip(widths[name][1:], widths[name][:-1]))
        size = sum(out_dim * in_dim + out_dim for out_dim, in_dim in shapes)
        nets[name] = shapes, np.frombuffer(payload, "<f8", size, offset).astype(np.float64)
        offset += 8 * size
    assert offset == len(payload)
    return meta, nets
