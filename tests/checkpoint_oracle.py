"""Writers of the checkpoint versions ``kgchains`` no longer writes or reads, and a reference v3 reader.

``load_checkpoint`` must reject both v1 and v2 as data errors naming the file, and must read a v3 file
as ``read_v3`` does, which copies each network out of the payload bytes on its own.
"""

import base64

import numpy as np

from kgchains.util import field_lines

NETS = ("generator", "predictor", "complement")


def _write(path, model, meta, version, write_layer):
    record = {"input_dim": model.input_dim, "d": model.d, "lambda_s": model.lambda_s,
              "predictor_arch": model.predictor_arch, "mode": model.mode, **meta}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kgchains checkpoint v{version}\n[meta]\n")
        fh.writelines(f"{line}\n" for line in field_lines(record))
        for name in NETS:
            params = getattr(model, name)
            if params is None:
                continue
            fh.write(f"[net {name}]\nlayers = {len(params.layers)}\n")
            for i, (weight, bias) in enumerate(params.layers):
                fh.write(f"layer {i} {weight.shape[0]} {weight.shape[1]}\n")
                write_layer(fh, weight, bias)
        fh.write("[end]\n")


def _base64(values):
    return base64.b64encode(np.ascontiguousarray(values, "<f8").tobytes()).decode("ascii")


def write_v2(path, model, meta):
    """The version 2 writer: each weight and bias as one base64 line of little-endian float64 bytes."""
    _write(path, model, meta, 2, lambda fh, weight, bias: fh.write(f"weight {_base64(weight)}\nbias {_base64(bias)}\n"))


def write_v1(path, model, meta):
    """The version 1 writer: each weight row and the bias as round-trip decimals."""

    def layer(fh, weight, bias):
        for row in weight:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write("bias " + " ".join(repr(float(v)) for v in bias) + "\n")

    _write(path, model, meta, 1, layer)


def read_v3(raw):
    """A well-formed v3 file's meta, and each network's layer shapes and flat buffer, by name: the header
    parsed line by line, each network copied out of the payload with ``frombuffer(...).astype(np.float64)``."""
    header, _, payload = raw.partition(b"\n[end]\n")
    meta, shapes, name = {}, {}, None
    for line in header.decode("utf-8").split("\n")[1:]:
        if line.startswith("[net "):
            name = line[len("[net ") : -1]
            shapes[name] = []
        elif line.startswith("layer "):
            _, _, out_dim, in_dim = line.split()
            shapes[name].append((int(out_dim), int(in_dim)))
        elif name is None and " = " in line:
            key, _, value = line.partition(" = ")
            meta[key] = value
    nets, offset = {}, 0
    for name, layers in shapes.items():
        size = sum(out_dim * in_dim + out_dim for out_dim, in_dim in layers)
        nets[name] = layers, np.frombuffer(payload, "<f8", size, offset).astype(np.float64)
        offset += 8 * size
    return meta, nets
