import numpy as np
import pytest

from kgchains.chains import Instance
from kgchains.checkpoint import load_checkpoint, save_checkpoint
from kgchains.errors import DataError
from kgchains.game import build_model, predict
from kgchains.util import write_fields

from splits import split_of


def probes(d_input, n=100, seed=0):
    rng = np.random.default_rng(seed)
    return split_of(
        Instance(head=i, tail=i, label=int(rng.integers(2)),
                 availability=(rng.random(d_input) < 0.5).astype(float))
        for i in range(n)
    )


def write_v1(path, model, meta):
    """The version 1 writer: each weight row and the bias as round-trip decimals."""
    record = {"input_dim": model.input_dim, "d": model.d, "lambda_s": model.lambda_s,
              "predictor_arch": model.predictor_arch, "mode": model.mode, **meta}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# kgchains checkpoint v1\n[meta]\n")
        write_fields(fh, record)
        for name in ("generator", "predictor", "complement"):
            params = getattr(model, name)
            if params is None:
                continue
            fh.write(f"[net {name}]\nlayers = {len(params.layers)}\n")
            for i, (weight, bias) in enumerate(params.layers):
                fh.write(f"layer {i} {weight.shape[0]} {weight.shape[1]}\n")
                for row in weight:
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")
                fh.write("bias " + " ".join(repr(float(v)) for v in bias) + "\n")
        fh.write("[end]\n")


def assert_same_weights(a, b):
    for name in ("generator", "predictor", "complement"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        for (wx, bx), (wy, by) in zip(x.layers if x else [], y.layers if y else []):
            assert wx.shape == wy.shape and bx.shape == by.shape
            assert np.array_equal(wx.view(np.int64), wy.view(np.int64))
            assert np.array_equal(bx.view(np.int64), by.view(np.int64))


def trained_like(model, seed=0):
    """The model with weights spread over many magnitudes and signs, including -0.0."""
    rng = np.random.default_rng(seed)
    for net in (model.generator, model.predictor, model.complement):
        for layer in net.layers if net else []:
            for k, a in enumerate(layer):
                layer[k] = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-30, 3, a.shape)
            layer[1][0] = -0.0
    return model


@pytest.mark.parametrize("arch, mode", [("mlp", "game"), ("linear", "game"), ("mlp", "d_all")])
def test_v2_round_trip_is_bit_identical(tmp_path, arch, mode):
    model = trained_like(build_model(7, 2, 0.5, arch, seed=2, mode=mode))
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), model)
    lines = path.read_text().splitlines()
    assert lines[0] == "# kgchains checkpoint v2"
    assert sum(line.startswith("weight ") for line in lines) == sum(line.startswith("bias ") for line in lines)
    loaded, _ = load_checkpoint(str(path))
    assert_same_weights(loaded, model)
    for inst in probes(7, n=30):
        assert np.float64(predict(loaded, inst)).view(np.int64) == np.float64(predict(model, inst)).view(np.int64)


def test_v1_checkpoint_still_loads_bit_identical(tmp_path):
    for arch, mode in (("mlp", "game"), ("linear", "game"), ("mlp", "d_all")):
        model = trained_like(build_model(6, 2, 1.0, arch, seed=4, mode=mode), seed=1)
        path = tmp_path / f"v1_{arch}_{mode}.txt"
        write_v1(path, model, {"relation": "demo"})
        loaded, meta = load_checkpoint(str(path))
        assert meta["relation"] == "demo" and loaded.mode == mode
        assert_same_weights(loaded, model)


def test_round_trip_bit_identical_predictions(tmp_path):
    model = build_model(9, 3, 1.0, "mlp", seed=7)
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), model, {"relation": "demo"})
    loaded, meta = load_checkpoint(str(path))
    assert meta["relation"] == "demo"
    assert loaded.d == 3
    for inst in probes(9):
        assert predict(loaded, inst) == predict(model, inst)


def test_round_trip_linear_and_d_all(tmp_path):
    for arch, mode in (("linear", "game"), ("mlp", "d_all")):
        model = build_model(6, 2, 0.5, arch, seed=1, mode=mode)
        path = tmp_path / f"ck_{arch}_{mode}.txt"
        save_checkpoint(str(path), model)
        loaded, _ = load_checkpoint(str(path))
        assert loaded.mode == mode
        assert (loaded.generator is None) == (model.generator is None)
        for inst in probes(6, n=20):
            assert predict(loaded, inst) == predict(model, inst)


def test_save_is_deterministic(tmp_path):
    model = build_model(5, 2, 1.0, "mlp", seed=3)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_checkpoint(str(a), model, {"x": 1})
    save_checkpoint(str(b), model, {"x": 1})
    assert a.read_bytes() == b.read_bytes()


def test_tampered_input_dim_rejected(tmp_path):
    model = build_model(5, 2, 1.0, "mlp", seed=3)
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), model)
    text = path.read_text().replace("input_dim = 5", "input_dim = 7")
    path.write_text(text)
    with pytest.raises(DataError, match="input_dim"):
        load_checkpoint(str(path))


def test_missing_file_and_bad_header(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(str(tmp_path / "nope.txt"))
    bad = tmp_path / "bad.txt"
    bad.write_text("something else\n")
    with pytest.raises(DataError, match="not a kgchains checkpoint"):
        load_checkpoint(str(bad))
