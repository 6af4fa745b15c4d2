import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from kgchains.chains import Instance
from kgchains.checkpoint import load_checkpoint, save_checkpoint
from kgchains.errors import DataError
from kgchains.game import build_model, predict
from kgchains.neural import count_params
from kgchains.util import field_lines

from checkpoint_oracle import NETS, read_v4, write_v1
from splits import split_of


def probes(d_input, n=100, seed=0):
    rng = np.random.default_rng(seed)
    return split_of(
        Instance(head=i, tail=i, label=int(rng.integers(2)),
                 availability=(rng.random(d_input) < 0.5).astype(float))
        for i in range(n)
    )


def assert_same_weights(a, b):
    for name in NETS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        for (wx, bx), (wy, by) in zip(x.layers if x else [], y.layers if y else []):
            assert wx.shape == wy.shape and bx.shape == by.shape
            assert np.array_equal(wx.view(np.int64), wy.view(np.int64))
            assert np.array_equal(bx.view(np.int64), by.view(np.int64))


def trained_like(model, seed=0):
    """The model with weights spread over many magnitudes and signs, including -0.0, written in place."""
    rng = np.random.default_rng(seed)
    for net in (model.generator, model.predictor, model.complement):
        for layer in net.layers if net else []:
            for a in layer:
                a[...] = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-30, 3, a.shape)
            layer[1][0] = -0.0
    return model


@pytest.mark.parametrize("arch, mode", [("mlp", "game"), ("linear", "game"), ("mlp", "d_all")])
def test_round_trip_is_bit_identical(tmp_path, arch, mode):
    model = trained_like(build_model(7, 2, 0.5, arch, seed=2, mode=mode))
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), model, {"relation": "demo"})
    raw = path.read_bytes()
    header, end, payload = raw.partition(b"\n[end]\n")
    lines = header.decode("utf-8").split("\n")
    assert lines[0] == "# kgchains checkpoint v4"
    # the header is fields alone, sorted by key: no section, shape or value lines
    keys = [line.partition(" = ")[0] for line in lines[1:]]
    assert all(" = " in line for line in lines[1:]) and keys == sorted(keys)
    assert keys == ["d", "input_dim", "lambda_s", "mode", "networks", "predictor_arch", "relation"]
    # the networks' flat buffers as raw little-endian float64 bytes, in the order the networks line names them
    present = [name for name in NETS if getattr(model, name) is not None]
    assert f"networks = {' '.join(present)}" in lines
    nets = [getattr(model, name) for name in present]
    assert payload == b"".join(np.asarray(net.flat, "<f8").tobytes() for net in nets)
    assert len(payload) == 8 * sum(map(count_params, nets))
    loaded, meta = load_checkpoint(str(path))
    assert_same_weights(loaded, model)
    for inst in probes(7, n=30):
        assert np.float64(predict(loaded, inst)).view(np.int64) == np.float64(predict(model, inst)).view(np.int64)
    # the same as the reference reader, which takes the shapes from the README and copies each network out
    ref_meta, ref = read_v4(raw)
    assert meta == ref_meta and list(ref) == present
    for name, (shapes, flat) in ref.items():
        net = getattr(loaded, name)
        assert net.shapes == shapes and net.flat.dtype == np.float64
        assert np.array_equal(net.flat.view(np.int64), flat.view(np.int64))
    # and the networks are views into one buffer, in payload order
    flats = [getattr(loaded, name).flat for name in present]
    base = flats[0].base
    assert base is not None and all(flat.base is base for flat in flats) and base.nbytes == len(payload)
    starts = [flat.__array_interface__["data"][0] - base.__array_interface__["data"][0] for flat in flats]
    assert starts == [8 * sum(flat.size for flat in flats[:i]) for i in range(len(flats))]


@pytest.mark.parametrize("input_dim", [1, 2, 5])
@pytest.mark.parametrize("arch, mode", [("mlp", "game"), ("linear", "game"), ("mlp", "d_all"), ("linear", "d_all")])
def test_every_built_model_round_trips(tmp_path, input_dim, arch, mode):
    model = trained_like(build_model(input_dim, 3, 0.25, arch, seed=input_dim, mode=mode))
    save_checkpoint(str(tmp_path / "ck.txt"), model)
    loaded, _ = load_checkpoint(str(tmp_path / "ck.txt"))
    assert_same_weights(loaded, model)
    assert (loaded.input_dim, loaded.d, loaded.lambda_s, loaded.predictor_arch, loaded.mode) == (input_dim, 3, 0.25, arch, mode)


GOOD = dict(input_dim=5, d=2, lambda_s=0.5, predictor_arch="mlp", mode="game")


@pytest.mark.parametrize("key, value", [("mode", "bogus"), ("predictor_arch", "rnn"), ("lambda_s", float("inf")),
                                        ("lambda_s", float("nan")), ("lambda_s", -1.0), ("d", 0), ("d", -1)])
def test_build_model_rejects_what_load_checkpoint_rejects(tmp_path, key, value):
    """A field value ``build_model`` refuses; the same value in a saved model's meta, which a load refuses."""
    with pytest.raises(ValueError, match=f"^{key} = {value} must be "):
        build_model(**{**GOOD, key: value})
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), build_model(**GOOD))
    good, bad = (f"\n{key} = {v}\n".encode() for v in (GOOD[key], value))
    assert good in path.read_bytes()
    path.write_bytes(path.read_bytes().replace(good, bad, 1))
    with pytest.raises(DataError, match=re.escape(f"checkpoint meta {key} = {value} must be ")):
        load_checkpoint(str(path))


def test_load_holds_the_payload_once(tmp_path):
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), build_model(1000, 2, 0.5, "mlp", seed=0))
    payload = len(path.read_bytes().partition(b"\n[end]\n")[2])
    assert payload > 18_000_000
    tracemalloc.start()
    try:
        load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload + 2**20, (peak, payload)


def test_payload_read_short_is_a_data_error(tmp_path, monkeypatch):
    """A file that shrank after its size was read: the payload error, with the bytes actually read."""
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), build_model(5, 2, 1.0, "mlp", seed=3))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
    need = len(raw.partition(b"\n[end]\n")[2])
    message = f"checkpoint payload has {need - 8} bytes, its layer shapes need {need}: {path}"
    with pytest.raises(DataError, match=re.escape(message)):
        load_checkpoint(str(path))


def test_v1_checkpoint_is_a_data_error(tmp_path):
    model = trained_like(build_model(6, 2, 1.0, "mlp", seed=4), seed=1)
    path = tmp_path / "v1.txt"
    write_v1(path, model, {"relation": "demo"})
    with pytest.raises(DataError, match=f"unsupported kgchains checkpoint v1: {path}"):
        load_checkpoint(str(path))


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


@pytest.mark.parametrize("key", ["input_dim", "d", "lambda_s", "predictor_arch", "mode", "networks"])
def test_meta_cannot_set_a_model_field(tmp_path, key):
    path = tmp_path / "ck.txt"
    with pytest.raises(ValueError, match=f"^meta key '{key}' is the model's own field$"):
        save_checkpoint(str(path), build_model(6, 2, 1.0), {"relation": "demo", key: 5})
    assert not path.exists()


def test_tampered_input_dim_rejected(tmp_path):
    """The layer shapes follow input_dim, so the payload no longer fits them."""
    model = build_model(5, 2, 1.0, "mlp", seed=3)
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), model)
    raw = path.read_bytes()
    assert b"\ninput_dim = 5\n" in raw
    path.write_bytes(raw.replace(b"\ninput_dim = 5\n", b"\ninput_dim = 7\n", 1))
    have, need = (8 * sum(count_params(getattr(m, name)) for name in NETS) for m in (model, build_model(7, 2, 1.0)))
    with pytest.raises(DataError, match=re.escape(f"checkpoint payload has {have} bytes, its layer shapes need {need}: ")):
        load_checkpoint(str(path))


def test_game_model_without_a_complement_round_trips(tmp_path):
    """As ``single_chain_gen``'s second stage saves it: the networks line names two networks."""
    model = trained_like(build_model(6, 2, 0.0, "linear", seed=5))
    model.complement = None
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), model)
    assert b"\nnetworks = generator predictor\n" in path.read_bytes()
    loaded, meta = load_checkpoint(str(path))
    assert loaded.complement is None and meta["networks"] == "generator predictor"
    assert_same_weights(loaded, model)


@pytest.mark.parametrize("meta", [{"note": "a\nb"}, {"note": "a\rb"}, {"note": "a\r\nb"}, {"a = b": "c"},
                                  {"a =": "b"}, {"a\nb": "c"}, {"a\rb": "c"}],
                         ids=["value_lf", "value_cr", "value_crlf", "key_with_equals", "key_ending_in_equals",
                              "key_lf", "key_cr"])
def test_meta_that_would_not_read_back_is_refused(tmp_path, meta):
    """A field ``read_fields`` would read back otherwise, or not at all, is a ``ValueError`` before anything is written."""
    path = tmp_path / "ck.txt"
    with pytest.raises(ValueError, match="would not read back$"):
        save_checkpoint(str(path), build_model(4, 2, 1.0), meta)
    assert not path.exists()
    with pytest.raises(ValueError, match="would not read back$"):
        field_lines(meta)


def test_meta_with_spaces_tabs_and_equals_signs_reads_back(tmp_path):
    meta = {"note": " a = b\tc ", "key=x": "=", "sp ace": ""}
    path = tmp_path / "ck.txt"
    save_checkpoint(str(path), build_model(4, 2, 1.0), meta)
    assert load_checkpoint(str(path))[1].items() >= meta.items()


def test_missing_file_and_bad_header(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(str(tmp_path / "nope.txt"))
    bad = tmp_path / "bad.txt"
    bad.write_text("something else\n")
    with pytest.raises(DataError, match="not a kgchains checkpoint"):
        load_checkpoint(str(bad))
