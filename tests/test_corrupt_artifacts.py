"""Corrupt or truncated artifacts are data errors (exit 2), never tracebacks.

A tiny artifact set (D = 4, hand-written caches, checkpoints trained for one
epoch by ``kgchains train``) is cut at every line count and has one token
replaced per line; ``kgchains eval`` must then exit 0 or 2. A checkpoint's
data errors name the checkpoint file.
"""

import base64
import re

import numpy as np
import pytest

from kgchains import chains
from kgchains.chains import Instance
from kgchains.cli import main

from splits import split_of

D = 4
REL = "target"


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    rel = root / REL
    rel.mkdir()
    rng = np.random.default_rng(0)
    for split, n in (("train", 12), ("dev", 6), ("test", 6)):
        instances = []
        for i in range(n):
            bits = (rng.random(D) < 0.5).astype(float)
            bits[0] = i % 2
            instances.append(Instance(f"h{i // 3}", f"t{i}", i % 2, bits))
        chains.write_instances(str(rel / f"{split}.inst"), split_of(instances), None)
    (rel / "vocab.tsv").write_text("".join(f"{j}\t{D - j}\tr{j}->s{j}\n" for j in range(D)))
    (rel / "meta.txt").write_text(f"max_hops = 2\nrelation = {REL}\nvocab_size = {D}\n")
    for mode in ("game_mlp", "d_all"):
        args = ["--artifacts", str(root), "--relation", REL, "--mode", mode, "--d", "2"]
        assert main(["train", *args, "--epochs", "1"]) == 0
        assert main(["eval", *args]) == 0
    return root


def checkpoint_path(art, mode):
    return art / REL / f"checkpoint.{mode}.d2.txt"


def eval_code(art, checkpoint=None):
    args = ["eval", "--artifacts", str(art), "--relation", REL, "--mode", "game_mlp", "--d", "2"]
    return main(args + (["--checkpoint", str(checkpoint)] if checkpoint else []))


def variants(text):
    """The text cut at every line count, and with one token per line replaced by ``x``."""
    lines = text.splitlines(keepends=True)
    for n in range(len(lines)):
        yield "".join(lines[:n])
    for i, line in enumerate(lines):
        parts = re.split(r"(\s+)", line.rstrip("\n"))  # tokens at even positions
        parts[2 * (i % ((len(parts) + 1) // 2))] = "x"
        yield "".join(lines[:i] + ["".join(parts) + "\n"] + lines[i + 1 :])


def test_checkpoint_fuzz_exits_0_or_2(art, tmp_path, capsys):
    # the game checkpoint has every section: meta, generator, predictor, complement
    bad = tmp_path / "ck.txt"
    failed = 0
    for text in variants(checkpoint_path(art, "game_mlp").read_text()):
        bad.write_text(text)
        code = eval_code(art, bad)
        err = capsys.readouterr().err
        assert code in (0, 2), text
        if code == 2:
            assert "data error: " in err and str(bad) in err, (text, err)
            failed += 1
    assert failed


@pytest.mark.parametrize("name", ["vocab.tsv", "meta.txt", "test.inst"])
def test_artifact_fuzz_exits_0_or_2(art, capsys, name):
    path = art / REL / name
    original = path.read_text()
    try:
        for text in variants(original):
            path.write_text(text)
            assert eval_code(art) in (0, 2), text
    finally:
        path.write_text(original)
    assert "data error: " in capsys.readouterr().err


def cut_lines(n):
    return lambda text: "".join(text.splitlines(keepends=True)[:n])


def swap(old, new):
    def corrupt(text):
        assert old in text
        return text.replace(old, new, 1)

    return corrupt


def first_weight(edit):
    """Re-encode the first layer's weight payload after ``edit`` on its float64 values."""

    def corrupt(text):
        head, sep, rest = text.partition("\nweight ")
        payload, newline, tail = rest.partition("\n")
        values = edit(np.frombuffer(base64.b64decode(payload), "<f8"))
        return head + sep + base64.b64encode(values.tobytes()).decode("ascii") + newline + tail

    return corrupt


# each applied to the d_all checkpoint (D = 4: layers 4 -> 2 -> 2 -> 2, d = 1)
CORRUPTIONS = {
    "no_end": cut_lines(-1),
    "cut_in_layer": cut_lines(-4),
    "layers_x": swap("layers = 3", "layers = x"),
    "layers_0": swap("layers = 3", "layers = 0"),
    "layers_2": swap("layers = 3", "layers = 2"),
    "weight_x": swap("\nlayer 0 2 4\n", "\nlayer 0 2 4\nx"),
    "d_two": swap("\nd = 1\n", "\nd = two\n"),
    "meta_without_equals": swap("\nd = 1\n", "\nd: 1\n"),
    "weight_bad_base64": swap("\nweight ", "\nweight *"),
    "weight_8_bytes_short": first_weight(lambda values: values[:-1]),
    "weight_nan": first_weight(lambda values: np.r_[np.nan, values[1:]]),
    "weight_inf": first_weight(lambda values: np.r_[-np.inf, values[1:]]),
    "no_weight_line": lambda text: re.sub(r"\nweight [^\n]*", "", text, count=1),
    "d_zero": swap("\nd = 1\n", "\nd = 0\n"),
    "d_negative": swap("\nd = 1\n", "\nd = -1\n"),
    "mode_bogus": swap("\nmode = d_all\n", "\nmode = bogus\n"),
    "predictor_arch_bogus": swap("\npredictor_arch = mlp\n", "\npredictor_arch = rnn\n"),
    "lambda_s_negative": swap("\nlambda_s = 0.0\n", "\nlambda_s = -0.5\n"),
    "lambda_s_nan": swap("\nlambda_s = 0.0\n", "\nlambda_s = nan\n"),
    "lambda_s_inf": swap("\nlambda_s = 0.0\n", "\nlambda_s = inf\n"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_is_a_data_error(art, tmp_path, capsys, case):
    bad = tmp_path / "ck.txt"
    bad.write_text(CORRUPTIONS[case](checkpoint_path(art, "d_all").read_text()))
    assert eval_code(art, bad) == 2
    err = capsys.readouterr().err
    assert "data error: " in err and str(bad) in err


def test_non_integer_vocabulary_support_is_a_data_error(art, capsys):
    path = art / REL / "vocab.tsv"
    original = path.read_text()
    try:
        path.write_text(original.replace("1\t3\t", "1\tthree\t"))
        assert eval_code(art) == 2
        assert "vocab.tsv:2: " in capsys.readouterr().err
    finally:
        path.write_text(original)


def test_export_rules_reads_the_vocabulary_once(art, monkeypatch, capsys):
    calls = []
    read = chains.read_vocabulary_names
    monkeypatch.setattr(chains, "read_vocabulary_names", lambda path: calls.append(path) or read(path))
    args = ["export-rules", "--artifacts", str(art), "--relation", REL, "--mode", "game_mlp", "--d", "2"]
    assert main(args) == 0
    assert len(calls) == 1
    assert "r0->s0" in capsys.readouterr().out
