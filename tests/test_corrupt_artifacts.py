"""Corrupt or truncated artifacts are data errors (exit 2), never tracebacks.

A tiny artifact set (D = 4, hand-written caches, checkpoints trained for one
epoch by ``kgchains train``) is cut at every line count and has one token
replaced per line; ``kgchains eval`` must then exit 0 or 2. A v5 checkpoint
is cut at every header line and at every 8-byte boundary of its payload,
which must exit 2. A checkpoint of an older version (v1 to v4, as the
writers in ``checkpoint_oracle`` made them) must exit 2 too. A checkpoint's
data errors name the checkpoint file, and each hand-made corruption's message
is pinned exactly. A header line longer than the file buffer is no
corruption: such a checkpoint scores like the original.
"""

import re

import numpy as np
import pytest

from kgchains import chains
from kgchains.chains import Instance
from kgchains.checkpoint import load_checkpoint
from kgchains.cli import main

from checkpoint_oracle import write_v1, write_v2, write_v3, write_v4
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


def split_v5(raw):
    """A v5 checkpoint's text header, through ``[end]``, and its payload bytes."""
    cut = raw.index(b"\n[end]\n") + len(b"\n[end]\n")
    return raw[:cut].decode("utf-8"), raw[cut:]


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


def expect_data_error(art, bad, raw, capsys):
    bad.write_bytes(raw)
    code = eval_code(art, bad)
    err = capsys.readouterr().err
    assert code == 2 and "data error: " in err and str(bad) in err, (raw, err)
    return err


def checkpoint_variants(raw):
    """``variants`` of a checkpoint's header, the payload kept after each replaced token."""
    header, payload = split_v5(raw)
    for i, text in enumerate(variants(header)):  # the cuts come first, one per header line
        yield text.encode("utf-8") + (payload if i >= header.count("\n") else b"")


def test_checkpoint_fuzz_exits_0_or_2(art, tmp_path, capsys):
    # the game checkpoint has both networks scoring reads: generator, predictor
    bad = tmp_path / "ck.txt"
    failed = 0
    for raw in checkpoint_variants(checkpoint_path(art, "game_mlp").read_bytes()):
        bad.write_bytes(raw)
        code = eval_code(art, bad)
        err = capsys.readouterr().err
        assert code in (0, 2), raw
        if code == 2:
            assert "data error: " in err and str(bad) in err, (raw, err)
            failed += 1
    assert failed


def test_truncated_checkpoint_is_a_data_error(art, tmp_path, capsys):
    raw = checkpoint_path(art, "game_mlp").read_bytes()
    header, payload = split_v5(raw)
    lines = header.splitlines(keepends=True)
    assert len(payload) % 8 == 0
    for n in range(1, len(lines)):
        cut = raw[: len("".join(lines[:n]).encode("utf-8"))]
        assert "truncated checkpoint" in expect_data_error(art, tmp_path / "ck.txt", cut, capsys)
    for k in range(0, len(payload), 8):
        cut = raw[: len(raw) - len(payload) + k]
        assert "payload has" in expect_data_error(art, tmp_path / "ck.txt", cut, capsys)


@pytest.mark.parametrize("version, writer", [(1, write_v1), (2, write_v2), (3, write_v3), (4, write_v4)],
                         ids=["v1", "v2", "v3", "v4"])
def test_older_checkpoint_version_is_a_data_error(art, tmp_path, capsys, version, writer):
    """As written, with CRLF endings, and a v5 file relabelled with the older version."""
    path = checkpoint_path(art, "game_mlp")
    writer(tmp_path / "old.txt", *load_checkpoint(str(path)))
    old = (tmp_path / "old.txt").read_bytes()
    relabelled = path.read_bytes().replace(b"checkpoint v5", f"checkpoint v{version}".encode(), 1)
    for raw in (old, old.replace(b"\n", b"\r\n"), relabelled):
        err = expect_data_error(art, tmp_path / "ck.txt", raw, capsys)
        assert f"data error: unsupported kgchains checkpoint v{version}: {tmp_path / 'ck.txt'}\n" in err


@pytest.mark.parametrize("first, message", [(f"# kgchains checkpoint v{v}", f"unsupported kgchains checkpoint v{v}")
                                            for v in (0, 4, 50, 99)]  # v50 shares the 5
                         + [(line, "not a kgchains checkpoint") for line in ("", "\udcff", "# kgchains checkpoint", "x v5")])
def test_first_line_other_than_the_v5_header_is_a_data_error(art, tmp_path, capsys, first, message):
    raw = checkpoint_path(art, "game_mlp").read_bytes()  # the rest kept after the replaced first line
    first = first.encode("utf-8", "surrogateescape")  # "\udcff" is the non-UTF-8 byte 0xff
    err = expect_data_error(art, tmp_path / "ck.txt", first + raw[raw.index(b"\n") :], capsys)
    assert f"data error: {message}: {tmp_path / 'ck.txt'}\n" in err


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


def swap(old, new):
    def corrupt(raw):
        assert old in raw
        return raw.replace(old, new, 1)

    return corrupt


def payload_value(edit, index=0):
    """A v5 file with its payload's float64 value at ``index`` replaced by ``edit``."""

    def corrupt(raw):
        header, payload = split_v5(raw)
        values = np.frombuffer(payload, "<f8").copy()
        values[index] = edit(values[index])
        return header.encode("utf-8") + values.tobytes()

    return corrupt


# each applied to the d_all checkpoint (D = 4: layers 4 -> 2 -> 2 -> 2, d = 1), with its data error's exact message
CORRUPTIONS = {
    "no_end": (lambda raw: raw[: raw.index(b"\n[end]\n") + 1], "truncated checkpoint (no [end]): {path}"),
    "d_two": (swap(b"\nd = 1\n", b"\nd = two\n"),
              "corrupt checkpoint {path}: invalid literal for int() with base 10: 'two'"),
    "meta_without_equals": (swap(b"\nd = 1\n", b"\nd: 1\n"), "{path}:4: expected 'key = value'"),
    "meta_key_repeated": (swap(b"\nd = 1\n", b"\nd = 1\nd = 7\n"), "{path}:5: repeated key 'd'"),
    "meta_not_utf8": (swap(b"\nrelation = target\n", b"\nrelation = t\xffrget\n"),
                      "{path}: not UTF-8 text (byte 0xff: invalid start byte)"),
    "d_zero": (swap(b"\nd = 1\n", b"\nd = 0\n"), "checkpoint meta d = 0 must be an integer >= 1: {path}"),
    "d_negative": (swap(b"\nd = 1\n", b"\nd = -1\n"), "checkpoint meta d = -1 must be an integer >= 1: {path}"),
    # the mode names the networks: a game model's are the generator (40 values at D = 4), then the predictor
    "game_without_generator": (swap(b"\nmode = d_all\n", b"\nmode = game\n"),
                               "checkpoint payload has 176 bytes, its layer shapes need 496: {path}"),
    "mode_bogus": (swap(b"\nmode = d_all\n", b"\nmode = bogus\n"),
                   "checkpoint meta mode = bogus must be game or d_all: {path}"),
    "predictor_arch_bogus": (swap(b"\npredictor_arch = mlp\n", b"\npredictor_arch = rnn\n"),
                             "checkpoint meta predictor_arch = rnn must be mlp or linear: {path}"),
    "lambda_s_negative": (swap(b"\nlambda_s = 0.0\n", b"\nlambda_s = -0.5\n"),
                          "checkpoint meta lambda_s = -0.5 must be a finite number >= 0: {path}"),
    "lambda_s_nan": (swap(b"\nlambda_s = 0.0\n", b"\nlambda_s = nan\n"),
                     "checkpoint meta lambda_s = nan must be a finite number >= 0: {path}"),
    "lambda_s_inf": (swap(b"\nlambda_s = 0.0\n", b"\nlambda_s = inf\n"),
                     "checkpoint meta lambda_s = inf must be a finite number >= 0: {path}"),
    "unknown_version": (swap(b"checkpoint v", b"checkpoint v9 was v"),
                        "unsupported kgchains checkpoint v9 was v5: {path}"),
    "payload_8_bytes_short": (lambda raw: raw[:-8],
                              "checkpoint payload has 168 bytes, its layer shapes need 176: {path}"),
    "payload_1_byte_short": (lambda raw: raw[:-1],
                             "checkpoint payload has 175 bytes, its layer shapes need 176: {path}"),
    "payload_extra_byte": (lambda raw: raw + b"\0",
                           "checkpoint payload has 177 bytes, its layer shapes need 176: {path}"),
    "payload_7_bytes_short": (lambda raw: raw[:-7],
                              "checkpoint payload has 169 bytes, its layer shapes need 176: {path}"),
    "payload_7_bytes_long": (lambda raw: raw + b"\0" * 7,
                             "checkpoint payload has 183 bytes, its layer shapes need 176: {path}"),
    "payload_one_value_long": (lambda raw: raw + np.float64(1.0).tobytes(),
                               "checkpoint payload has 184 bytes, its layer shapes need 176: {path}"),
    "payload_nan": (payload_value(lambda value: np.nan), "checkpoint predictor network has a non-finite value: {path}"),
    "payload_inf": (payload_value(lambda value: -np.inf), "checkpoint predictor network has a non-finite value: {path}"),
    "payload_last_inf": (payload_value(lambda value: np.inf, -1),
                         "checkpoint predictor network has a non-finite value: {path}"),
    # the layer shapes follow predictor_arch: linear is 4 -> 2, 10 values
    "predictor_arch_linear": (swap(b"\npredictor_arch = mlp\n", b"\npredictor_arch = linear\n"),
                              "checkpoint payload has 176 bytes, its layer shapes need 80: {path}"),
    "no_payload": (lambda raw: split_v5(raw)[0].encode("utf-8"),
                   "checkpoint payload has 0 bytes, its layer shapes need 176: {path}"),
    # a header's lines end at LF, so a CRLF header has no [end] line; had it a payload, that would be read as header
    "crlf_no_payload": (lambda raw: split_v5(raw)[0].replace("\n", "\r\n").encode("utf-8"),
                        "truncated checkpoint (no [end]): {path}"),
    "header_not_utf8": (swap(b"\nd = 1\n", b"\nd = 1\n\xff\n"),
                        "{path}: not UTF-8 text (byte 0xff: invalid start byte)"),
    "read_as_v2": (swap(b"checkpoint v5", b"checkpoint v2"), "unsupported kgchains checkpoint v2: {path}"),
    "read_as_v3": (swap(b"checkpoint v5", b"checkpoint v3"), "unsupported kgchains checkpoint v3: {path}"),
    "read_as_v4": (swap(b"checkpoint v5", b"checkpoint v4"), "unsupported kgchains checkpoint v4: {path}"),
    "first_line_cr_no_lf": (lambda raw: raw[: raw.index(b"\n")] + b"\r", "truncated checkpoint (no [end]): {path}"),
}
CASES = sorted(CORRUPTIONS)


@pytest.mark.parametrize("case", CASES, ids=[f"v5-{case}" for case in CASES])
def test_corrupt_checkpoint_is_a_data_error(art, tmp_path, capsys, case):
    corrupt, message = CORRUPTIONS[case]
    bad = tmp_path / "ck.txt"
    err = expect_data_error(art, bad, corrupt(checkpoint_path(art, "d_all").read_bytes()), capsys)
    assert f"data error: {message.format(path=bad)}\n" in err


def test_long_meta_line_loads_and_scores_like_the_original(art, tmp_path, capsys):
    path = checkpoint_path(art, "game_mlp")
    padded = tmp_path / "padded.txt"
    padded.write_bytes(path.read_bytes().replace(b"\n", b"\npad = " + b"x" * 100_000 + b"\n", 1))
    (model, meta), (loaded, loaded_meta) = load_checkpoint(str(path)), load_checkpoint(str(padded))
    assert loaded_meta == {**meta, "pad": "x" * 100_000}
    for name in ("generator", "predictor"):
        a, b = getattr(model, name).flat, getattr(loaded, name).flat
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    reports = []
    for checkpoint in (path, padded):
        reports.append(tmp_path / f"report-{checkpoint.stem}.tsv")
        args = ["eval", "--artifacts", str(art), "--relation", REL, "--mode", "game_mlp", "--d", "2"]
        assert main(args + ["--checkpoint", str(checkpoint), "--out", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    capsys.readouterr()


def test_non_integer_vocabulary_support_is_a_data_error(art, capsys):
    path = art / REL / "vocab.tsv"
    original = path.read_text()
    try:
        path.write_text(original.replace("1\t3\t", "1\tthree\t"))
        assert eval_code(art) == 2
        assert "vocab.tsv:2: " in capsys.readouterr().err
    finally:
        path.write_text(original)


@pytest.mark.parametrize("command", [["eval"], ["export-rules"], ["export-rules", "--aggregate"]])
def test_vocabulary_index_out_of_place_is_a_data_error(art, capsys, command):
    """The first two lines swapped, and the third index ``x``: each a data error at its line."""
    path = art / REL / "vocab.tsv"
    original = path.read_text()
    lines = original.splitlines(keepends=True)
    args = [*command, "--artifacts", str(art), "--relation", REL, "--mode", "game_mlp", "--d", "2"]
    try:
        for text, message in ((lines[1] + lines[0] + "".join(lines[2:]), "1: expected index 0, not '1'"),
                              ("".join(lines[:2]) + "x" + "".join(lines[2:])[1:], "3: expected index 2, not 'x'")):
            path.write_text(text)
            assert main(args) == 2
            assert f"data error: {path}:{message}\n" in capsys.readouterr().err
    finally:
        path.write_text(original)


def test_repeated_meta_txt_key_is_a_data_error(art, capsys):
    path = art / REL / "meta.txt"
    original = path.read_text()
    try:
        path.write_text(original + f"vocab_size = {D}\n")
        assert eval_code(art) == 2
        assert f"data error: {path}:4: repeated key 'vocab_size'\n" in capsys.readouterr().err
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
