"""Undecodable, misplaced or malformed input files are data errors (exit 2).

Every file that ``extract``, ``eval`` and ``adapt-deeppath`` read is, in
turn, given a byte that is not UTF-8 or replaced by a directory; the
command must exit 2 with a ``data error:`` message that names the file. The
``adapt-deeppath`` KB and pairs files are also fuzzed line by line; those
runs must exit 0 or 2, never raise. An empty KB, or a split whose pairs all
name entities missing from the KB, must exit 2 before any file is written.
"""

import shutil

import pytest

from kgchains.cli import main

REL = "target"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A benchmark, its extracted artifacts with a d_all checkpoint, and a DeepPath layout."""
    root = tmp_path_factory.mktemp("inputs")
    assert main([
        "benchmark", "--kind", "single", "--out", str(root / "bench"),
        "--train-groups", "6", "--test-groups", "3", "--seed", "2",
    ]) == 0
    assert main(extract_args(root)) == 0
    assert main([
        "train", "--artifacts", str(root / "art"), "--relation", REL,
        "--mode", "d_all", "--d", "2", "--epochs", "1",
    ]) == 0
    deeppath = root / "deeppath"
    (deeppath / "task").mkdir(parents=True)
    (deeppath / "kb.txt").write_text("a\tr\tb\nb\tr\tc\nc\ts\ta\n")
    (deeppath / "task" / "train.pairs").write_text("thing$a,thing$b: +\nthing$a,thing$c: -\n")
    (deeppath / "task" / "test.pairs").write_text("thing$b,thing$c: +\nthing$c,thing$b: -\n")
    return root


def extract_args(root):
    return [
        "extract", "--graph", str(root / "bench" / "graph.tsv"), "--tasks", str(root / "bench" / "tasks"),
        "--relation", REL, "--out", str(root / "art"), "--max-hops", "2",
    ]


def eval_args(root):
    return ["eval", "--artifacts", str(root / "art"), "--relation", REL, "--mode", "d_all", "--d", "2"]


def adapt_args(root):
    deeppath = root / "deeppath"
    return [
        "adapt-deeppath", "--kb", str(deeppath / "kb.txt"), "--task-dir", str(deeppath / "task"),
        "--relation", REL, "--out", str(root / "adapted"),
    ]


# (command, input file relative to the fixture root)
INPUTS = [
    (extract_args, "bench/graph.tsv"),
    (extract_args, f"bench/tasks/{REL}/train.pairs"),
    (extract_args, f"bench/tasks/{REL}/test.pairs"),
    (eval_args, f"art/{REL}/meta.txt"),
    (eval_args, f"art/{REL}/vocab.tsv"),
    (eval_args, f"art/{REL}/test.inst"),
    (eval_args, f"art/{REL}/checkpoint.d_all.d2.txt"),
    (adapt_args, "deeppath/kb.txt"),
    (adapt_args, "deeppath/task/train.pairs"),
    (adapt_args, "deeppath/task/test.pairs"),
]


def not_utf8(path):
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(len(lines) // 2, b"\xff\n")
    path.write_bytes(b"".join(lines))


def directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("corrupt", [not_utf8, directory])
@pytest.mark.parametrize("args, name", INPUTS, ids=[f"{a.__name__[:-5]}:{n}" for a, n in INPUTS])
def test_bad_input_file_is_a_data_error(inputs, tmp_path, capsys, corrupt, args, name):
    root = tmp_path / "copy"
    shutil.copytree(inputs, root)
    assert main(args(root)) == 0
    capsys.readouterr()
    corrupt(root / name)
    assert main(args(root)) == 2
    err = capsys.readouterr().err
    assert "data error: " in err and str(root / name) in err


def line_variants(text):
    """The file empty, and each line truncated, with 2 or 4 fields, a bad sign or no ``:``."""
    yield ""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        body = line.rstrip("\n")
        fields = body.split("\t") if "\t" in body else body.split(",")
        sep = "\t" if "\t" in body else ","
        for bad in (
            body[: len(body) // 2],
            sep.join(fields[:2]),
            sep.join(fields + ["x"]),
            body.replace("+", "*").replace("-", "*"),
            body.replace(":", ""),
        ):
            yield "".join(lines[:i] + [bad + "\n"] + lines[i + 1 :])


# per input file: contents that leave the adapted graph or a split empty
EMPTY_RESULTS = {
    "kb.txt": ["", "x\tr\ty\n"],
    "task/train.pairs": ["", "thing$a,thing$x: +\nthing$y,thing$b: -\n"],
    "task/test.pairs": ["", "thing$a,thing$x: +\nthing$y,thing$b: -\n"],
}


@pytest.mark.parametrize("name", sorted(EMPTY_RESULTS))
def test_adapt_deeppath_fuzz_exits_0_or_2(inputs, tmp_path, capsys, name):
    root = tmp_path / "copy"
    shutil.copytree(inputs / "deeppath", root / "deeppath")
    path = root / "deeppath" / name
    for text in line_variants(path.read_text()):
        path.write_text(text)
        assert main(adapt_args(root)) in (0, 2), text
    assert "data error: " in capsys.readouterr().err
    for text in EMPTY_RESULTS[name]:
        shutil.rmtree(root / "adapted", ignore_errors=True)
        path.write_text(text)
        assert main(adapt_args(root)) == 2, text
        assert not (root / "adapted").exists()
        assert "data error: " in capsys.readouterr().err
