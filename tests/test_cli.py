import math
import os
import shutil

import numpy as np
import pytest

from kgchains import chains, checkpoint, cli, evaluate, game
from kgchains.cli import main


def run(args):
    return main(args)


def pipeline(tmp_path, seed=4, epochs=3, extra_train=()):
    """benchmark -> extract -> train; returns the artifacts directory."""
    bench = tmp_path / "bench"
    art = tmp_path / "artifacts"
    assert run([
        "benchmark", "--kind", "conjunction", "--out", str(bench),
        "--seed", str(seed), "--train-groups", "10", "--test-groups", "5",
    ]) == 0
    assert run([
        "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"),
        "--relation", "target", "--out", str(art), "--max-hops", "2", "--seed", str(seed),
    ]) == 0
    assert run([
        "train", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2", "--epochs", str(epochs), "--seed", str(seed),
        *extra_train,
    ]) == 0
    return art


def test_end_to_end_pipeline(tmp_path, capsys):
    art = pipeline(tmp_path)
    assert (art / "target" / "vocab.tsv").exists()
    assert (art / "target" / "train.inst").exists()
    assert (art / "stats.tsv").exists()
    assert (art / "target" / "checkpoint.game_mlp.d2.txt").exists()
    assert (art / "target" / "trainlog.game_mlp.d2.tsv").exists()

    report = tmp_path / "eval.tsv"
    assert run([
        "eval", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2", "--out", str(report),
    ]) == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split("\t") == ["relation", "game_mlp.d2"]
    assert lines[2].split("\t")[0] == "target"
    assert lines[3].split("\t")[0] == "Average"
    out = capsys.readouterr().out
    assert "target" in out and "Average" in out


def test_extract_stats_report_mean_chains_per_instance(tmp_path, capsys):
    art = pipeline(tmp_path, epochs=1)
    splits = [chains.read_instances(str(art / "target" / f"{name}.inst")) for name in ("train", "dev", "test")]
    sizes = [row.n_available for split in splits for row in split]
    names, _ = chains.read_vocabulary_names(str(art / "target" / "vocab.tsv"))
    lines = (art / "stats.tsv").read_text().splitlines()
    header = "relation\tchains\tmean_chains_per_instance\tchains_before_cap"
    assert lines == [cli.STATS_SCHEMA, header, f"target\t{len(names)}\t{sum(sizes) / len(sizes):.6f}\t{len(names)}"]
    assert cli.STATS_SCHEMA == "# kgchains extract stats v2"
    assert f"chains={len(names)} mean_per_instance={sum(sizes) / len(sizes):.2f}" in capsys.readouterr().out


def test_extract_stats_report_how_much_the_cap_cut(tmp_path):
    """``chains_before_cap`` is the train positives' chain union that ``--max-chains`` cut."""
    art = pipeline(tmp_path, epochs=1)
    bench, capped = tmp_path / "bench", tmp_path / "capped"
    union, _ = chains.read_vocabulary_names(str(art / "target" / "vocab.tsv"))
    assert len(union) > 3
    assert run([
        "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"),
        "--relation", "target", "--out", str(capped), "--max-hops", "2", "--seed", "4", "--max-chains", "3",
    ]) == 0
    row = (capped / "stats.tsv").read_text().splitlines()[2].split("\t")
    assert (row[0], row[1], row[3]) == ("target", "3", str(len(union)))


def test_export_rules(tmp_path, capsys):
    art = pipeline(tmp_path)
    assert run([
        "export-rules", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2", "--top-n", "99",
    ]) == 0
    out = capsys.readouterr().out
    assert "confidence=" in out
    assert run([
        "export-rules", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2", "--aggregate",
    ]) == 0
    out = capsys.readouterr().out
    assert "top" in out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Artifacts with game_mlp and d_all checkpoints at d = 2."""
    root = tmp_path_factory.mktemp("trained")
    art = pipeline(root, seed=5, epochs=4)
    assert run([
        "train", "--artifacts", str(art), "--relation", "target",
        "--mode", "d_all", "--d", "2", "--epochs", "4", "--seed", "5",
    ]) == 0
    return art


def reference_rules(art, mode, top_n, aggregate):
    """export-rules text computed one test instance at a time."""
    rel = art / "target"
    model, _ = checkpoint.load_checkpoint(str(rel / f"checkpoint.{mode}.d2.txt"))
    names, _ = chains.read_vocabulary_names(str(rel / "vocab.tsv"))
    test = chains.read_instances(str(rel / "test.inst"))
    top_n = min(top_n, model.input_dim)
    lines = []
    if aggregate:
        weight = np.zeros(model.input_dim)
        count = np.zeros(model.input_dim)
        for inst in test:
            if model.generator is not None:
                weight += game.generator_probs(model, inst)
            else:
                weight += inst.availability
            count += inst.availability
        mean = np.divide(weight, count, out=np.zeros_like(weight), where=count > 0)
        order = np.argsort(-mean, kind="stable")[:top_n]
        lines.append(f"target: top {top_n} chains by mean selection probability")
        for rank, j in enumerate(order, start=1):
            lines.append(f"  {rank}. {names[j]} (mean_p={mean[j]:.4f}, seen={int(count[j])})")
        return "\n".join(lines) + "\n"
    for inst, confidence in zip(test, game.score_instances(model, test.availability)):
        lines.append(f"{inst.head} -> {inst.tail} label={inst.label} confidence={confidence:.4f}")
        if inst.n_available == 0:
            lines.append("  (no chains)")
            continue
        if model.generator is not None:
            probs = game.generator_probs(model, inst)
            available = [(probs[j], j) for j in range(model.input_dim) if inst.availability[j] > 0]
            chosen = sorted(available, key=lambda item: (-item[0], item[1]))[:top_n]
        else:
            chosen = [(1.0, j) for j in range(model.input_dim) if inst.availability[j] > 0][:top_n]
        for rank, (p, j) in enumerate(chosen, start=1):
            lines.append(f"  {rank}. {names[j]} (p={p:.4f})")
    return "\n".join(lines) + "\n"


def export_rules(art, mode, top_n, aggregate, capsys):
    args = [
        "export-rules", "--artifacts", str(art), "--relation", "target",
        "--mode", mode, "--d", "2", "--top-n", str(top_n),
    ]
    assert run(args + (["--aggregate"] if aggregate else [])) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("aggregate", [False, True])
@pytest.mark.parametrize("mode", ["game_mlp", "d_all"])
def test_export_rules_matches_the_per_instance_reference(trained, capsys, mode, aggregate):
    test = chains.read_instances(str(trained / "target" / "test.inst"))
    available = sorted({inst.n_available for inst in test})
    # none, below the smallest non-empty row, within the range, one more than --d, and above every row
    for top_n in (0, 1, available[len(available) // 2], 3, available[-1] + 1):
        out = export_rules(trained, mode, top_n, aggregate, capsys)
        assert out == reference_rules(trained, mode, top_n, aggregate), (mode, top_n)
    assert available[-1] > 1


def test_export_rules_breaks_probability_ties_to_the_lower_index(trained, tmp_path, capsys):
    """A generator with a zero last layer gives every available chain p = 0.5: each row
    lists its lowest-index available chains, and the reference agrees."""
    art = tmp_path / "artifacts"
    shutil.copytree(trained, art)
    path = art / "target" / "checkpoint.game_mlp.d2.txt"
    model, _ = checkpoint.load_checkpoint(str(path))
    for array in model.generator.layers[-1]:
        array[...] = 0.0
    checkpoint.save_checkpoint(str(path), model)
    test = chains.read_instances(str(art / "target" / "test.inst"))
    probs = game.selection_probs(model, test.availability)
    assert np.array_equal(probs, np.where(test.availability > 0, 0.5, 0.0))
    top_n = max(inst.n_available for inst in test)
    out = export_rules(art, "game_mlp", top_n, False, capsys)
    assert out == reference_rules(art, "game_mlp", top_n, False)
    names, _ = chains.read_vocabulary_names(str(art / "target" / "vocab.tsv"))
    listed = [line.split(". ", 1)[1] for line in out.splitlines() if line.startswith("  ") and ". " in line]
    expected = [names[j] + " (p=0.5000)" for row in test.availability for j in np.flatnonzero(row)]
    assert listed == expected


def test_export_rules_does_not_score_per_instance(trained, capsys, monkeypatch):
    def per_instance(*_):
        raise AssertionError("per-instance generator pass")

    expected = export_rules(trained, "game_mlp", 2, False, capsys)
    monkeypatch.setattr(game, "generator_probs", per_instance)
    assert export_rules(trained, "game_mlp", 2, False, capsys) == expected
    assert export_rules(trained, "game_mlp", 2, True, capsys)


def test_eval_average_adds_left_to_right(trained, tmp_path, monkeypatch, capsys):
    """Four MAPs whose mean prints 0.255567 added left to right and 0.255566 with the compensated
    sum() of Python >= 3.12: the Average row is the former on every Python."""
    maps = [0.2717021, 0.3354098, 0.121841, 0.2933131]
    assert f"{math.fsum(maps) / 4:.6f}" == "0.255566"
    art = tmp_path / "artifacts"
    for relation in ("r1", "r2", "r3", "r4"):
        shutil.copytree(trained / "target", art / relation)
    reports = iter(evaluate.EvalReport(value) for value in maps)
    monkeypatch.setattr(evaluate, "evaluate_task", lambda *_, **__: next(reports))
    out = tmp_path / "report.tsv"
    argv = ["eval", "--artifacts", str(art), "--mode", "d_all", "--d", "2", "--out", str(out)]
    assert run(argv + ["--relation", "r1", "--relation", "r2", "--relation", "r3", "--relation", "r4"]) == 0
    assert out.read_text().splitlines()[-1] == "Average\t0.255567"
    capsys.readouterr()


def test_two_mode_eval_reads_each_artifact_once(trained, monkeypatch, capsys):
    calls = []
    for name in ("read_vocabulary_names", "read_instances"):
        read = getattr(chains, name)
        monkeypatch.setattr(
            chains, name, lambda path, *rest, read=read: calls.append(os.path.basename(path)) or read(path, *rest)
        )
    assert run([
        "eval", "--artifacts", str(trained), "--relation", "target",
        "--mode", "game_mlp", "--mode", "d_all", "--d", "2",
    ]) == 0
    assert sorted(calls) == ["test.inst", "vocab.tsv"]
    assert "game_mlp.d2" in capsys.readouterr().out


def test_train_reads_only_the_train_and_dev_caches(trained, tmp_path, monkeypatch):
    art = tmp_path / "art"
    os.makedirs(art / "target")
    for name in ("meta.txt", "vocab.tsv", "train.inst", "dev.inst"):
        (art / "target" / name).write_bytes((trained / "target" / name).read_bytes())
    calls = []
    read = chains.read_instances
    monkeypatch.setattr(
        chains, "read_instances", lambda path, *rest: calls.append(os.path.basename(path)) or read(path, *rest)
    )
    assert run([
        "train", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2", "--epochs", "4", "--seed", "5",
    ]) == 0
    assert sorted(calls) == ["dev.inst", "train.inst"]
    for name in ("checkpoint.game_mlp.d2.txt", "trainlog.game_mlp.d2.tsv"):
        assert (art / "target" / name).read_bytes() == (trained / "target" / name).read_bytes(), name


def test_cached_parser_keeps_no_state_between_calls(trained, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    calls = [
        (["--mode", "game_mlp", "--d", "2", "--mode", "d_all", "--d", "2"], ["game_mlp.d2", "d_all.d2"]),
        (["--mode", "d_all", "--d", "2"], ["d_all.d2"]),
        (["--mode", "d_all", "--mode", "game_mlp", "--d", "2"], ["d_all.d2", "game_mlp.d2"]),
    ]
    for i, (flags, columns) in enumerate(calls):
        out = tmp_path / f"report{i}.tsv"
        assert run(["eval", "--artifacts", str(trained), "--relation", "target", *flags, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split("\t") == ["relation", *columns]


def test_missing_task_directory_exit_code(tmp_path, capsys):
    bench = tmp_path / "bench"
    run(["benchmark", "--kind", "single", "--out", str(bench), "--train-groups", "4", "--test-groups", "2"])
    code = run([
        "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"),
        "--relation", "missing_rel", "--out", str(tmp_path / "a"),
    ])
    assert code == 2
    assert "missing_rel" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["train", "--artifacts", "x"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert run(["no-such-command"]) == 1


TRAIN = ["train", "--artifacts", "a", "--relation", "target", "--epochs", "1"]
EXTRACT = ["extract", "--graph", "g.tsv", "--tasks", "tasks", "--relation", "target", "--out", "a"]
BENCHMARK = ["benchmark", "--kind", "single", "--out", "b"]


@pytest.mark.parametrize(
    "argv",
    [
        TRAIN + ["--d", "0"],
        TRAIN + ["--batch-size", "0"],
        TRAIN + ["--lambda-s", "-1"],
        TRAIN + ["--lambda-s", "nan"],
        TRAIN + ["--mc-samples", "0"],
        TRAIN + ["--baseline-momentum", "1"],
        TRAIN + ["--epochs", "-3"],
        TRAIN + ["--lr", "-0.5"],
        TRAIN + ["--lr", "inf"],
        TRAIN + ["--seed", "-1"],
        EXTRACT + ["--max-hops", "0"],
        EXTRACT + ["--neg-ratio", "0"],
        EXTRACT + ["--max-chains", "0"],
        ["export-rules", "--artifacts", "a", "--relation", "target", "--top-n", "-1"],
        ["export-rules", "--artifacts", "a", "--relation", "target", "--d", "0"],
        ["eval", "--artifacts", "a", "--relation", "target", "--d", "0"],
        ["eval", "--artifacts", "a", "--relation", "target", "--d", "-1"],
        # training picks its checkpoint on dev, which a ratio of 1 leaves empty
        EXTRACT + ["--split-ratio", "1.0"],
        EXTRACT + ["--split-ratio", "0"],
        EXTRACT + ["--split-ratio", "1.5"],
        BENCHMARK + ["--seed", "-1"],
        BENCHMARK + ["--entities", "0"],
        BENCHMARK + ["--relations", "0"],
        BENCHMARK + ["--max-hops", "0"],
        BENCHMARK + ["--train-groups", "0"],
        BENCHMARK + ["--test-groups", "0"],
        BENCHMARK + ["--negatives-per-group", "-1"],
        BENCHMARK + ["--noise", "1"],
        BENCHMARK + ["--noise", "-0.1"],
        BENCHMARK + ["--distractor-rate", "1.5"],
        BENCHMARK + ["--weak-pos-rate", "-0.5"],
        BENCHMARK + ["--weak-neg-rate", "nan"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and argv[-2] in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


def test_range_checked_flags_accept_their_bounds():
    args = cli.build_parser().parse_args(
        TRAIN + ["--d", "1", "--lambda-s", "0", "--baseline-momentum", "0", "--lr", "1e-9", "--seed", "0"]
    )
    assert (args.d, args.lambda_s, args.baseline_momentum, args.lr, args.seed) == (1, 0.0, 0.0, 1e-9, 0)
    args = cli.build_parser().parse_args(
        EXTRACT + ["--max-hops", "1", "--max-chains", "1", "--neg-ratio", "0.5", "--split-ratio", "0.01"]
    )
    assert (args.max_hops, args.max_chains, args.neg_ratio, args.split_ratio) == (1, 1, 0.5, 0.01)
    counts = ("--entities", "--relations", "--max-hops", "--train-groups", "--test-groups", "--negatives-per-group")
    rates = ("--distractor-rate", "--weak-pos-rate", "--weak-neg-rate")
    for rate in ("0", "1"):
        argv = BENCHMARK + [flag for count in counts for flag in (count, "1")] + ["--noise", "0"]
        args = cli.build_parser().parse_args(argv + [flag for name in rates for flag in (name, rate)])
        assert (args.entities, args.negatives_per_group, args.noise, args.weak_neg_rate) == (1, 1, 0.0, float(rate))


def test_config_file_supplies_defaults(tmp_path, capsys):
    bench = tmp_path / "bench"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = single\nout = {}\ntrain-groups = 4\ntest-groups = 2\n".format(bench))
    assert run(["benchmark", "--config", str(cfg)]) == 0
    assert (bench / "graph.tsv").exists()
    # explicit flags override config values
    bench2 = tmp_path / "bench2"
    assert run(["benchmark", "--config", str(cfg), "--out", str(bench2)]) == 0
    assert (bench2 / "graph.tsv").exists()
    # and replace the config's values of a repeatable flag instead of adding to them
    art = pipeline(tmp_path, epochs=1)
    cfg.write_text(f"artifacts = {art}\nrelation = nosuch\nepochs = 1\nseed = 4\n")
    # with the config's path as the next argument or after '='
    for i, flags in enumerate([
        ["--config", str(cfg), "--relation", "target"],
        ["--config", str(cfg), "--relation=target"],
        [f"--config={cfg}", "--relation", "target"],
    ]):
        out = tmp_path / f"train{i}"
        assert run(["train", *flags, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["target"]
    # an abbreviated flag is a usage error, not a second value beside the config's
    capsys.readouterr()
    assert run(["train", "--config", str(cfg), "--rel", "target", "--out", str(tmp_path / "abbrev")]) == 1
    assert "usage error: unrecognized arguments: --rel target" in capsys.readouterr().err
    assert not (tmp_path / "abbrev").exists()
    cfg.write_text(f"artifacts = {art}\nrelation = target\nmode = d_all\nd = 3\n")
    for flags in (["--mode", "game_mlp", "--d", "2"], ["--mode=game_mlp", "--d=2"]):
        report = tmp_path / f"report{len(flags)}.tsv"
        assert run(["eval", "--config", str(cfg), "--relation", "target", *flags, "--out", str(report)]) == 0
        assert report.read_text().splitlines()[1] == "relation\tgame_mlp.d2"


def test_eval_checkpoint_vocab_mismatch(tmp_path, capsys):
    art = pipeline(tmp_path)
    vocab_path = art / "target" / "vocab.tsv"
    lines = vocab_path.read_text().splitlines()
    vocab_path.write_text("\n".join(lines[:-1]) + "\n")
    meta_path = art / "target" / "meta.txt"
    meta = meta_path.read_text().replace(
        f"vocab_size = {len(lines)}", f"vocab_size = {len(lines) - 1}"
    )
    meta_path.write_text(meta)
    # instance caches still carry the original width: loading them fails first,
    # so point eval at dev/test caches rewritten to the truncated width
    code = run([
        "eval", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err


@pytest.mark.parametrize("bad", ["vocab_size = abc", ""])
def test_corrupt_meta_is_a_data_error(tmp_path, capsys, bad):
    art = pipeline(tmp_path, epochs=1)
    meta_path = art / "target" / "meta.txt"
    lines = [
        bad if line.startswith("vocab_size = ") else line
        for line in meta_path.read_text().splitlines()
    ]
    meta_path.write_text("\n".join(lines) + "\n")
    code = run([
        "train", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2", "--epochs", "1",
    ])
    assert code == 2
    assert "vocab_size" in capsys.readouterr().err


def test_rerun_extract_is_byte_identical(tmp_path):
    bench = tmp_path / "bench"
    run([
        "benchmark", "--kind", "conjunction", "--out", str(bench),
        "--seed", "9", "--train-groups", "8", "--test-groups", "4",
    ])
    outs = []
    for name in ("a1", "a2"):
        art = tmp_path / name
        assert run([
            "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"),
            "--relation", "target", "--out", str(art), "--max-hops", "2", "--seed", "9",
        ]) == 0
        outs.append(art)
    for rel_file in ("vocab.tsv", "train.inst", "dev.inst", "test.inst"):
        a = (outs[0] / "target" / rel_file).read_bytes()
        b = (outs[1] / "target" / rel_file).read_bytes()
        assert a == b, rel_file


def test_adapt_deeppath_missing_inputs_exit_code(tmp_path, capsys):
    kb = tmp_path / "kb.txt"
    task_dir = tmp_path / "task"
    task_dir.mkdir()
    args = ["adapt-deeppath", "--kb", str(kb), "--task-dir", str(task_dir),
            "--relation", "r", "--out", str(tmp_path / "out")]
    assert run(args) == 2
    assert "kb.txt" in capsys.readouterr().err
    kb.write_text("a\tr\tb\n")
    assert run(args) == 2
    assert "train.pairs" in capsys.readouterr().err
    (task_dir / "train.pairs").write_text("thing$a,thing$b: +\n")
    assert run(args) == 2
    assert "test.pairs" in capsys.readouterr().err
    (task_dir / "test.pairs").write_text("thing$a,thing$b: -\n")
    assert run(args) == 0
    assert (tmp_path / "out" / "tasks" / "r" / "test.pairs").read_text() == "a\tb\t0\n"


def test_adapt_deeppath_output_bytes(tmp_path):
    """KB lines in file order, a duplicate kept; ``thing$`` stripped; sort_test.pairs over test.pairs;
    a pair with an entity missing from the KB skipped."""
    kb = tmp_path / "kb.txt"
    kb.write_text("a\tr\tb\nb\tr\tc\n\na\tr\tb\nc s d\n")
    task_dir = tmp_path / "task"
    task_dir.mkdir()
    (task_dir / "train.pairs").write_text("thing$a,thing$b: +\nthing$a,thing$zz: -\n\na,c: -\n")
    (task_dir / "sort_test.pairs").write_text("thing$b,thing$c: +\nthing$c,thing$d: -\n")
    (task_dir / "test.pairs").write_text("thing$a,thing$d: +\n")
    out = tmp_path / "out"
    args = ["adapt-deeppath", "--kb", str(kb), "--task-dir", str(task_dir), "--relation", "r", "--out", str(out)]
    assert run(args) == 0
    assert {str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*")) if p.is_file()} == {
        "graph.tsv": "a\tr\tb\nb\tr\tc\na\tr\tb\nc\ts\td\n",
        "tasks/r/test.pairs": "b\tc\t1\nc\td\t0\n",
        "tasks/r/train.pairs": "a\tb\t1\na\tc\t0\n",
    }


def test_extract_rejects_a_relation_name_that_does_not_invert_back(tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text("a\tx_inv_inv\tb\n")
    task = tmp_path / "tasks" / "x_inv_inv"
    task.mkdir(parents=True)
    for name in ("train.pairs", "test.pairs"):
        (task / name).write_text("a\tb\t1\n")
    args = ["extract", "--graph", str(graph), "--tasks", str(tmp_path / "tasks"),
            "--relation", "x_inv_inv", "--out", str(tmp_path / "art"), "--max-hops", "2"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert f"data error: {graph}:1: relation 'x_inv_inv' ends in '_inv_inv'" in err
    assert not (tmp_path / "art").exists()
