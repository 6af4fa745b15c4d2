import math
import os
import shutil

import numpy as np
import pytest

from kgchains import chains, checkpoint, cli, evaluate, game, neural
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
        order = [j for j in np.argsort(-mean, kind="stable") if count[j] > 0][:top_n]
        lines.append(f"target: top {len(order)} chains by mean selection probability")
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


def per_row_rules(model, test, names, top_n):
    """The per-row export-rules loop that the column-wise listing replaced, kept as the reference."""
    lines = []
    rows = zip(test.heads, test.tails, test.labels.tolist())
    counts = iter(test.availability.sum(axis=1).astype(int).tolist())
    for probs, order, logits in game.score_chunks(model, test.availability, top_n):
        order = order[:, :top_n]
        top_p = np.take_along_axis(probs, order, axis=1)
        chunk = zip(neural.softmax(logits)[:, 1].tolist(), counts, order.tolist(), top_p.tolist(), rows)
        for confidence, n, top, ps, (head, tail, label) in chunk:
            lines.append(f"{head} -> {tail} label={label} confidence={confidence:.4f}")
            if n == 0:
                lines.append("  (no chains)")
            for rank, j, p in zip(range(1, n + 1), top, ps):
                lines.append(f"  {rank}. {names[j]} (p={p:.4f})")
    return "\n".join(lines or [""]) + "\n"


@pytest.mark.parametrize("mode", ["game_mlp", "d_all"])
def test_export_rules_lists_as_the_per_row_loop(trained, tmp_path, capsys, mode):
    """Over two chunks of rows with 0, 1, a few and every chain available, at --top-n 0, 1, 3 and the
    vocabulary size, and on an empty split, the column-wise listing prints the per-row loop's bytes."""
    art = tmp_path / "artifacts"
    shutil.copytree(trained, art)
    path = art / "target" / "test.inst"
    model, _ = checkpoint.load_checkpoint(str(art / "target" / f"checkpoint.{mode}.d2.txt"))
    names, _ = chains.read_vocabulary_names(str(art / "target" / "vocab.tsv"))
    width = len(names)
    kept = path.read_text().splitlines()
    rows = []
    for i in range(game.SCORE_CHUNK + 60):
        head, tail, label, bits = kept[i % len(kept)].split("\t")
        bits = ["0" * width, "0" * (i % width) + "1" + "0" * (width - 1 - i % width), "1" * width, bits][i % 4]
        rows.append(f"{head}\t{tail}\t{label}\t{bits}\n")
    for text in ("".join(rows), ""):
        path.write_text(text)
        test = chains.read_instances(str(path))
        counts = set(test.availability.sum(axis=1).tolist())
        assert not text or {0, 1, width} <= counts and len(counts) > 3
        for top_n in (0, 1, 3, width):
            assert export_rules(art, mode, top_n, False, capsys) == per_row_rules(model, test, names, top_n), top_n


@pytest.mark.parametrize("mode", ["game_mlp", "d_all"])
def test_export_rules_aggregate_lists_only_chains_the_split_shows(trained, tmp_path, capsys, mode):
    art = tmp_path / "artifacts"
    shutil.copytree(trained, art)
    path = art / "target" / "test.inst"
    names, _ = chains.read_vocabulary_names(str(art / "target" / "vocab.tsv"))
    shown = "".join("1" if j in (1, 4) else "0" for j in range(len(names)))
    path.write_text("".join(f"{line.rsplit(chr(9), 1)[0]}\t{shown}\n" for line in path.read_text().splitlines()))
    out = export_rules(art, mode, len(names), True, capsys)
    assert out == reference_rules(art, mode, len(names), True)
    lines = out.splitlines()
    assert lines[0] == "target: top 2 chains by mean selection probability"
    assert sorted(line.split(". ")[1].split(" (")[0] for line in lines[1:]) == sorted([names[1], names[4]])
    assert "seen=0" not in out


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


@pytest.mark.parametrize(
    "relations, message",
    [
        (["missing_rel"], "unknown relation: 'missing_rel'"),
        # every task loads before the first extraction, so target's directory is not written either
        (["target", "nosuch"], "unknown relation: 'nosuch'"),
        (["target", "p0_0"], "task directory not found: "),
    ],
    ids=["unknown", "unknown-second", "no-task-directory"],
)
def test_missing_task_directory_exit_code(tmp_path, capsys, relations, message):
    bench = tmp_path / "bench"
    run(["benchmark", "--kind", "single", "--out", str(bench), "--train-groups", "4", "--test-groups", "2"])
    code = run([
        "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"),
        *[flag for relation in relations for flag in ("--relation", relation)], "--out", str(tmp_path / "a"),
    ])
    assert code == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


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
        # not train flags: training draws one mask a row, against a baseline of fixed momentum
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
        # not an eval flag: eval ranks each head's pairs
        ["eval", "--artifacts", "a", "--relation", "target", "--group-by", "global"],
        # a misspelt mode names the choices, rather than a checkpoint file that is not there
        ["eval", "--artifacts", "a", "--relation", "target", "--mode", "game_mpl"],
        ["export-rules", "--artifacts", "a", "--relation", "target", "--mode", "game_mpl"],
        TRAIN + ["--mode", "game_mpl"],
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


def test_benchmark_spec_data_error_writes_nothing(tmp_path, capsys, monkeypatch):
    """A spec whose flags are each in range but fail together is a data error, and leaves no ``--out``."""
    monkeypatch.chdir(tmp_path)
    assert run(["benchmark", "--kind", "conjunction", "--out", "bad", "--max-hops", "1"]) == 2
    assert capsys.readouterr().err == "data error: planted chain of length 2 exceeds max_hops 1\n"
    assert not os.listdir(tmp_path)


def test_range_checked_flags_accept_their_bounds():
    args = cli.build_parser().parse_args(
        TRAIN + ["--d", "1", "--lambda-s", "0", "--lr", "1e-9", "--seed", "0"]
    )
    assert (args.d, args.lambda_s, args.lr, args.seed) == (1, 0.0, 1e-9, 0)
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


def narrow_by_one_chain(art, vocab=True):
    """Lower meta.txt's vocab_size by one and cut the last column from every cache and, with
    ``vocab``, the last chain from the vocabulary; the checkpoints keep their width."""
    rel = art / "target"
    lines = (rel / "vocab.tsv").read_text().splitlines()
    if vocab:
        (rel / "vocab.tsv").write_text("\n".join(lines[:-1]) + "\n")
    meta = (rel / "meta.txt").read_text()
    assert f"vocab_size = {len(lines)}\n" in meta
    (rel / "meta.txt").write_text(meta.replace(f"vocab_size = {len(lines)}\n", f"vocab_size = {len(lines) - 1}\n"))
    for split in ("train", "dev", "test"):
        path = rel / f"{split}.inst"
        path.write_text("".join(line[:-1] + "\n" for line in path.read_text().splitlines()))
    return len(lines)


def test_eval_checkpoint_vocab_mismatch(tmp_path, capsys):
    art = pipeline(tmp_path)
    # the vocabulary and the caches agree with meta.txt, one chain narrower than the checkpoint
    size = narrow_by_one_chain(art)
    code = run([
        "eval", "--artifacts", str(art), "--relation", "target",
        "--mode", "game_mlp", "--d", "2",
    ])
    assert code == 2
    path = art / "target" / "checkpoint.game_mlp.d2.txt"
    expected = f"checkpoint/vocabulary mismatch for target: {path} expects {size} chains, vocabulary has {size - 1}"
    assert capsys.readouterr().err == f"data error: {expected}\n"


@pytest.mark.parametrize(
    "command", [["eval"], ["export-rules"], ["export-rules", "--aggregate"]], ids=" ".join
)
def test_vocabulary_wider_than_meta_is_a_data_error(trained, tmp_path, capsys, command):
    """meta.txt and the caches one chain narrower than the vocabulary and the checkpoint: every
    scoring command names the vocabulary before it loads the checkpoint."""
    art = tmp_path / "artifacts"
    shutil.copytree(trained, art)
    size = narrow_by_one_chain(art, vocab=False)
    argv = [command[0], "--artifacts", str(art), "--relation", "target", "--mode", "game_mlp", "--d", "2"]
    assert run(argv + command[1:]) == 2
    err = capsys.readouterr().err
    vocab = art / "target" / "vocab.tsv"
    assert err == f"data error: {vocab}: {size} chains, but meta.txt records vocab_size {size - 1}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, out", [("eval", "adir"), ("export-rules", "adir"), ("extract", "afile"), ("train", "afile"),
                     ("benchmark", "afile"), ("eval", "nodir/x.tsv")]
)
def test_out_path_that_cannot_be_written_is_a_data_error(trained, tmp_path, capsys, command, out):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    bench = trained.parent / "bench"
    scored = ["--artifacts", str(trained), "--relation", "target", "--mode", "game_mlp", "--d", "2"]
    flags = {
        "eval": scored,
        "export-rules": scored,
        "extract": ["--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"), "--relation", "target"],
        "train": scored + ["--epochs", "1"],
        "benchmark": ["--kind", "single", "--train-groups", "4", "--test-groups", "2"],
    }[command]
    assert run([command, *flags, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(tmp_path / out.split("/")[0]) in err and "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "" and not os.listdir(tmp_path / "adir")


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


def test_adapt_deeppath_rejects_an_empty_kb_field(tmp_path, capsys):
    """A tab-separated KB line with an empty field is a wrong field count, as ``extract`` would find in graph.tsv."""
    kb = tmp_path / "kb.txt"
    kb.write_text("a\tr\tb\nb\t\tc\n")
    task_dir = tmp_path / "task"
    task_dir.mkdir()
    (task_dir / "train.pairs").write_text("thing$a,thing$b: +\n")
    (task_dir / "test.pairs").write_text("thing$b,thing$c: -\n")
    out = tmp_path / "out"
    assert run(["adapt-deeppath", "--kb", str(kb), "--task-dir", str(task_dir), "--relation", "r",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {kb}:2: expected 3 fields\n"
    assert not out.exists()


def test_adapt_deeppath_rejects_an_entity_that_would_read_as_a_comment(tmp_path, capsys):
    """graph.tsv and .pairs readers skip a line that starts with ``#``, so an entity there is an error, not a
    triple and a positive pair that ``extract`` would silently drop."""
    kb = tmp_path / "kb.txt"
    kb.write_text("a r b\nb r c\n#x r y\ny r a\n")
    task_dir = tmp_path / "task"
    task_dir.mkdir()
    (task_dir / "train.pairs").write_text("thing$a,thing$c: -\nthing$#x,thing$y: +\n")
    (task_dir / "test.pairs").write_text("thing$b,thing$c: -\n")
    out = tmp_path / "out"
    assert run(["adapt-deeppath", "--kb", str(kb), "--task-dir", str(task_dir), "--relation", "r",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: entity '#x' starts with '#': its lines would read as comments\n"
    assert not out.exists()


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


@pytest.mark.parametrize("mode, message", [("d_all", "non-finite predictor loss at epoch 1"),
                                           ("game_mlp", "non-finite generator reward or gradient")])
def test_numeric_failure_exits_3_and_writes_nothing(trained, tmp_path, capsys, mode, message):
    out = tmp_path / "out"
    assert run([
        "train", "--artifacts", str(trained), "--relation", "target", "--mode", mode, "--d", "2",
        "--epochs", "2", "--lr", "1e300", "--seed", "5", "--out", str(out),
    ]) == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"
    assert not out.exists()


def test_extract_neg_ratio_samples_only_the_train_negatives(trained, tmp_path):
    """The train cache keeps every positive and ceil(ratio * positives) negatives, in pool order; the
    vocabulary and the other caches are those of a run without the flag, and meta.txt records the ratio."""
    bench, full = trained.parent / "bench", trained / "target"
    sampled = tmp_path / "sampled"
    assert run([
        "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"), "--relation", "target",
        "--out", str(sampled), "--max-hops", "2", "--seed", "5", "--neg-ratio", "0.5",
    ]) == 0
    rows = (full / "train.inst").read_text().splitlines()
    positives = [row for row in rows if row.split("\t")[2] == "1"]
    kept = (sampled / "target" / "train.inst").read_text().splitlines()
    assert len(rows) - len(positives) > math.ceil(0.5 * len(positives)) > 0
    assert [row for row in kept if row.split("\t")[2] == "1"] == positives
    assert len(kept) == len(positives) + math.ceil(0.5 * len(positives))
    assert kept == [row for row in rows if row in kept]  # pool order
    for name in ("vocab.tsv", "dev.inst", "test.inst"):
        assert (sampled / "target" / name).read_bytes() == (full / name).read_bytes(), name
    assert "neg_ratio = 0.5\n" in (sampled / "target" / "meta.txt").read_text()
    assert "neg_ratio = none\n" in (full / "meta.txt").read_text()


@pytest.mark.parametrize("split", ["dev", "test"])
def test_eval_of_an_empty_split_names_it(trained, tmp_path, capsys, split):
    art = tmp_path / "artifacts"
    shutil.copytree(trained, art)
    (art / "target" / f"{split}.inst").write_bytes(b"")
    out = tmp_path / "report.tsv"
    assert run(["eval", "--artifacts", str(art), "--relation", "target", "--mode", "d_all", "--d", "2",
                "--split", split, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: empty {split} split: {art / 'target' / f'{split}.inst'}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--aggregate"]], ids=["per-instance", "aggregate"])
def test_export_rules_out_writes_what_stdout_prints(trained, tmp_path, capsys, flags):
    art = tmp_path / "artifacts"
    shutil.copytree(trained, art)
    argv = ["export-rules", "--artifacts", str(art), "--relation", "target", "--mode", "game_mlp", "--d", "2", *flags]
    for test_rows in ("kept", "none"):
        if test_rows == "none":
            (art / "target" / "test.inst").write_bytes(b"")
        assert run(argv) == 0
        printed = capsys.readouterr().out
        assert run(argv + ["--out", str(tmp_path / "rules.txt")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "rules.txt").read_bytes() == printed.encode("utf-8")
    if not flags:
        assert printed == "\n"  # an empty test split, per instance: one LF
    else:  # and in aggregate, a header that lists no chain: the split shows none
        assert printed == "target: top 0 chains by mean selection probability\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--config", "{tmp}/nosuch.cfg"], "config file not found: {tmp}/nosuch.cfg"),
        (["train", "--config", "{tmp}/bad.cfg"], "{tmp}/bad.cfg:2: expected key=value"),
        # an empty key would inject "--", which ends the options and swallows the explicit flags
        (["train", "--config", "{tmp}/empty-key.cfg", "--artifacts", "art", "--relation", "target", "--epochs", "1"],
         "{tmp}/empty-key.cfg:1: expected key=value"),
        (["train", "--config"], "--config requires a path"),
        (["--config", "{tmp}/good.cfg"], "--config cannot supply the subcommand"),
        (["eval", "--artifacts", "a", "--relation", "target", "--mode", "game_mlp", "--mode", "d_all",
          "--mode", "game_linear", "--d", "1", "--d", "2"], "--d must be given once or once per --mode"),
        (["eval", "--artifacts", "a", "--relation", "target", "--mode", "game_mlp", "--mode", "d_all",
          "--checkpoint", "ck.txt"], "--checkpoint only applies to a single relation and mode"),
    ],
    ids=["config-missing", "config-line-without-equals", "config-empty-key", "config-without-path", "config-alone",
         "eval-d-twice-three-modes", "eval-checkpoint-two-modes"],
)
def test_config_and_eval_flag_errors_are_usage_errors(tmp_path, capsys, argv, message):
    (tmp_path / "bad.cfg").write_text("# a comment\nepochs 3\n")
    (tmp_path / "good.cfg").write_text("epochs = 3\n")
    (tmp_path / "empty-key.cfg").write_text(" = foo\n")
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr().err == f"usage error: {message.format(tmp=tmp_path)}\n"


def test_extract_without_a_positive_train_pair_is_a_data_error(tmp_path, capsys):
    (tmp_path / "graph.tsv").write_text("a\tr\tb\nb\ts\tc\nc\tr\td\na\tt\tc\n")
    task = tmp_path / "tasks" / "t"
    task.mkdir(parents=True)
    (task / "train.pairs").write_text("a\tc\t0\nb\td\t0\na\td\t0\nc\ta\t0\nd\tb\t0\n")
    (task / "test.pairs").write_text("a\tc\t1\n")
    assert run(["extract", "--graph", str(tmp_path / "graph.tsv"), "--tasks", str(tmp_path / "tasks"),
                "--relation", "t", "--out", str(tmp_path / "art"), "--max-hops", "2"]) == 2
    assert capsys.readouterr().err == "data error: no positive pairs to build a vocabulary from\n"
    assert not (tmp_path / "art").exists()
