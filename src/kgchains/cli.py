"""Command-line pipeline: benchmark | extract | train | eval | export-rules.

All machine-readable outputs are tab-separated with a schema comment line;
identical inputs and seeds reproduce them byte for byte. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys

import numpy as np

from . import benchmark as bench
from . import chains, checkpoint, evaluate, game, graph, neural
from .errors import DataError, NumericError, UsageError
from .util import open_text, read_fields, write_fields

log = logging.getLogger(__name__)

EVAL_SCHEMA = "# kgchains eval report v1"
STATS_SCHEMA = "# kgchains extract stats v2"


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # an abbreviated flag would slip past _apply_config's explicit flags
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _checked(kind, ok, requirement: str):
    """An argparse type: ``kind`` of the flag's text, a usage error unless ``ok`` holds."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} must be {requirement}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
RATIO = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
BELOW_ONE = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
PROBABILITY = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")

# the BenchmarkSpec fields that `benchmark` takes as flags, in --help order, with each flag's type
BENCHMARK_FLAGS = {
    "seed": NON_NEGATIVE_INT, "entities": POSITIVE_INT, "relations": POSITIVE_INT, "noise": BELOW_ONE,
    "max_hops": POSITIVE_INT, "train_groups": POSITIVE_INT, "test_groups": POSITIVE_INT,
    "negatives_per_group": POSITIVE_INT,
    "distractor_rate": PROBABILITY, "weak_pos_rate": PROBABILITY, "weak_neg_rate": PROBABILITY,
}


def _read_config_file(path: str) -> list[list[str]]:
    """key=value lines, each as its flag and value (none if empty)."""
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    injected: list[list[str]] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            value = value.strip()
            injected.append([f"--{key.strip()}", *([value] if value else [])])
    return injected


def _apply_config(argv: list[str]) -> list[str]:
    at = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if at is None:
        return argv
    _, inline, path = argv[at].partition("=")
    if not inline and at + 1 >= len(argv):
        raise UsageError("--config requires a path")
    injected = _read_config_file(path if inline else argv[at + 1])
    rest = argv[:at] + argv[at + (1 if inline else 2) :]
    if not rest:
        raise UsageError("--config cannot supply the subcommand")
    # the config's flags go first, minus those given explicitly: a repeatable flag would add to them
    given = {arg.partition("=")[0] for arg in rest[1:] if arg.startswith("--")}
    return [rest[0]] + [arg for flag in injected if flag[0] not in given for arg in flag] + rest[1:]


# -- artifact layout -------------------------------------------------------


def _relation_dir(artifacts: str, relation: str) -> str:
    return os.path.join(artifacts, relation)


def _vocab_path(artifacts: str, relation: str) -> str:
    return os.path.join(_relation_dir(artifacts, relation), "vocab.tsv")


def _instances_path(artifacts: str, relation: str, split: str) -> str:
    return os.path.join(_relation_dir(artifacts, relation), f"{split}.inst")


def _meta_path(artifacts: str, relation: str) -> str:
    return os.path.join(_relation_dir(artifacts, relation), "meta.txt")


def _checkpoint_path(artifacts: str, relation: str, mode: str, d: int) -> str:
    return os.path.join(_relation_dir(artifacts, relation), f"checkpoint.{mode}.d{d}.txt")


def _trainlog_path(artifacts: str, relation: str, mode: str, d: int) -> str:
    return os.path.join(_relation_dir(artifacts, relation), f"trainlog.{mode}.d{d}.tsv")


def _read_meta(artifacts: str, relation: str) -> tuple[dict, int]:
    """``meta.txt``'s fields and the vocabulary size it records."""
    path = _meta_path(artifacts, relation)
    if not os.path.isfile(path):
        raise DataError(f"extraction metadata not found: {path}")
    with open_text(path) as fh:
        meta = read_fields((line.rstrip("\n") for line in fh), path)
    try:
        return meta, int(meta["vocab_size"])
    except (KeyError, ValueError):
        raise DataError(f"{path}: vocab_size is missing or not an integer") from None


def _load_training_task(artifacts: str, relation: str) -> tuple[chains.EncodedTask, dict]:
    """The train and dev splits; training never reads the test split, so it is left empty."""
    meta, size = _read_meta(artifacts, relation)
    train, dev = (chains.read_instances(_instances_path(artifacts, relation, name), size) for name in ("train", "dev"))
    test = chains.Split([], [], np.zeros(0, dtype=np.int64), np.zeros((0, size), np.uint8))
    return chains.EncodedTask(relation, size, train, dev, test), meta


# -- subcommands ------------------------------------------------------------


def cmd_benchmark(args) -> int:
    flags = {name: getattr(args, name) for name in BENCHMARK_FLAGS}
    spec = bench.BenchmarkSpec(rule=args.kind.replace("-", "_"), **flags)
    os.makedirs(args.out, exist_ok=True)
    graph_path, tasks_dir = bench.write_benchmark(spec, args.out)
    print(f"benchmark written: graph={graph_path} tasks={tasks_dir} relation={spec.target_name}")
    return 0


def cmd_extract(args) -> int:
    kg = graph.load_triples(args.graph, add_inverses=not args.no_inverses)
    stats_rows = []
    for relation in args.relation:
        task = graph.load_task(args.tasks, relation, kg, args.split_ratio, args.seed)
        if args.neg_ratio is not None:
            train_pairs = graph.downsample_negatives(task.train, args.neg_ratio, args.seed)
            task = graph.TaskDataset(task.target, task.relation, train_pairs, task.dev, task.test)
        vocab, data = chains.extract_task(kg, task, args.max_hops, args.max_chains)

        rel_dir = _relation_dir(args.out, relation)
        os.makedirs(rel_dir, exist_ok=True)
        chains.write_vocabulary(_vocab_path(args.out, relation), vocab, kg)
        for split in ("train", "dev", "test"):
            chains.write_instances(
                _instances_path(args.out, relation, split), getattr(data, split), kg
            )
        with open(_meta_path(args.out, relation), "w", encoding="utf-8") as fh:
            write_fields(
                fh,
                {
                    "relation": relation,
                    "vocab_size": vocab.size,
                    "max_hops": args.max_hops,
                    "max_chains": args.max_chains,
                    "split_ratio": args.split_ratio,
                    "seed": args.seed,
                    "neg_ratio": args.neg_ratio if args.neg_ratio is not None else "none",
                },
            )
        row_sums = np.concatenate([split.availability.sum(axis=1) for split in (data.train, data.dev, data.test)])
        mean = float(row_sums.mean())
        stats_rows.append((relation, vocab.size, mean, vocab.union_size))
        print(f"extracted {relation}: chains={vocab.size} mean_per_instance={mean:.2f}")

    with open(os.path.join(args.out, "stats.tsv"), "w", encoding="utf-8") as fh:
        fh.write(STATS_SCHEMA + "\n")
        fh.write("relation\tchains\tmean_chains_per_instance\tchains_before_cap\n")
        for relation, total, mean, union in stats_rows:
            fh.write(f"{relation}\t{total}\t{mean:.6f}\t{union}\n")
    return 0


def _train_config(args) -> game.TrainConfig:
    return game.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        baseline_momentum=args.baseline_momentum,
        mc_samples_per_instance=args.mc_samples,
    )


def cmd_train(args) -> int:
    out = args.out or args.artifacts
    for relation in args.relation:
        data, meta = _load_training_task(args.artifacts, relation)
        config = _train_config(args)
        result = game.train_mode(data, config, args.mode, args.d, args.lambda_s)

        os.makedirs(_relation_dir(out, relation), exist_ok=True)
        ck_path = _checkpoint_path(out, relation, args.mode, args.d)
        checkpoint.save_checkpoint(
            ck_path,
            result.model,
            {
                "relation": relation,
                "run_mode": args.mode,
                "seed": args.seed,
                "epochs": args.epochs,
                "best_epoch": result.best_epoch,
                "best_dev_map": f"{result.best_dev_map:.6f}",
                "max_hops": meta.get("max_hops", ""),
                "vocab": os.path.basename(_vocab_path(args.artifacts, relation)),
            },
        )
        log_path = _trainlog_path(out, relation, args.mode, args.d)
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write("# kgchains train log v1\n")
            fh.write("epoch\tloss_p\tloss_c\tmean_reward\tmean_selected\tdev_map\n")
            for stats in result.log:
                fh.write(stats.as_line() + "\n")
        print(
            f"trained {relation} mode={args.mode} d={args.d}: "
            f"best_dev_map={result.best_dev_map:.4f} (epoch {result.best_epoch}) -> {ck_path}"
        )
    return 0


def _load_model(args, relation: str, mode: str, d: int, names: list[str]) -> game.GameModel:
    """The checkpoint's model, checked against the chain names of the vocabulary."""
    path = args.checkpoint or _checkpoint_path(args.artifacts, relation, mode, d)
    model, _ = checkpoint.load_checkpoint(path)
    if len(names) != model.input_dim:
        raise DataError(
            f"checkpoint/vocabulary mismatch for {relation}: "
            f"{path} expects {model.input_dim} chains, vocabulary has {len(names)}"
        )
    return model


def cmd_eval(args) -> int:
    args.mode = args.mode or [game.MODE_GAME_MLP]
    args.d = args.d or [5]
    if len(args.d) == 1 and len(args.mode) > 1:
        args.d = args.d * len(args.mode)
    if len(args.d) != len(args.mode):
        raise UsageError("--d must be given once or once per --mode")
    if args.checkpoint and (len(args.relation) > 1 or len(args.mode) > 1):
        raise UsageError("--checkpoint only applies to a single relation and mode")
    modes = list(zip(args.mode, args.d))
    reports = {}
    for relation in args.relation:
        _, size = _read_meta(args.artifacts, relation)
        instances = chains.read_instances(_instances_path(args.artifacts, relation, args.split), size)
        names, _ = chains.read_vocabulary_names(_vocab_path(args.artifacts, relation))
        reports[relation] = [
            evaluate.evaluate_task(_load_model(args, relation, mode, d, names), instances, group_by=args.group_by)
            for mode, d in modes
        ]

    header = ["relation"] + [f"{mode}.d{d}" for mode, d in modes]
    rows = [[relation] + [f"{report.map:.6f}" for report in reports[relation]] for relation in args.relation]
    # cumsum adds left to right on every Python; sum() compensates from 3.12 on
    averages = ["Average"] + [
        f"{np.cumsum([reports[r][col].map for r in args.relation])[-1] / len(args.relation):.6f}"
        for col in range(len(modes))
    ]

    width = max(len(cell) for row in [header] + rows + [averages] for cell in row) + 2
    for row in [header] + rows + [averages]:
        print("".join(cell.ljust(width) for cell in row).rstrip())
    skipped = sum(report.skipped for r in args.relation for report in reports[r])
    if skipped:
        print(f"(skipped {skipped} group(s) without positives)")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(EVAL_SCHEMA + "\n")
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(row) + "\n")
            fh.write("\t".join(averages) + "\n")
    return 0


def cmd_export_rules(args) -> int:
    relation = args.relation
    _, size = _read_meta(args.artifacts, relation)
    test = chains.read_instances(_instances_path(args.artifacts, relation, "test"), size)
    names, _ = chains.read_vocabulary_names(_vocab_path(args.artifacts, relation))
    model = _load_model(args, relation, args.mode, args.d, names)
    top_n = min(args.top_n, model.input_dim)

    lines: list[str] = []
    if args.aggregate:
        weight = np.zeros(model.input_dim)
        for start in range(0, len(test), game.SCORE_CHUNK):
            weight += game.selection_probs(model, test.availability[start : start + game.SCORE_CHUNK]).sum(axis=0)
        count = test.availability.sum(axis=0)
        mean = np.divide(weight, count, out=np.zeros_like(weight), where=count > 0)
        order = np.argsort(-mean, kind="stable")[:top_n]
        lines.append(f"{relation}: top {top_n} chains by mean selection probability")
        for rank, j in enumerate(order, start=1):
            lines.append(f"  {rank}. {names[j]} (mean_p={mean[j]:.4f}, seen={int(count[j])})")
    else:
        rows = zip(test.heads, test.tails, test.labels.tolist())
        for availability, probs, order, logits in game.score_chunks(model, test.availability, top_n):
            order = order[:, :top_n]
            top_p = np.take_along_axis(probs, order, axis=1)
            counts = availability.sum(axis=1).astype(int)
            chunk = zip(neural.softmax(logits)[:, 1].tolist(), counts.tolist(), order.tolist(), top_p.tolist(), rows)
            for confidence, n, top, ps, (head, tail, label) in chunk:  # rows last: a chunk's end draws no row
                lines.append(f"{head} -> {tail} label={label} confidence={confidence:.4f}")
                if n == 0:
                    lines.append("  (no chains)")
                for rank, j, p in zip(range(1, n + 1), top, ps):
                    lines.append(f"  {rank}. {names[j]} (p={p:.4f})")

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_adapt_deeppath(args) -> int:
    """Convert a DeepPath-style dataset layout into the task format."""
    test_file = os.path.join(args.task_dir, "sort_test.pairs")
    if not os.path.isfile(test_file):
        test_file = os.path.join(args.task_dir, "test.pairs")
    train_file = os.path.join(args.task_dir, "train.pairs")
    for path in (args.kb, train_file, test_file):
        if not os.path.isfile(path):
            raise DataError(f"file not found: {path}")
    entities = set()
    triples = []
    with open_text(args.kb) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t") if "\t" in line else line.split()
            if len(fields) != 3:
                raise DataError(f"{args.kb}:{lineno}: expected 3 fields")
            triples.append(fields)
            entities.add(fields[0])
            entities.add(fields[2])
    if not triples:
        raise DataError(f"no triples in {args.kb}")

    def convert_pairs(path: str) -> tuple[list[graph.LabeledPair], int]:
        pairs, skipped = [], 0
        with open_text(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                body, _, sign = line.rpartition(":")
                sign = sign.strip()
                head, _, tail = body.partition(",")
                head = head.strip().removeprefix("thing$")
                tail = tail.strip().removeprefix("thing$")
                if sign not in ("+", "-") or not head or not tail:
                    raise DataError(f"{path}: malformed pair line: {line!r}")
                if head not in entities or tail not in entities:
                    skipped += 1
                    continue
                pairs.append(graph.LabeledPair(head, tail, 1 if sign == "+" else 0))
        return pairs, skipped

    train, train_skipped = convert_pairs(train_file)
    test, test_skipped = convert_pairs(test_file)
    for path, pairs, skipped in ((train_file, train, train_skipped), (test_file, test, test_skipped)):
        if not pairs:  # extract would fail on the empty split; fail before writing anything
            raise DataError(f"no pairs left in {path} ({skipped} with entities missing from {args.kb})")
    if train_skipped or test_skipped:
        log.info("skipped %d train / %d test pairs with unknown entities", train_skipped, test_skipped)

    graph.write_dataset(args.out, args.relation, triples, train, test)
    print(f"adapted: graph.tsv + tasks/{args.relation} under {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; each parse returns a fresh namespace."""
    parser = _Parser(prog="kgchains", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmark", help="generate a synthetic planted-rule dataset")
    p.add_argument("--kind", choices=["single", "conjunction", "noisy-weak"], required=True)
    p.add_argument("--out", required=True)
    for name, kind in BENCHMARK_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=getattr(bench.BenchmarkSpec, name))
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("extract", help="build chain vocabularies and encoded instances")
    p.add_argument("--graph", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--relation", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-hops", type=POSITIVE_INT, default=3)
    p.add_argument("--max-chains", type=POSITIVE_INT, default=10000)
    # training picks its checkpoint on dev, so a ratio of 1 (no dev pairs) is out of range
    p.add_argument("--split-ratio", type=RATIO, default=0.8)
    p.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    p.add_argument("--neg-ratio", type=POSITIVE, default=None)
    p.add_argument("--no-inverses", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on extracted artifacts")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--relation", action="append", required=True)
    p.add_argument("--mode", choices=list(game.ALL_MODES), default=game.MODE_GAME_MLP)
    p.add_argument("--d", type=POSITIVE_INT, default=5)
    p.add_argument("--epochs", type=POSITIVE_INT, required=True)
    p.add_argument("--lr", type=POSITIVE, default=0.001)
    p.add_argument("--batch-size", type=POSITIVE_INT, default=20)
    p.add_argument("--lambda-s", type=NON_NEGATIVE, default=1.0)
    p.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    p.add_argument("--baseline-momentum", type=BELOW_ONE, default=0.9)
    p.add_argument("--mc-samples", type=POSITIVE_INT, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints and report MAP")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--relation", action="append", required=True)
    p.add_argument("--mode", action="append", default=None)
    p.add_argument("--d", type=POSITIVE_INT, action="append", default=None)
    p.add_argument("--checkpoint", default=None, help="explicit checkpoint path (single relation/mode)")
    p.add_argument("--split", choices=["test", "dev"], default="test")
    p.add_argument("--group-by", choices=["head", "global"], default="head")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-rules", help="write the selected chains per test instance")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--mode", default=game.MODE_GAME_MLP)
    p.add_argument("--d", type=POSITIVE_INT, default=5)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--top-n", type=NON_NEGATIVE_INT, default=5)
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_rules)

    p = sub.add_parser("adapt-deeppath", help="convert a DeepPath-style dataset layout")
    p.add_argument("--kb", required=True)
    p.add_argument("--task-dir", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapt_deeppath)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
