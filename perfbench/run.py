"""Pipeline benchmark for kgchains: extract, train and score, end to end and per layer.

Run one workload (the last line of standard output is the JSON result):

    python3 perfbench/run.py --workload conj-train --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the CLI pipeline (``extract`` -> ``train`` -> ``eval`` ->
``export-rules``, called in-process through ``kgchains.cli.main``) again and
again for ``--seconds`` and reports the end-to-end metrics as medians over
the repetitions. Times are normalised by a calibration loop that shares no
code with the program (see ``untraced``): they read as seconds on the
reference machine, and the times as measured are printed on the ``machine``
line and kept in ``.perfbench_work/result-<workload>-s<seed>-t0.json``.

``--trace 1`` runs the same seed untraced, traced (a span around each CLI
stage) and untraced again, then replays each stage through the library and
probes single calls, and reports the per-layer metrics, unnormalised. Spans
are written to ``.perfbench_work/spans-<workload>-s<seed>.jsonl``.

Run every workload, traced and untraced, and print every metric with its
unit; the exit code is non-zero if any output check failed:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The program only sees the files the workload generator writes. Every check
(generator determinism, CLI exit codes, byte-identical artifacts across
repetitions and between the untraced and traced runs, and a brute-force
reference for chain enumeration) counts toward ``attempted``/``failed``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: without it OpenBLAS sizes its own thread pool
# and the matrix-heavy workloads measure the scheduler. 1 <= nproc always.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "kgchains", "cli.py")):
    print(f"perfbench: kgchains sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import hubgraph  # noqa: E402
import layers  # noqa: E402
from kgchains import graph as kg_graph  # noqa: E402
from kgchains import chains as kg_chains  # noqa: E402
from kgchains.cli import main as cli_main  # noqa: E402
from reference import ReferenceGraph  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
TARGET = "target"
SETUP_REPEATS = 5  # setup_s is the median over this many fresh processes
MIN_REPS = 3  # pipeline repetitions per untraced run, at least
BLOCK_SHARE = 0.04  # a stage is re-run until it has taken this share of --seconds
REFERENCE_PAIRS = 6  # pairs per run checked against the brute-force enumerator
# calibrate() in seconds on the reference machine (2 shared vCPUs, Python
# 3.11, numpy 2.4) in its usual state; see Clock.
CALIBRATION_REF_S = 0.02
SHORT_CALL_S = 0.5  # calls shorter than this are rescaled by the calibration around them


def calibrate() -> float:
    """Seconds for a fixed mix of dict/set, small-matrix and string work.

    The mix resembles the program's own (chain enumeration, the dense
    networks, instance-cache parsing) but shares no code with it, so a
    change to the program never moves it; only the machine does.
    """
    # Without cyclic GC: a collection here would walk whatever the program
    # left alive, and the yardstick would slow down with the program.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _calibration_mix()
    finally:
        if collecting:
            gc.enable()


def _calibration_mix() -> float:
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    seen = set()
    for i in range(30000):
        key = (i % 997, i % 113)
        counts[key] = counts.get(key, 0) + 1
        seen.add((i * 7919) % 10007)
    matrix = np.full((96, 96), 0.5)
    for _ in range(60):
        matrix = np.tanh(matrix @ matrix * 0.01)
    "".join(str(i % 2) for i in range(30000))
    return time.perf_counter() - start


class Clock:
    """Times calls, and converts the times to seconds on the reference machine.

    On a shared machine the speed of a vCPU changes by 20-40% within
    seconds and between runs, and every stage moves with it; calibrate()
    moves the same way. A short call is rescaled by the calibrate() samples
    just before and after it, which on 0.2-second calls cut the spread of
    20-second medians from 20% to 2%. Two samples say little about a call of
    seconds, so a longer call is rescaled by the trimmed mean of every
    sample in the run, which cut the spread of pipeline_s from 22% to 7%.
    """

    def __init__(self) -> None:
        self.calibration = [calibrate()]

    def time(self, fn) -> tuple[tuple[float, float], object]:
        """((seconds, calibration around the call), result) of ``fn()``."""
        start = time.perf_counter()
        result = fn()
        took = time.perf_counter() - start
        self.calibration.append(calibrate())
        return (took, (self.calibration[-2] + self.calibration[-1]) / 2), result

    def reference(self, calls: list[tuple[float, float]]) -> float:
        """Reference seconds of calls timed by ``time``."""
        trim = len(self.calibration) // 10
        run = statistics.fmean(sorted(self.calibration)[trim: len(self.calibration) - trim])
        return sum(took * CALIBRATION_REF_S / (near if took < SHORT_CALL_S else run)
                   for took, near in calls)


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def conjunction_inputs(*flags: str) -> Callable[[int, str], None]:
    def generate(seed: int, out: str) -> None:
        argv = ["benchmark", "--kind", "conjunction", "--out", out, "--seed", str(seed), *flags]
        if quiet_cli(argv) != 0:
            raise RuntimeError(f"kgchains {' '.join(argv)} failed")

    return generate


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, str], None]
    max_hops: int
    modes: tuple[str, ...]
    epochs: int
    max_chains: int = 10000
    d: int = 2
    lr: float = 0.01

    def stages(self, mode: str) -> int:
        """Training stages a mode runs; single_chain_gen trains twice."""
        return 2 if mode == "single_chain_gen" else 1


# Why each workload exists is recorded in BENCHMARK.json. Sizes keep one
# pipeline to a few seconds on 2 cores so a run repeats it at least 3 times.
WORKLOADS = {
    # The README run (conjunction, k=2, D=23, 160 train instances), with 60
    # epochs instead of 300; training is nearly all of the time.
    "conj-train": Workload(
        conjunction_inputs(),
        max_hops=2,
        modes=("game_mlp", "d_all", "single_chain_gen"),
        epochs=60,
    ),
    # Zipf hub graph at k=3: time goes to per-pair path enumeration. The
    # raised learning rate lets 50 training groups reach a steady test MAP
    # in 8 epochs (at 0.01 game_mlp's dev MAP stayed near chance for 20
    # epochs).
    "hub-extract": Workload(
        hubgraph.write,
        max_hops=3,
        modes=("game_mlp", "d_all"),
        epochs=8,
        max_chains=300,
        lr=0.03,
    ),
    # D~200, thousands of cheap test pairs: per-pair fixed cost in
    # extraction, then one-at-a-time scoring. The entity pool grows with the
    # groups so tails never become super-hubs. At the default learning rate
    # game_mlp's test MAP swung between 0.49 and 0.99 across seeds; at 0.003
    # it stayed above 0.98 on ten seeds.
    "wide-score": Workload(
        conjunction_inputs(
            "--relations", "250", "--entities", "8000", "--train-groups", "100",
            "--test-groups", "1000", "--distractor-rate", "0.02",
        ),
        max_hops=2,
        modes=("game_mlp", "d_all"),
        epochs=15,
        lr=0.003,
    ),
    # Tiny shape for the harness smoke test; not a benchmark workload.
    "smoke": Workload(
        conjunction_inputs("--entities", "120", "--train-groups", "10", "--test-groups", "5"),
        max_hops=2,
        modes=("game_mlp", "d_all"),
        epochs=2,
    ),
}


class Checks:
    """Counts operations attempted and failed; a failure never stops the run silently."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


# -- pipeline --------------------------------------------------------------


def stage_argvs(w: Workload, inputs: str, out: str, seed: int) -> dict[str, list[list[str]]]:
    art = os.path.join(out, "artifacts")
    common = ["--artifacts", art, "--relation", TARGET]
    mode_flags = [flag for mode in w.modes for flag in ("--mode", mode, "--d", str(w.d))]
    return {
        "extract": [[
            "extract", "--graph", os.path.join(inputs, "graph.tsv"),
            "--tasks", os.path.join(inputs, "tasks"), "--relation", TARGET, "--out", art,
            "--max-hops", str(w.max_hops), "--max-chains", str(w.max_chains), "--seed", str(seed),
        ]],
        "train": [
            ["train", *common, "--mode", mode, "--d", str(w.d), "--epochs", str(w.epochs),
             "--lr", str(w.lr), "--seed", str(seed)]
            for mode in w.modes
        ],
        "eval": [["eval", *common, *mode_flags, "--out", os.path.join(out, "report.tsv")]],
        "export_rules": [[
            "export-rules", *common, "--mode", "game_mlp", "--d", str(w.d),
            "--top-n", str(w.d), "--out", os.path.join(out, "rules.txt"),
        ]],
    }


def run_call(argv: list[str], checks: Checks) -> bool:
    """Run one CLI call; a non-zero exit or a crash is a failed operation."""
    try:
        code = quiet_cli(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = "with an exception"
    return checks.expect(code == 0, f"kgchains {argv[0]} exited {code}")


def run_pipeline(w, inputs, out, seed, checks, tracer=None) -> dict[str, float] | None:
    """Stage -> seconds for one full pipeline, or None if a stage failed."""
    times = {}
    for stage, argvs in stage_argvs(w, inputs, out, seed).items():
        span = tracer.span(f"cli.{stage}", "cli") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            ok = all(run_call(argv, checks) for argv in argvs)
        times[stage] = time.perf_counter() - start
        if not ok:
            return None
    return times


def digests(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_map(out: str) -> float:
    """Mean over modes of the eval report's Average row."""
    with open(os.path.join(out, "report.tsv"), encoding="utf-8") as fh:
        average = [line for line in fh if line.startswith("Average\t")][-1]
    return statistics.fmean(float(v) for v in average.rstrip("\n").split("\t")[1:])


def count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


# -- checks ------------------------------------------------------------------


def check_reference(w: Workload, inputs: str, art: str, seed: int, checks: Checks) -> None:
    """Brute-force chains must equal enumerate_paths, and the cached bits must match.

    Query pairs alone never exercise the no-backtrack rule (a backtracking
    walk that ends at the tail needs the tail next to the head) nor the
    leakage guard, so each sampled head is also checked against one of its
    neighbours, and every edge labeled with the target relation is checked.
    """
    kg = kg_graph.load_triples(os.path.join(inputs, "graph.tsv"))
    ref = ReferenceGraph(os.path.join(inputs, "graph.tsv"))
    names, _ = kg_chains.read_vocabulary_names(os.path.join(art, TARGET, "vocab.tsv"))
    cached = {}
    for split in ("train", "dev", "test"):
        for inst in kg_chains.read_instances(os.path.join(art, TARGET, f"{split}.inst")):
            cached[(inst.head, inst.tail)] = inst.availability
    queries = sorted(cached)
    rng = np.random.default_rng([seed, 0x5EF])
    picked = [queries[i] for i in rng.choice(len(queries), size=min(REFERENCE_PAIRS, len(queries)), replace=False)]
    neighbours = [(h, ref.out[h][rng.integers(len(ref.out[h]))][1]) for h, _ in picked]
    leaks = [(h, t) for h, edges in ref.out.items() for r, t in edges if r == TARGET]
    for head, tail in picked + neighbours + leaks:
        expected = ref.chains(head, tail, w.max_hops, TARGET)
        found = kg_chains.enumerate_paths(
            kg, kg.entity_id(head), kg.entity_id(tail), w.max_hops,
            exclude=kg.relation_id(TARGET),
        )
        got = {tuple(kg.relation_name(r) for r in c.relations) for c in found}
        checks.expect(got == expected, f"enumerate_paths({head}, {tail}) != brute force")
        if (head, tail) in picked:
            bits = {names[j] for j in np.flatnonzero(cached[(head, tail)])}
            in_vocab = {"->".join(c) for c in expected} & set(names)
            checks.expect(bits == in_vocab, f"cached chains of ({head}, {tail}) != brute force")


# -- set-up ------------------------------------------------------------------


def setup(workload, seed, run_dir, checks, clock) -> tuple[str, list] | None:
    """Generate the inputs in fresh processes; (inputs dir, timed calls)."""
    calls, outputs = [], []
    for i in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"inputs{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--generate-only", out]
        call, proc = clock.time(lambda: subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120))
        if not checks.expect(proc.returncode == 0, f"input generation exited {proc.returncode}"):
            return None
        calls.append(call)
        outputs.append(out)
    first = digests(outputs[0])
    for out in outputs[1:]:
        checks.expect(digests(out) == first, "same seed generated different inputs")
    return outputs[0], calls


# -- runs --------------------------------------------------------------------


def seconds_of(calls: list[tuple[float, float]]) -> float:
    return sum(took for took, _ in calls)


def untraced(name: str, w: Workload, seed: int, seconds: float, run_dir: str, checks: Checks):
    """End-to-end metrics in reference seconds, plus the times as measured."""
    clock = Clock()
    made = setup(name, seed, run_dir, checks, clock)
    if made is None:
        return {}, {}
    inputs, setup_calls = made

    # Each repetition runs the pipeline once (for pipeline_s) and re-runs a
    # stage shorter than a block until the block is full, so short stages
    # get many samples spread over the run. A sample is the list of its
    # timed CLI calls.
    block = BLOCK_SHARE * seconds
    reps: list[list] = []
    samples: dict[str, list[list]] = {"extract": [], "train": [], "score": []}
    parts = {"extract": ["extract"], "train": ["train"], "score": ["eval", "export_rules"]}
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + seconds_of(reps[-1]) <= seconds:
        argvs = stage_argvs(w, inputs, os.path.join(run_dir, f"rep{len(reps)}"), seed)
        rep: list = []
        for key, names in parts.items():
            spent = 0.0
            while spent == 0.0 or spent < block:
                calls = []
                for argv in (argv for part in names for argv in argvs[part]):
                    call, ok = clock.time(lambda: run_call(argv, checks))
                    if not ok:
                        return {}, {}
                    calls.append(call)
                if spent == 0.0:
                    rep += calls
                spent += seconds_of(calls)
                samples[key].append(calls)
        reps.append(rep)

    digest = digests(os.path.join(run_dir, "rep0"))
    for i in range(1, len(reps)):
        checks.expect(digests(os.path.join(run_dir, f"rep{i}")) == digest,
                      f"repetition {i} wrote different artifacts")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    art = os.path.join(run_dir, "rep0", "artifacts")
    check_reference(w, inputs, art, seed, checks)
    rel = os.path.join(art, TARGET)
    n = {split: count_lines(os.path.join(rel, f"{split}.inst")) for split in ("train", "dev", "test")}
    visits = n["train"] * w.epochs * sum(w.stages(mode) for mode in w.modes)
    scored = n["test"] * (len(w.modes) + 1)

    ref = {key: statistics.median(clock.reference(c) for c in values) for key, values in samples.items()}
    metrics = {
        "setup_s": (statistics.median(clock.reference([c]) for c in setup_calls), "s"),
        "pipeline_s": (statistics.median(clock.reference(rep) for rep in reps), "s"),
        "extract_pairs_per_s": (sum(n.values()) / ref["extract"], "pairs/s"),
        "train_inst_per_s": (visits / ref["train"], "inst/s"),
        "score_inst_per_s": (scored / ref["score"], "inst/s"),
        "test_map": (test_map(os.path.join(run_dir, "rep0")), "MAP"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured = {
        "setup_s": statistics.median(c[0] for c in setup_calls),
        "pipeline_s": statistics.median(seconds_of(rep) for rep in reps),
        **{f"{key}_s": statistics.median(seconds_of(c) for c in values) for key, values in samples.items()},
    }
    return metrics, {"calibration": clock.calibration, "measured": measured}


def traced(name: str, w: Workload, seed: int, run_dir: str, checks: Checks):
    tracer = layers.Tracer(run_id=f"{name}-s{seed}-{os.getpid()}")
    inputs = os.path.join(run_dir, "inputs")
    with tracer.span("benchmark.generate", "setup"):
        w.generate(seed, inputs)

    # Untraced runs on both sides of the traced one, so warm-up in the
    # first does not pass for negative tracing overhead. The yardstick is
    # sampled between them: with the raw stage times it tells a change of
    # the machine's speed from a change of the program's.
    yardstick = [calibrate()]
    before = run_pipeline(w, inputs, os.path.join(run_dir, "untraced"), seed, checks)
    yardstick.append(calibrate())
    with tracer.span("pipeline", "cli"):
        spanned = run_pipeline(w, inputs, os.path.join(run_dir, "traced"), seed, checks, tracer)
    yardstick.append(calibrate())
    after = run_pipeline(w, inputs, os.path.join(run_dir, "untraced2"), seed, checks)
    yardstick.append(calibrate())
    if before is None or spanned is None or after is None:
        return {}, tracer
    untraced_art = digests(os.path.join(run_dir, "untraced"))
    for other in ("traced", "untraced2"):
        checks.expect(untraced_art == digests(os.path.join(run_dir, other)),
                      f"{other} run wrote different artifacts than the untraced run")

    replay_dir = os.path.join(run_dir, "replay")
    state = layers.replay(tracer, w, inputs, replay_dir, seed)
    replayed = digests(replay_dir)
    for split in ("train", "dev", "test"):
        key = f"{split}.inst"
        checks.expect(untraced_art.get(os.path.join("artifacts", TARGET, key)) == replayed[key],
                      f"library replay encoded {key} differently than the CLI")
    checks.expect(untraced_art.get(os.path.join("artifacts", TARGET, "vocab.tsv")) == replayed["vocab.tsv"],
                  "library replay built a different vocabulary than the CLI")
    for mode in w.modes:
        key = layers.checkpoint_name(mode, w.d)
        checks.expect(untraced_art.get(os.path.join("artifacts", TARGET, key)) == replayed[key],
                      f"library replay saved {key} differently than the CLI")
    replay_map = statistics.fmean(state["reports"][mode].map for mode in w.modes)
    checks.expect(abs(replay_map - test_map(os.path.join(run_dir, "untraced"))) < 1e-6,
                  "library replay scored a different test MAP than the CLI")
    layers.probe(tracer, w, state)

    metrics = layers.layer_metrics(tracer, w, state)
    plain = (sum(before.values()) + sum(after.values())) / 2
    metrics["trace.overhead_s"] = (sum(spanned.values()) - plain, "s")
    metrics["machine.calibrate_ms"] = (1e3 * statistics.median(yardstick), "ms")
    return metrics, tracer


def environment() -> dict:
    return {
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    checks = Checks()
    run_dir = os.path.join(WORK, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    extra: dict = {}
    try:
        if trace:
            metrics, tracer = traced(name, w, seed, run_dir, checks)
            tracer.write(os.path.join(WORK, f"spans-{name}-s{seed}.jsonl"))
        else:
            metrics, extra = untraced(name, w, seed, seconds, run_dir, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace and metrics:
        metrics["error_rate"] = (len(checks.failed) / checks.attempted, "ratio")
    result = {
        "correct": not checks.failed and bool(metrics),
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failed) if metrics else max(len(checks.failed), 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "trace": int(trace), "env": environment(),
              **extra, **result}
    with open(os.path.join(WORK, f"result-{name}-s{seed}-t{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(record["env"]))
    if extra:
        print("machine " + json.dumps({k: v for k, v in extra.items() if k != "calibration"}))
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    bad = 0
    print("env " + json.dumps(environment()))
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                bad += 1
            if result is None:
                print(f"{name}\ttrace={trace}\tFAILED (exit {proc.returncode})")
                continue
            print(f"{name}\ttrace={trace}\tattempted={result['attempted']}\tfailed={result['failed']}")
            if not trace:
                rate = result["failed"] / result["attempted"]
                print(f"{name}\terror_rate\t{rate}\tratio")
            for metric, value in result["metrics"].items():
                print(f"{name}\t{metric}\t{value['value']}\t{value['unit']}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.generate_only:
        WORKLOADS[args.workload].generate(args.seed, args.generate_only)
        return 0
    os.makedirs(WORK, exist_ok=True)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
