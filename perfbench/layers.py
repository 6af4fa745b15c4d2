"""Spans, and the traced replay and probes that give the per-layer metrics.

Nothing here reaches inside the package: every span wraps one call into a
public function of ``kgchains``, made from this file. The replay repeats
what each CLI stage does through the library, and the probes time single
calls (one pair, one instance, one network pass) on the workload's own
pairs, instances and model shapes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from kgchains import chains, checkpoint, evaluate, game, graph, neural


# Modes every workload trains; per-mode layer metrics are reported for these.
LAYER_MODES = ("game_mlp", "d_all")


@dataclass
class Tracer:
    """In-memory spans; ``write`` saves them as JSON lines when the run ends."""

    run_id: str
    spans: list[dict] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, phase: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "phase": phase,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def samples(self, name: str) -> list[float]:
        """Per-call durations from the probe phase, where each span is one call."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["phase"] == "probe"]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def checkpoint_name(mode: str, d: int) -> str:
    """File name `kgchains train` gives a checkpoint."""
    return f"checkpoint.{mode}.d{d}.txt"


def _percentiles(prefix: str, seconds: list[float], scale: float, unit: str, out: dict) -> None:
    values = np.asarray(seconds) * scale
    out[f"{prefix}.p50"] = (float(np.median(values)), unit)
    out[f"{prefix}.p90"] = (float(np.percentile(values, 90)), unit)
    out[f"{prefix}.n"] = (len(values), "count")


def replay(tracer: Tracer, workload, inputs: str, out_dir: str, seed: int) -> dict:
    """Repeat the CLI stages through the library, one span per public call.

    Returns what the probes and the checks need: the graph, the task, the
    vocabulary, the encoded task and the trained models by mode.
    """
    phase = "replay"
    target = "target"
    os.makedirs(out_dir, exist_ok=True)
    with tracer.span("replay.extract", phase):
        with tracer.span("graph.load_triples", phase):
            kg = graph.load_triples(os.path.join(inputs, "graph.tsv"))
        with tracer.span("graph.load_task", phase):
            task = graph.load_task(os.path.join(inputs, "tasks"), target, kg, 0.8, seed)
        positives = [
            (kg.entity_id(p.head), kg.entity_id(p.tail)) for p in task.train if p.label == 1
        ]
        with tracer.span("chains.build_vocabulary", phase):
            vocab = chains.build_vocabulary(
                kg, positives, task.target, workload.max_hops, workload.max_chains
            )
        with tracer.span("chains.encode_task", phase):
            data = chains.encode_task(vocab, kg, task)
        with tracer.span("chains.write_vocabulary", phase):
            chains.write_vocabulary(os.path.join(out_dir, "vocab.tsv"), vocab, kg)
        for split in ("train", "dev", "test"):
            with tracer.span("chains.write_instances", phase):
                chains.write_instances(
                    os.path.join(out_dir, f"{split}.inst"), getattr(data, split), kg
                )

    def read_task() -> chains.EncodedTask:
        splits = {}
        for split in ("train", "dev", "test"):
            with tracer.span("chains.read_instances", phase):
                splits[split] = chains.read_instances(
                    os.path.join(out_dir, f"{split}.inst"), vocab.size
                )
        return chains.EncodedTask(relation=target, size=vocab.size, **splits)

    results = {}
    with tracer.span("replay.train", phase):
        for mode in workload.modes:
            cached = read_task()
            config = game.TrainConfig(epochs=workload.epochs, lr=workload.lr, seed=seed)
            with tracer.span(f"game.train.{mode}", phase):
                results[mode] = evaluate.train_mode(cached, config, mode, workload.d)
            # The file name and metadata `kgchains train` writes, so the
            # replayed checkpoint is byte-identical to the CLI's.
            meta = {
                "relation": target,
                "run_mode": mode,
                "seed": seed,
                "epochs": workload.epochs,
                "best_epoch": results[mode].best_epoch,
                "best_dev_map": f"{results[mode].best_dev_map:.6f}",
                "max_hops": workload.max_hops,
                "vocab": "vocab.tsv",
            }
            with tracer.span("checkpoint.save_checkpoint", phase):
                checkpoint.save_checkpoint(
                    os.path.join(out_dir, checkpoint_name(mode, workload.d)), results[mode].model, meta
                )

    models, reports = {}, {}
    with tracer.span("replay.eval", phase):
        for mode in workload.modes:
            cached = read_task()
            with tracer.span("checkpoint.load_checkpoint", phase):
                models[mode], _ = checkpoint.load_checkpoint(
                    os.path.join(out_dir, checkpoint_name(mode, workload.d))
                )
            with tracer.span("evaluate.evaluate_task", phase):
                reports[mode] = evaluate.evaluate_task(models[mode], cached.test)

    with tracer.span("replay.export_rules", phase):
        cached = read_task()
        model = models["game_mlp"]
        for inst in cached.test:
            with tracer.span("game.predict", phase):
                game.predict(model, inst)
            if inst.n_available:
                with tracer.span("game.generator_probs", phase):
                    probs = game.generator_probs(model, inst)
                game.select_top_d(probs, inst.availability, workload.d)

    def size(name: str) -> int:
        return os.path.getsize(os.path.join(out_dir, name))

    return {
        "instance_cache_bytes": sum(size(f"{split}.inst") for split in ("train", "dev", "test")),
        "checkpoint_bytes": sum(size(checkpoint_name(mode, workload.d)) for mode in workload.modes),
        "kg": kg,
        "task": task,
        "vocab": vocab,
        "positives": positives,
        "data": cached,
        "results": results,
        "models": models,
        "reports": reports,
    }


def probe(tracer: Tracer, workload, state: dict, max_calls: int = 200) -> None:
    """Time single calls per pair, per instance and per network pass."""
    phase = "probe"
    kg, task = state["kg"], state["task"]
    pairs = sorted(
        {(kg.entity_id(p.head), kg.entity_id(p.tail)) for p in task.train + task.dev + task.test}
    )
    state["pairs"] = len(pairs)
    union: set = set()
    positives = set(state["positives"])
    chain_counts = []
    for head, tail in pairs:
        with tracer.span("graph.distance_to", phase):
            kg.distance_to(tail, workload.max_hops)
        with tracer.span("chains.enumerate_paths", phase):
            found = chains.enumerate_paths(kg, head, tail, workload.max_hops, exclude=task.target)
        chain_counts.append(len(found))
        if (head, tail) in positives:
            union |= found
    state["union_size"] = len(union)
    state["chains_per_pair"] = float(np.mean(chain_counts))

    model = state["models"]["game_mlp"]
    instances = [inst for inst in state["data"].test if inst.n_available][:max_calls]
    for inst in instances:
        with tracer.span("game.predict", phase):
            game.predict(model, inst)
        with tracer.span("game.generator_probs", phase):
            game.generator_probs(model, inst)

    generator = neural.clone_params(model.generator)
    adam = neural.AdamState.for_params(generator, workload.lr)
    for inst in instances:
        with tracer.span("neural.forward.generator", phase):
            out, cache = neural.forward(generator, inst.availability)
        with tracer.span("neural.backward.generator", phase):
            grads = neural.backward(generator, cache, np.ones_like(out))
        with tracer.span("neural.adam_step.generator", phase):
            neural.adam_step(generator, grads, adam)
        with tracer.span("neural.forward.predictor", phase):
            neural.forward(model.predictor, inst.availability)


def layer_metrics(tracer: Tracer, workload, state: dict) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``."""
    m: dict[str, tuple[float, str]] = {}
    for stage in ("extract", "train", "eval", "export_rules"):
        m[f"cli.{stage}_s"] = (tracer.total(f"cli.{stage}"), "s")
    m["benchmark.generate_s"] = (tracer.total("benchmark.generate"), "s")

    m["graph.load_triples_s"] = (tracer.total("graph.load_triples"), "s")
    _percentiles("graph.distance_to_ms", tracer.samples("graph.distance_to"), 1e3, "ms", m)
    m["graph.edges"] = (state["kg"].n_edges, "count")

    enum = tracer.samples("chains.enumerate_paths")
    _percentiles("chains.enumerate_paths_ms", enum, 1e3, "ms", m)
    m["chains.enumerate_paths_ms.max"] = (max(enum) * 1e3, "ms")
    m["chains.pairs"] = (state["pairs"], "count")
    m["chains.chains_per_pair.mean"] = (state["chains_per_pair"], "count")
    m["chains.union_size"] = (state["union_size"], "count")
    m["chains.vocab_size"] = (state["vocab"].size, "count")
    build = tracer.total("chains.build_vocabulary")
    encode = tracer.total("chains.encode_task")
    m["chains.build_vocabulary_s"] = (build, "s")
    m["chains.encode_task_s"] = (encode, "s")
    m["chains.extract_redundancy"] = ((build + encode) / sum(enum), "ratio")
    m["chains.write_instances_s"] = (tracer.total("chains.write_instances"), "s")
    m["chains.read_instances_s"] = (tracer.total("chains.read_instances"), "s")
    m["chains.instance_cache_bytes"] = (state["instance_cache_bytes"], "B")

    for name in ("forward.generator", "forward.predictor", "backward.generator", "adam_step.generator"):
        op, net = name.split(".")
        _percentiles(f"neural.{op}_us.{net}", tracer.samples(f"neural.{name}"), 1e6, "us", m)
    model = state["models"]["game_mlp"]
    nets = (model.generator, model.predictor, model.complement)
    m["neural.params"] = (sum(neural.count_params(n) for n in nets if n is not None), "count")

    for mode in LAYER_MODES:
        result = state["results"][mode]
        train_s = tracer.total(f"game.train.{mode}")
        m[f"game.train_s.{mode}"] = (train_s, "s")
        m[f"game.epoch_ms.{mode}"] = (1e3 * train_s / (workload.epochs * workload.stages(mode)), "ms")
        m[f"game.best_epoch.{mode}"] = (result.best_epoch, "epoch")
        m[f"game.mean_selected_last.{mode}"] = (result.log[-1].mean_selected, "count")
        m[f"evaluate.test_map.{mode}"] = (state["reports"][mode].map, "MAP")
    _percentiles("game.predict_us", tracer.samples("game.predict"), 1e6, "us", m)
    _percentiles("game.generator_probs_us", tracer.samples("game.generator_probs"), 1e6, "us", m)

    m["evaluate.evaluate_task_s"] = (tracer.total("evaluate.evaluate_task"), "s")
    m["evaluate.groups_skipped"] = (sum(r.skipped for r in state["reports"].values()), "count")

    m["checkpoint.save_s"] = (tracer.total("checkpoint.save_checkpoint"), "s")
    m["checkpoint.load_s"] = (tracer.total("checkpoint.load_checkpoint"), "s")
    m["checkpoint.bytes"] = (state["checkpoint_bytes"], "B")
    return m
