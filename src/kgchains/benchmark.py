"""Synthetic planted-rule benchmarks with known ground truth.

Each benchmark builds a labeled multigraph of query groups: one head
entity per group plus a handful of tail entities drawn from a shared
pool, with chains realized between each (head, tail) pair according to
the labeling rule. Intermediate path entities are always fresh per pair,
so a chain is available for a pair exactly when it was planted there.

Rules:
  single       one planted chain; a pair is positive iff it carries it.
  conjunction  two planted chains; positive iff BOTH connect the pair.
               Negatives carry one of the two or neither, so no single
               chain separates the classes on its own.
  noisy_weak   every planted chain is weak evidence: present with a
               higher rate on positives than on negatives, never decisive.

Distractor relations connect pairs at a class-independent rate, giving
the vocabulary chains that carry no signal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .graph import NOT_INVOLUTIVE, KnowledgeGraph, LabeledPair, TaskDataset, split_train_dev
from .util import STREAM_BENCHMARK, STREAM_SPLIT, stream_rng

RULE_SINGLE = "single"
RULE_CONJUNCTION = "conjunction"
RULE_NOISY_WEAK = "noisy_weak"

_DEFAULT_CHAINS = {
    RULE_SINGLE: [("p0_0", "p0_1")],
    RULE_CONJUNCTION: [("p0_0", "p0_1"), ("p1_0",)],
    RULE_NOISY_WEAK: [("w0",), ("w1",), ("w2",), ("w3",), ("w4",)],
}


@dataclass
class BenchmarkSpec:
    entities: int = 300
    relations: int = 26
    rule: str = RULE_CONJUNCTION
    noise: float = 0.0
    seed: int = 0
    planted_chains: list[tuple[str, ...]] | None = None
    max_hops: int = 2
    train_groups: int = 50
    test_groups: int = 25
    negatives_per_group: int = 3
    distractor_rate: float = 0.3
    weak_pos_rate: float = 0.75
    weak_neg_rate: float = 0.25
    split_ratio: float = 0.8
    target_name: str = "target"

    def chains(self) -> list[tuple[str, ...]]:
        return self.planted_chains or _DEFAULT_CHAINS[self.rule]

    def validate(self) -> None:
        if self.rule not in (RULE_SINGLE, RULE_CONJUNCTION, RULE_NOISY_WEAK):
            raise DataError(f"unknown benchmark rule: {self.rule!r}")
        chains = self.chains()
        if self.rule == RULE_SINGLE and len(chains) != 1:
            raise DataError("single rule needs exactly one planted chain")
        if self.rule == RULE_CONJUNCTION and len(chains) != 2:
            raise DataError("conjunction rule needs exactly two planted chains")
        if self.rule == RULE_NOISY_WEAK and len(chains) < 2:
            raise DataError("noisy_weak rule needs at least two planted chains")
        for chain in chains:
            if len(chain) > self.max_hops:
                raise DataError(
                    f"planted chain of length {len(chain)} exceeds max_hops {self.max_hops}"
                )
            if not chain:
                raise DataError("planted chain must not be empty")
            if self.target_name in chain:
                raise DataError("planted chains must not contain the target relation")
        if not 0 <= self.noise < 1:
            raise DataError("noise must be in [0, 1)")
        if self.train_groups < 1 or self.test_groups < 1:
            raise DataError("need at least one train and one test group")
        for name in (self.target_name, *(rel for chain in chains for rel in chain)):
            if name.endswith(NOT_INVOLUTIVE):
                raise DataError(f"relation {name!r} ends in {NOT_INVOLUTIVE!r}")

    @property
    def n_distractors(self) -> int:
        # Budget: planted relations + target + the node-marker relation.
        planted_rels = {rel for chain in self.chains() for rel in chain}
        return max(self.relations - len(planted_rels) - 2, 0)


@dataclass
class _Generated:
    triples: list[tuple[str, str, str]]
    train_pairs: list[LabeledPair]
    test_pairs: list[LabeledPair]


def _generate(spec: BenchmarkSpec) -> _Generated:
    spec.validate()
    rng = stream_rng(spec.seed, STREAM_BENCHMARK)
    chains = spec.chains()
    distractors = [f"s{i}" for i in range(spec.n_distractors)]

    n_groups = spec.train_groups + spec.test_groups
    group_size = 1 + spec.negatives_per_group
    pool_size = max(spec.entities - n_groups - 2, group_size)

    # The target relation must exist in the symbol table; one edge between
    # auxiliary entities disconnected from every query keeps it leak-free.
    triples: list[tuple[str, str, str]] = [("_aux_h", spec.target_name, "_aux_t")]
    mid_counter = 0
    marked: set[str] = set()

    def mark(entity: str) -> None:
        # Every query entity gets one edge to a fresh leaf so it always
        # exists in the graph, even if no chain or distractor touches it.
        # Leaves are dead ends, so no head-tail path can run through them.
        if entity not in marked:
            marked.add(entity)
            triples.append((entity, "is_node", f"n_{entity}"))

    def realize(head: str, tail: str, chain: tuple[str, ...]) -> None:
        nonlocal mid_counter
        nodes = [head]
        for _ in range(len(chain) - 1):
            nodes.append(f"m{mid_counter}")
            mid_counter += 1
        nodes.append(tail)
        for rel, src, dst in zip(chain, nodes[:-1], nodes[1:]):
            triples.append((src, rel, dst))

    def chains_for_role(role: str) -> list[tuple[str, ...]]:
        if spec.rule == RULE_CONJUNCTION:
            return {
                "pos": list(chains),
                "neg_a": [chains[0]],
                "neg_b": [chains[1]],
                "neg_none": [],
            }[role]
        if spec.rule == RULE_SINGLE:
            return list(chains) if role == "pos" else []
        raise AssertionError(role)

    train_pairs: list[LabeledPair] = []
    test_pairs: list[LabeledPair] = []

    for g in range(n_groups):
        head = f"h{g}"
        tails = [f"e{i}" for i in rng.choice(pool_size, size=group_size, replace=False)]
        mark(head)
        for tail in tails:
            mark(tail)
        if spec.rule == RULE_NOISY_WEAK:
            labels = [1] + [0] * spec.negatives_per_group
            group = []
            for tail, label in zip(tails, labels):
                rate = spec.weak_pos_rate if label == 1 else spec.weak_neg_rate
                for chain in chains:
                    if rng.random() < rate:
                        realize(head, tail, chain)
                group.append((tail, label))
        else:
            roles = ["pos"]
            negative_cycle = (
                ["neg_a", "neg_b", "neg_none"] if spec.rule == RULE_CONJUNCTION else ["neg_none"]
            )
            for i in range(spec.negatives_per_group):
                roles.append(negative_cycle[i % len(negative_cycle)])
            group = []
            for tail, role in zip(tails, roles):
                for chain in chains_for_role(role):
                    realize(head, tail, chain)
                group.append((tail, 1 if role == "pos" else 0))

        pairs = []
        for tail, label in group:
            hits = rng.random(len(distractors)) < spec.distractor_rate
            triples.extend((head, distractors[i], tail) for i in np.flatnonzero(hits).tolist())
            if spec.noise > 0 and rng.random() < spec.noise:
                label = 1 - label
            pairs.append(LabeledPair(head=head, tail=tail, label=label))
        # Shuffle within the group so score ties never systematically favor
        # the positive item at evaluation time.
        order = rng.permutation(len(pairs))
        shuffled = [pairs[i] for i in order]
        (train_pairs if g < spec.train_groups else test_pairs).extend(shuffled)

    return _Generated(triples=triples, train_pairs=train_pairs, test_pairs=test_pairs)


def make_benchmark(spec: BenchmarkSpec) -> tuple[KnowledgeGraph, TaskDataset]:
    """Build the graph and the split task dataset for a benchmark spec."""
    generated = _generate(spec)
    graph = KnowledgeGraph.from_triples(generated.triples, add_inverses=True)
    rel_id = graph.relation_id(spec.target_name)
    rng = stream_rng(spec.seed + rel_id, STREAM_SPLIT)
    train, dev = split_train_dev(generated.train_pairs, spec.split_ratio, rng)
    return graph, TaskDataset(
        target=rel_id,
        relation=spec.target_name,
        train=train,
        dev=dev,
        test=generated.test_pairs,
    )


def write_benchmark(spec: BenchmarkSpec, out_dir: str) -> tuple[str, str]:
    """Write graph.tsv and tasks/<target>/{train,test}.pairs; returns the two roots.

    graph.tsv holds each generated triple once, in first-drawn order: the lines
    ``KnowledgeGraph.from_triples`` keeps, since every edge runs forward (head,
    mids, tail, marker leaf) and so never repeats another edge's inverse."""
    generated = _generate(spec)
    graph_path = os.path.join(out_dir, "graph.tsv")
    tasks_dir = os.path.join(out_dir, "tasks")
    task_dir = os.path.join(tasks_dir, spec.target_name)
    os.makedirs(task_dir, exist_ok=True)
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in dict.fromkeys(generated.triples))
    for name, pairs in (("train.pairs", generated.train_pairs), ("test.pairs", generated.test_pairs)):
        with open(os.path.join(task_dir, name), "w", encoding="utf-8") as fh:
            for pair in pairs:
                fh.write(f"{pair.head}\t{pair.tail}\t{pair.label}\n")
    return graph_path, tasks_dir
