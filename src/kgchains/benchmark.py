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

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import SPLIT_RATIO, KnowledgeGraph, LabeledPair, TaskDataset, split_task, write_dataset
from .util import STREAM_BENCHMARK, stream_rng

RULE_SINGLE = "single"
RULE_CONJUNCTION = "conjunction"
RULE_NOISY_WEAK = "noisy_weak"

TARGET = "target"  # the relation every benchmark's task predicts
PLANTED = {  # each rule's planted chains
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
    max_hops: int = 2
    train_groups: int = 50
    test_groups: int = 25
    negatives_per_group: int = 3
    distractor_rate: float = 0.3
    weak_pos_rate: float = 0.75
    weak_neg_rate: float = 0.25

    def __post_init__(self) -> None:
        if self.rule not in PLANTED:
            raise DataError(f"unknown benchmark rule: {self.rule!r}")
        longest = max(map(len, PLANTED[self.rule]))
        if longest > self.max_hops:
            raise DataError(f"planted chain of length {longest} exceeds max_hops {self.max_hops}")
        if not 0 <= self.noise < 1:
            raise DataError("noise must be in [0, 1)")
        if self.train_groups < 1 or self.test_groups < 1:
            raise DataError("need at least one train and one test group")

    @property
    def n_distractors(self) -> int:
        # Budget: planted relations + target + the node-marker relation.
        planted_rels = {rel for chain in PLANTED[self.rule] for rel in chain}
        return max(self.relations - len(planted_rels) - 2, 0)


def _generate(spec: BenchmarkSpec) -> tuple[list[tuple[str, str, str]], list[LabeledPair], list[LabeledPair]]:
    """The graph's triples, in draw order and each once, and the train and test pairs."""
    rng = stream_rng(spec.seed, STREAM_BENCHMARK)
    chains = PLANTED[spec.rule]
    distractors = [f"s{i}" for i in range(spec.n_distractors)]

    n_groups = spec.train_groups + spec.test_groups
    group_size = 1 + spec.negatives_per_group
    pool_size = max(spec.entities - n_groups - 2, group_size)

    # The target relation must exist in the symbol table; one edge between
    # auxiliary entities disconnected from every query keeps it leak-free.
    triples: list[tuple[str, str, str]] = [("_aux_h", TARGET, "_aux_t")]
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

    train_pairs: list[LabeledPair] = []
    test_pairs: list[LabeledPair] = []
    labels = [1] + [0] * spec.negatives_per_group  # a group's tails: the positive first

    for g in range(n_groups):
        head = f"h{g}"
        tails = [f"e{i}" for i in rng.choice(pool_size, size=group_size, replace=False)]
        mark(head)
        for tail in tails:
            mark(tail)
        if spec.rule == RULE_NOISY_WEAK:
            rates = [spec.weak_pos_rate if label else spec.weak_neg_rate for label in labels]
            carried = [[chain for chain in chains if rng.random() < rate] for rate in rates]
        else:
            # the positive carries every planted chain; conjunction negatives carry one, the other or neither
            cycle = [[chains[0]], [chains[1]], []] if spec.rule == RULE_CONJUNCTION else [[]]
            carried = [chains] + [cycle[i % len(cycle)] for i in range(spec.negatives_per_group)]
        for tail, tail_chains in zip(tails, carried):
            for chain in tail_chains:
                realize(head, tail, chain)

        pairs = []
        for tail, label in zip(tails, labels):
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

    return triples, train_pairs, test_pairs


def make_benchmark(spec: BenchmarkSpec) -> tuple[KnowledgeGraph, TaskDataset]:
    """Build the graph and the split task dataset for a benchmark spec."""
    triples, train, test = _generate(spec)
    graph = KnowledgeGraph.from_triples(triples, add_inverses=True)
    return graph, split_task(graph, TARGET, train, test, SPLIT_RATIO, spec.seed)


def write_benchmark(spec: BenchmarkSpec, out_dir: str) -> tuple[str, str]:
    """Write the benchmark with ``graph.write_dataset``; returns the graph file and the tasks root.

    graph.tsv holds each generated triple in draw order: the lines ``KnowledgeGraph.from_triples``
    keeps, since no triple repeats and every edge runs forward (head, mids, tail, marker leaf), so
    none repeats another edge's inverse."""
    return write_dataset(out_dir, TARGET, *_generate(spec))
