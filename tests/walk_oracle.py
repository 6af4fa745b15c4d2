"""Chain oracles for the enumeration tests.

``oracle_paths`` is a breadth-first expansion of explicit entity walks:
every walk of up to ``max_hops`` edges from the head is kept whole, with the
entity and relation it came by, so the backtrack ban and the leakage guard
are checked walk by walk instead of on the shared label frontier.

``frontier_walks`` is the per-head dict frontier that chain extraction ran
on before the array walk over all heads, and ``frontier_extract_task`` is
``extract_task`` as it was on it: the references for the array walk, the
code-array vocabulary and the encoding.

``DataclassChain`` is ``RelationChain`` as a frozen dataclass, as it was
before it became a tuple: the reference for its ordering, hashing and
accessors, and for the vocabulary's tie order.

The oracles read a graph's edges through ``edges_of``, one entity's slice
of a CSR table.
"""

from dataclasses import dataclass

import numpy as np

from kgchains.chains import MANY, RelationChain
from kgchains.graph import KnowledgeGraph


@dataclass(frozen=True, order=True)
class DataclassChain:
    """Ordered relation-id sequence; equality and hashing by the full tuple."""

    relations: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.relations)

    def names(self, graph: KnowledgeGraph) -> str:
        return "->".join(graph.relation_name(r) for r in self.relations)


def edges_of(table, eid):
    """Entity ``eid``'s (relation, entity) pairs in a CSR table (``out_table`` or ``in_table``), in stored order."""
    a, b = table.indptr[eid], table.indptr[eid + 1]
    return list(zip(table.rels[a:b].tolist(), table.ends[a:b].tolist()))


def oracle_paths(graph, head, tail, max_hops, exclude=None):
    """Independent oracle: breadth-first expansion of explicit walks."""
    banned = set()
    if exclude is not None:
        banned.add(exclude)
        inv = graph.inverse_relation_id(exclude)
        if inv >= 0:
            banned.add(inv)
    found = set()
    frontier = [(head, (), None, None)]  # node, labels, prev node, prev relation
    for _ in range(max_hops):
        nxt_frontier = []
        for node, labels, prev_node, prev_rel in frontier:
            for rel, nxt in edges_of(graph.out_table, node):
                if (
                    prev_rel is not None
                    and nxt == prev_node
                    and graph.inverse_relation_id(rel) == prev_rel
                ):
                    continue
                seq = labels + (rel,)
                if nxt == tail and not (len(seq) == 1 and rel in banned):
                    found.add(seq)
                nxt_frontier.append((nxt, seq, node, rel))
        frontier = nxt_frontier
    return {RelationChain(seq) for seq in found}


def frontier_walks(graph, pairs, max_hops, exclude=None):
    """Per pair, its chains as relation-id tuples, one dict frontier per head.

    Layer ``d`` maps every entity reached in ``d`` hops to its label prefixes,
    each with the entity it was entered from, or ``MANY`` if from several. The
    last layer keeps only in-neighbours of the head's tails, and each tail
    joins every layer over its in-edges.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    tails_of = {}
    for head, tail in pairs:
        graph.check_entity(head)
        graph.check_entity(tail)
        tails_of.setdefault(head, set()).add(tail)
    inverse = [graph.inverse_relation_id(r) for r in range(graph.n_relations)]
    excluded = {exclude, graph.inverse_relation_id(exclude)} if exclude is not None else set()
    found = {}
    for head, tails in tails_of.items():
        near = {node for tail in tails for _, node in edges_of(graph.in_table, tail)}
        layers = [{head: {(): MANY}}]
        for depth in range(1, max_hops):
            layer = {}
            for node, prefixes in layers[-1].items():
                for rel, nxt in edges_of(graph.out_table, node):
                    if depth == max_hops - 1 and nxt not in near:
                        continue
                    slot = layer.setdefault(nxt, {})
                    for prefix, pred in prefixes.items():
                        if nxt != pred or rel != inverse[prefix[-1]]:
                            seq = prefix + (rel,)
                            seen = slot.get(seq)
                            slot[seq] = node if seen is None or seen == node else MANY
            layers.append(layer)
        for tail in tails:
            seqs = found[(head, tail)] = set()
            into = edges_of(graph.in_table, tail)
            for depth, layer in enumerate(layers):
                for rel, node in into:
                    if node in layer and (depth > 0 or rel not in excluded):
                        for prefix, pred in layer[node].items():
                            if tail != pred or rel != inverse[prefix[-1]]:
                                seqs.add(prefix + (rel,))
    return found


def frontier_extract_task(graph, task, max_hops, max_size):
    """``extract_task`` on ``frontier_walks``: the vocabulary's chains (tuples), supports
    and union size, and per split its heads, tails, labels and availability matrix.

    Supports are counted over the train positives in order, each pair's chains
    sorted, and the stable sort on support keeps ties in first-sighting order;
    each row's bits are set chain by chain through the vocabulary's index.
    """
    def ids(pairs):
        return [(graph.entity_id(p.head), graph.entity_id(p.tail)) for p in pairs]

    found = frontier_walks(graph, ids(task.train + task.dev + task.test), max_hops, task.target)
    support = {}
    for pair, p in zip(ids(task.train), task.train):
        for chain in sorted(found[pair]) if p.label == 1 else ():
            support[chain] = support.get(chain, 0) + 1
    kept = sorted(support, key=lambda c: -support[c])[:max_size]
    index = {chain: j for j, chain in enumerate(kept)}
    splits = []
    for pairs in (task.train, task.dev, task.test):
        keys = ids(pairs)
        bits = np.zeros((len(keys), len(kept)), np.uint8)
        for row, key in zip(bits, keys):
            row[[index[chain] for chain in found[key] if chain in index]] = 1
        labels = np.array([p.label for p in pairs], dtype=np.int64)
        splits.append(([h for h, _ in keys], [t for _, t in keys], labels, bits))
    return kept, [support[c] for c in kept], len(support), splits
