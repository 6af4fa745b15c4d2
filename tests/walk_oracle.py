"""Breadth-first expansion of explicit entity walks, the chain oracle for the enumeration tests.

Every walk of up to ``max_hops`` edges from the head is kept whole, with the
entity and relation it came by, so the backtrack ban and the leakage guard
are checked walk by walk instead of on the shared label frontier.

``DataclassChain`` is ``RelationChain`` as a frozen dataclass, as it was
before it became a tuple: the reference for its ordering, hashing and
accessors, and for the vocabulary's tie order.
"""

from dataclasses import dataclass

from kgchains.chains import RelationChain
from kgchains.graph import KnowledgeGraph


@dataclass(frozen=True, order=True)
class DataclassChain:
    """Ordered relation-id sequence; equality and hashing by the full tuple."""

    relations: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.relations)

    def names(self, graph: KnowledgeGraph) -> str:
        return "->".join(graph.relation_name(r) for r in self.relations)


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
            for rel, nxt in graph.neighbors(node):
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
