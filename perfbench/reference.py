"""Brute-force reference for relation-chain enumeration.

Reads the triples file itself, adds inverse edges by the documented naming
rule (``r`` <-> ``r_inv``), and walks every entity path of at most
``max_hops`` edges from the head without distance pruning. The only walks
left out are the ones the package documents as excluded: an immediate
backtrack (an edge followed by its inverse straight back), and a length-1
path labeled with the target relation or its inverse. Chains are compared
by relation names, so the reference shares no ids or code with
``kgchains.chains``.
"""

from __future__ import annotations

from collections import defaultdict

INVERSE_SUFFIX = "_inv"


def inverse_name(name: str) -> str:
    return name[: -len(INVERSE_SUFFIX)] if name.endswith(INVERSE_SUFFIX) else name + INVERSE_SUFFIX


class ReferenceGraph:
    def __init__(self, triples_path: str) -> None:
        edges: set[tuple[str, str, str]] = set()
        with open(triples_path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                head, rel, tail = line.split("\t")
                edges.add((head, rel, tail))
                edges.add((tail, inverse_name(rel), head))
        self.out: dict[str, list[tuple[str, str]]] = defaultdict(list)
        # into[node][tail] lists the relations of edges node -> tail.
        self.into: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        for head, rel, tail in sorted(edges):
            self.out[head].append((rel, tail))
            self.into[head][tail].append(rel)

    def chains(self, head: str, tail: str, max_hops: int, exclude: str) -> set[tuple[str, ...]]:
        """Every relation-name sequence of a non-backtracking walk head -> tail."""
        excluded = {exclude, inverse_name(exclude)}
        found: set[tuple[str, ...]] = set()
        # Each prefix is (node, previous node, relation into node, labels).
        prefixes = [(head, None, None, ())]
        for hops in range(1, max_hops + 1):
            longer = []
            for node, prev, rel_in, labels in prefixes:
                banned = inverse_name(rel_in) if rel_in is not None else None
                for rel in self.into[node].get(tail, ()):
                    if tail == prev and rel == banned:
                        continue
                    if hops == 1 and rel in excluded:
                        continue
                    found.add(labels + (rel,))
                if hops == max_hops:
                    continue
                for rel, nxt in self.out[node]:
                    if nxt == prev and rel == banned:
                        continue
                    longer.append((nxt, node, rel, labels + (rel,)))
            prefixes = longer
        return found
