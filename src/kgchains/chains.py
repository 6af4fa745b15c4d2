"""Relation-chain enumeration, per-relation vocabularies, binary encodings.

A relation chain is the ordered label sequence of some entity path between
a head and a tail; intermediate entities are discarded. Chains are the
feature space for everything downstream: a split is encoded as one 0/1
availability matrix over the task vocabulary, one row per query pair.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import DataError
from .graph import KnowledgeGraph, LabeledPair, TaskDataset
from .util import open_text


MANY = -1  # predecessor of a label prefix that no backtrack ban applies to


class RelationChain(tuple):
    """Ordered relation-id sequence, a ``tuple`` of ids: ``len()`` is the hop
    count, and hashing, equality and ordering are the tuple's own, so a chain
    hashes and compares equal to its raw tuple and sorts as that tuple does."""

    __slots__ = ()

    @property
    def relations(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"RelationChain({tuple(self)!r})"

    def names(self, graph: KnowledgeGraph) -> str:
        return "->".join(graph.relation_name(r) for r in self)


def chains_by_pair(
    graph: KnowledgeGraph, pairs: Iterable[tuple[int, int]], max_hops: int, exclude: int | None = None
) -> dict[tuple[int, int], set[RelationChain]]:
    """Per pair, the distinct label sequences of entity walks head -> tail, length <= max_hops.

    Walks may revisit entities except for the immediate backtrack (an edge
    and then its inverse straight back: Hashimoto's non-backtracking walk).
    A length-1 walk labeled ``exclude`` or its inverse is omitted (leakage
    guard for the target relation).
    """
    return {pair: set(map(RelationChain, seqs)) for pair, seqs in _walks(graph, pairs, max_hops, exclude).items()}


def _walks(
    graph: KnowledgeGraph, pairs: Iterable[tuple[int, int]], max_hops: int, exclude: int | None
) -> dict[tuple[int, int], set[tuple[int, ...]]]:
    """``chains_by_pair`` as raw relation-id tuples.

    Each head grows one frontier: layer ``d`` maps every entity reached in
    ``d`` hops to its label prefixes, each with the entity it was entered
    from, or ``MANY`` if from several (then no next step is banned for every
    walk, so the collapse is exact). The last layer keeps only in-neighbours
    of the head's tails, and each tail joins every layer over its in-edges.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    tails_of: dict[int, set[int]] = {}
    for head, tail in pairs:
        graph.check_entity(head)
        graph.check_entity(tail)
        tails_of.setdefault(head, set()).add(tail)
    inverse = [graph.inverse_relation_id(r) for r in range(graph.n_relations)]
    excluded = {exclude, graph.inverse_relation_id(exclude)} if exclude is not None else set()
    out_ptr, out_rels, out_ends = graph.out_table
    found: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for head, tails in tails_of.items():
        near = {node for tail in tails for _, node in graph.incoming(tail)}
        layers = [{head: {(): MANY}}]
        for depth in range(1, max_hops):
            layer: dict[int, dict[tuple[int, ...], int]] = {}
            for node, prefixes in layers[-1].items():
                a, b = out_ptr[node], out_ptr[node + 1]
                for rel, nxt in zip(out_rels[a:b], out_ends[a:b]):
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
            into = graph.incoming(tail)
            for depth, layer in enumerate(layers):
                for rel, node in into:
                    if node in layer and (depth > 0 or rel not in excluded):
                        for prefix, pred in layer[node].items():
                            if tail != pred or rel != inverse[prefix[-1]]:
                                seqs.add(prefix + (rel,))
    return found


def enumerate_paths(
    graph: KnowledgeGraph, head: int, tail: int, max_hops: int, exclude: int | None = None
) -> set[RelationChain]:
    """The chains of one pair; see ``chains_by_pair``."""
    return chains_by_pair(graph, [(head, tail)], max_hops, exclude)[(head, tail)]


@dataclass
class ChainVocabulary:
    """Indexed candidate chain set for one target relation.

    Chains are unique and ordered by decreasing positive-pair support with
    ties broken by first occurrence; indices 0..D-1 are stable and persisted.
    ``union_size`` counts the distinct positive-pair chains before the cap.
    ``index`` can be probed with raw relation-id tuples.
    """

    target: int
    max_hops: int
    chains: list[RelationChain]
    supports: list[int]
    union_size: int
    index: dict[RelationChain, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = {chain: j for j, chain in enumerate(self.chains)}
        if len(self.index) != len(self.chains):
            raise DataError("vocabulary chains are not unique")

    @property
    def size(self) -> int:
        return len(self.chains)

    def availability(self, found: Sequence[Iterable[tuple[int, ...]]]) -> np.ndarray:
        """(N, D) 0/1 matrix: bit (i, j) is 1 iff chain j is in ``found[i]``."""
        bits = np.zeros((len(found), self.size), dtype=np.float64)
        for row, chains in zip(bits, found):
            row[[self.index[chain] for chain in chains if chain in self.index]] = 1.0
        return bits


def _vocabulary(found: dict, positives: Sequence[tuple[int, int]], target: int, max_hops: int, max_size: int) -> ChainVocabulary:
    """Count each chain over the positive pairs in order, each pair's chains
    sorted; the stable sort on support keeps ties in first-sighting order."""
    support: dict[tuple[int, ...], int] = {}
    for pair in positives:
        for chain in sorted(found[pair]):
            support[chain] = support.get(chain, 0) + 1
    if not support:
        raise DataError("no candidate chains")
    kept = sorted(support, key=lambda c: -support[c])[:max_size]
    chains = [RelationChain(c) for c in kept]
    return ChainVocabulary(target, max_hops, chains, supports=[support[c] for c in kept], union_size=len(support))


def _require_positives(positives: Sequence[tuple[int, int]]) -> Sequence[tuple[int, int]]:
    if not positives:
        raise DataError("no positive pairs to build a vocabulary from")
    return positives


def build_vocabulary(
    graph: KnowledgeGraph,
    positives: Sequence[tuple[int, int]],
    target: int,
    max_hops: int = 3,
    max_size: int = 10000,
) -> ChainVocabulary:
    """Union of the chains of the positive pairs, filtered to ``max_size``.

    Support of a chain is the number of positive pairs realizing it. When
    the union exceeds ``max_size``, chains are kept in decreasing support
    (ties by earlier first occurrence); indices are assigned in that order.
    """
    found = _walks(graph, _require_positives(positives), max_hops, target)
    return _vocabulary(found, positives, target, max_hops, max_size)


@dataclass
class Instance:
    """One row of a split: a query pair, its label and its availability row."""

    head: int | str
    tail: int | str
    label: int
    availability: np.ndarray

    @property
    def n_available(self) -> int:
        return int(self.availability.sum())


@dataclass
class SelectionMask:
    """Disjoint selected/complement split of an instance's available chains."""

    selected: np.ndarray
    complement: np.ndarray


def mask_from_selected(availability: np.ndarray, selected: np.ndarray) -> SelectionMask:
    selected = selected * availability
    return SelectionMask(selected=selected, complement=availability * (1.0 - selected))


@dataclass
class Split:
    """One split as columns: query pairs (entity ids after ``encode_task``, names
    after ``read_instances``), labels, and one C-contiguous float64 (N, D) 0/1
    availability matrix, the rows that ``len()`` counts and iteration yields."""

    heads: list
    tails: list
    labels: np.ndarray
    availability: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Instance]:
        for row in zip(self.heads, self.tails, self.labels.tolist(), self.availability):
            yield Instance(*row)


@dataclass
class EncodedTask:
    """A task dataset with every pair encoded against one vocabulary."""

    relation: str
    size: int
    train: Split
    dev: Split
    test: Split


def _ids(graph: KnowledgeGraph, pairs: Sequence[LabeledPair]) -> list[tuple[int, int]]:
    return [(graph.entity_id(p.head), graph.entity_id(p.tail)) for p in pairs]


def _encode(vocab: ChainVocabulary, graph: KnowledgeGraph, task: TaskDataset, found: dict) -> EncodedTask:
    """Every split against ``vocab``, its pairs' chains looked up in ``found``."""
    def encode_split(pairs: list[LabeledPair]) -> Split:
        keys = _ids(graph, pairs)
        labels = np.array([p.label for p in pairs], dtype=np.int64)
        return Split([h for h, _ in keys], [t for _, t in keys], labels, vocab.availability([found[k] for k in keys]))

    train, dev, test = map(encode_split, (task.train, task.dev, task.test))
    return EncodedTask(relation=task.relation, size=vocab.size, train=train, dev=dev, test=test)


def encode_task(vocab: ChainVocabulary, graph: KnowledgeGraph, task: TaskDataset) -> EncodedTask:
    """Encode every split; one chain walk serves all three."""
    pairs = _ids(graph, task.train + task.dev + task.test)
    return _encode(vocab, graph, task, _walks(graph, pairs, vocab.max_hops, vocab.target))


def extract_task(
    graph: KnowledgeGraph, task: TaskDataset, max_hops: int, max_size: int
) -> tuple[ChainVocabulary, EncodedTask]:
    """``build_vocabulary`` over the train positives, then ``encode_task`` with
    that vocabulary, from one chain walk over every split's pairs."""
    pairs = _ids(graph, task.train + task.dev + task.test)
    positives = _require_positives([pair for pair, p in zip(pairs, task.train) if p.label == 1])
    found = _walks(graph, pairs, max_hops, task.target)
    vocab = _vocabulary(found, positives, task.target, max_hops, max_size)
    return vocab, _encode(vocab, graph, task, found)


# -- persistence ---------------------------------------------------------


def write_vocabulary(path: str, vocab: ChainVocabulary, graph: KnowledgeGraph) -> None:
    """One line per chain: index TAB support TAB names joined by ``->``."""
    with open(path, "w", encoding="utf-8") as fh:
        for j, chain in enumerate(vocab.chains):
            fh.write(f"{j}\t{vocab.supports[j]}\t{chain.names(graph)}\n")


def read_vocabulary_names(path: str) -> tuple[list[str], list[int]]:
    """Chain display names and supports without needing the graph (for reports)."""
    if not os.path.isfile(path):
        raise DataError(f"vocabulary file not found: {path}")
    names: list[str] = []
    supports: list[int] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not fields[1].isdecimal():
                raise DataError(f"{path}:{lineno}: expected index TAB support TAB chain")
            names.append(fields[2])
            supports.append(int(fields[1]))
    return names, supports


def write_instances(path: str, split: Split, graph: KnowledgeGraph | None) -> None:
    """head TAB tail TAB label TAB availability bits as a 0/1 string."""

    def name(value: int | str) -> str:
        if isinstance(value, str):
            return value
        assert graph is not None, "graph required to name integer entity ids"
        return graph.entity_name(value)

    width = split.availability.shape[1]
    bits = ((split.availability > 0).astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        for i, (head, tail, label) in enumerate(zip(split.heads, split.tails, split.labels.tolist())):
            fh.write(f"{name(head)}\t{name(tail)}\t{label}\t{bits[i * width : (i + 1) * width]}\n")


def read_instances(path: str, expected_size: int | None = None) -> Split:
    """Reload an instance cache; heads and tails come back as names. Every row
    must be ``expected_size`` wide or, without it, as wide as the first. The file
    is split and checked in bulk, and rescanned line by line only to name its first error."""
    if not os.path.isfile(path):
        raise DataError(f"instance cache not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().split("\n") if line]
    except UnicodeDecodeError:
        _raise_first_error(path, expected_size)
    if set(map(str.count, lines, itertools.repeat("\t"))) - {3}:
        _raise_first_error(path, expected_size)
    fields = "\t".join(lines).split("\t") if lines else []
    heads, tails, labels, bits = fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    width = expected_size if expected_size is not None else len(bits[0]) if bits else 0
    if set(labels) - {"0", "1"} or set(map(len, bits)) - {width}:
        _raise_first_error(path, expected_size)
    # a character other than 0 or 1, non-ASCII ones encoded as "?", is above 1 after the shift
    flat = np.frombuffer("".join(bits).encode("ascii", "replace"), np.uint8) - ord("0")
    if (flat > 1).any():
        _raise_first_error(path, expected_size)
    availability = flat.reshape(len(lines), width).astype(np.float64)
    label_column = np.frombuffer("".join(labels).encode("ascii"), np.uint8).astype(np.int64) - ord("0")
    return Split(heads, tails, label_column, availability)


def _raise_first_error(path: str, expected_size: int | None) -> NoReturn:
    """Scan ``path`` line by line and raise the error of its first bad line."""
    width = expected_size
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4 or fields[2] not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: malformed instance line")
            if fields[3].strip("01"):
                raise DataError(f"{path}:{lineno}: availability must be a 0/1 string")
            width = len(fields[3]) if width is None else width
            if len(fields[3]) != width:
                against = "first row's length" if expected_size is None else "vocabulary size"
                raise DataError(f"{path}:{lineno}: availability length {len(fields[3])} != {against} {width}")
    raise RuntimeError(f"{path} failed a bulk check that no line fails")
