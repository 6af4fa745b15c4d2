"""Indexed triple store with inverse-edge augmentation and per-relation tasks.

Entities and relations are interned to dense integer ids in first-seen
order. With augmentation on (the default), every stored edge (h, r, t)
also yields (t, r_inv, h) where ``r_inv`` is a distinct relation whose
name carries the ``_inv`` suffix; applying the suffix rule twice returns
the original name, except on names ending in ``_inv_inv`` (a data error),
so chains may traverse any edge backwards. The edges are two CSR tables,
out and in, built in bulk with numpy; each entity's slice is in input order.
The tables, with the int32 table of relation inverses, are the graph's only
edge view: callers slice them by ``indptr``.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .util import STREAM_DOWNSAMPLE, STREAM_SPLIT, intern_spans, read_table, stream_rng, write_lines

log = logging.getLogger(__name__)

INVERSE_SUFFIX = "_inv"
NOT_INVOLUTIVE = INVERSE_SUFFIX * 2  # a name's inverse's inverse is another name: a data error
SPLIT_RATIO = 0.8  # the share of a task's train pool that train keeps by default; dev gets the rest

# Sentinel distance for entities that cannot reach the BFS source.
UNREACHABLE = np.iinfo(np.int32).max


def inverse_name(name: str) -> str:
    """Name of the inverse relation; involutive on names that do not end in NOT_INVOLUTIVE."""
    if name.endswith(INVERSE_SUFFIX):
        return name[: -len(INVERSE_SUFFIX)]
    return name + INVERSE_SUFFIX


class Adjacency(NamedTuple):
    """A CSR table: entity ``e``'s edges are ``zip(rels[a:b], ends[a:b])``, ``a, b = indptr[e], indptr[e + 1]``.
    numpy arrays: ``indptr`` int64, ``rels`` and ``ends`` int32."""

    indptr: np.ndarray
    rels: np.ndarray
    ends: np.ndarray


def _csr(keys: np.ndarray, rels: np.ndarray, ends: np.ndarray, n: int) -> Adjacency:
    """Edges grouped by ``keys`` in input order: ``key * len + position`` is unique, so any sort is stable."""
    order = np.argsort(keys * len(keys) + np.arange(len(keys)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return Adjacency(indptr, rels[order].astype(np.int32), ends[order].astype(np.int32))


def _inverted(out: Adjacency, inverse: np.ndarray) -> Adjacency:
    """The in-table of a graph with inverses, from its out-table: out-edge (r, t) of e is in-edge (inverse[r], t)
    of e, in the same order, but for the edge and inverse of a self-loop line, adjacent in both, which swap."""
    rels = inverse[out.rels]
    loops = np.flatnonzero(out.ends == np.repeat(np.arange(len(out.indptr) - 1), np.diff(out.indptr))).reshape(-1, 2)
    rels[loops] = rels[loops[:, ::-1]]
    return Adjacency(out.indptr, rels, out.ends)


class KnowledgeGraph:
    """Immutable after construction; safe for unlimited concurrent readers.

    ``out_table`` holds each entity's outgoing ``(relation, tail)`` edges and ``in_table`` its incoming
    ``(relation, head)`` edges, as CSR tables: every kept line's edge, then its inverse, in line order.
    ``inverse_table[r]`` (int32) is the id of relation ``r``'s name-level inverse, or -1, and
    ``entity_names[e]`` entity ``e``'s name."""

    def __init__(self, entity_ids: dict[str, int], relation_ids: dict[str, int], inverse_table: np.ndarray,
                 out_table: Adjacency, in_table: Adjacency) -> None:
        self._entity_ids = entity_ids
        self.entity_names = tuple(entity_ids)
        self._relation_ids = relation_ids
        self._relation_names = list(relation_ids)
        self.inverse_table = inverse_table
        self.out_table = out_table
        self.in_table = in_table

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, str]], add_inverses: bool = True) -> "KnowledgeGraph":
        """Intern names, drop repeated edges and build both adjacency tables.

        Ids follow first sighting, an inverse relation right after its own;
        a line whose edge is already stored, as an edge or as another line's
        augmented inverse, is a duplicate.
        """
        fields = [name.encode("utf-8", "surrogatepass") for triple in triples for name in triple]
        lengths = np.fromiter(map(len, fields), np.int64, len(fields)).reshape(-1, 3)
        starts = np.cumsum(lengths).reshape(-1, 3) - lengths
        data = b"".join(fields) + bytes(8)
        entities = intern_spans(data, starts[:, ::2].ravel(), lengths[:, ::2].ravel())
        return cls._from_ids(entities, intern_spans(data, starts[:, 1], lengths[:, 1]), add_inverses)

    @classmethod
    def _from_ids(cls, entities: tuple, relations: tuple, add_inverses: bool) -> "KnowledgeGraph":
        """``from_triples`` on interned columns (see ``util.intern_spans``): ``entities`` holds the ids of
        each line's head and tail in turn and the names by id, ``relations`` each line's relation id and the
        names. An edge and its inverse share a key, the smaller of their two."""
        (ents, entity_names), (rels, names) = entities, relations
        if not len(rels):
            raise DataError("no triples")
        for name in names:
            if name.endswith(NOT_INVOLUTIVE):
                raise DataError(f"relation {name!r} ends in {NOT_INVOLUTIVE!r}")
        relation_ids = dict.fromkeys(x for name in names for x in (name, inverse_name(name))) if add_inverses else names
        relation_ids = dict(zip(relation_ids, itertools.count()))
        entity_ids = dict(zip(entity_names, itertools.count()))
        inverse = np.array([relation_ids.get(inverse_name(name), -1) for name in relation_ids], np.int32)
        n_ent, n_rel = len(entity_ids), len(relation_ids)
        if n_ent * n_rel * n_ent > 2**63:
            raise DataError(f"{n_ent} entities and {n_rel} relations overflow the 64-bit edge keys")
        h, r, t = ents[0::2], np.array([relation_ids[name] for name in names], np.int64)[rels], ents[1::2]
        key = (h * n_rel + r) * n_ent + t
        if add_inverses:
            ri = inverse[r]
            key = np.minimum(key, (t * n_rel + ri) * n_ent + h)
        order = np.argsort(key)  # each key's first line, in line order
        kept = np.sort(np.minimum.reduceat(order, np.flatnonzero(np.append(True, np.diff(key[order]) != 0))))
        if len(kept) < len(key):
            log.info("deduplicated %d duplicate triples", len(key) - len(kept))
        src, rel, dst = h[kept], r[kept], t[kept]
        if add_inverses:
            src, rel, dst = (np.stack(pair, axis=1).ravel() for pair in ((src, dst), (rel, ri[kept]), (dst, src)))
        out_table = _csr(src, rel, dst, n_ent)
        in_table = _inverted(out_table, inverse) if add_inverses else _csr(dst, rel, src, n_ent)
        return cls(entity_ids, relation_ids, inverse, out_table, in_table)

    # -- symbol tables -------------------------------------------------

    def entity_id(self, name: str) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            raise DataError(f"unknown entity: {name!r}")
        return eid

    def relation_id(self, name: str) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            raise DataError(f"unknown relation: {name!r}")
        return rid

    def relation_name(self, rid: int) -> str:
        if not 0 <= rid < len(self._relation_names):
            raise DataError(f"unknown relation id: {rid}")
        return self._relation_names[rid]

    def check_entity(self, eid: int) -> None:
        if not 0 <= eid < len(self.entity_names):
            raise DataError(f"unknown entity id: {eid}")

    def inverse_relation_id(self, rid: int) -> int:
        """Id of the name-level inverse, or -1 if it was never interned."""
        if not 0 <= rid < len(self.inverse_table):
            raise DataError(f"unknown relation id: {rid}")
        return int(self.inverse_table[rid])

    def distance_to(self, target: int, cap: int) -> np.ndarray:
        """Shortest hop count from every entity to ``target``, capped by BFS depth.

        Runs backwards over incoming edges; entities further than ``cap``
        (or unreachable) get UNREACHABLE.
        """
        self.check_entity(target)
        indptr, _, heads = self.in_table
        dist = np.full(self.n_entities, UNREACHABLE, dtype=np.int64)
        dist[target] = 0
        queue = deque([target])
        while queue:
            node = queue.popleft()
            d = dist[node]
            if d >= cap:
                continue
            for prev in heads[indptr[node] : indptr[node + 1]].tolist():
                if dist[prev] > d + 1:
                    dist[prev] = d + 1
                    queue.append(prev)
        return dist

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self._relation_names)

    @property
    def n_edges(self) -> int:
        return len(self.out_table.rels)


def load_triples(path: str, add_inverses: bool = True) -> KnowledgeGraph:
    """Load a tab-separated triples file (head TAB relation TAB tail) with ``util.read_table``; ``#`` lines are
    comments. A malformed line or a relation ending in NOT_INVOLUTIVE is an error, and so is no triple."""
    table = read_table(path, "triples file", 3, comments=True)
    if not len(table.bounds):
        raise DataError(f"no triples in {path}")
    lengths = table.lengths()
    relations = intern_spans(table.data, table.bounds[:, 1] + 1, lengths[:, 1])
    not_involutive = np.array([name.endswith(NOT_INVOLUTIVE) for name in relations[1]], bool)[relations[0]]
    table.check(
        (table.miscounted[:, None] | (lengths == 0), "expected 3 tab-separated fields"),
        (not_involutive, lambda row: f"relation {relations[1][relations[0][row]]!r} ends in {NOT_INVOLUTIVE!r}"),
    )
    entities = intern_spans(table.data, (table.bounds[:, 0:3:2] + 1).ravel(), lengths[:, ::2].ravel())
    return KnowledgeGraph._from_ids(entities, relations, add_inverses)


@dataclass
class LabeledPair:
    head: str
    tail: str
    label: int


@dataclass
class TaskDataset:
    target: int
    relation: str
    train: list[LabeledPair]
    dev: list[LabeledPair]
    test: list[LabeledPair]


def _read_pairs(path: str) -> list[LabeledPair]:
    """head TAB tail TAB label lines, read with ``util.read_table``; ``#`` lines and blank lines are skipped."""
    table = read_table(path, "pairs file", 3, comments=True)
    lengths = table.lengths()
    labels = np.frombuffer(table.data, np.uint8)[table.bounds[:, 2] + 1] - ord("0")
    table.check(
        (table.miscounted[:, None] | (lengths == 0), "expected head TAB tail TAB label"),
        ((lengths[:, 2] != 1) | (labels > 1), lambda row: f"label must be '0' or '1', got {table.text(2, 2)[row]!r}"),
    )
    fields = table.text(0, 1)
    return list(map(LabeledPair, fields[0::2], fields[1::2], labels.tolist()))


def split_task(
    graph: KnowledgeGraph, relation: str, pool: Sequence[LabeledPair], test: list[LabeledPair], ratio: float, seed: int
) -> TaskDataset:
    """The task of ``relation`` with ``pool`` split into train and dev: a shuffle by the stream of the seed plus
    the relation's id, then a cut that gives train floor(ratio * n) pairs."""
    target = graph.relation_id(relation)
    if not 0 < ratio <= 1:
        raise DataError(f"split ratio {ratio} must be in (0, 1]")
    perm = stream_rng(seed + target, STREAM_SPLIT).permutation(len(pool))
    cut = math.floor(ratio * len(pool))
    return TaskDataset(target, relation, [pool[i] for i in perm[:cut]], [pool[i] for i in perm[cut:]], test)


def load_task(tasks_dir: str, relation: str, graph: KnowledgeGraph, split_ratio: float = SPLIT_RATIO,
              seed: int = 0) -> TaskDataset:
    """Load ``<tasks_dir>/<relation>/{train,test}.pairs``; ``split_task`` splits the train pairs into train
    and dev."""
    graph.relation_id(relation)  # an unknown relation fails before a missing directory
    task_dir = os.path.join(tasks_dir, relation)
    if not os.path.isdir(task_dir):
        raise DataError(f"task directory not found: {task_dir}")
    pool = _read_pairs(os.path.join(task_dir, "train.pairs"))
    return split_task(graph, relation, pool, _read_pairs(os.path.join(task_dir, "test.pairs")), split_ratio, seed)


def write_dataset(out_dir: str, relation: str, triples: Iterable[tuple[str, str, str]],
                  train: Iterable[LabeledPair], test: Iterable[LabeledPair]) -> tuple[str, str]:
    """Write the layout that ``load_triples`` and ``load_task`` read: ``<out_dir>/graph.tsv``, one line a triple,
    and ``<out_dir>/tasks/<relation>/{train,test}.pairs``; returns the graph file and the tasks root. A line that
    would start with ``#``, which both readers skip as a comment, is an error before any file is written."""
    triples, splits = list(triples), (("train.pairs", list(train)), ("test.pairs", list(test)))
    for head in itertools.chain((h for h, _, _ in triples), (p.head for _, pairs in splits for p in pairs)):
        if head.startswith("#"):
            raise DataError(f"entity {head!r} starts with '#': its lines would read as comments")
    graph_path = os.path.join(out_dir, "graph.tsv")
    tasks_dir = os.path.join(out_dir, "tasks")
    os.makedirs(os.path.join(tasks_dir, relation), exist_ok=True)
    write_lines(graph_path, (f"{h}\t{r}\t{t}" for h, r, t in triples))
    for name, pairs in splits:
        write_lines(os.path.join(tasks_dir, relation, name), (f"{p.head}\t{p.tail}\t{p.label}" for p in pairs))
    return graph_path, tasks_dir


def downsample_negatives(pairs: Sequence, ratio: float, seed: int) -> list:
    """Keep all positives; sample negatives down to ceil(ratio * #positives).

    Works on any sequence of objects with a 0/1 ``label`` attribute and
    preserves the original relative order. If there are fewer negatives
    than the target, all are kept.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    n_pos = sum(1 for p in pairs if p.label == 1)
    neg_idx = [i for i, p in enumerate(pairs) if p.label != 1]
    target = math.ceil(ratio * n_pos)
    if len(neg_idx) <= target:
        return list(pairs)
    rng = stream_rng(seed, STREAM_DOWNSAMPLE)
    chosen = set(rng.choice(len(neg_idx), size=target, replace=False).tolist())
    keep = {neg_idx[i] for i in chosen}
    return [p for i, p in enumerate(pairs) if p.label == 1 or i in keep]
