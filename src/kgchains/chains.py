"""Relation-chain enumeration, per-relation vocabularies, binary encodings.

A relation chain is the ordered label sequence of some entity path between
a head and a tail; intermediate entities are discarded. Chains are the
feature space for everything downstream: a split is encoded as one uint8 0/1
availability matrix over the task vocabulary, one row per query pair.
Extraction walks all query heads at once on numpy arrays, where a chain is
an int64 code (``_weights``); only the vocabulary's chains become tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .graph import Adjacency, KnowledgeGraph, LabeledPair, TaskDataset
from .util import read_table, write_lines


MANY = -1  # predecessor of a label prefix that no backtrack ban applies to
WALK_CHUNK = 1 << 15  # candidate rows one expansion of the chain walk holds at once


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
    keys = [(head, tail) for head, tail in pairs]
    slot, ptr, codes = _walks(graph, keys, max_hops, exclude)
    chains, ptr = _decode(codes, graph, max_hops), ptr.tolist()
    return {pair: set(chains[ptr[u] : ptr[u + 1]]) for pair, u in zip(keys, slot.tolist())}


def _weights(graph: KnowledgeGraph, max_hops: int) -> list[int]:
    """Place values of the hops in a chain code: chain ``r1..rL`` is the sum of
    ``(ri + 1) * (R + 1) ** (max_hops - i)``, R the relation count with inverses,
    so codes order as the relation tuples do (a shorter chain is zero-padded)."""
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    if (graph.n_relations + 1) ** max_hops > np.iinfo(np.int64).max:
        raise DataError(f"{graph.n_relations} relations with inverses overflow chain codes at --max-hops {max_hops}")
    return [(graph.n_relations + 1) ** (max_hops - 1 - i) for i in range(max_hops)]


def _decode(codes: np.ndarray, graph: KnowledgeGraph, max_hops: int) -> list[RelationChain]:
    ids = codes[:, None] // np.array(_weights(graph, max_hops), np.int64) % (graph.n_relations + 1) - 1
    return [RelationChain(row[:n]) for row, n in zip(zip(*ids.T.tolist()), (ids >= 0).sum(axis=1).tolist())]


def _chunks(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row ``i`` repeated ``hi[i] - lo[i]`` times, with the positions ``lo[i] .. hi[i] - 1``:
    (rows, positions) in pieces of about WALK_CHUNK rows (more only for one longer row)."""
    ends = np.cumsum(hi - lo)
    shift = hi - ends
    cuts = np.searchsorted(ends, np.arange(WALK_CHUNK, np.sum(hi - lo), WALK_CHUNK), "right").tolist()
    for a, b in zip([0, *cuts], [*cuts, len(lo)]):
        rows = np.repeat(np.arange(a, b), hi[a:b] - lo[a:b])
        yield rows, shift[rows] + np.arange(ends[a - 1] if a else 0, ends[b - 1] if b else 0)


def _firsts(*columns: np.ndarray) -> np.ndarray:
    """Whether each row of the sorted ``columns`` differs from the row before in any column; the first row does."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    return first


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending, by a sort and a mask: on 30k random int64 keys at numpy 2.4,
    0.28 ms against 3.8 ms for ``np.unique``."""
    keys = np.sort(keys)
    return keys[_firsts(keys)]


def _isin(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``np.isin`` of non-negative keys in ascending ``sorted_keys``: one ``searchsorted`` that uses the order
    the caller already has, which ``np.isin`` does not."""
    return np.append(sorted_keys, -1)[np.searchsorted(sorted_keys, keys)] == keys


def _slots(key: np.ndarray, heads: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of sorted ``key`` whose head ``key // n`` is in sorted ``heads``: each one's
    slot ``rank * n + key % n``, ascending, ``rank`` its head's index in ``heads``, and its row range [lo, hi)."""
    lo = np.flatnonzero(_firsts(key))
    hi = np.append(lo[1:], len(key))
    head, entity = np.divmod(key[lo], n)
    rank = np.searchsorted(heads, head)
    known = np.append(heads, -1)[rank] == head
    return (rank * n + entity)[known], lo[known], hi[known]


def _step(layers: list[tuple], graph: KnowledgeGraph, targets: np.ndarray | None) -> tuple:
    """Rows (key, code, pred, back) one non-backtracking hop on from every layer,
    deduplicated on (key, code). With ``targets`` (sorted keys), only rows at those,
    joined from whichever side has fewer edges: the layers' out-edges, or the
    targets' in-edges matched back to the layers' rows. That match looks each edge up
    in an int32 table over (rank among the targets' distinct heads, entity) that holds a
    layer's distinct-key index or -1; filled per layer and block of consecutive head
    ranks, it has at most max(8 * WALK_CHUNK, n_entities) entries. Only hits read rows."""
    out, into, n = graph.out_table, graph.in_table, graph.n_entities

    def departures() -> Iterator[tuple]:
        for layer in layers:
            key, _, pred, back, _ = layer
            for row, at in _chunks(out.indptr[key % n], out.indptr[key % n + 1]):
                nxt, rel = out.ends[at], out.rels[at]
                to = key[row] - key[row] % n + nxt
                keep = ((nxt != pred[row]) | (rel != back[row])) & (targets is None or _isin(to, targets))
                yield layer, to[keep], row[keep], rel[keep], (key[row[keep]] % n).astype(np.int32)

    def arrivals() -> Iterator[tuple]:
        first = _firsts(targets // n)
        heads, base, tails = targets[first] // n, (np.cumsum(first) - 1) * n, targets % n
        starts = np.append(np.flatnonzero(first), len(targets))  # each head's first target, then the end
        per = max(8 * WALK_CHUNK, n) // n  # heads a block
        table = np.full(min(per, len(heads)) * n, -1, np.int32)
        for layer in layers:
            _, _, pred, back, _ = layer
            slots, lo, hi = _slots(layer[0], heads, n)
            for r in range(0, max(len(heads), 1), per):  # one empty block without targets: _merge needs a part
                a, b = np.searchsorted(slots, [r * n, (r + per) * n])
                table[slots[a:b] - r * n] = np.arange(a, b)
                t, u = starts[r], starts[min(r + per, len(heads))]
                for i, at in _chunks(into.indptr[tails[t:u]], into.indptr[tails[t:u] + 1]):
                    i += t
                    g = table[base[i] - r * n + into.ends[at]]
                    hit = g >= 0
                    i, at, g = i[hit], at[hit], g[hit]
                    for j, row in _chunks(lo[g], hi[g]):
                        k, rel = i[j], into.rels[at[j]]
                        keep = (tails[k] != pred[row]) | (rel != back[row])
                        yield layer, targets[k[keep]], row[keep], rel[keep], into.ends[at[j[keep]]]
                table[slots[a:b] - r * n] = -1

    def degree(table: Adjacency, at: np.ndarray) -> int:
        return int((table.indptr[at + 1] - table.indptr[at]).sum())

    fewer_in = targets is not None and degree(into, targets % n) < sum(degree(out, x[0] % n) for x in layers)
    steps = arrivals() if fewer_in else departures()
    parts, merged, pending = [], 0, 0
    for x, to, row, rel, src in steps:
        parts.append((to, x[1][row] + (rel + 1).astype(np.int64) * x[4], src, rel))
        pending += len(to)
        if pending > max(WALK_CHUNK, merged):  # merging as rows arrive bounds the duplicates held
            parts = [_merge(parts)]
            merged, pending = len(parts[0][0]), 0
    key, code, pred, rel = _merge(parts)
    return key, code, pred, graph.inverse_table[rel]


def _merge(parts: list[tuple]) -> tuple:
    """(key, code, pred, rel) rows, deduplicated on (key, code) and sorted; a row
    reached from several predecessors gets ``MANY``, so merging merged rows is exact.
    ``parts`` is emptied once concatenated, which frees its rows before the sort, and the
    sort's order and the sorted preds are freed before the output rows are gathered."""
    key, code, pred, rel = (np.concatenate(column) for column in zip(*parts))
    del parts[:]
    order, starts = _sort_rows(key, code)
    pred, first = pred[order], order[starts]
    del order
    inside = np.ones(len(pred), bool)
    inside[starts] = False
    change = np.flatnonzero(inside[1:] & (pred[1:] != pred[:-1])) + 1  # a group's preds differ here
    merged = pred[starts]
    merged[np.searchsorted(starts, change, "right") - 1] = MANY
    del pred, starts, inside, change
    return key[first], code[first], merged, rel[first]


def _sort_rows(key: np.ndarray, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts rows on non-negative (key, code), as ``np.lexsort((code, key))``,
    and the positions in that order of each distinct pair's first row. The rows sort on one
    int64 key, ``key * span + code`` with ``span`` the largest code + 1, unless some row's
    would reach the int64 maximum."""
    span = int(code.max(initial=0)) + 1
    if (int(key.max(initial=0)) + 1) * span > np.iinfo(np.int64).max:
        order = np.lexsort((code, key))
        return order, np.flatnonzero(_firsts(key[order], code[order]))
    packed = key * span
    packed += code
    order = packed.argsort(kind="stable")
    return order, np.flatnonzero(_firsts(packed[order]))


def _walks(graph: KnowledgeGraph, pairs, max_hops: int, exclude: int | None) -> tuple[np.ndarray, ...]:
    """``chains_by_pair`` as chain codes (slot, ptr, codes): pair ``i``'s, ascending,
    are ``codes[ptr[u]:ptr[u + 1]]``, ``u = slot[i]``.

    All heads walk at once, in chunks of WALK_CHUNK rows. Layer ``d`` is sorted rows
    (key, code, pred, back) and the place value of hop ``d + 1``: prefix ``code`` from
    head ``key // n`` reaches entity ``key % n``, entered from ``pred`` or, if from
    several, ``MANY`` (no next step is then banned for every walk, so the collapse is
    exact), and ``back`` is its last label's inverse. The last layer keeps only
    in-neighbours of the head's tails (on hub graphs the costliest step: its join probes
    many in-edges among few layer keys), and each tail joins every layer over its in-edges.
    """
    weights = _weights(graph, max_hops)
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero((ids < 0) | (ids >= graph.n_entities))
    if len(bad):
        graph.check_entity(int(ids.flat[bad[0]]))
    excluded = (exclude, graph.inverse_relation_id(exclude)) if exclude is not None else ()
    n, into = graph.n_entities, graph.in_table
    unique, slot = np.unique(ids[:, 0] * n + ids[:, 1], return_inverse=True)
    heads, tails = np.divmod(unique, n)
    start = _distinct(heads)
    layers = [(start * n + start, start * 0, np.full(len(start), MANY, np.int32), np.full(len(start), -1), weights[0])]
    for depth in range(1, max_hops):
        near = None
        if depth == max_hops - 1:
            chunks = _chunks(into.indptr[tails], into.indptr[tails + 1])
            near = _distinct(np.concatenate([_distinct(heads[i] * n + into.ends[at]) for i, at in chunks]))
        layers.append((*_step(layers[-1:], graph, near), weights[depth]))
    key, code, _, _ = _step(layers, graph, unique)
    keep = ~_isin(code, np.array(sorted((r + 1) * weights[0] for r in excluded), np.int64))
    return slot, np.append(np.searchsorted(key[keep], unique), np.count_nonzero(keep)), code[keep]


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
    ``codes`` are the chains' codes (``_weights``), in index order.
    """

    target: int
    max_hops: int
    chains: list[RelationChain]
    supports: list[int]
    union_size: int
    codes: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.chains)


def _vocabulary(
    graph: KnowledgeGraph, found: tuple, positives: np.ndarray, target: int, max_hops: int, max_size: int
) -> ChainVocabulary:
    """Count each chain over the positive pairs (``found`` slots) in order, each pair's
    chains ascending; ties in support keep first-sighting order."""
    _, ptr, codes = found
    seen = np.concatenate([codes[at] for _, at in _chunks(ptr[positives], ptr[positives + 1])])
    codes, first, support = np.unique(seen, return_index=True, return_counts=True)
    if not len(codes):
        raise DataError("no candidate chains")
    kept = np.lexsort((first, -support))[:max_size]
    chains = _decode(codes[kept], graph, max_hops)
    return ChainVocabulary(target, max_hops, chains, support[kept].tolist(), len(codes), codes[kept])


def _require_positives(positives: Sequence) -> Sequence:
    if not len(positives):
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
    return _vocabulary(graph, found, found[0], target, max_hops, max_size)


@dataclass
class Instance:
    """One row of a split: a query pair, its label and its uint8 (D,) availability row (see ``Split``)."""

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


@dataclass
class Split:
    """One split as columns: query pairs (entity ids after ``encode_task``, names
    after ``read_instances``), labels, and one C-contiguous uint8 (N, D) 0/1
    availability matrix, the rows that ``len()`` counts and iteration yields.
    ``game.score_chunks`` and ``game._fit`` cast it to float64 for a network pass."""

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


def _ids(graph: KnowledgeGraph, pairs: Sequence[LabeledPair]) -> np.ndarray:
    return np.array([(graph.entity_id(p.head), graph.entity_id(p.tail)) for p in pairs], np.int64).reshape(-1, 2)


def _encode(vocab: ChainVocabulary, task: TaskDataset, ids: np.ndarray, found: tuple) -> EncodedTask:
    """Every split against ``vocab``, ``ids`` being the splits' pairs in order; the
    found codes' columns come from one search in the vocabulary's codes."""
    slot, ptr, codes = found
    order = np.argsort(vocab.codes)
    at = np.searchsorted(vocab.codes[order], codes)
    column = np.where(np.append(vocab.codes[order], 0)[at] == codes, np.append(order, -1)[at], -1)

    def encode_split(pairs: list[LabeledPair], a: int, b: int) -> Split:
        bits = np.zeros((b - a, vocab.size), np.uint8)
        for row, at in _chunks(ptr[slot[a:b]], ptr[slot[a:b] + 1]):
            j = column[at]
            bits[row[j >= 0], j[j >= 0]] = 1
        labels = np.array([p.label for p in pairs], dtype=np.int64)
        return Split(ids[a:b, 0].tolist(), ids[a:b, 1].tolist(), labels, bits)

    bounds = np.cumsum([0, len(task.train), len(task.dev), len(task.test)]).tolist()
    train, dev, test = map(encode_split, (task.train, task.dev, task.test), bounds, bounds[1:])
    return EncodedTask(relation=task.relation, size=vocab.size, train=train, dev=dev, test=test)


def encode_task(vocab: ChainVocabulary, graph: KnowledgeGraph, task: TaskDataset) -> EncodedTask:
    """Encode every split; one chain walk serves all three."""
    ids = _ids(graph, task.train + task.dev + task.test)
    return _encode(vocab, task, ids, _walks(graph, ids, vocab.max_hops, vocab.target))


def extract_task(
    graph: KnowledgeGraph, task: TaskDataset, max_hops: int, max_size: int
) -> tuple[ChainVocabulary, EncodedTask]:
    """``build_vocabulary`` over the train positives, then ``encode_task`` with
    that vocabulary, from one chain walk over every split's pairs."""
    ids = _ids(graph, task.train + task.dev + task.test)
    positives = _require_positives(np.flatnonzero([p.label == 1 for p in task.train]))
    found = _walks(graph, ids, max_hops, task.target)
    vocab = _vocabulary(graph, found, found[0][positives], task.target, max_hops, max_size)
    return vocab, _encode(vocab, task, ids, found)


# -- persistence ---------------------------------------------------------


def write_vocabulary(path: str, vocab: ChainVocabulary, graph: KnowledgeGraph) -> None:
    """One line per chain: index TAB support TAB names joined by ``->``."""
    write_lines(path, (f"{j}\t{vocab.supports[j]}\t{chain.names(graph)}" for j, chain in enumerate(vocab.chains)))


def read_vocabulary_names(path: str) -> tuple[list[str], list[int]]:
    """Chain display names and supports without needing the graph (for reports), read with ``util.read_table``.
    Each line's index is its row, 0 on the first, and its support a non-empty run of ASCII digits."""
    table = read_table(path, "vocabulary file", 3)
    fields = table.text(0, 2)
    indices = fields[0::3]
    misplaced = np.fromiter(map(str.__ne__, indices, map(str, range(len(indices)))), bool, len(indices))
    table.check((table.miscounted | table.off_range(1, "0", "9"), "expected index TAB support TAB chain"),
                (misplaced, lambda row: f"expected index {row}, not {indices[row]!r}"))
    return fields[2::3], list(map(int, fields[1::3]))


def write_instances(path: str, split: Split, graph: KnowledgeGraph | None) -> None:
    """head TAB tail TAB label TAB availability bits as a 0/1 string."""
    width = split.availability.shape[1]
    bits = ((split.availability > 0).astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    rows = [bits[a : a + width] for a in range(0, len(bits), width)] if width else [""] * len(split)
    columns = _names(split.heads, graph), _names(split.tails, graph), map(str, split.labels.tolist()), rows
    write_lines(path, map("\t".join, zip(*columns)))


def _names(entities: list, graph: KnowledgeGraph | None) -> list[str]:
    """A split's column of entity names as it is, or of entity ids named by ``graph``."""
    if not entities or isinstance(entities[0], str):
        return entities
    assert graph is not None, "graph required to name integer entity ids"
    for eid in (min(entities), max(entities)):
        graph.check_entity(eid)
    return list(map(graph.entity_names.__getitem__, entities))


def read_instances(path: str, expected_size: int | None = None) -> Split:
    """Reload an instance cache with ``util.read_table``; heads and tails come back as names. Every row
    must be ``expected_size`` wide or, without it, as wide as the first. The availability is the cache's
    bytes minus ``'0'``, uint8: ``game.score_chunks`` and ``game._fit`` make the float64 a network reads."""
    table = read_table(path, "instance cache", 4)
    lengths = table.lengths()
    labels = np.frombuffer(table.data, np.uint8)[table.bounds[:, 2] + 1] - ord("0")
    width = expected_size if expected_size is not None else int(lengths[0, 3]) if len(lengths) else 0
    against = "first row's length" if expected_size is None else "vocabulary size"
    table.check(
        (table.miscounted | (lengths[:, 2] != 1) | (labels > 1), "malformed instance line"),
        (table.off_range(3, "0", "1") & (lengths[:, 3] > 0), "availability must be a 0/1 string"),
        (lengths[:, 3] != width, lambda row: f"availability length {lengths[row, 3]} != {against} {width}"),
    )
    windows = np.ndarray((max(len(table.data) - width + 1, 0), width), np.uint8, table.data, 0, (1, 1))
    bits = windows[table.bounds[:, 3] + 1] - ord("0")  # every row is width wide
    names = table.text(0, 1)
    return Split(names[0::2], names[1::2], labels.astype(np.int64), bits)
