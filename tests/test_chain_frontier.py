"""The label frontier (``chains_by_pair``) against the walks it replaced.

``dfs_paths`` is the entity-path enumerator that ``enumerate_paths`` used
before chain extraction moved to the shared frontier, kept here as the
reference: a depth-first walk over entity paths, pruned by the exact hop
distance to the tail, one pair at a time. ``walk_oracle.frontier_walks`` is
the per-head dict frontier that the array walk over all heads replaced, and
``walk_oracle.frontier_extract_task`` the extraction built on it.
"""

import numpy as np
import pytest

from kgchains import chains as chains_module
from kgchains.chains import (
    RelationChain,
    build_vocabulary,
    chains_by_pair,
    encode_task,
    enumerate_paths,
    extract_task,
)
from kgchains.errors import DataError
from kgchains.graph import KnowledgeGraph, LabeledPair, TaskDataset

from walk_oracle import DataclassChain, edges_of, frontier_extract_task, frontier_walks


def dfs_paths(graph, head, tail, max_hops, exclude=None):
    graph.check_entity(head)
    graph.check_entity(tail)
    excluded = set()
    if exclude is not None:
        excluded.add(exclude)
        inv = graph.inverse_relation_id(exclude)
        if inv >= 0:
            excluded.add(inv)

    dist = graph.distance_to(tail, max_hops)
    found = set()
    labels = []

    def walk(node, prev_node, banned_rel, depth):
        hops_left = max_hops - depth - 1
        for rel, nxt in edges_of(graph.out_table, node):
            if nxt == prev_node and rel == banned_rel:
                continue
            if nxt != tail and dist[nxt] > hops_left:
                continue
            labels.append(rel)
            if nxt == tail:
                if depth > 0 or rel not in excluded:
                    found.add(tuple(labels))
            if hops_left > 0:
                walk(nxt, node, graph.inverse_relation_id(rel), depth + 1)
            labels.pop()

    walk(head, -1, -1, 0)
    return {RelationChain(seq) for seq in found}


def hub_graph(seed, n_entities=40, n_relations=4, n_edges=100, add_inverses=True, dead_ends=False):
    """Zipf-degree graph: both endpoints drawn with weight rank**-1, so entity 0 is a hub.

    Without inverse augmentation the relation names still come in
    ``r``/``r_inv`` pairs, so the name-level inverse (and the backtrack ban
    it implies) exists for the walks to respect. ``dead_ends`` adds an entity
    ``source`` with out-edges only and an entity ``sink`` with in-edges only
    (each gets the other kind too when inverses are added).
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_entities + 1)
    weights /= weights.sum()
    heads = rng.choice(n_entities, size=n_edges, p=weights)
    tails = rng.choice(n_entities, size=n_edges, p=weights)
    rels = rng.integers(n_relations, size=n_edges)

    def relation(r):
        return f"r{r}" if add_inverses else f"r{r // 2}" + ("_inv" if r % 2 else "")

    triples = [
        (f"e{h}", relation(r), f"e{t}")
        for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist())
    ]
    if dead_ends:
        triples += [("source", relation(0), triples[0][0]), (triples[0][2], relation(1), "sink")]
    return KnowledgeGraph.from_triples(triples, add_inverses=add_inverses), rng


def query_pairs(graph, rng, n_heads=4, n_tails=3):
    """Each head with random tails, itself, and an out-neighbour and an in-neighbour."""
    pairs = []
    for head in [0, *rng.choice(graph.n_entities, size=n_heads - 1, replace=False).tolist()]:
        pairs += [(head, int(t)) for t in rng.choice(graph.n_entities, size=n_tails)]
        pairs.append((head, head))
        for edges in (edges_of(graph.out_table, head), edges_of(graph.in_table, head)):
            if edges:
                pairs.append((head, edges[int(rng.integers(len(edges)))][1]))
    return pairs


def assert_matches_dfs(graph, pairs, max_hops, exclude):
    found = chains_by_pair(graph, pairs, max_hops, exclude)
    assert set(found) == set(pairs)
    for head, tail in pairs:
        assert found[(head, tail)] == dfs_paths(graph, head, tail, max_hops, exclude), (head, tail)


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
@pytest.mark.parametrize("add_inverses", [True, False])
def test_hub_graphs_match_dfs(max_hops, add_inverses):
    n_edges = 60 if max_hops == 4 else 100
    for seed in range(4):
        graph, rng = hub_graph(seed, n_edges=n_edges, add_inverses=add_inverses)
        exclude = int(rng.integers(graph.n_relations)) if seed else None
        assert_matches_dfs(graph, query_pairs(graph, rng), max_hops, exclude)


def test_every_target_edge_is_guarded():
    """Pairs joined by an edge of the excluded relation, either way round."""
    for seed in range(4):
        graph, rng = hub_graph(100 + seed)
        target = int(rng.integers(graph.n_relations))
        pairs = [
            (h, t)
            for h in range(graph.n_entities)
            for r, t in edges_of(graph.out_table, h)
            if r in (target, graph.inverse_relation_id(target))
        ]
        assert pairs
        assert_matches_dfs(graph, pairs, 3, target)
        for head, tail in pairs:
            assert not {(target,), (graph.inverse_relation_id(target),)} & {
                c.relations for c in enumerate_paths(graph, head, tail, 3, exclude=target)
            }


def test_batched_tails_equal_one_pair_calls():
    """A head whose tails are in-neighbours of one another shares one frontier."""
    graph, rng = hub_graph(7)
    head = 0
    first = edges_of(graph.out_table, head)[0][1]
    chained = [first] + [m for _, m in edges_of(graph.in_table, first)][:4]
    pairs = [(head, t) for t in chained] + query_pairs(graph, rng)
    found = chains_by_pair(graph, pairs, 3, exclude=1)
    for head, tail in pairs:
        assert found[(head, tail)] == enumerate_paths(graph, head, tail, 3, exclude=1)
        assert found[(head, tail)] == dfs_paths(graph, head, tail, 3, exclude=1)


def reference_vocabulary(graph, positives, target, max_hops):
    """Relation tuples in vocabulary order and their supports, from per-pair walks
    counted in order, each pair's chains sorted in the dataclass chain's order."""
    support, first_seen = {}, {}
    for head, tail in positives:
        for chain in sorted(DataclassChain(c.relations) for c in dfs_paths(graph, head, tail, max_hops, target)):
            first_seen.setdefault(chain, len(first_seen))
            support[chain] = support.get(chain, 0) + 1
    order = sorted(support, key=lambda c: (-support[c], first_seen[c]))
    return [c.relations for c in order], [support[c] for c in order]


def test_vocabulary_order_matches_per_pair_walks():
    """Support first, then first sighting: positives in order, each pair's chains sorted."""
    graph, rng = hub_graph(11)
    positives = [pair for pair in query_pairs(graph, rng, n_heads=6) if pair[0] != pair[1]]
    vocab = build_vocabulary(graph, positives, 0, max_hops=3)
    assert ([c.relations for c in vocab.chains], vocab.supports) == reference_vocabulary(graph, positives, 0, 3)


def hub_task(graph, rng, target):
    """Labeled name pairs over ``query_pairs``, with one positive repeated in
    train; dev asks three train pairs again and test one."""
    pairs = [
        LabeledPair(graph.entity_names[h], graph.entity_names[t], int(i % 3 != 2))
        for i, (h, t) in enumerate(query_pairs(graph, rng, n_heads=8))
        if h != t
    ]
    third = len(pairs) // 3
    train = pairs[: 2 * third] + [pairs[0]]
    test = pairs[2 * third :] + [pairs[1]]
    return TaskDataset(target=target, relation=graph.relation_name(target), train=train, dev=pairs[3:6], test=test)


# Zipf degrees at about 200 chains a positive pair, as on a NELL-like hub graph
HUB = dict(seed=21, n_entities=120, n_relations=6, n_edges=500)


@pytest.mark.parametrize("max_hops", [1, 2, 3])
def test_extract_task_equals_build_vocabulary_then_encode_task(max_hops):
    """One walk over every split gives what a walk over the positives and a walk
    over every split gave; at k=3 also on a hub-shaped graph. Caps that keep one
    chain of a support tie and drop the other pin the first-sighting tie order."""
    for shape in [dict(seed=13)] + [HUB] * (max_hops == 3):
        graph, rng = hub_graph(**shape)
        task = hub_task(graph, rng, target=1)
        positives = [(graph.entity_id(p.head), graph.entity_id(p.tail)) for p in task.train if p.label == 1]
        assert positives[0] == positives[-1]
        chains, supports = reference_vocabulary(graph, positives, task.target, max_hops)
        ties = [j for j in range(1, len(supports)) if supports[j - 1] == supports[j]]
        for max_size in (10000, ties[0], ties[len(ties) // 2]):
            vocab, data = extract_task(graph, task, max_hops, max_size)
            ref_vocab = build_vocabulary(graph, positives, task.target, max_hops, max_size)
            ref = encode_task(ref_vocab, graph, task)
            assert (vocab.chains, vocab.supports) == (ref_vocab.chains, ref_vocab.supports)
            assert ([c.relations for c in vocab.chains], vocab.supports) == (chains[:max_size], supports[:max_size])
            assert vocab.union_size == ref_vocab.union_size == len(chains)
            assert (vocab.target, vocab.max_hops, data.relation, data.size) == (task.target, max_hops, ref.relation, ref.size)
            for name in ("train", "dev", "test"):
                split, ref_split = getattr(data, name), getattr(ref, name)
                assert (split.heads, split.tails) == (ref_split.heads, ref_split.tails)
                assert np.array_equal(split.labels, ref_split.labels)
                assert np.array_equal(split.availability, ref_split.availability)
        assert vocab.size == ties[len(ties) // 2] < len(chains)
        if shape is HUB:
            assert len(chains) > 1000


def names(graph, chain_set):
    return sorted(c.names(graph) for c in chain_set)


@pytest.mark.parametrize("second_route", [True, False])
def test_prefix_entered_from_the_tail_and_another_entity(second_route):
    # h -a-> t -r-> m and h -a-> x -r-> m both reach m with prefix a->r, one
    # of them entered from the tail t. Stepping m -r_inv-> t backtracks on
    # the walk through t but not on the walk through x, so a->r->r_inv
    # (and a->r->r_inv->s to z) exists exactly when the route via x does.
    triples = [("h", "a", "t"), ("t", "r", "m"), ("t", "s", "z")]
    if second_route:
        triples += [("h", "a", "x"), ("x", "r", "m")]
    graph = KnowledgeGraph.from_triples(triples)
    h, t, z = (graph.entity_id(e) for e in ("h", "t", "z"))
    found = chains_by_pair(graph, [(h, t), (h, z)], 4)
    assert ("a->r->r_inv" in names(graph, found[(h, t)])) == second_route
    assert ("a->r->r_inv->s" in names(graph, found[(h, z)])) == second_route
    for pair in [(h, t), (h, z)]:
        assert found[pair] == dfs_paths(graph, *pair, 4)


def dead_end_pairs(graph, rng):
    """``query_pairs`` twice over (repeated pairs), and pairs into ``source`` and out of ``sink``."""
    source, sink = graph.entity_id("source"), graph.entity_id("sink")
    pairs = query_pairs(graph, rng)
    return pairs + pairs + [(0, source), (sink, 0), (source, sink), (sink, source), (sink, sink)]


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
@pytest.mark.parametrize("add_inverses", [True, False])
def test_array_walk_equals_the_frontier_walk(max_hops, add_inverses):
    """Without and with a leakage guard, over repeated pairs, head == tail pairs, a
    tail with no in-edges and a head with no out-edges (without inverse augmentation)."""
    for seed in range(4):
        graph, rng = hub_graph(seed, n_edges=60 if max_hops == 4 else 100, add_inverses=add_inverses, dead_ends=True)
        pairs = dead_end_pairs(graph, rng)
        source, sink = graph.entity_id("source"), graph.entity_id("sink")
        assert add_inverses or not edges_of(graph.in_table, source) and not edges_of(graph.out_table, sink)
        for exclude in (None, int(rng.integers(graph.n_relations))):
            assert chains_by_pair(graph, pairs, max_hops, exclude) == frontier_walks(graph, pairs, max_hops, exclude)


def count_lookups(monkeypatch):
    """A list that each ``chains._slots`` call, one a layer of a join from the targets' in-edges,
    appends to while the test runs: (head blocks, blocks without a key of the layer, whether the
    targets' last head is past the layer's last key)."""
    calls, slots = [], chains_module._slots

    def counted(key, heads, n):
        found = slots(key, heads, n)
        per = max(8 * chains_module.WALK_CHUNK, n) // n
        blocks = -(-len(heads) // per)
        past = len(heads) > 0 and (len(key) == 0 or heads[-1] > key[-1] // n)
        calls.append((blocks, blocks - len(np.unique(found[0] // n // per)), past))
        return found

    monkeypatch.setattr(chains_module, "_slots", counted)
    return calls


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_array_walk_in_small_chunks(monkeypatch, chunk):
    """Expansions cut into pieces of a few rows, a row's edges split across pieces, and joins
    from the targets' in-edges in blocks of a few heads (one at chunk 1 and 5): there, at k=4
    without inverses, where ``sink`` is the last head and has no out-edges, some block has no
    key in a layer and some lies past a layer's last key. Last, a join from no targets."""
    monkeypatch.setattr(chains_module, "WALK_CHUNK", chunk)
    calls = count_lookups(monkeypatch)
    for add_inverses in (True, False):
        for max_hops, n_edges in ((1, 100), (2, 100), (3, 100), (4, 60)):
            graph, rng = hub_graph(9, n_edges=n_edges, add_inverses=add_inverses, dead_ends=True)
            pairs = dead_end_pairs(graph, rng)
            assert chains_by_pair(graph, pairs, max_hops, 1) == frontier_walks(graph, pairs, max_hops, 1)
    assert calls
    if chunk < 64:
        assert max(blocks for blocks, _, _ in calls) > 1
        assert any(empty for _, empty, _ in calls) and any(past for _, _, past in calls)
    # pairs into source alone, which has no in-edges without inverse augmentation: the last
    # layer has no entities, and the step into it joins from the in-edges of no targets
    graph, _ = hub_graph(9, add_inverses=False, dead_ends=True)
    pairs = [(head, graph.entity_id("source")) for head in range(4)]
    for max_hops in (2, 3):
        del calls[:]
        found = chains_by_pair(graph, pairs, max_hops)
        assert found == frontier_walks(graph, pairs, max_hops) == dict.fromkeys(pairs, set())
        assert (0, 0, False) in calls
    for wide in ("head", "tail"):
        graph = fan_graph(wide)
        pairs = [(graph.entity_id("h"), t) for t in range(graph.n_entities)]
        assert chains_by_pair(graph, pairs, 3) == frontier_walks(graph, pairs, 3)


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
@pytest.mark.parametrize("add_inverses", [True, False])
def test_extract_task_equals_the_frontier_path(max_hops, add_inverses):
    """Vocabulary chains, supports and union size, and every split's heads, tails,
    labels and availability bits, uncapped and with a cap inside a support tie."""
    checked = 0
    for seed in range(3):
        graph, rng = hub_graph(40 + seed, n_edges=60 if max_hops == 4 else 100, add_inverses=add_inverses, dead_ends=True)
        task = hub_task(graph, rng, target=int(rng.integers(graph.n_relations)))
        task.test += [LabeledPair(graph.entity_names[h], graph.entity_names[t], 0) for h, t in dead_end_pairs(graph, rng)]
        chains, supports, union, splits = frontier_extract_task(graph, task, max_hops, 10000)
        if not union:
            with pytest.raises(DataError, match="no candidate chains"):
                extract_task(graph, task, max_hops, 10000)
            continue
        ties = [j for j in range(1, len(supports)) if supports[j - 1] == supports[j]]
        for max_size in (10000, *ties[:1]):
            chains, supports, union, splits = frontier_extract_task(graph, task, max_hops, max_size)
            vocab, data = extract_task(graph, task, max_hops, max_size)
            assert ([c.relations for c in vocab.chains], vocab.supports, vocab.union_size) == (chains, supports, union)
            for split, (heads, tails, labels, bits) in zip((data.train, data.dev, data.test), splits):
                assert (split.heads, split.tails) == (heads, tails)
                assert np.array_equal(split.labels, labels)
                assert (split.availability.dtype, split.availability.shape) == (bits.dtype, bits.shape)
                assert split.availability.flags.c_contiguous and split.availability.tobytes() == bits.tobytes()
            checked += 1
    assert checked >= 3


def fan_graph(wide):
    """At k=2 the last layer's join has a side 40 edges wide. ``head``: h has 40
    out-edges and t one in-neighbour, so the near entities' in-edges are fewer;
    ``tail``: h has one out-edge and t 40 in-neighbours, so the layer's out-edges are."""
    if wide == "head":
        triples = [("h", "a", f"x{i}") for i in range(40)] + [("x0", "b", "t"), ("t", "c", "z")]
    else:
        triples = [("h", "a", "x0"), ("x0", "c", "z")] + [(f"x{i}", "b", "t") for i in range(40)]
    return KnowledgeGraph.from_triples(triples)


@pytest.mark.parametrize("wide", ["head", "tail"])
def test_each_side_of_the_last_layer_join(wide):
    graph = fan_graph(wide)
    h, t, z = (graph.entity_id(name) for name in ("h", "t", "z"))
    near = {m for _, m in edges_of(graph.in_table, t)}
    out_side, in_side = len(edges_of(graph.out_table, h)), sum(len(edges_of(graph.in_table, m)) for m in near)
    assert (out_side > in_side) == (wide == "head")
    pairs = [(h, t), (h, z), (h, h), (t, h)]
    for max_hops in (1, 2, 3):
        for exclude in (None, graph.relation_id("b")):
            found = chains_by_pair(graph, pairs, max_hops, exclude)
            assert found == frontier_walks(graph, pairs, max_hops, exclude)
            for pair in pairs:
                assert found[pair] == dfs_paths(graph, *pair, max_hops, exclude)


def test_chain_codes_wider_than_64_bits_are_a_data_error():
    """800 relations with inverses, base 801: --max-hops 6 fits in 64 bits, 7 does not."""
    graph = KnowledgeGraph.from_triples([(f"e{i}", f"r{i}", f"e{i + 1}") for i in range(400)])
    assert graph.n_relations == 800
    head, tail = graph.entity_id("e0"), graph.entity_id("e6")
    assert enumerate_paths(graph, head, tail, 6) == {(0, 2, 4, 6, 8, 10)}
    with pytest.raises(DataError, match="800 relations .* --max-hops 7"):
        enumerate_paths(graph, head, tail, 7)
    with pytest.raises(DataError, match="800 relations .* --max-hops 7"):
        enumerate_paths(graph, head, graph.n_entities, 7)


def test_bad_pair_ids_raise_the_first_in_order():
    graph, _ = hub_graph(3)
    n = graph.n_entities
    for pairs, bad in [([(0, 1), (n, -1)], n), ([(0, 1), (2, -1), (n, 0)], -1), ([(-5, n + 3)], -5)]:
        with pytest.raises(DataError, match=f"unknown entity id: {bad}$"):
            chains_by_pair(graph, pairs, 2)


def reference_merge(parts):
    """``_merge`` as it was with one ``np.lexsort`` on (key, code) for every input."""
    key, code, pred, rel = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((code, key))
    key, code, pred, rel = key[order], code[order], pred[order], rel[order]
    starts = np.flatnonzero(chains_module._firsts(key, code))
    low, high = np.minimum.reduceat(pred, starts), np.maximum.reduceat(pred, starts)
    return key[starts], code[starts], np.where(low == high, low, chains_module.MANY), rel[starts]


INT64_MAX = np.iinfo(np.int64).max
# 2**63 - 1 = 454279 * 20303320287433: a largest key of 454278 with a largest code of
# 20303320287432 packs to 2**63 - 2, and one more in either does not pack
KEY_EDGE, SPAN_EDGE = 454279, 20303320287433


def random_rows(rng, n, key_max, code_max):
    """``n`` (key, code, pred, rel) rows in the walk's dtypes, drawn so (key, code) repeats
    with other preds; ``rel`` is a function of ``code``, as in the walk."""
    key = rng.integers(0, 12, n) * (key_max // 11)
    code = rng.integers(0, 8, n) * (code_max // 7)
    key[:1], code[:1] = key_max, code_max
    pred = rng.integers(-1, 5, n).astype(np.int32)
    return key, code, pred, (code % 7).astype(np.int32)


@pytest.mark.parametrize(
    "n, key_max, code_max, packs",
    [
        (0, 0, 0, True),
        (1, 5, 9, True),
        (1, INT64_MAX, INT64_MAX, False),
        (500, 40, 300, True),
        (500, KEY_EDGE - 1, SPAN_EDGE - 1, True),
        (500, KEY_EDGE, SPAN_EDGE - 1, False),
        (500, KEY_EDGE - 1, SPAN_EDGE, False),
        (500, 0, INT64_MAX - 1, True),
        (500, 0, INT64_MAX, False),
        (500, INT64_MAX // 2 - 1, 1, True),
        (500, INT64_MAX // 2, 1, False),
    ],
)
def test_packed_sort_equals_lexsort_on_each_side_of_the_int64_limit(monkeypatch, n, key_max, code_max, packs):
    """Empty and single-row inputs, rows repeating (key, code) with other preds, and
    largest keys and codes just inside and just outside what packs into int64."""
    rng = np.random.default_rng(n + key_max % 997 + code_max % 991)
    key, code, pred, rel = random_rows(rng, n, key_max, code_max)
    calls = count_lexsorts(monkeypatch)
    order, starts = chains_module._sort_rows(key, code)
    assert len(calls) == (0 if packs else 1)
    monkeypatch.undo()
    assert np.array_equal(order, np.lexsort((code, key)))
    assert np.array_equal(starts, np.flatnonzero(chains_module._firsts(key[order], code[order])))
    if n > 1:
        assert len(starts) < n  # some (key, code) rows repeat
    merged = chains_module._merge([(key, code, pred, rel)])
    for column, expected in zip(merged, reference_merge([(key, code, pred, rel)])):
        assert column.dtype == expected.dtype and np.array_equal(column, expected)


MANY = chains_module.MANY


@pytest.mark.parametrize(
    "key, pred",
    [
        ([], []),
        ([4], [2]),
        ([0, 1, 2, 3], [5, MANY, 0, 5]),  # one row a group
        ([7, 7, 7, 2, 2], [MANY, MANY, MANY, MANY, MANY]),  # every pred already MANY
        ([3, 3, 3, 1, 1, 9, 5, 5], [2, 2, 2, 4, MANY, 6, 1, 0]),  # agreeing, MANY and one, single, differing
        ([1, 1, 2, 2, 3, 3], [0, 1, 1, 1, 1, 2]),  # a pred change at every group start, inside only some groups
    ],
)
def test_merge_marks_many_where_the_reduceat_form_did(key, pred):
    """A group gets MANY exactly when its min and max pred differ: one-row groups, groups whose
    preds are all MANY, and groups mixing one pred, several, and MANY with another pred."""
    key, pred = np.array(key, np.int64), np.array(pred, np.int32)
    rows = (key, key % 3, pred, (key % 5).astype(np.int32))
    for column, expected in zip(chains_module._merge([rows]), reference_merge([rows])):
        assert column.dtype == expected.dtype and np.array_equal(column, expected)


@pytest.mark.parametrize("seed", range(20))
def test_merge_equals_the_reduceat_form_on_random_rows(seed):
    """Up to 60 rows over few (key, code) pairs, preds drawn from MANY and 0..3, in one to three parts."""
    rng = np.random.default_rng(seed)
    n = rng.integers(0, 60)
    key, code = rng.integers(0, 7, n), rng.integers(0, 4, n)
    parts = np.array_split(np.arange(n), rng.integers(1, 4))
    pred, rel = rng.integers(-1, 4, n).astype(np.int32), (code % 3).astype(np.int32)
    rows = [(key[at], code[at], pred[at], rel[at]) for at in parts]
    for column, expected in zip(chains_module._merge(list(rows)), reference_merge(rows)):
        assert column.dtype == expected.dtype and np.array_equal(column, expected)


def count_lexsorts(monkeypatch):
    """A list that each ``np.lexsort`` call appends to while the test runs."""
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
    return calls


@pytest.mark.parametrize("head, lexsorts", [("e0", False), ("e300", True)])
def test_walks_whose_sort_keys_do_and_do_not_pack_equal_the_frontier_walk(monkeypatch, head, lexsorts):
    """The 800-relation path graph at --max-hops 6: from e0 keys and codes are small and
    pack; from e300 keys are about 1.2e5 and codes about 2e17, so merges fall back to lexsort."""
    graph = KnowledgeGraph.from_triples([(f"e{i}", f"r{i}", f"e{i + 1}") for i in range(400)])
    h = graph.entity_id(head)
    pairs = [(h, t) for t in range(max(h - 7, 0), h + 8)]
    expected = frontier_walks(graph, pairs, 6)
    calls = count_lexsorts(monkeypatch)
    found = chains_by_pair(graph, pairs, 6)
    assert bool(calls) == lexsorts
    assert found == expected
    assert sum(map(len, found.values())) >= 6


def test_the_join_finds_the_rows_of_each_probe_as_two_searches_did():
    """A table filled from ``_slots`` gives each probe (head rank, entity) the row range of its
    key that a left and a right search gave, and nothing to a probe that no row has: one whose
    head has no key, or whose key lies past the last, while keys of heads that are not targets'
    take no slot."""
    rng = np.random.default_rng(3)
    n, heads = 6, np.array([1, 2, 4, 5])  # keys of heads 0 and 3 are not targets'; head 5 has none
    for size in (0, 1, 40):
        key = np.sort(rng.integers(0, 5 * n, size))
        slots, lo, hi = chains_module._slots(key, heads, n)
        assert np.all(np.diff(slots) > 0) and len(slots) == len(np.unique(key[np.isin(key // n, heads)]))
        table = np.full(len(heads) * n, -1)
        table[slots] = np.arange(len(slots))
        rank, entity = rng.integers(0, len(heads), 200), rng.integers(0, n, 200)
        g = table[rank * n + entity]
        probes = heads[rank] * n + entity
        left, right = np.searchsorted(key, probes), np.searchsorted(key, probes, "right")
        assert np.array_equal(g >= 0, left < right)
        assert np.array_equal(lo[g[g >= 0]], left[g >= 0]) and np.array_equal(hi[g[g >= 0]], right[g >= 0])
