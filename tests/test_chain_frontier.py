"""The per-head label frontier (``chains_by_pair``) against the depth-first walk it replaced.

``dfs_paths`` is the entity-path enumerator that ``enumerate_paths`` used
before chain extraction moved to the shared frontier, kept here as the
reference: a depth-first walk over entity paths, pruned by the exact hop
distance to the tail, one pair at a time.
"""

import numpy as np
import pytest

from kgchains.chains import (
    RelationChain,
    build_vocabulary,
    chains_by_pair,
    encode_task,
    enumerate_paths,
    extract_task,
)
from kgchains.graph import KnowledgeGraph, LabeledPair, TaskDataset

from walk_oracle import DataclassChain


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
        for rel, nxt in graph.neighbors(node):
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


def hub_graph(seed, n_entities=40, n_relations=4, n_edges=100, add_inverses=True):
    """Zipf-degree graph: both endpoints drawn with weight rank**-1, so entity 0 is a hub.

    Without inverse augmentation the relation names still come in
    ``r``/``r_inv`` pairs, so the name-level inverse (and the backtrack ban
    it implies) exists for the walks to respect.
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
    return KnowledgeGraph.from_triples(triples, add_inverses=add_inverses), rng


def query_pairs(graph, rng, n_heads=4, n_tails=3):
    """Each head with random tails, itself, and an out-neighbour and an in-neighbour."""
    pairs = []
    for head in [0, *rng.choice(graph.n_entities, size=n_heads - 1, replace=False).tolist()]:
        pairs += [(head, int(t)) for t in rng.choice(graph.n_entities, size=n_tails)]
        pairs.append((head, head))
        for edges in (graph.neighbors(head), graph.incoming(head)):
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
            for r, t in graph.neighbors(h)
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
    first = graph.neighbors(head)[0][1]
    chained = [first] + [m for _, m in graph.incoming(first)][:4]
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
        LabeledPair(graph.entity_name(h), graph.entity_name(t), int(i % 3 != 2))
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
