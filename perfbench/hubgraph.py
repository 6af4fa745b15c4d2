"""Seeded hub-heavy graph with one planted rule chain, written in the CLI's formats.

Background edges draw both endpoints from a Zipf law over entity ranks
(weight ``rank**-alpha``) and the relation from a Zipf law over relation
ranks, so a few entities are hubs with hundreds of edges, as in NELL. The
default shape has 2.6k entities and 27k edges (about 20 edges an entity,
with inverses).

The background graph is one fixed knowledge base, the way NELL is: it is
drawn from ``spec.graph_seed``. The workload seed picks the queries on it
(tails and the planted edges). Heads are taken in rank order from a band of
moderate degree, so they are the same for every seed.

On this graph the cost of one pair spans two orders of magnitude, so a few
drawn tails would decide a seed's cost. Each head therefore draws its tails
only from one cost band of the entities within ``max_hops`` of it: those
whose number of degree-weighted 3-walks from the head (the work the pruned
depth-first search does at its last hop, which tracks the measured
enumeration time with a log-log correlation of 0.95) lies between the
``cost_band`` quantiles for that head. Without a band, the summed
enumeration times of two seeds differed by 30%; with the 0.8-0.9 band,
those of three seeds stayed within 1%. That band costs ~0.4 s and yields
~1.7k chains a pair, which leaves time for too few query groups to learn a
steady test MAP; the default band yields about 230 chains a pair.

Each query head ``h`` gets one fresh entity ``m_h`` and the planted chain
``h -pa-> m_h -pb-> t`` to each of its positive tails, so ``pa->pb``
connects exactly the positive pairs. Tails, positive or negative, are never
hubs (ranked above the head band). The target relation appears once, on two
auxiliary entities that touch nothing else, so no chain can leak a label.

Uses numpy only and needs no download.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

TARGET = "target"
PLANTED = ("pa", "pb")


@dataclass(frozen=True)
class HubSpec:
    entities: int = 2600
    relations: int = 40
    edges: int = 27000
    alpha: float = 0.9
    train_groups: int = 50
    test_groups: int = 20
    positives_per_group: int = 1
    negatives_per_group: int = 2
    max_hops: int = 3
    # Heads come from this band of degree ranks: busy enough to have
    # neighbours within max_hops, but not the hubs themselves. Tails never
    # come from the entities ranked above the band either.
    head_ranks: tuple[int, int] = (150, 600)
    # Quantiles of a head's candidate tails, by walk count, to draw from.
    cost_band: tuple[float, float] = (0.1, 0.2)
    graph_seed: int = 0


def _neighbours(n: int, heads: np.ndarray, tails: np.ndarray) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for h, t in zip(heads.tolist(), tails.tolist()):
        adj[h].append(t)
        adj[t].append(h)
    return adj


def _within(adj: list[list[int]], source: int, hops: int) -> dict[int, int]:
    """Hop distance from ``source`` to every entity within ``hops`` (either direction)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if dist[node] == hops:
            continue
        for nxt in adj[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def generate(spec: HubSpec, seed: int) -> tuple[list[tuple[str, str, str]], list, list]:
    """(triples, train pairs, test pairs); a pair is ``(head, tail, label)``."""
    rng = np.random.default_rng([spec.graph_seed, 0x4B47])
    weights = np.arange(1, spec.entities + 1, dtype=np.float64) ** -spec.alpha
    weights /= weights.sum()
    by_rank = rng.permutation(spec.entities)
    rel_weights = 1.0 / np.arange(1, spec.relations + 1)
    rel_weights /= rel_weights.sum()
    heads = by_rank[rng.choice(spec.entities, size=spec.edges, p=weights)]
    tails = by_rank[rng.choice(spec.entities, size=spec.edges, p=weights)]
    rels = rng.choice(spec.relations, size=spec.edges, p=rel_weights)
    keep = heads != tails
    heads, tails, rels = heads[keep], tails[keep], rels[keep]
    triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist())]
    adj = _neighbours(spec.entities, heads, tails)
    # Edge counts between entities, both directions, as exact integers.
    walks = np.zeros((spec.entities, spec.entities))
    np.add.at(walks, (heads, tails), 1.0)
    walks += walks.T
    degree = walks.sum(axis=1)

    n_groups = spec.train_groups + spec.test_groups
    group_size = spec.positives_per_group + spec.negatives_per_group
    lo, hi = spec.head_ranks
    rank = np.empty(spec.entities, dtype=np.int64)
    rank[by_rank] = np.arange(spec.entities)
    pick = np.random.default_rng([seed, 0x9A1])
    groups: list[list[tuple[str, str, int]]] = []
    for head in by_rank[lo:hi].tolist():
        if len(groups) == n_groups:
            break
        near = _within(adj, head, spec.max_hops)
        pool = np.array(sorted(e for e, d in near.items() if d >= 1 and rank[e] >= lo))
        if len(pool) < group_size:
            continue
        cost = (((walks[head] @ walks) * degree) @ walks)[pool]
        low, high = np.quantile(cost, spec.cost_band)
        pool = pool[(cost >= low) & (cost <= high)]
        if len(pool) < group_size:
            continue
        picked = pick.choice(pool, size=group_size, replace=False).tolist()
        mid = f"m{head}"
        triples.append((f"e{head}", PLANTED[0], mid))
        group = []
        for i, tail in enumerate(picked):
            label = int(i < spec.positives_per_group)
            if label:
                triples.append((mid, PLANTED[1], f"e{tail}"))
            group.append((f"e{head}", f"e{tail}", label))
        groups.append([group[i] for i in pick.permutation(group_size)])
    if len(groups) < n_groups:
        raise ValueError(f"only {len(groups)} of {n_groups} query heads have enough neighbours")
    triples.append(("aux_h", TARGET, "aux_t"))
    train = [p for g in groups[: spec.train_groups] for p in g]
    test = [p for g in groups[spec.train_groups :] for p in g]
    return triples, train, test


def write(seed: int, out_dir: str, spec: HubSpec = HubSpec()) -> None:
    """Write ``graph.tsv`` and ``tasks/target/{train,test}.pairs`` under ``out_dir``."""
    triples, train, test = generate(spec, seed)
    task_dir = os.path.join(out_dir, "tasks", TARGET)
    os.makedirs(task_dir, exist_ok=True)
    with open(os.path.join(out_dir, "graph.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in triples)
    for name, pairs in (("train.pairs", train), ("test.pairs", test)):
        with open(os.path.join(task_dir, name), "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{t}\t{label}\n" for h, t, label in pairs)
