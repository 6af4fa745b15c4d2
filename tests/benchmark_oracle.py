"""The benchmark generator and writer as they were before two rewrites.

``per_draw_generate`` is the earlier ``benchmark._generate``: one
``rng.random()`` per distractor relation and tail. It is kept as the
reference that the one-call draw must match byte for byte.

``graph_built_lines`` is graph.tsv as the writer wrote it through a graph
build: the lines that ``KnowledgeGraph.from_triples`` keeps, in line order.
It is the reference for the writer, which writes every generated triple as it is.
"""

from kgchains.benchmark import (
    PLANTED,
    RULE_CONJUNCTION,
    RULE_NOISY_WEAK,
    RULE_SINGLE,
    TARGET,
    BenchmarkSpec,
)
from kgchains.graph import LabeledPair, inverse_name
from kgchains.util import STREAM_BENCHMARK, stream_rng


def per_draw_generate(spec: BenchmarkSpec):
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

    def chains_for_role(role: str) -> list[tuple[str, ...]]:
        if spec.rule == RULE_CONJUNCTION:
            return {
                "pos": list(chains),
                "neg_a": [chains[0]],
                "neg_b": [chains[1]],
                "neg_none": [],
            }[role]
        if spec.rule == RULE_SINGLE:
            return list(chains) if role == "pos" else []
        raise AssertionError(role)

    train_pairs: list[LabeledPair] = []
    test_pairs: list[LabeledPair] = []

    for g in range(n_groups):
        head = f"h{g}"
        tails = [f"e{i}" for i in rng.choice(pool_size, size=group_size, replace=False)]
        mark(head)
        for tail in tails:
            mark(tail)
        if spec.rule == RULE_NOISY_WEAK:
            labels = [1] + [0] * spec.negatives_per_group
            group = []
            for tail, label in zip(tails, labels):
                rate = spec.weak_pos_rate if label == 1 else spec.weak_neg_rate
                for chain in chains:
                    if rng.random() < rate:
                        realize(head, tail, chain)
                group.append((tail, label))
        else:
            roles = ["pos"]
            negative_cycle = (
                ["neg_a", "neg_b", "neg_none"] if spec.rule == RULE_CONJUNCTION else ["neg_none"]
            )
            for i in range(spec.negatives_per_group):
                roles.append(negative_cycle[i % len(negative_cycle)])
            group = []
            for tail, role in zip(tails, roles):
                for chain in chains_for_role(role):
                    realize(head, tail, chain)
                group.append((tail, 1 if role == "pos" else 0))

        pairs = []
        for tail, label in group:
            for rel in distractors:
                if rng.random() < spec.distractor_rate:
                    triples.append((head, rel, tail))
            if spec.noise > 0 and rng.random() < spec.noise:
                label = 1 - label
            pairs.append(LabeledPair(head=head, tail=tail, label=label))
        # Shuffle within the group so score ties never systematically favor
        # the positive item at evaluation time.
        order = rng.permutation(len(pairs))
        shuffled = [pairs[i] for i in order]
        (train_pairs if g < spec.train_groups else test_pairs).extend(shuffled)

    return triples, train_pairs, test_pairs


def graph_built_lines(triples: list[tuple[str, str, str]]) -> str:
    """Each triple unless its edge is already stored, as an earlier line's edge or
    that edge's added inverse: the dedup rule of ``KnowledgeGraph.from_triples``."""
    stored, lines = set(), []
    for h, r, t in triples:
        if (h, r, t) not in stored:
            stored.update({(h, r, t), (t, inverse_name(r), h)})
            lines.append(f"{h}\t{r}\t{t}\n")
    return "".join(lines)
