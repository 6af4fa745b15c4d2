import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgchains.benchmark import BenchmarkSpec, make_benchmark
from kgchains.chains import (
    Instance,
    RelationChain,
    Split,
    build_vocabulary,
    encode_task,
    enumerate_paths,
    extract_task,
    read_instances,
    read_vocabulary_names,
    write_instances,
    write_vocabulary,
)
from kgchains.errors import DataError
from kgchains.graph import KnowledgeGraph

from cache_oracle import assert_same_split, reference_read_instances, reference_write_instances
from splits import split_of
from step_oracle import mask_from_selected
from walk_oracle import DataclassChain, oracle_paths


def graph_of(*triples, add_inverses=True):
    return KnowledgeGraph.from_triples(triples, add_inverses=add_inverses)


def names(graph, chain_set):
    return sorted(c.names(graph) for c in chain_set)


def encode(vocab, graph, head, tail, label):
    """One pair's instance, its bits looked up chain by chain in the vocabulary."""
    found = enumerate_paths(graph, head, tail, vocab.max_hops, exclude=vocab.target)
    index = {chain: j for j, chain in enumerate(vocab.chains)}
    row = np.zeros(vocab.size)
    row[[index[chain] for chain in found if chain in index]] = 1.0
    return Instance(head, tail, label, row)


def random_graph(rng, n_entities=12, n_relations=4, n_edges=24):
    triples = []
    for _ in range(n_edges):
        h = f"e{rng.integers(n_entities)}"
        t = f"e{rng.integers(n_entities)}"
        r = f"r{rng.integers(n_relations)}"
        triples.append((h, r, t))
    return graph_of(*triples)


def test_simple_two_hop():
    g = graph_of(("a", "r", "b"), ("b", "s", "c"))
    found = enumerate_paths(g, g.entity_id("a"), g.entity_id("c"), 3)
    assert names(g, found) == ["r->s"]


def test_self_query_without_cycles_is_empty():
    g = graph_of(("a", "r", "b"), ("b", "s", "c"))
    assert enumerate_paths(g, g.entity_id("a"), g.entity_id("a"), 3) == set()


def test_exclude_removes_direct_target_edge():
    g = graph_of(("a", "t", "c"), ("a", "r", "b"), ("b", "s", "c"))
    found = enumerate_paths(g, g.entity_id("a"), g.entity_id("c"), 3, exclude=g.relation_id("t"))
    assert "t" not in names(g, found)
    assert "r->s" in names(g, found)
    # inverse of the excluded relation is also banned as a length-1 chain
    found_rev = enumerate_paths(
        g, g.entity_id("c"), g.entity_id("a"), 3, exclude=g.relation_id("t")
    )
    assert "t_inv" not in names(g, found_rev)


def test_longer_paths_may_use_excluded_relation():
    g = graph_of(("a", "t", "b"), ("b", "s", "c"))
    found = enumerate_paths(g, g.entity_id("a"), g.entity_id("c"), 3, exclude=g.relation_id("t"))
    assert "t->s" in names(g, found)


def test_unknown_entity_errors():
    g = graph_of(("a", "r", "b"))
    with pytest.raises(DataError):
        enumerate_paths(g, 99, 0, 2)


def test_no_immediate_backtrack():
    # without backtrack suppression a->r->b->r_inv->a->r->b would add (r, r_inv, r)
    g = graph_of(("a", "r", "b"))
    found = enumerate_paths(g, g.entity_id("a"), g.entity_id("b"), 3)
    assert names(g, found) == ["r"]


def test_revisits_allowed_when_not_immediate():
    # a->r->b->s_inv->a->r->b revisits entities but never retraces an edge
    # immediately; a->r->b->s_inv->a->s->b would, and is suppressed.
    g = graph_of(("a", "r", "b"), ("a", "s", "b"))
    found = enumerate_paths(g, g.entity_id("a"), g.entity_id("b"), 3)
    assert "r->s_inv->r" in names(g, found)
    assert "r->s_inv->s" not in names(g, found)


def test_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        g = random_graph(rng)
        entities = list(range(g.n_entities))
        head, tail = rng.choice(entities, size=2)
        for hops in (1, 2, 3):
            mine = enumerate_paths(g, int(head), int(tail), hops)
            ref = oracle_paths(g, int(head), int(tail), hops)
            assert mine == ref


def test_monotone_in_max_hops():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng)
        head, tail = rng.choice(g.n_entities, size=2)
        prev = set()
        for hops in (1, 2, 3):
            cur = enumerate_paths(g, int(head), int(tail), hops)
            assert prev <= cur
            prev = cur


relation_ids = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(relation_ids, max_size=30), st.lists(relation_ids, max_size=10))
def test_tuple_chain_matches_the_dataclass_it_replaced(seqs, probes):
    """Same sort order, set and dict membership, ``relations``, ``len()`` and ``names()``;
    and a chain hashes and compares equal to its raw tuple, so raw tuples probe it."""
    graph = graph_of(*[(f"e{r}", f"r{r}", f"e{r + 1}") for r in range(4)])
    assert graph.n_relations == 8
    new, old = [RelationChain(s) for s in seqs], [DataclassChain(s) for s in seqs]
    assert [c.relations for c in sorted(new)] == [c.relations for c in sorted(old)]
    new_index, old_index = {c: j for j, c in enumerate(new)}, {c: j for j, c in enumerate(old)}
    assert len(set(new)) == len(set(old)) == len(new_index) == len(old_index)
    for seq in seqs + probes:
        assert (RelationChain(seq) in set(new)) == (DataclassChain(seq) in set(old))
        assert new_index.get(RelationChain(seq)) == new_index.get(seq) == old_index.get(DataclassChain(seq))
    for chain, ref in zip(new, old):
        assert type(chain.relations) is tuple and chain.relations == ref.relations
        assert (len(chain), chain.names(graph)) == (len(ref), ref.names(graph))
        assert hash(chain) == hash(ref.relations) and chain == ref.relations
    assert repr(RelationChain((3, 1))) == "RelationChain((3, 1))"


def build_support_graph():
    """10 positive pairs; chain p1->p2 planted in 7, chain q in 4."""
    triples = []
    pairs = []
    for i in range(10):
        h, t = f"h{i}", f"t{i}"
        pairs.append((h, t))
        triples.append((h, "anchor", t))
        if i < 7:
            triples.append((h, "p1", f"m{i}"))
            triples.append((f"m{i}", "p2", t))
        if i < 4:
            triples.append((h, "q", t))
    g = graph_of(*triples)
    ids = [(g.entity_id(h), g.entity_id(t)) for h, t in pairs]
    return g, ids


def test_vocabulary_supports_match_counting():
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    by_name = {c.names(g): s for c, s in zip(vocab.chains, vocab.supports)}
    assert by_name["p1->p2"] == 7
    assert by_name["q"] == 4


def test_vocabulary_orders_by_support():
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    assert vocab.supports == sorted(vocab.supports, reverse=True)


def test_vocabulary_filter_keeps_top_supports():
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3, max_size=2)
    assert vocab.size == 2
    assert vocab.supports[0] >= vocab.supports[1]
    full = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    assert vocab.supports == full.supports[:2]


def test_vocabulary_excludes_target_chains():
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    assert "anchor" not in {c.names(g) for c in vocab.chains}
    assert "anchor_inv" not in {c.names(g) for c in vocab.chains}


def test_vocabulary_empty_union_errors():
    g = graph_of(("a", "t", "b"))
    with pytest.raises(DataError, match="no candidate chains"):
        build_vocabulary(g, [(g.entity_id("a"), g.entity_id("b"))], g.relation_id("t"))


def test_encode_instance_bits():
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    inst = encode(vocab, g, pairs[0][0], pairs[0][1], 1)
    present = enumerate_paths(g, pairs[0][0], pairs[0][1], 3, exclude=g.relation_id("anchor"))
    for j, chain in enumerate(vocab.chains):
        assert inst.availability[j] == (1.0 if chain in present else 0.0)


def test_selection_mask_workflow_example():
    # four available chains, the last two selected
    availability = np.array([1.0, 1.0, 1.0, 1.0])
    selected = np.array([0.0, 0.0, 1.0, 1.0])
    mask = mask_from_selected(availability, selected)
    assert mask.selected.tolist() == [0, 0, 1, 1]
    assert mask.complement.tolist() == [1, 1, 0, 0]


def test_all_zero_and_all_one_availability():
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    lonely = KnowledgeGraph.from_triples([("x", "anchor", "y")])
    # no vocabulary chain connects the pair in a graph with only the target edge
    inst = encode(vocab, lonely, lonely.entity_id("x"), lonely.entity_id("y"), 0)
    assert inst.n_available == 0


def test_vocabulary_round_trip(tmp_path):
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    path = tmp_path / "vocab.tsv"
    write_vocabulary(str(path), vocab, g)
    names, supports = read_vocabulary_names(str(path))
    assert names == [chain.names(g) for chain in vocab.chains]
    assert supports == vocab.supports
    # the file is exactly index, support and names, one chain per line
    rows = [f"{j}\t{s}\t{n}\n" for j, (s, n) in enumerate(zip(supports, names))]
    assert path.read_text(encoding="utf-8") == "".join(rows)


@pytest.mark.parametrize("support", ["\u0663", "\uff17", "", "1a", "+1", " 1", "1_0", "\u00b2"])
def test_a_vocabulary_support_is_ascii_digits(tmp_path, support):
    """Supports the writer never writes, such as an Arabic-Indic 3 or a fullwidth 7, which int() reads."""
    path = tmp_path / "vocab.tsv"
    path.write_text(f"0\t12\tr\n1\t{support}\ts\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: expected index TAB support TAB chain$"):
        read_vocabulary_names(str(path))


@pytest.mark.parametrize("text, line, message", [
    ("1\t3\ts\n0\t5\tr\n", 1, "expected index 0, not '1'"),  # two lines swapped
    ("0\t5\tr\n1\t3\ts\nx\t2\tt\n", 3, "expected index 2, not 'x'"),
    ("0\t5\tr\n\n01\t3\ts\n", 3, "expected index 1, not '01'"),  # a blank line is no row
    ("0\t5\tr\n0\t3\ts\n", 2, "expected index 1, not '0'"),
])
def test_a_vocabulary_index_is_its_row(tmp_path, text, line, message):
    """The index is the chain's column in every cache, so a line out of place would name another chain."""
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: {re.escape(message)}$"):
        read_vocabulary_names(str(path))


def test_instances_round_trip(tmp_path):
    g, pairs = build_support_graph()
    vocab = build_vocabulary(g, pairs, g.relation_id("anchor"), max_hops=3)
    instances = [encode(vocab, g, h, t, i % 2) for i, (h, t) in enumerate(pairs)]
    path = tmp_path / "cache.inst"
    write_instances(str(path), split_of(instances), g)
    reloaded = read_instances(str(path), vocab.size)
    assert len(reloaded) == len(instances)
    for orig, back in zip(instances, reloaded):
        assert back.head == g.entity_names[orig.head]
        assert back.label == orig.label
        assert np.array_equal(back.availability, orig.availability)
    with pytest.raises(DataError):
        read_instances(str(path), vocab.size + 1)


@pytest.mark.parametrize(
    "bits, message",
    [
        ("0120", "availability must be a 0/1 string"),
        ("01 0", "availability must be a 0/1 string"),
        ("01/0", "availability must be a 0/1 string"),
        ("01é0", "availability must be a 0/1 string"),
        ("010", "availability length 3 != vocabulary size 4"),
        ("01010", "availability length 5 != vocabulary size 4"),
    ],
)
def test_read_instances_rejects_bad_bits(tmp_path, bits, message):
    path = tmp_path / "cache.inst"
    path.write_text(f"h\tt\t1\t0110\nh\tt\t0\t{bits}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"cache.inst:2: {message}"):
        read_instances(str(path), 4)


def test_write_instances_bit_string(tmp_path):
    inst = Instance("h", "t", 1, np.array([0.0, 1.0, 0.5, 0.0, 1.0]))
    path = tmp_path / "cache.inst"
    write_instances(str(path), split_of([inst]), None)
    assert path.read_bytes() == b"h\tt\t1\t01101\n"
    assert read_instances(str(path), 5).availability.tolist() == [[0, 1, 1, 0, 1]]


@pytest.mark.parametrize("n, width", [(0, 0), (0, 3), (1, 0), (1, 1), (6, 7), (40, 65)])
@pytest.mark.parametrize("named", [False, True], ids=["ids", "names"])
def test_write_instances_writes_the_reference_bytes(tmp_path, n, width, named):
    """Entity ids named by the graph, or names as they are; no rows, empty rows and wide rows."""
    kg = KnowledgeGraph.from_triples([("a", "r", "b"), ("b\0é", "s", "c#"), ("d", "r", "a")])
    rng = np.random.default_rng(n * 100 + width)
    ids = rng.integers(0, kg.n_entities, (n, 2))
    heads, tails = ([kg.entity_names[e] for e in column] if named else column for column in ids.T.tolist())
    split = Split(heads, tails, rng.integers(0, 2, n), rng.choice([0.0, 0.5, 1.0], (n, width)))
    write_instances(str(tmp_path / "bulk.inst"), split, None if named else kg)
    reference_write_instances(str(tmp_path / "rows.inst"), split, kg)
    assert (tmp_path / "bulk.inst").read_bytes() == (tmp_path / "rows.inst").read_bytes()


@pytest.mark.parametrize("bad", [-1, 4])
def test_write_instances_rejects_an_unknown_entity_id(tmp_path, bad):
    kg = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "s", "c"), ("c", "r", "d")])
    split = Split([0, bad, 1], [1, 2, 3], np.array([1, 0, 1]), np.zeros((3, 2)))
    with pytest.raises(DataError, match=f"^unknown entity id: {bad}$"):
        write_instances(str(tmp_path / "cache.inst"), split, kg)


def test_encoded_splits_round_trip_through_the_cache(tmp_path):
    kg, task = make_benchmark(BenchmarkSpec(rule="conjunction", seed=3, train_groups=10, test_groups=5))
    positives = [(kg.entity_id(p.head), kg.entity_id(p.tail)) for p in task.train if p.label == 1]
    vocab = build_vocabulary(kg, positives, task.target, max_hops=2)
    data = encode_task(vocab, kg, task)
    for name, pairs in (("train", task.train), ("dev", task.dev), ("test", task.test)):
        split = getattr(data, name)
        assert split.availability.shape == (len(pairs), vocab.size)
        assert split.labels.tolist() == [p.label for p in pairs]
        path = tmp_path / f"{name}.inst"
        write_instances(str(path), split, kg)
        for back in (read_instances(str(path), vocab.size), read_instances(str(path))):
            assert_same_split(back, reference_read_instances(str(path)))
            assert back.availability.dtype == np.uint8 and back.availability.flags.c_contiguous
            assert np.array_equal(back.availability, split.availability)
            assert np.array_equal(back.labels, split.labels)
            assert back.heads == [p.head for p in pairs] == [kg.entity_names[h] for h in split.heads]
            assert back.tails == [p.tail for p in pairs] == [kg.entity_names[t] for t in split.tails]


def test_splits_hold_one_byte_per_entry(tmp_path):
    """Extraction's splits and a reloaded cache hold a uint8 (N, D) matrix, and reading an N x D
    cache peaks under 4 bytes an entry: one float64 copy on the way (8 an entry) would not fit."""
    kg, task = make_benchmark(BenchmarkSpec(rule="conjunction", seed=3, train_groups=10, test_groups=5))
    vocab, data = extract_task(kg, task, 2, 10000)
    for split in (data.train, data.dev, data.test):
        assert split.availability.dtype == np.uint8 and split.availability.nbytes == len(split) * vocab.size
    n, d = 2000, 500
    bits = (np.random.default_rng(0).random((n, d)) < 0.1).astype(np.uint8)
    path = str(tmp_path / "wide.inst")
    heads, tails = [f"h{i}" for i in range(n)], [f"t{i}" for i in range(n)]
    write_instances(path, Split(heads, tails, np.zeros(n, np.int64), bits), None)
    read_instances(path)  # any first-call set-up is not the split's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        split = read_instances(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.availability.dtype == np.uint8 and split.availability.tobytes() == bits.tobytes()
    assert peak < 4 * n * d + (1 << 18)


def test_split_rows_are_instances(tmp_path):
    path = tmp_path / "cache.inst"
    path.write_text("h1\tt1\t1\t0110\n\nh2\tt2\t0\t0000\nh1\tt3\t0\t1111\n", encoding="utf-8")
    split = read_instances(str(path), 4)
    assert len(split) == 3
    rows = list(split)
    assert [(r.head, r.tail, r.label, r.n_available) for r in rows] == [
        ("h1", "t1", 1, 2), ("h2", "t2", 0, 0), ("h1", "t3", 0, 4)
    ]
    for i, row in enumerate(rows):
        assert isinstance(row.label, int)
        assert row.availability.shape == (4,)
        assert np.shares_memory(row.availability, split.availability)
        assert np.array_equal(row.availability, split.availability[i])


@pytest.mark.parametrize("size", [4, None])
@pytest.mark.parametrize(
    "text, message",
    [
        # a blank line is skipped but still counted
        ("h\tt\t1\t0110\n\nh\tt\t0\t01x0\n", "cache.inst:3: availability must be a 0/1 string"),
        ("h\tt\t1\t0110\n\n\nh\tt\t0\t0110\nh\tt\t0\t0 10\n", "cache.inst:5: availability must be a 0/1 string"),
        # the first bad line wins, and a bad bit before a bad length on the same line
        ("h\tt\t1\t01x0\nnot an instance\n", "cache.inst:1: availability must be a 0/1 string"),
        ("h\tt\t1\t0110\n\nh\tt\t1\t01x\n", "cache.inst:3: availability must be a 0/1 string"),
    ],
)
def test_read_instances_names_the_first_bad_line(tmp_path, text, message, size):
    path = tmp_path / "cache.inst"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        read_instances(str(path), size)


NAME = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(0, 9),
    rows=st.lists(st.tuples(NAME, NAME, st.sampled_from("01"), st.randoms(use_true_random=False)), max_size=12),
    blanks=st.lists(st.integers(0, 12), max_size=4),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
def test_read_instances_matches_the_line_reader(tmp_path_factory, width, rows, blanks, newline, final_newline):
    lines = [f"{h}\t{t}\t{label}\t{''.join(rnd.choice('01') for _ in range(width))}" for h, t, label, rnd in rows]
    for at in blanks:
        lines.insert(min(at, len(lines)), "")
    path = tmp_path_factory.mktemp("cache") / "cache.inst"
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))
    for size in (width, None):
        assert_same_split(read_instances(str(path), size), reference_read_instances(str(path), size))


BAD_CACHES = [
    "h\tt\t1\n",
    "h\tt\t1\t0110\tx\n",
    "h\tt\t2\t0110\n",
    "h\tt\t\t0110\n",
    "h\tt\t01\t0110\n",
    "h\tt\t1\t01x0\n",
    "h\tt\t1\t01\u00e90\n",
    "h\tt\t1\t0\x0010\n",
    "h\tt\t1\t011\n",
    "h\tt\t1\t01101\n",
    "h\tt\t1\t\n",
    "\t\t\t\n",
]


@pytest.mark.parametrize("size", [4, None])
@pytest.mark.parametrize("bad", BAD_CACHES + [b"\xff"])
@pytest.mark.parametrize("before", ["", "h\tt\t0\t1001\r\n\r\nh\tt\t1\t0000\n\n"])
@pytest.mark.parametrize("after", [b"", b"\nh\tt\t1\n"])
def test_read_instances_errors_match_the_line_reader(tmp_path, size, bad, before, after):
    """A bad line, alone or after good and blank lines, and before another bad line or none, fails as
    the line reader does; alone, a row of any width sets the width when no size is expected."""
    path = tmp_path / "cache.inst"
    path.write_bytes(before.encode("utf-8") + (bad if isinstance(bad, bytes) else bad.encode("utf-8")) + after)
    try:
        expected = reference_read_instances(str(path), size)
    except DataError as err:
        with pytest.raises(DataError) as got:
            read_instances(str(path), size)
        assert str(got.value) == str(err)
    else:
        assert size is None and not before and not after
        assert_same_split(read_instances(str(path), size), expected)


def test_rows_wider_or_narrower_than_the_first_are_an_error(tmp_path):
    path = tmp_path / "cache.inst"
    for bits in ("010", "01010"):
        path.write_text(f"h\tt\t1\t0110\n\nh\tt\t0\t{bits}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"cache.inst:3: availability length {len(bits)} != first row's length 4"):
            read_instances(str(path))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_leakage_guard_property(seed):
    """No encoded instance exposes a length-1 chain equal to the target."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities=8, n_relations=3, n_edges=16)
    target = int(rng.integers(g.n_relations))
    pairs = [
        (int(rng.integers(g.n_entities)), int(rng.integers(g.n_entities))) for _ in range(4)
    ]
    try:
        vocab = build_vocabulary(g, pairs, target, max_hops=3)
    except DataError:
        return
    banned = {RelationChain((target,))}
    inv = g.inverse_relation_id(target)
    if inv >= 0:
        banned.add(RelationChain((inv,)))
    assert not banned & set(vocab.chains)
