import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgchains.errors import DataError
from kgchains.graph import (
    KnowledgeGraph,
    LabeledPair,
    downsample_negatives,
    inverse_name,
    load_task,
    load_triples,
    write_triples,
)


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_load_two_line_graph(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "b\ts\tc"])
    g = load_triples(str(path), add_inverses=True)
    assert g.n_entities == 3
    assert g.n_relations == 4
    assert g.n_edges == 4
    assert sorted(g.relation_name(i) for i in range(4)) == ["r", "r_inv", "s", "s_inv"]


def test_empty_file_errors(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, [])
    with pytest.raises(DataError, match="no triples"):
        load_triples(str(path))


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["# header", "", "a\tr\tb"])
    g = load_triples(str(path))
    assert g.n_triples == 1


def test_duplicate_lines_deduplicated(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "a\tr\tb"])
    g = load_triples(str(path), add_inverses=True)
    assert g.n_edges == 2
    assert len(g.neighbors(g.entity_id("a"))) == 1


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "broken line"])
    with pytest.raises(DataError, match=":2"):
        load_triples(str(path))


def test_missing_file_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_triples(str(tmp_path / "nope.tsv"))


def test_neighbors(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "b\ts\tc"])
    g = load_triples(str(path), add_inverses=True)
    a, b, c = (g.entity_id(e) for e in "abc")
    assert g.neighbors(a) == [(g.relation_id("r"), b)]
    assert set(g.neighbors(b)) == {(g.relation_id("s"), c), (g.relation_id("r_inv"), a)}
    assert g.neighbors(c) == [(g.relation_id("s_inv"), b)]
    with pytest.raises(DataError):
        g.neighbors(99)
    # stable order across calls
    assert g.neighbors(b) == g.neighbors(b)


def test_inverse_name_is_involutive():
    assert inverse_name("likes") == "likes_inv"
    assert inverse_name("likes_inv") == "likes"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcdef"),
            st.sampled_from(["p", "q", "r"]),
            st.sampled_from("abcdef"),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_inverse_closure(triples):
    g = KnowledgeGraph.from_triples([(h, r, t) for h, r, t in triples], add_inverses=True)
    edges = set(g.edges())
    for h, r, t in edges:
        assert (t, inverse_name(r), h) in edges


def test_round_trip_preserves_edge_set(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "b\ts\tc", "c\tr\ta"])
    g = load_triples(str(path), add_inverses=True)
    out = tmp_path / "out.tsv"
    write_triples(g, str(out))
    g2 = load_triples(str(out), add_inverses=True)
    assert set(g.edges()) == set(g2.edges())


def make_task_dir(tmp_path, relation, train_lines, test_lines):
    d = tmp_path / "tasks" / relation
    d.mkdir(parents=True)
    write(d / "train.pairs", train_lines)
    write(d / "test.pairs", test_lines)
    return tmp_path / "tasks"


def graph_with_relation(tmp_path, relation="works"):
    path = tmp_path / "g.tsv"
    lines = [f"e{i}\t{relation}\te{i + 1}" for i in range(12)]
    write(path, lines)
    return load_triples(str(path))


def test_load_task_split_ratio(tmp_path):
    g = graph_with_relation(tmp_path)
    train = [f"e{i}\te{i + 1}\t{i % 2}" for i in range(10)]
    tasks = make_task_dir(tmp_path, "works", train, ["e0\te1\t1"])
    task = load_task(str(tasks), "works", g, split_ratio=0.8, seed=0)
    assert len(task.train) == 8
    assert len(task.dev) == 2
    assert len(task.test) == 1
    # disjoint as pair sets
    train_pairs = {(p.head, p.tail) for p in task.train}
    dev_pairs = {(p.head, p.tail) for p in task.dev}
    assert not train_pairs & dev_pairs


def test_load_task_deterministic(tmp_path):
    g = graph_with_relation(tmp_path)
    train = [f"e{i}\te{i + 1}\t{i % 2}" for i in range(10)]
    tasks = make_task_dir(tmp_path, "works", train, ["e0\te1\t1"])
    a = load_task(str(tasks), "works", g, seed=5)
    b = load_task(str(tasks), "works", g, seed=5)
    assert [(p.head, p.tail, p.label) for p in a.train] == [
        (p.head, p.tail, p.label) for p in b.train
    ]


@pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
def test_load_task_split_ratio_out_of_range_is_a_data_error(tmp_path, ratio):
    g = graph_with_relation(tmp_path)
    tasks = make_task_dir(tmp_path, "works", ["e0\te1\t1", "e1\te2\t0"], ["e0\te1\t1"])
    with pytest.raises(DataError, match="split ratio"):
        load_task(str(tasks), "works", g, split_ratio=ratio)


def test_load_task_unknown_relation(tmp_path):
    g = graph_with_relation(tmp_path)
    make_task_dir(tmp_path, "works", ["e0\te1\t1"], ["e0\te1\t1"])
    with pytest.raises(DataError, match="unknown relation"):
        load_task(str(tmp_path / "tasks"), "nope", g)


def test_load_task_missing_directory(tmp_path):
    g = graph_with_relation(tmp_path)
    with pytest.raises(DataError, match="task directory"):
        load_task(str(tmp_path / "tasks"), "works", g)


def test_load_task_bad_label(tmp_path):
    g = graph_with_relation(tmp_path)
    tasks = make_task_dir(tmp_path, "works", ["e0\te1\t?"], ["e0\te1\t1"])
    with pytest.raises(DataError, match="label"):
        load_task(str(tasks), "works", g)


def test_load_task_empty_test_is_valid(tmp_path):
    g = graph_with_relation(tmp_path)
    tasks = make_task_dir(tmp_path, "works", ["e0\te1\t1"], [])
    task = load_task(str(tasks), "works", g)
    assert task.test == []


def pairs(n_pos, n_neg):
    out = [LabeledPair(f"p{i}", f"q{i}", 1) for i in range(n_pos)]
    out += [LabeledPair(f"n{i}", f"m{i}", 0) for i in range(n_neg)]
    return out


def test_downsample_balances():
    result = downsample_negatives(pairs(5, 50), ratio=1.0, seed=0)
    assert sum(p.label for p in result) == 5
    assert sum(1 - p.label for p in result) == 5


def test_downsample_keeps_all_when_few():
    result = downsample_negatives(pairs(5, 3), ratio=2.0, seed=0)
    assert len(result) == 8


def test_downsample_deterministic():
    a = downsample_negatives(pairs(4, 30), ratio=1.5, seed=9)
    b = downsample_negatives(pairs(4, 30), ratio=1.5, seed=9)
    assert [(p.head, p.label) for p in a] == [(p.head, p.label) for p in b]
