import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgchains import benchmark
from kgchains import graph as graph_module
from kgchains import util
from kgchains.errors import DataError
from kgchains.graph import (
    KnowledgeGraph,
    LabeledPair,
    downsample_negatives,
    inverse_name,
    load_task,
    load_triples,
)

from walk_oracle import edges_of


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def named_edges(g):
    """Every stored edge, added inverses included, as name triples: entity by entity, in table order."""
    return [
        (g.entity_names[h], g.relation_name(r), g.entity_names[t])
        for h in range(g.n_entities)
        for r, t in edges_of(g.out_table, h)
    ]


def test_load_two_line_graph(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "b\ts\tc"])
    g = load_triples(str(path), add_inverses=True)
    assert g.n_entities == 3
    assert g.n_relations == 4
    assert g.n_edges == 4
    assert sorted(g.relation_name(i) for i in range(4)) == ["r", "r_inv", "s", "s_inv"]


def test_empty_file_errors(tmp_path):
    for name, lines in (("empty.tsv", []), ("comments.tsv", ["# only a comment", ""])):
        path = tmp_path / name
        write(path, lines)
        with pytest.raises(DataError, match=f"^no triples in {re.escape(str(path))}$"):
            load_triples(str(path))
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"# a\tr\tb\r\n\r\n\n#\r\n")
    with pytest.raises(DataError, match=f"^no triples in {re.escape(str(path))}$"):
        load_triples(str(path))


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["# header", "", "a\tr\tb"])
    g = load_triples(str(path), add_inverses=False)
    assert named_edges(g) == [("a", "r", "b")]


def test_only_newlines_end_lines(tmp_path):
    # str.splitlines would also break at these characters
    path = tmp_path / "g.tsv"
    path.write_bytes("a\x0cb\tr s\tc\x1cd\x85\n".encode())
    g = load_triples(str(path), add_inverses=False)
    assert named_edges(g) == [("a\x0cb", "r s", "c\x1cd\x85")]


def test_a_byte_order_mark_stays_part_of_the_first_name(tmp_path):
    # as in text mode: the mark is a character of the name, and a line it starts is no comment
    path = tmp_path / "g.tsv"
    path.write_bytes("\ufeffa\tr\tb\n\ufeff#\tr\ta\n".encode())
    g = load_triples(str(path), add_inverses=False)
    assert named_edges(g) == [("\ufeffa", "r", "b"), ("\ufeff#", "r", "a")]


def test_duplicate_lines_deduplicated(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "a\tr\tb"])
    g = load_triples(str(path), add_inverses=True)
    assert g.n_edges == 2
    assert len(edges_of(g.out_table, g.entity_id("a"))) == 1


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "broken line"])
    with pytest.raises(DataError, match=":2"):
        load_triples(str(path))


EXPECTED_3 = "{path}:5: expected 3 tab-separated fields"
NOT_UTF8 = "{path}: not UTF-8 text (byte 0xff: invalid start byte)"


# Line 5 follows a comment, blank lines and CRLF endings. The file is decoded whole before any
# line is read, so a bad byte anywhere wins.
@pytest.mark.parametrize(
    "bad, message",
    [
        (b"a\tr", EXPECTED_3),
        (b"a\tr\tb\tc", EXPECTED_3),
        (b"a\t\tb", EXPECTED_3),
        (b"a\tr\t", EXPECTED_3),
        (b" ", EXPECTED_3),
        (b"a\tx_inv_inv\tb", "{path}:5: relation 'x_inv_inv' ends in '_inv_inv'"),
        (b"a\tr\t\xffb", NOT_UTF8),
        (b"a\tr\r\nb\ts\t\xffc", NOT_UTF8),
    ],
)
def test_malformed_line_after_skipped_lines(tmp_path, bad, message):
    path = tmp_path / "g.tsv"
    path.write_bytes(b"# header\r\n\r\na\tr\tb\r\n\n" + bad + b"\r\nb\ts\tc\n")
    with pytest.raises(DataError, match=f"^{re.escape(message.format(path=path))}$"):
        load_triples(str(path))


@pytest.mark.parametrize("text", [b"abc", b"a\tb", b" ", b"\t\t", b"a\tr\tb\tc", b"\r\na b"])
def test_a_file_of_one_bad_line_names_it(tmp_path, text):
    path = tmp_path / "g.tsv"
    path.write_bytes(text)
    line = 2 if text.startswith(b"\r\n") else 1
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: expected 3 tab-separated fields$"):
        load_triples(str(path))


def test_missing_file_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_triples(str(tmp_path / "nope.tsv"))


def test_csr_tables(tmp_path):
    path = tmp_path / "g.tsv"
    write(path, ["a\tr\tb", "b\ts\tc"])
    g = load_triples(str(path), add_inverses=True)
    a, b, c = (g.entity_id(e) for e in "abc")
    r, r_inv, s, s_inv = (g.relation_id(name) for name in ("r", "r_inv", "s", "s_inv"))
    assert [edges_of(g.out_table, e) for e in (a, b, c)] == [[(r, b)], [(r_inv, a), (s, c)], [(s_inv, b)]]
    assert [edges_of(g.in_table, e) for e in (a, b, c)] == [[(r_inv, b)], [(r, a), (s_inv, c)], [(s, b)]]
    assert g.inverse_table.dtype == np.int32 and g.inverse_table.tolist() == [r_inv, r, s_inv, s]


# repeated self-loops (also behind another line's edge), an ``s_inv`` line, a line repeating an inverse
TOY_TRIPLES = [("a", "r", "a"), ("a", "s", "b"), ("b", "r", "b"), ("a", "s", "a"), ("c", "s_inv", "a"),
               ("a", "r", "a"), ("b", "s_inv", "a"), ("c", "r", "c"), ("a", "s_inv", "a"), ("c", "s", "c")]


@pytest.mark.parametrize("spec", [
    None,
    dict(seed=5),
    dict(rule="noisy_weak", seed=5),
    dict(relations=250, entities=2000, distractor_rate=0.02, train_groups=20, test_groups=50, seed=5),
], ids=["toy", "conjunction", "noisy_weak", "wide"])
@pytest.mark.parametrize("add_inverses", [True, False])
def test_in_table_equals_the_second_sort(monkeypatch, spec, add_inverses):
    """With inverses the in-table is built from the out-table: it equals the in-table sorted from the
    edges, dtypes included. Without them it is that sort."""
    triples = TOY_TRIPLES if spec is None else benchmark._generate(benchmark.BenchmarkSpec(**spec))[0]
    calls, csr = [], graph_module._csr
    monkeypatch.setattr(graph_module, "_csr", lambda *args: calls.append(args) or csr(*args))
    g = KnowledgeGraph.from_triples(triples, add_inverses)
    assert len(calls) == 2 - add_inverses
    src, rel, dst, n = calls[0]
    for got, want in zip(g.in_table, csr(dst, rel, src, n)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if add_inverses:
        assert g.in_table.indptr is g.out_table.indptr and g.in_table.ends is g.out_table.ends


@pytest.mark.parametrize("accessor, bad", [("check_entity", -1), ("check_entity", 3), ("entity_id", "d")]
                         + [(name, bad) for name in ("relation_name", "inverse_relation_id") for bad in (-1, 4)])
def test_unknown_ids_are_data_errors(accessor, bad):
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "s", "c")])  # -1 would otherwise index from the end
    message = f"unknown {'entity' if 'entity' in accessor else 'relation'}" + (f": '{bad}'" if bad == "d" else f" id: {bad}")
    with pytest.raises(DataError, match=f"^{message}$"):
        getattr(g, accessor)(bad)


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
    edges = set(named_edges(g))
    for h, r, t in edges:
        assert (t, inverse_name(r), h) in edges


def test_inverse_of_a_name_that_does_not_invert_back(tmp_path):
    # inverse_name("x_inv_inv") is "x_inv", whose inverse is "x", not "x_inv_inv";
    # the chain frontier and the walk oracle would disagree on the backtrack ban.
    triples = [("a", "r", "b"), ("c", "x_inv_inv", "d")]
    for add_inverses in (True, False):
        with pytest.raises(DataError, match="^relation 'x_inv_inv' ends in '_inv_inv'$"):
            KnowledgeGraph.from_triples(triples, add_inverses=add_inverses)
    path = tmp_path / "g.tsv"
    write(path, ["\t".join(t) for t in triples])
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: relation 'x_inv_inv' ends in '_inv_inv'$"):
        load_triples(str(path))


# Names with zero to three suffixes, so some end in "_inv_inv".
relation_names = st.builds(lambda base, k: base + "_inv" * k, st.sampled_from(["r", "s", "", "x_in"]), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), relation_names, st.sampled_from("abc")), min_size=1, max_size=12),
    st.booleans(),
)
def test_inverse_relation_id_undoes_itself(triples, add_inverses):
    bad = [r for _, r, _ in triples if r.endswith("_inv_inv")]
    if bad:
        with pytest.raises(DataError, match=re.escape(repr(bad[0]))):
            KnowledgeGraph.from_triples(triples, add_inverses=add_inverses)
        return
    g = KnowledgeGraph.from_triples(triples, add_inverses=add_inverses)
    for rid in range(g.n_relations):
        inv = g.inverse_relation_id(rid)
        if inv != -1:
            assert g.inverse_relation_id(inv) == rid


class IncrementalGraph:
    """The constructor ``KnowledgeGraph.from_triples`` replaced, kept as the reference:
    names interned, edges deduplicated and added one triple at a time through
    mutator methods, with the inverse table a cache that interning invalidates."""

    def __init__(self, triples, add_inverses):
        self._entity_ids, self._entity_names = {}, []
        self._relation_ids, self._relation_names = {}, []
        self._adj, self._radj = [], []
        self._edges = set()
        self._inverse_ids = None
        self.duplicates = 0
        for head, rel, tail in triples:
            h = self._intern_entity(head)
            r = self._intern_relation(rel, add_inverses)
            t = self._intern_entity(tail)
            if not self._add_edge(h, r, t):
                self.duplicates += 1
                continue
            if add_inverses:
                self._add_edge(t, self.inverse_relation_id(r), h)

    def _intern_entity(self, name):
        eid = self._entity_ids.get(name)
        if eid is None:
            eid = self._entity_ids[name] = len(self._entity_names)
            self._entity_names.append(name)
            self._adj.append([])
            self._radj.append([])
        return eid

    def _intern_relation(self, name, with_inverse):
        rid = self._relation_ids.get(name)
        if rid is None:
            rid = self._relation_ids[name] = len(self._relation_names)
            self._relation_names.append(name)
            self._inverse_ids = None
            if with_inverse:
                self._intern_relation(inverse_name(name), False)
        return rid

    def inverse_relation_id(self, rid):
        if self._inverse_ids is None or len(self._inverse_ids) != len(self._relation_names):
            self._inverse_ids = [self._relation_ids.get(inverse_name(n), -1) for n in self._relation_names]
        return self._inverse_ids[rid]

    def _add_edge(self, h, r, t):
        if (h, r, t) in self._edges:
            return False
        self._edges.add((h, r, t))
        self._adj[h].append((r, t))
        self._radj[t].append((r, h))
        return True


def assert_same_graph(g, ref):
    assert [g.relation_name(r) for r in range(g.n_relations)] == ref._relation_names
    assert list(g.entity_names) == ref._entity_names
    assert [g.inverse_relation_id(r) for r in range(g.n_relations)] == [
        ref.inverse_relation_id(r) for r in range(len(ref._relation_names))
    ]
    for e in range(g.n_entities):
        assert edges_of(g.out_table, e) == ref._adj[e]
        assert edges_of(g.in_table, e) == ref._radj[e]
    assert g.n_edges == len(ref._edges)


# Explicit ``r_inv`` lines, and lines repeating another line's augmented inverse
# (``b r a`` after ``a r_inv b``), both occur among these draws.
small_triples = st.tuples(st.sampled_from("abcd"), st.sampled_from(["r", "r_inv", "s"]), st.sampled_from("abcd"))


@settings(max_examples=200, deadline=None)
@given(st.lists(small_triples, min_size=1, max_size=25), st.booleans())
def test_one_pass_constructor_matches_incremental_reference(triples, add_inverses):
    g = KnowledgeGraph.from_triples(triples, add_inverses=add_inverses)
    assert_same_graph(g, IncrementalGraph(triples, add_inverses))


# Entity names of 1 to 28 bytes, so the loader's 8-byte words cross their boundaries: multi-byte UTF-8,
# NUL bytes (``a`` and ``a\0`` differ), '#' past a line's first byte, names that agree in their first
# 8 or 16 bytes, and names that agree in their length and last 8 bytes but not before. A draw's lines
# name the entities of a pool of up to six, so names repeat.
entity_names = st.builds(
    lambda prefix, rest, suffix: prefix + rest + suffix,
    st.sampled_from(["", "a", "abcdefgh", "abcdefghijklmnop", "日本語"]),
    st.text(st.sampled_from(["a", "b", "\0", "é", "#"]), max_size=2),
    st.sampled_from(["", ":shared:"]),
).filter(lambda name: name and name[0] != "#")
long_relations = st.sampled_from(["r", "r_inv", "s", "r\0", "relation:longer:than:16", "関係"])


@st.composite
def triple_lines(draw, relations):
    """Lines of triples over a pool of entity names, each after up to two skipped lines, blank or
    comments, and ending in LF, CRLF or a lone CR."""
    pool = draw(st.lists(entity_names, min_size=1, max_size=6, unique=True))
    triple = st.tuples(st.sampled_from(pool), relations, st.sampled_from(pool))
    skipped = st.lists(st.sampled_from(["", "#", "# a\tr\tb"]), max_size=2)
    return draw(st.lists(st.tuples(skipped, triple, st.sampled_from(["\n", "\r\n", "\r"])), min_size=1, max_size=25))


loader_draws = (
    st.one_of(triple_lines(st.sampled_from(["r", "r_inv", "s"])), triple_lines(long_relations)),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(*loader_draws)
def test_load_triples_matches_incremental_reference(tmp_path, caplog, lines, add_inverses, last_newline):
    check_load_triples(tmp_path, caplog, lines, add_inverses, last_newline)


# Names are compared with their run's lead a word a pass, as in a file of more spans than ``util._WORDS``.
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(*loader_draws)
def test_load_triples_word_by_word_matches_incremental_reference(
    tmp_path, caplog, monkeypatch, lines, add_inverses, last_newline
):
    monkeypatch.setattr(util, "_WORDS", 1)
    check_load_triples(tmp_path, caplog, lines, add_inverses, last_newline)


def check_load_triples(tmp_path, caplog, lines, add_inverses, last_newline):
    text = "".join("".join(skip + end for skip in skipped) + "\t".join(triple) + end for skipped, triple, end in lines)
    path = tmp_path / "g.tsv"
    path.write_bytes((text if last_newline else text.rstrip("\r\n")).encode())
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="kgchains.graph"):
        g = load_triples(str(path), add_inverses=add_inverses)
    ref = IncrementalGraph([triple for _, triple, _ in lines], add_inverses)
    assert_same_graph(g, ref)
    deduplicated = [f"deduplicated {ref.duplicates} duplicate triples"] if ref.duplicates else []
    assert [record.getMessage() for record in caplog.records] == deduplicated


@pytest.mark.parametrize("pass_words", [1, util._WORDS])
def test_intern_spans_parts_names_that_share_their_length_and_last_8_bytes(monkeypatch, pass_words):
    # one first sort puts all eight names in one run, so only the compares with a run's lead, and the
    # sorts on the word where names part from it, at word 0, 1 or 2, tell them apart; a word parts names
    # at more than one place, so a sort must key on where it parts them too
    monkeypatch.setattr(util, "_WORDS", pass_words)
    word = ("aaaaaaaa", "bbbbbbbb")
    distinct = [a + b + c + ":shared:" for a in word for b in word for c in "ab"]
    names = [distinct[i * 5 % 8] for i in range(40)]
    fields = [name.encode() for name in names]
    lengths = np.array(list(map(len, fields)))
    ids, interned = util.intern_spans(b"".join(fields) + bytes(8), np.cumsum(lengths) - lengths, lengths)
    assert interned == list(dict.fromkeys(names))
    assert ids.tolist() == [interned.index(name) for name in names]


MEMORY_PER_FILE_BYTE = 8  # the loader's traced peak, at most, over the file's size


@pytest.mark.parametrize("copies", [1, 2])
def test_a_name_of_a_megabyte_loads_in_memory_bounded_by_the_file(tmp_path, copies):
    # one name of 1 MiB among 6,000 short lines, and with copies=2 a second line naming it
    # next to a name that differs from it only in its last byte
    long = "é" + "x" * (1 << 20)
    triples = [(f"e{i % 700}", f"r{i % 7}", f"e{i * 13 % 900}") for i in range(6000)]
    triples.insert(3000, ("e1", "r0", long))
    triples += [(long, "r1", "e2"), ("e3", "r2", long[:-1] + "y")][: 2 * copies - 2]
    path = tmp_path / "g.tsv"
    write(path, ["\t".join(triple) for triple in triples])
    tracemalloc.start()
    try:
        g = load_triples(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_graph(g, IncrementalGraph(triples, True))
    assert peak < MEMORY_PER_FILE_BYTE * path.stat().st_size


def test_round_trip_preserves_edge_set(tmp_path):
    path, out = tmp_path / "g.tsv", tmp_path / "out.tsv"
    write(path, ["a\tr\tb", "b\ts\tc", "c\tr\ta"])
    write(out, ["\t".join(edge) for edge in named_edges(load_triples(str(path), add_inverses=False))])
    edges, read_back = (set(named_edges(load_triples(str(p)))) for p in (path, out))
    assert edges == read_back and len(read_back) == 6


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


EXPECTED_PAIR = "{path}:5: expected head TAB tail TAB label"


# As for triples: line 5 follows a comment, blank lines and CRLF endings.
@pytest.mark.parametrize(
    "bad, message",
    [
        (b"a\tb", EXPECTED_PAIR),
        (b"a\tb\t1\t0", EXPECTED_PAIR),
        (b"a\t\t1", EXPECTED_PAIR),
        (b"\tb\t1", EXPECTED_PAIR),
        (b" ", EXPECTED_PAIR),
        (b"a\tb\t2", "{path}:5: label must be '0' or '1', got '2'"),
        (b"a\tb\t01", "{path}:5: label must be '0' or '1', got '01'"),
        (b"a\tb\t\xff", NOT_UTF8),
    ],
)
def test_malformed_pairs_line_after_skipped_lines(tmp_path, bad, message):
    path = tmp_path / "train.pairs"
    path.write_bytes(b"# header\r\n\r\na\tb\t1\r\n\n" + bad + b"\r\nb\tc\t0\n")
    with pytest.raises(DataError, match=f"^{re.escape(message.format(path=path))}$"):
        graph_module._read_pairs(str(path))


def test_read_pairs_in_file_order(tmp_path):
    path = tmp_path / "train.pairs"
    path.write_bytes("# h\tt\tlabel\r\nb\ta#\t1\r\n\ré\tb\t0\rb\ta#\t1\n\n".encode())
    pairs = graph_module._read_pairs(str(path))
    assert pairs == [LabeledPair("b", "a#", 1), LabeledPair("é", "b", 0), LabeledPair("b", "a#", 1)]
    assert all(type(p.label) is int for p in pairs)


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
