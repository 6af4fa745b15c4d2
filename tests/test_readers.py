"""The four tab-separated formats read through ``util.read_table`` fail and succeed as their line-by-line
references in ``cache_oracle`` do: the same outputs, and the same messages, naming the same first line."""

import builtins

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgchains.chains import read_instances, read_vocabulary_names
from kgchains.errors import DataError
from kgchains.graph import KnowledgeGraph, _read_pairs, load_triples

from cache_oracle import (
    assert_same_split,
    reference_read_instances,
    reference_read_pairs,
    reference_read_triples,
    reference_read_vocabulary_names,
)


def reference_triples_graph(path):
    return KnowledgeGraph.from_triples(reference_read_triples(path))


def assert_same_graph(g, ref):
    assert g.entity_names == ref.entity_names
    assert [g.relation_name(r) for r in range(g.n_relations)] == [ref.relation_name(r) for r in range(ref.n_relations)]
    assert np.array_equal(g.inverse_table, ref.inverse_table)
    for table, expected in ((g.out_table, ref.out_table), (g.in_table, ref.in_table)):
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(table, expected))


def cache_reader(size):
    return lambda path: read_instances(path, size)


def cache_reference(size):
    return lambda path: reference_read_instances(path, size)


# (reader, reference, compare): the reader's output against the reference's
FORMATS = {
    "triples": (load_triples, reference_triples_graph, assert_same_graph),
    "pairs": (_read_pairs, reference_read_pairs, lambda a, b: a == b),
    "vocabulary": (read_vocabulary_names, reference_read_vocabulary_names, lambda a, b: a == b),
    "cache": (cache_reader(4), cache_reference(4), assert_same_split),
    "cache of the first row's width": (cache_reader(None), cache_reference(None), assert_same_split),
}


def same_outcome(name, path):
    """The reader and its reference both raise the same message, or give equal outputs."""
    read, reference, compare = FORMATS[name]
    try:
        expected = reference(str(path))
    except DataError as err:
        with pytest.raises(DataError) as got:
            read(str(path))
        assert str(got.value) == str(err)
        return False
    assert compare(read(str(path)), expected) is not False
    return True


NAME = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)), min_size=1, max_size=5)
BITS = st.text(st.sampled_from("01"), min_size=4, max_size=4)
GOOD = {
    "triples": st.tuples(NAME, st.sampled_from(["r", "r_inv", "s", "関係", "a_inv_in"]), NAME),
    "pairs": st.tuples(NAME, NAME, st.sampled_from("01")),
    "vocabulary": st.tuples(st.integers(0, 99).map(str), st.integers(0, 10**20).map(str), NAME),
    "cache": st.tuples(NAME | st.just(""), NAME | st.just(""), st.sampled_from("01"), BITS),
}
# one line each: too few or too many fields, empty fields, and each format's own faults
COMMON_BAD = [b"abc", b"a\tb", b" ", b"\t\t", b"a\tb\tc\td\te", b"\xff", b"a\t\xc3\tb"]
BAD = {
    "triples": [b"a\tx_inv_inv\tb", b"a\t\tb", b"\tr\tb", b"a\tr\t", b"a\tr\tb\tc"],
    "pairs": [b"a\tb\t2", b"a\tb\t01", b"a\tb\t", b"a\t\t1", b"\tb\t1", b"a\tb\t1\t0", b"a\tb\t\xd9\xa3"],
    "vocabulary": ["0\t٣\tx".encode(), "0\t７\tx".encode(), b"0\t\tx", b"0\t1a\tx", b"0\t+1\tx", b"0\t 1\tx",
                   b"0\t1_0\tx", b"0\t1\tx\ty", b"0\t1", b"x\t1\tx", b"00\t1\tx", b"-0\t1\tx", "٠\t1\tx".encode()],
    "cache": [b"h\tt\t1", b"h\tt\t1\t0110\tx", b"h\tt\t2\t0110", b"h\tt\t\t0110", b"h\tt\t01\t0110",
              b"h\tt\t1\t01x0", "h\tt\t1\t01é0".encode(), b"h\tt\t1\t0\x0010", b"h\tt\t1\t011",
              b"h\tt\t1\t01101", b"h\tt\t1\t", b"\t\t\t", b"#\tt\t1\t0110"],
}
SKIPPED = [b"", b"#", b"# a\tr\tb", b"#\t\t\t"]  # blank, or comments in triples and pairs
ROW = {"triples": b"a\tr\tb", "pairs": b"a\tb\t1", "vocabulary": b"%d\t12\tr->s", "cache": b"h\tt\t1\t0110"}


def kind(name):
    """The format a ``FORMATS`` entry reads."""
    return name.split(" ")[0]


def rows(name, n):
    """``n`` good lines of the format, a vocabulary's indexed 0 to n - 1."""
    row = ROW[kind(name)]
    return [row % i if b"%d" in row else row for i in range(n)]


@st.composite
def files(draw, name):
    """Good lines, with zero to two bad lines and up to three blank or comment lines among them, each ending
    in LF, CRLF or a lone CR, the last one maybe not at all. A vocabulary's good lines may be renumbered, each
    index its line's row, as the writer numbers them."""
    lines = [(draw(GOOD[kind(name)].map("\t".join)).encode(), True) for _ in range(draw(st.integers(0, 6)))]
    for pool, most in ((COMMON_BAD + BAD[kind(name)], 2), (SKIPPED, 3)):
        for _ in range(draw(st.integers(0, most))):
            lines.insert(draw(st.integers(0, len(lines))), (draw(st.sampled_from(pool)), False))
    row = 0
    renumber = kind(name) == "vocabulary" and draw(st.booleans())
    for i, (line, good) in enumerate(lines):
        if renumber and good:
            lines[i] = (b"%d" % row + line[line.index(b"\t") :], good)
        row += line != b""  # a blank line is no row
    lines = [line for line, _ in lines]
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    raw = b"".join(line + end for line, end in zip(lines, ends))
    return raw if draw(st.booleans()) else raw.rstrip(b"\r\n")


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_each_format_reads_as_its_line_reader(tmp_path, name, data):
    path = tmp_path / "file.tsv"
    path.write_bytes(data.draw(files(name)))
    same_outcome(name, path)


@pytest.mark.parametrize("name", FORMATS)
def test_good_files_read_as_their_line_reader(tmp_path, name):
    """A file of good lines after comment (or bad ones), blank, CR and CRLF lines, of every format."""
    a, b, c, d = rows(name, 4)
    skipped = b"# a comment\r\n" if kind(name) in ("triples", "pairs") else b""
    path = tmp_path / "file.tsv"
    path.write_bytes(skipped + b"\r\n\n\r" + a + b"\r\n" + b + b"\r" + c + b"\n\n" + d)
    assert same_outcome(name, path)


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("size", [100, 18_000])
def test_a_byte_that_is_not_utf8_is_the_error_at_any_size(tmp_path, name, size):
    """A bad first line and an undecodable last byte: the byte is reported, in a file under or over the 8 KB a
    text-mode reader decodes at a time."""
    row = rows(name, 1)[0] + b"\n"
    path = tmp_path / "file.tsv"
    path.write_bytes(b"bad line\n" + row * (size // len(row)) + b"\xff\n")
    assert path.stat().st_size > size - len(row)
    with pytest.raises(DataError, match=r": not UTF-8 text \(byte 0xff: invalid start byte\)$"):
        FORMATS[name][0](str(path))
    assert not same_outcome(name, path)


@pytest.mark.parametrize("name", FORMATS)
def test_each_reader_opens_its_file_once(tmp_path, monkeypatch, name):
    """Also when it fails on the last line, which a reader that rescans for its message reads twice."""
    path = tmp_path / "file.tsv"
    path.write_bytes(b"".join(row + b"\n" for row in rows(name, 50)) + b"a bad line\n")
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda *args, **kwargs: opened.append(args[0]) or real_open(*args, **kwargs))
    with pytest.raises(DataError, match=":51: "):
        FORMATS[name][0](str(path))
    assert opened == [str(path)]
