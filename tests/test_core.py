"""Graph type, partitions, and the .dg / .parts formats."""

import pickle
import random

import pytest

from oriograph.core import (
    MAX_VERTICES,
    Embedding,
    OrientedGraph,
    Partition,
    bits,
    isomorphic_brute,
    parse,
    parse_partition,
    read_graph,
    read_partition,
    serialize,
    serialize_partition,
    write_graph,
    write_partition,
)
from oriograph.errors import EdgeError, ParseError, PartError
from oriograph.oracles import random_oriented


def test_bits():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]


def test_construction_and_degrees():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.edge_count == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 0)]
    assert g.degrees(0) == (1, 1)
    assert g.out_neighbors(1) == [2]
    assert g.in_neighbors(1) == [0]
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)
    h = OrientedGraph(3, [(0, 1)])
    assert not h.has_edge(1, 2) and not h.has_edge(2, 1)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 1), (0, 1)])
    with pytest.raises(EdgeError) as err:
        OrientedGraph(2, [(0, 1), (1, 0)])
    assert err.value.index == 1
    # the order: 0..MAX_VERTICES
    with pytest.raises(ValueError):
        OrientedGraph(-1)
    assert OrientedGraph(MAX_VERTICES).n == MAX_VERTICES
    with pytest.raises(ValueError, match=f"got {MAX_VERTICES + 1}$"):
        OrientedGraph(MAX_VERTICES + 1)


def test_from_out_rows_checks_antisymmetry():
    g = OrientedGraph.from_out_rows(3, (0b010, 0b100, 0b001))
    assert g.edges() == [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(ValueError):
        OrientedGraph.from_out_rows(2, (0b10, 0b01))
    with pytest.raises(ValueError):
        OrientedGraph.from_out_rows(2, (0b01, 0))
    # the order is refused before the rows are looked at
    with pytest.raises(ValueError, match=f"got {MAX_VERTICES + 1}$"):
        OrientedGraph.from_out_rows(MAX_VERTICES + 1, ())
    with pytest.raises(ValueError):
        OrientedGraph.from_out_rows(1, (0b10,))


def test_from_out_rows_refuses_a_row_count_other_than_n():
    with pytest.raises(ValueError, match="row count does not match n"):
        OrientedGraph.from_out_rows(3, (0b010, 0b100))


def test_vertex_queries_refuse_a_vertex_out_of_range():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="vertex 3 out of range for n=3"):
        g.out_degree(3)


def test_classify():
    triangle = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    cls = triangle.classify()
    assert cls.is_tournament and cls.is_semi_regular and cls.is_regular
    assert cls.min_semi_degree == 1
    path = OrientedGraph(3, [(0, 1), (1, 2)])
    cls = path.classify()
    assert not cls.is_tournament and not cls.is_semi_regular
    assert cls.min_semi_degree == 0
    even = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    cls = even.classify()
    assert cls.is_tournament and cls.is_semi_regular and not cls.is_regular


def test_induced_relabels_in_order():
    g = OrientedGraph(5, [(0, 3), (3, 4), (4, 0), (1, 3)])
    sub = g.induced([4, 0, 3])
    assert sub.n == 3
    assert sub.edges() == [(0, 1), (1, 2), (2, 0)]
    assert g.score_multiset() == (0, 1, 1, 1, 1)


def test_partition_basics():
    p = Partition([[0, 1], [2], [3, 4]])
    assert p.d == 3
    assert p.index_vector([2]) == (0, 1, 0)
    assert p.index_vector([0, 2, 3, 4]) == (1, 1, 2)
    p.check_covers(5)
    with pytest.raises(ValueError):
        p.check_covers(6)
    with pytest.raises(ValueError):
        p.index_vector([9])
    assert Partition([[MAX_VERTICES - 1]]).masks == (1 << MAX_VERTICES - 1,)
    # a refusal names the refused part by its position
    for parts, index in (
        ([[0, 1], [1, 2]], 1),  # in two parts
        ([[0, 0, 1], [2]], 0),  # repeated inside a part
        ([[0], [2], [3, 4, 3]], 2),
        ([[0], [1, MAX_VERTICES]], 1),  # past the vertex cap
        ([[0], [1, -1]], 1),
    ):
        with pytest.raises(PartError) as err:
            Partition(parts)
        assert err.value.index == index
    with pytest.raises(ValueError):
        Partition([])


def test_index_vector_refuses_uncovered_vertices():
    # vertex 2 is a gap inside the partition's range
    p = Partition([[0, 1], [3, 4]])
    assert p.index_vector([4, 0, 4]) == (1, 1)  # a set: repeats count once
    assert p.index_vector([]) == (0, 0)
    for v in (2, 5, MAX_VERTICES, -1, -5):
        with pytest.raises(ValueError, match=f"^vertex {v} is not covered by the partition$"):
            p.index_vector([0, v])


def test_embedding_verify():
    pattern = OrientedGraph(2, [(0, 1)])
    host = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert Embedding(pattern, host, (2, 0)).verify()
    assert not Embedding(pattern, host, (0, 2)).verify()
    assert not Embedding(pattern, host, (1, 1)).verify()
    # images outside the host: -1 would wrap to vertex 2, 3 is past it, and
    # a negative head would be a negative shift
    for mapping in ((-1, 0), (3, 0), (0, -1)):
        assert not Embedding(pattern, host, mapping).verify(), mapping
    emb = Embedding(pattern, host, (2, 0))
    assert emb.index_vector(Partition([[0], [1], [2]])) == (1, 0, 1)


def test_records_are_immutable_values():
    from oriograph.tiling import CopyHypergraph, TilingResult

    a = TilingResult("found")
    assert a == TilingResult(mode="found", tiling=None, note=None)
    assert hash(a) == hash(TilingResult("found")) and a != TilingResult("inconclusive")
    assert repr(a) == "TilingResult(mode='found', tiling=None, note=None)"
    # the search nodes spent are not part of the hypergraph
    assert CopyHypergraph(3, 1, (7,), 10) == CopyHypergraph(3, 1, (7,), 99)
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.mode = "refuted-exhaustive"
    with pytest.raises(AttributeError):
        del a.note
    for values, named in (((), {}), (("found", None, None, None), {}),
                          (("found",), {"mode": "x"}), (("found",), {"remark": "x"})):
        with pytest.raises(TypeError):
            TilingResult(*values, **named)


def test_parse_serialize_round_trip():
    rng = random.Random("dg-round-trip")
    for _ in range(50):
        g0 = random_oriented(rng, rng.randrange(0, 9), 0.8)
        assert parse(serialize(g0)) == g0


def test_parse_accepts_comments_and_blank_lines():
    text = "# header comment\n3 2  # n m\n\n0 1\n1 2 # trailing\n"
    g = parse(text)
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse("2 1\n0 1\n1 0\n")
    assert "announces" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("2 1\n0 x\n")
    assert err.value.line == 2
    # the constructor refuses the edge, parse names its line past comments and blanks
    for text, line in (
        ("3 2\n0 1\n1 0\n", 3),  # conflict
        ("3 2\n0 1\n# c\n2 2\n", 4),  # loop
        ("3 3\n0 1\n\n1 2\n0 1  # again\n", 5),  # duplicate
        ("3 2\n0 1\n0 5\n", 3),  # out of range
        ("# c\n1025 0\n", 2),  # past the vertex cap, named at the header
        ("-1 0\n", 1),  # a negative order
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line, text
    for bad in ("1 2 3\n", "2 -1\n"):
        with pytest.raises(ParseError):
            parse(bad)


@pytest.mark.parametrize(
    "text, line, words",
    [("3 x\n", 1, "header must be two integers"), ("3 1\n0 1 2\n", 2, "edge line must be 'u v'")],
)
def test_parse_refuses_a_malformed_header_or_edge_line(text, line, words):
    with pytest.raises(ParseError, match=words) as err:
        parse(text)
    assert err.value.line == line


def test_partition_round_trip_and_errors():
    p = Partition([[0, 2], [1], [3]])
    assert parse_partition(serialize_partition(p)) == p
    assert parse_partition("# c\n0 2\n1\n3\n") == p
    # Partition refuses the part, parse_partition names its line past comments and blanks
    for text, line in (
        ("", 1),  # no part
        ("0 x\n", 1),  # not an integer
        ("0 0\n", 1),  # repeated inside a part
        ("0 1\n# c\n2 3 2\n", 3),  # repeated inside a later part
        ("0 1\n1\n", 2),  # in two parts
        ("# c\n0 1\n\n2 0\n", 4),  # in two parts, past a comment and a blank
        ("0\n1 -1\n", 2),  # negative
        ("0\n\n1 1024\n", 3),  # past the vertex cap
    ):
        with pytest.raises(ParseError) as err:
            parse_partition(text)
        assert err.value.line == line, text


def test_file_helpers(tmp_path):
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "g.dg"
    write_graph(path, g)
    assert read_graph(path) == g
    p = Partition([[0, 1], [2, 3]])
    ppath = tmp_path / "g.parts"
    write_partition(ppath, p)
    assert read_partition(ppath) == p


def test_isomorphic_brute():
    a = OrientedGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    b = OrientedGraph(4, [(3, 2), (2, 1), (1, 3), (3, 0)])
    c = OrientedGraph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    assert isomorphic_brute(a, b)
    assert not isomorphic_brute(a, c)
    assert not isomorphic_brute(a, OrientedGraph(3, [(0, 1)]))
