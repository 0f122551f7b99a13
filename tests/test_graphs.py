import pytest

from magiclab import (
    GraphSpecError,
    PartiteSpec,
    SizeLimitError,
    build_complete_multipartite,
    build_cycle,
    disjoint_union,
    lex_blowup,
    parse_graph_spec,
    read_adjacency_file,
)
from magiclab.graphs import parse_spec_ast, KNode, UNode, LexNode, CNode


def test_complete_multipartite_shape():
    g = build_complete_multipartite(PartiteSpec((5, 6, 7)))
    assert g.vertex_count == 18
    assert g.degree(0) == 13  # a part-1 vertex misses only its own part
    assert g.edge_count == 5 * 6 + 6 * 7 + 5 * 7


def test_single_part_is_edgeless():
    g = build_complete_multipartite(PartiteSpec((1,)))
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_k33_is_cubic():
    g = build_complete_multipartite(PartiteSpec((3, 3)))
    assert g.vertex_count == 6
    assert g.edge_count == 9
    assert g.is_regular and g.max_degree == 3


def test_partite_spec_roundtrip():
    for sizes in [(1,), (2, 2), (1, 2, 3), (2, 3, 3, 4)]:
        g = build_complete_multipartite(PartiteSpec(sizes))
        assert g.partite_spec.sizes == sizes


def test_partite_spec_validation():
    with pytest.raises(ValueError):
        PartiteSpec((3, 2))
    with pytest.raises(ValueError):
        PartiteSpec((0, 1))
    with pytest.raises(ValueError):
        PartiteSpec(())


def test_cycles():
    assert build_cycle(3).edge_count == 3
    g = build_cycle(4)
    assert all(g.degree(v) == 2 for v in range(4))
    assert build_cycle(10).edge_count == 10
    with pytest.raises(ValueError):
        build_cycle(2)


def test_disjoint_union():
    k33 = build_complete_multipartite(PartiteSpec((3, 3)))
    g = disjoint_union(2, k33)
    assert g.vertex_count == 12
    assert g.edge_count == 18
    assert g.is_regular and g.max_degree == 3
    assert g.copies == (tuple(range(6)), tuple(range(6, 12)))
    three = disjoint_union(3, build_cycle(4))
    assert three.vertex_count == 12 and three.edge_count == 12
    assert disjoint_union(1, k33).edge_count == k33.edge_count


def test_lex_blowup():
    g = lex_blowup(build_cycle(4), 2)
    assert g.vertex_count == 8
    assert g.is_regular and g.max_degree == 4
    base = build_complete_multipartite(PartiteSpec((3, 3)))
    blown = lex_blowup(base, 3)
    assert blown.vertex_count == 18 and blown.is_regular and blown.max_degree == 9
    assert lex_blowup(base, 1).neighbors == base.neighbors


def test_lex_blowup_degree_identity():
    base = build_complete_multipartite(PartiteSpec((1, 2, 3)))
    for a in (1, 2, 3):
        g = lex_blowup(base, a)
        for u in range(base.vertex_count):
            for i in range(a):
                assert g.degree(u * a + i) == a * base.degree(u)


def test_degree_sum_is_twice_edges():
    for spec_text in ["K(5,6,7)", "C(7)", "U(2,K(3,3))", "LEX(C(4),E(2))"]:
        g = parse_graph_spec(spec_text)
        assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_parser_shapes():
    ast = parse_spec_ast("U(2,K(3,3))")
    assert isinstance(ast, UNode) and ast.m == 2
    assert isinstance(ast.inner, KNode) and ast.inner.sizes == (3, 3)
    ast = parse_spec_ast("LEX(C(10),E(3))")
    assert isinstance(ast, LexNode) and ast.a == 3
    assert isinstance(ast.inner, CNode) and ast.inner.b == 10


def test_parser_accepts_unsorted_sizes():
    g = parse_graph_spec("K(7,6,5)")
    assert g.partite_spec.sizes == (5, 6, 7)


def test_parser_errors_carry_position():
    with pytest.raises(GraphSpecError) as err:
        parse_graph_spec("K(5,6,")
    assert err.value.position is not None
    with pytest.raises(GraphSpecError):
        parse_graph_spec("K(5,6,7)x")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("Q(3)")


def test_parser_rejects_out_of_domain_values():
    for text in ["C(2)", "K(0,2)", "U(0,K(2,2))", "LEX(C(3),E(0))"]:
        with pytest.raises(GraphSpecError):
            parse_spec_ast(text)


def test_size_cap():
    with pytest.raises(SizeLimitError):
        parse_graph_spec("LEX(C(1000),E(1000))")
    parse_graph_spec("LEX(C(100),E(3))", max_vertices=300)
    with pytest.raises(SizeLimitError):
        parse_graph_spec("LEX(C(100),E(3))", max_vertices=299)


def test_adjacency_file(tmp_path):
    path = tmp_path / "path3.adj"
    path.write_text("# a path on three vertices\n0: 1\n1: 0 2\n\n2: 1\n")
    g = read_adjacency_file(path)
    assert g.vertex_count == 3 and g.edge_count == 2
    spec_g = parse_graph_spec(f"FILE({path})")
    assert spec_g.neighbors == g.neighbors


def test_adjacency_file_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.adj"
    path.write_text("0: 1\n1:\n")
    with pytest.raises(GraphSpecError):
        read_adjacency_file(path)
    path.write_text("0: 0\n")
    with pytest.raises(GraphSpecError):
        read_adjacency_file(path)
    path.write_text("0: 1\n3: 1\n1: 0 3\n")
    with pytest.raises(GraphSpecError):
        read_adjacency_file(path)
