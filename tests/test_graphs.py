import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from magiclab import (
    Graph,
    GraphSpecError,
    Labeling,
    SizeLimitError,
    build_complete_multipartite,
    build_cycle,
    disjoint_union,
    lex_blowup,
    parse_graph_spec,
    read_adjacency_file,
    verify_s_magic,
)
from magiclab.graphs import (
    DEFAULT_MAX_VERTICES,
    MAX_BLOCK_ADJACENCY,
    CNode,
    FileNode,
    KNode,
    Spec,
    build_from_ast,
    parse_spec_ast,
)

from conftest import degree, neighbour_sets
from referees import modal_report, weight


def test_complete_multipartite_shape():
    g = build_complete_multipartite((5, 6, 7))
    assert g.vertex_count == 18
    assert degree(g, 0) == 13  # a part-1 vertex misses only its own part
    assert g.edge_count == 5 * 6 + 6 * 7 + 5 * 7


def test_single_part_is_edgeless():
    g = build_complete_multipartite((1,))
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_k33_is_cubic():
    g = build_complete_multipartite((3, 3))
    assert g.vertex_count == 6
    assert g.edge_count == 9
    assert g.is_regular and g.max_degree == 3


def test_partite_spec_roundtrip():
    for sizes in [(1,), (2, 2), (1, 2, 3), (2, 3, 3, 4)]:
        g = build_complete_multipartite(sizes)
        assert g.is_complete_multipartite and g.sizes == sizes


def test_partite_spec_is_read_off_the_blocks():
    # complete multipartite however the spec writes it
    for text, sizes in [
        ("LEX(K(1,1),E(5))", (5, 5)),
        ("LEX(K(2,3),E(2))", (4, 6)),
        ("U(1,K(2,3))", (2, 3)),
        ("LEX(C(3),E(2))", (2, 2, 2)),
    ]:
        g = parse_graph_spec(text)
        assert g.is_complete_multipartite and g.sizes == sizes, text
    for text in ("C(4)", "U(2,K(3,3))", "LEX(C(4),E(2))"):
        assert not parse_graph_spec(text).is_complete_multipartite, text
    # an explicit graph whose blocks are out of size order is one too
    assert Graph((2, 1), ((1,), (0,))).is_complete_multipartite


def test_partite_spec_validation():
    with pytest.raises(ValueError):
        build_complete_multipartite((0, 1))
    with pytest.raises(ValueError):
        build_complete_multipartite(())


def test_cycles():
    assert build_cycle(3).edge_count == 3
    g = build_cycle(4)
    assert all(degree(g, v) == 2 for v in range(4))
    assert build_cycle(10).edge_count == 10
    with pytest.raises(ValueError):
        build_cycle(2)


def test_disjoint_union():
    k33 = build_complete_multipartite((3, 3))
    g = disjoint_union(2, k33)
    assert g.vertex_count == 12
    assert g.edge_count == 18
    assert g.is_regular and g.max_degree == 3
    three = disjoint_union(3, build_cycle(4))
    assert three.vertex_count == 12 and three.edge_count == 12
    assert disjoint_union(1, k33).edge_count == k33.edge_count


def test_lex_blowup():
    g = lex_blowup(build_cycle(4), 2)
    assert g.vertex_count == 8
    assert g.is_regular and g.max_degree == 4
    base = build_complete_multipartite((3, 3))
    blown = lex_blowup(base, 3)
    assert blown.vertex_count == 18 and blown.is_regular and blown.max_degree == 9
    assert lex_blowup(base, 1) == base


def test_lex_blowup_degree_identity():
    base = build_complete_multipartite((1, 2, 3))
    for a in (1, 2, 3):
        g = lex_blowup(base, a)
        for u in range(base.vertex_count):
            for i in range(a):
                assert degree(g, u * a + i) == a * degree(base, u)


def test_degree_sum_is_twice_edges():
    for spec_text in ["K(5,6,7)", "C(7)", "U(2,K(3,3))", "LEX(C(4),E(2))"]:
        g = parse_graph_spec(spec_text)
        assert sum(degree(g, v) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_parser_shapes():
    spec = parse_spec_ast("U(2,K(3,3))")
    assert (spec.m, spec.a) == (2, 1)
    assert isinstance(spec.base, KNode) and spec.base.sizes == (3, 3)
    spec = parse_spec_ast("LEX(C(10),E(3))")
    assert (spec.m, spec.a) == (1, 3)
    assert isinstance(spec.base, CNode) and spec.base.b == 10


@pytest.mark.parametrize("text, literal", [
    ("U(1,C(4))", Spec(CNode(4))),
    ("LEX(C(4),E(1))", Spec(CNode(4))),
    ("LEX(K(1,2),E(3))", Spec(KNode((3, 6)))),
    ("LEX(U(1,C(4)),E(3))", Spec(CNode(4), 1, 3)),
    ("LEX(LEX(C(6),E(1)),E(3))", Spec(CNode(6), 1, 3)),
    ("U(2,LEX(U(1,C(6)),E(3)))", Spec(CNode(6), 2, 3)),
    ("U(3,LEX(U(1,LEX(K(2,1),E(2))),E(3)))", Spec(KNode((6, 12)), 3)),
    ("U(1,U(1,LEX(K(2),E(1))))", Spec(KNode((2,)))),
    ("LEX(U(2,C(5)),E(2))", Spec(CNode(5), 2, 2)),  # one union of blow-ups
    ("U(3,K(4))", Spec(KNode((12,)))),
    ("LEX(U(3,K(1)),E(2))", Spec(KNode((6,)))),
    ("U(2,LEX(U(3,K(1)),E(2)))", Spec(KNode((12,)))),
    ("U(2,K(1,1))", Spec(KNode((1, 1)), 2)),  # two parts: no K rule
    ("U(2,U(2,K(2,2)))", Spec(KNode((2, 2)), 4)),
    ("U(2,U(3,C(5)))", Spec(CNode(5), 6)),
    ("U(2,U(1,U(3,K(2,1))))", Spec(KNode((1, 2)), 6)),
    ("U(2,LEX(U(2,U(3,C(4))),E(2)))", Spec(CNode(4), 12, 2)),
    ("U(2,U(2,K(3)))", Spec(KNode((12,)))),
    ("LEX(LEX(C(4),E(2)),E(3))", Spec(CNode(4), 1, 6)),
    # a K under a union keeps its layers, not U(2,K(9,9))
    ("LEX(U(2,K(3,3)),E(3))", Spec(KNode((3, 3)), 2, 3)),
    ("U(2,LEX(U(2,K(3,3)),E(3)))", Spec(KNode((3, 3)), 4, 3)),
])
def test_parser_rewrites_at_every_level(text, literal):
    assert parse_spec_ast(text) == literal


def test_rewrites_keep_the_graph(tmp_path):
    k12 = build_complete_multipartite((1, 2))
    assert parse_graph_spec("LEX(K(1,2),E(3))") == lex_blowup(k12, 3)
    assert parse_graph_spec("LEX(K(2,1),E(3))") == lex_blowup(k12, 3)
    assert parse_graph_spec("U(1,K(1,2))") == disjoint_union(1, k12)
    assert parse_graph_spec("LEX(K(1,2),E(1))") == lex_blowup(k12, 1)
    # a union of unions is one union: same blocks, same ids
    assert parse_graph_spec("U(2,U(3,K(2,1)))") == disjoint_union(2, disjoint_union(3, k12))
    c5 = build_cycle(5)
    assert parse_graph_spec("U(2,U(2,C(5)))") == disjoint_union(2, disjoint_union(2, c5))
    # an edgeless union is one part: same vertices, no edges
    k1, k4 = (build_complete_multipartite((a,)) for a in (1, 4))
    assert neighbour_sets(parse_graph_spec("U(3,K(4))")) == neighbour_sets(disjoint_union(3, k4))
    assert neighbour_sets(parse_graph_spec("LEX(U(3,K(1)),E(2))")) == neighbour_sets(
        lex_blowup(disjoint_union(3, k1), 2))
    # a blow-up of a union is a union of blow-ups, and two blow-ups are one
    assert parse_graph_spec("LEX(U(2,C(5)),E(3))") == lex_blowup(disjoint_union(2, c5), 3)
    assert parse_graph_spec("LEX(U(2,C(5)),E(3))") == disjoint_union(2, lex_blowup(c5, 3))
    assert parse_graph_spec("LEX(LEX(C(5),E(2)),E(3))") == lex_blowup(lex_blowup(c5, 2), 3)
    path = tmp_path / "p3.adj"
    path.write_text("0: 1\n1: 0 2\n2: 1\n")
    spec = parse_spec_ast(f"U(1,FILE({path}))")
    assert spec == Spec(FileNode(str(path), read_adjacency_file(path)))
    assert build_from_ast(spec) is spec.base.graph


@pytest.mark.parametrize("text, message", [
    ("K(0,2)", "part sizes must be >= 1, got (0, 2)"),
    ("C(2)", "cycles need at least 3 vertices, got 2"),
    ("U(0,K(2,2))", "unions need at least one copy, got 0"),
    ("LEX(C(3),E(0))", "layers need at least one vertex, got 0"),
    ("U(2,LEX(K(3,0),E(2)))", "part sizes must be >= 1, got (3, 0)"),
    ("U(1,LEX(C(6),E(0)))", "layers need at least one vertex, got 0"),
    ("K(5,6,", "expected an integer (at 6)"),
    ("K(5,6,7)x", "trailing characters after spec (at 8)"),
    ("Q(3)", "expected one of K(, C(, U(, LEX(, FILE( (at 0)"),
    ("LEX(C(4),E(3)", "expected ')' (at 13)"),
    ("FILE()", "expected a file path (at 5)"),
])
def test_a_single_fault_keeps_its_message(text, message):
    with pytest.raises(GraphSpecError) as err:
        parse_spec_ast(text)
    assert str(err.value) == message


def test_file_is_read_when_parsed_and_capped(tmp_path):
    missing = tmp_path / "missing.adj"
    with pytest.raises(GraphSpecError, match="cannot read adjacency file"):
        parse_spec_ast(f"U(2,FILE({missing}))")
    path = tmp_path / "path.adj"
    n = DEFAULT_MAX_VERTICES + 1
    path.write_text("".join(f"{v}: {v + 1}\n" for v in range(n)))  # stops before the last id
    with pytest.raises(SizeLimitError, match=f"at line {n}$"):
        parse_spec_ast(f"FILE({path})")
    path.write_text("0: 1\n1: 0 2\n2: 1\n")
    ast = parse_spec_ast(f"U(50000000,FILE({path}))")
    with pytest.raises(SizeLimitError, match="spec declares 150000000 vertices"):
        build_from_ast(ast)


def test_parser_accepts_unsorted_sizes():
    g = parse_graph_spec("K(7,6,5)")
    assert g.is_complete_multipartite and g.sizes == (5, 6, 7)
    # the parser is the one place that orders K parts, at every level
    assert parse_spec_ast("K(3,2)") == Spec(KNode((2, 3)))
    assert parse_spec_ast("U(2,K(3,2))") == Spec(KNode((2, 3)), 2)
    assert parse_spec_ast("LEX(K(3,1),E(2))") == Spec(KNode((2, 6)))


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
    assert spec_g == g


def test_adjacency_file_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.adj"
    for text, error, message in [
        ("0: 1\n1:\n", GraphSpecError, "not symmetric"),
        ("0: 0\n", GraphSpecError, "self-loop"),
        ("0: 1\n3: 1\n1: 0 3\n", GraphSpecError, "ids must be exactly 0..2"),
        # a repeated neighbour is refused as the Graph refuses it, not merged
        ("0: 1 1\n1: 0\n", GraphSpecError, f"block 0 lists a neighbouring block twice (at {path})"),
        # and every listed neighbour counts toward the entry cap
        ("0:" + " 1" * (MAX_BLOCK_ADJACENCY + 1) + "\n1: 0\n", SizeLimitError, "at line 1"),
    ]:
        path.write_text(text)
        with pytest.raises(error, match=re.escape(message)):
            read_adjacency_file(path)


@pytest.mark.parametrize("sizes, adjacent, complete, message", [
    ((1, 0), ((), ()), (), "block sizes must be >= 1, got 0"),
    ((1, 1, 1), ((), (), ()), ((0, 2), (1, 3)), "range [1, 3) is empty, out of order or overlaps"),
    ((1, 1, 1), ((), (), ()), ((1, 3), (0, 1)), "range [0, 1) is empty, out of order or overlaps"),
    ((1, 1), ((1,), (0,)), ((0, 2),), "complete range [0, 2) lists explicit neighbours"),
    ((1, 1, 1), ((), (), (0,)), ((0, 2),), "not symmetric between blocks 2 and 0"),
    ((1, 1), ((1, 1), (0,)), (), "block 0 lists a neighbouring block twice"),
], ids=["size-0", "overlapping", "out-of-order", "edge-inside-range", "edge-into-range",
        "duplicate"])
def test_graph_constructor_refuses_bad_blocks(sizes, adjacent, complete, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph(sizes, adjacent, complete)


def test_complete_ranges_are_written_out_only_on_request():
    g = parse_graph_spec("U(2,K(1,2))")
    assert g.sizes == (1, 2, 1, 2) and g.complete == ((0, 2), (2, 4))
    assert g.adjacent == ((),) * 4
    assert g.neighbours == ((1,), (0,), (3,), (2,))
    assert g.neighbour_sums([5, 7, 11, 13]) == [7, 5, 13, 11]


# ---------------------------------------------------------------------------
# Block structure against the definitions

MAX_PROPERTY_VERTICES = 60


def _order(node):
    kind = node[0]
    if kind == "K":
        return sum(node[1])
    if kind == "C":
        return node[1]
    if kind == "U":
        return node[1] * _order(node[2])
    if kind == "LEX":
        return node[2] * _order(node[1])
    return node[1]  # FILE: (kind, n, edges)


def _adjacent(node, u, v):
    """Adjacency of u and v straight from the family definitions."""
    kind = node[0]
    if kind == "K":
        bounds, start = [], 0
        for size in sorted(node[1]):
            start += size
            bounds.append(start)
        part = lambda x: next(i for i, end in enumerate(bounds) if x < end)  # noqa: E731
        return part(u) != part(v)
    if kind == "C":
        return (u - v) % node[1] in (1, node[1] - 1)
    if kind == "U":
        n = _order(node[2])
        return u // n == v // n and _adjacent(node[2], u % n, v % n)
    if kind == "LEX":
        a = node[2]
        return _adjacent(node[1], u // a, v // a)
    return (min(u, v), max(u, v)) in node[2]


def _render(node, files):
    kind = node[0]
    if kind == "K":
        return "K(" + ",".join(map(str, node[1])) + ")"
    if kind == "C":
        return f"C({node[1]})"
    if kind == "U":
        return f"U({node[1]},{_render(node[2], files)})"
    if kind == "LEX":
        return f"LEX({_render(node[1], files)},E({node[2]}))"
    n, edges = node[1], node[2]
    lines = [
        f"{u}: " + " ".join(str(v) for v in range(n) if (min(u, v), max(u, v)) in edges)
        for u in range(n)
    ]
    path = files / f"g{len(list(files.iterdir()))}.adj"
    path.write_text("\n".join(lines) + "\n")
    return f"FILE({path})"


@st.composite
def _file_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ("FILE", n, frozenset(chosen))


_SPEC_TREES = st.recursive(
    st.one_of(
        st.lists(st.integers(1, 6), min_size=1, max_size=4).map(lambda s: ("K", tuple(s))),
        st.integers(3, 9).map(lambda b: ("C", b)),
        _file_graphs(),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("U"), st.integers(1, 3), inner),
        st.tuples(st.just("LEX"), inner, st.integers(1, 3)),
    ),
    max_leaves=3,
).filter(lambda node: _order(node) <= MAX_PROPERTY_VERTICES)


@st.composite
def _graph_and_labels(draw):
    node = draw(_SPEC_TREES)
    n = _order(node)
    labels = draw(st.lists(st.integers(1, 4 * n), min_size=n, max_size=n, unique=True))
    return node, labels


def test_block_weights_agree_with_explicit_adjacency(tmp_path_factory):
    files = tmp_path_factory.mktemp("blocks")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(_graph_and_labels())
    # complete ranges offset by U and scaled by LEX, whatever the draws
    @example((("U", 2, ("K", (1, 2))), [6, 1, 5, 2, 4, 3]))
    @example((("LEX", ("U", 3, ("K", (2, 2))), 2), list(range(24, 0, -1))))
    @example((("U", 2, ("LEX", ("K", (1, 1, 2)), 2)), list(range(3, 51, 3))))
    def check(case):
        node, labels = case
        g = parse_graph_spec(_render(node, files))
        n = g.vertex_count
        assert n == len(labels)
        expected = [
            frozenset(v for v in range(n) if v != u and _adjacent(node, u, v))
            for u in range(n)
        ]
        assert neighbour_sets(g) == tuple(expected)
        assert [degree(g, u) for u in range(n)] == [len(nbrs) for nbrs in expected]
        assert g.edge_count * 2 == sum(len(nbrs) for nbrs in expected)
        lab = Labeling(tuple(labels))
        weights = [sum(lab.labels[v] for v in expected[u]) for u in range(n)]
        assert [weight(g, lab, u) for u in range(n)] == weights, node
        assert verify_s_magic(g, lab) == modal_report(weights), node

    check()
