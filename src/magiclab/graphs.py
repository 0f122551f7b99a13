"""Graph families and the textual graph-spec language.

Vertices are dense integers ``0..n-1``.  Partite sets, blow-up layers and
disjoint-union copies are kept as side metadata so the adjacency structure
stays generic for the verifier and the oracle.

The closed spec grammar::

    spec := "K(" int ("," int)* ")"     complete multipartite graph
          | "C(" int ")"                cycle
          | "U(" int "," spec ")"       disjoint union of copies
          | "LEX(" spec ",E(" int "))"  blow-up by an empty graph
          | "FILE(" path ")"            adjacency list file
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import GraphSpecError, SizeLimitError

DEFAULT_MAX_VERTICES = 100_000


@dataclass(frozen=True)
class PartiteSpec:
    """Ordered multiset of partite-set sizes, nondecreasing."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("partite spec needs at least one part")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"part sizes must be >= 1, got {self.sizes}")
        if any(a > b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"part sizes must be nondecreasing, got {self.sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def r(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with optional structural metadata.

    ``parts``/``layers``/``copies`` list the vertex ids of each partite set,
    blow-up layer, or disjoint-union copy when the graph was built by the
    corresponding constructor.
    """

    neighbors: tuple[frozenset[int], ...]
    parts: tuple[tuple[int, ...], ...] | None = None
    layers: tuple[tuple[int, ...], ...] | None = None
    copies: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for u, nbrs in enumerate(self.neighbors):
            if u in nbrs:
                raise ValueError(f"self-loop at vertex {u}")
            for v in nbrs:
                if not 0 <= v < len(self.neighbors):
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if u not in self.neighbors[v]:
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @property
    def min_degree(self) -> int:
        return min(len(nbrs) for nbrs in self.neighbors)

    @property
    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.neighbors)

    @property
    def is_regular(self) -> bool:
        return self.min_degree == self.max_degree

    @property
    def partite_spec(self) -> PartiteSpec | None:
        if self.parts is None:
            return None
        return PartiteSpec(tuple(len(p) for p in self.parts))


def build_complete_multipartite(spec: PartiteSpec) -> Graph:
    """Complete multipartite graph; part ``i`` occupies a consecutive id block."""
    n = spec.n
    parts = []
    start = 0
    for size in spec.sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    part_of = [0] * n
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    all_vertices = frozenset(range(n))
    neighbors = tuple(
        all_vertices - frozenset(parts[part_of[v]]) for v in range(n)
    )
    return Graph(neighbors=neighbors, parts=tuple(parts))


def build_cycle(b: int) -> Graph:
    if b < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {b}")
    neighbors = tuple(
        frozenset(((v - 1) % b, (v + 1) % b)) for v in range(b)
    )
    return Graph(neighbors=neighbors)


def disjoint_union(m: int, g: Graph) -> Graph:
    """``m`` vertex-disjoint copies of ``g``; copy ``c`` is offset by ``c*|V(g)|``."""
    if m < 1:
        raise ValueError(f"need at least one copy, got {m}")
    n = g.vertex_count
    neighbors = []
    copies = []
    for c in range(m):
        off = c * n
        neighbors.extend(frozenset(v + off for v in nbrs) for nbrs in g.neighbors)
        copies.append(tuple(range(off, off + n)))
    layers = None
    if g.layers is not None:
        layers = tuple(
            tuple(v + c * n for v in layer)
            for c in range(m)
            for layer in g.layers
        )
    return Graph(neighbors=tuple(neighbors), copies=tuple(copies), layers=layers)


def lex_blowup(g: Graph, a: int) -> Graph:
    """Blow-up of ``g`` by an empty graph on ``a`` vertices.

    Vertex ``u`` of ``g`` becomes the independent layer ``{u*a, .., u*a+a-1}``;
    two vertices are adjacent iff their layers' originals were.
    """
    if a < 1:
        raise ValueError(f"layer size must be >= 1, got {a}")
    neighbors = []
    for u in range(g.vertex_count):
        nbr_ids = frozenset(
            w * a + i for w in g.neighbors[u] for i in range(a)
        )
        neighbors.extend(nbr_ids for _ in range(a))
    layers = tuple(tuple(range(u * a, (u + 1) * a)) for u in range(g.vertex_count))
    return Graph(neighbors=tuple(neighbors), layers=layers)


def read_adjacency_file(path: str | Path) -> Graph:
    """Read the ``id: n1 n2 ...`` adjacency format.

    Ids are 0-based and must be dense; blank lines and ``#`` comments are
    ignored; the list must describe a symmetric loop-free graph.
    """
    adj: dict[int, set[int]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphSpecError(
            f"cannot read adjacency file: {exc.strerror}", position=str(path)
        ) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise GraphSpecError("expected 'id: neighbors' line", position=f"line {lineno}")
        try:
            u = int(head.strip())
            nbrs = {int(tok) for tok in tail.split()}
        except ValueError as exc:
            raise GraphSpecError(f"bad integer: {exc}", position=f"line {lineno}") from None
        if u in adj:
            raise GraphSpecError(f"duplicate vertex {u}", position=f"line {lineno}")
        adj[u] = nbrs
    if not adj:
        raise GraphSpecError("empty adjacency file", position=str(path))
    n = len(adj)
    if set(adj) != set(range(n)):
        raise GraphSpecError(f"vertex ids must be exactly 0..{n - 1}", position=str(path))
    try:
        return Graph(neighbors=tuple(frozenset(adj[v]) for v in range(n)))
    except ValueError as exc:
        raise GraphSpecError(str(exc), position=str(path)) from None


# ---------------------------------------------------------------------------
# Spec language


@dataclass(frozen=True)
class KNode:
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class CNode:
    b: int


@dataclass(frozen=True)
class UNode:
    m: int
    inner: "SpecNode"


@dataclass(frozen=True)
class LexNode:
    inner: "SpecNode"
    a: int


@dataclass(frozen=True)
class FileNode:
    path: str


SpecNode = KNode | CNode | UNode | LexNode | FileNode


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise GraphSpecError(message, position=self.pos)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def expect(self, token: str):
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def path(self) -> str:
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            self.pos += 1
        if self.pos == start:
            self.error("expected a file path")
        return self.text[start:self.pos]

    def spec(self) -> SpecNode:
        for head in ("K(", "C(", "U(", "LEX(", "FILE("):
            if self.text.startswith(head, self.pos):
                self.pos += len(head)
                return getattr(self, "_" + head[:-1].lower())()
        self.error("expected one of K(, C(, U(, LEX(, FILE(")

    def _k(self) -> KNode:
        sizes = [self.integer()]
        while not self.eof() and self.text[self.pos] == ",":
            self.pos += 1
            sizes.append(self.integer())
        self.expect(")")
        return KNode(tuple(sizes))

    def _c(self) -> CNode:
        b = self.integer()
        self.expect(")")
        return CNode(b)

    def _u(self) -> UNode:
        m = self.integer()
        self.expect(",")
        inner = self.spec()
        self.expect(")")
        return UNode(m, inner)

    def _lex(self) -> LexNode:
        inner = self.spec()
        self.expect(",E(")
        a = self.integer()
        self.expect(")")
        self.expect(")")
        return LexNode(inner, a)

    def _file(self) -> FileNode:
        path = self.path()
        self.expect(")")
        return FileNode(path)


def _validate_ast(node: SpecNode):
    if isinstance(node, KNode):
        if any(s < 1 for s in node.sizes):
            raise GraphSpecError(f"part sizes must be >= 1, got {node.sizes}")
    elif isinstance(node, CNode):
        if node.b < 3:
            raise GraphSpecError(f"cycles need at least 3 vertices, got {node.b}")
    elif isinstance(node, UNode):
        if node.m < 1:
            raise GraphSpecError(f"unions need at least one copy, got {node.m}")
        _validate_ast(node.inner)
    elif isinstance(node, LexNode):
        if node.a < 1:
            raise GraphSpecError(f"layers need at least one vertex, got {node.a}")
        _validate_ast(node.inner)


def parse_spec_ast(text: str) -> SpecNode:
    parser = _Parser(text)
    node = parser.spec()
    if not parser.eof():
        parser.error("trailing characters after spec")
    _validate_ast(node)
    return node


def _ast_vertex_count(node: SpecNode) -> int:
    if isinstance(node, KNode):
        return sum(node.sizes)
    if isinstance(node, CNode):
        return node.b
    if isinstance(node, UNode):
        return node.m * _ast_vertex_count(node.inner)
    if isinstance(node, LexNode):
        return node.a * _ast_vertex_count(node.inner)
    return 0  # FILE size is only known after reading


def build_from_ast(node: SpecNode, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    declared = _ast_vertex_count(node)
    if declared > max_vertices:
        raise SizeLimitError(f"spec declares {declared} vertices, cap is {max_vertices}")
    graph = _build(node)
    if graph.vertex_count > max_vertices:
        raise SizeLimitError(f"graph has {graph.vertex_count} vertices, cap is {max_vertices}")
    return graph


def _build(node: SpecNode) -> Graph:
    if isinstance(node, KNode):
        return build_complete_multipartite(PartiteSpec(tuple(sorted(node.sizes))))
    if isinstance(node, CNode):
        return build_cycle(node.b)
    if isinstance(node, UNode):
        return disjoint_union(node.m, _build(node.inner))
    if isinstance(node, LexNode):
        return lex_blowup(_build(node.inner), node.a)
    if isinstance(node, FileNode):
        return read_adjacency_file(node.path)
    raise TypeError(f"unknown spec node {node!r}")


def parse_graph_spec(text: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Parse a graph-spec string and build the graph it denotes."""
    return build_from_ast(parse_spec_ast(text), max_vertices=max_vertices)
