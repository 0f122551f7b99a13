"""Graph families and the textual graph-spec language.

Vertices are dense integers ``0..n-1``.  A graph is stored as *blocks*:
runs of consecutive ids, given by their sizes, each an independent set
whose vertices share one neighbourhood, in one of two forms: the
neighbouring blocks of each block, or consecutive groups of r blocks, each
group the r parts of a complete multipartite component.  Every family of
the spec language is built in O(#blocks + explicit block edges), never
per vertex pair:

* ``K(n1..nr)`` is one group of r blocks, one per part;
* ``C(b)`` and ``FILE(...)`` have one singleton block per vertex, so their
  block adjacency is the explicit adjacency list, except that ``C(3)`` and
  a ``FILE`` of K_n are read as ``K(1, .., 1)`` and an edgeless ``FILE`` on
  n vertices as ``K(n)``;
* ``U(m, G)`` is ``m`` offset copies of the blocks of ``G``, and of its
  groups of parts;
* ``LEX(G, E(a))`` is ``G`` with every block size scaled by ``a``.

No other vertex layout is kept: a witness labeling lists its labels block
by block, and ``Graph.is_complete_multipartite`` reads a complete
multipartite graph off the blocks, however the spec wrote it
(``LEX(K(2,3),E(2))`` is K(4,6)).

The closed spec grammar::

    spec := "K(" int ("," int)* ")"     complete multipartite graph
          | "C(" int ")"                cycle
          | "U(" int "," spec ")"       disjoint union of copies
          | "LEX(" spec ",E(" int "))"  blow-up by an empty graph
          | "FILE(" path ")"            adjacency list file

``parse_spec_ast`` is the one pass that decides what a spec is.  Each node
checks its own integers when it closes, and ``FILE`` is read there, under
the vertex and block adjacency caps, into the ``Graph`` that is its base.
Every spec parses to one flat form, ``Spec(base, m, a)``, which means
``U(m,LEX(base,E(a)))``: its base is a ``Graph``, built in O(parts) for a
K and read for a ``FILE``, or the symbolic ``CNode`` of a cycle of four or
more vertices, as building C(b) costs O(b) and its closed forms take only
b.  ``U(m,Spec(b,k,a))`` is Spec(b, m * k, a) and
``LEX(Spec(b,m,a'),E(a))`` is Spec(b, m, a' * a).  Both keep the graph
and its vertex ids: ``LEX(U(m,G),E(a))`` and ``U(m,LEX(G,E(a)))`` send
vertex v of copy c to c*n*a + v*a + i, and ``LEX(LEX(G,E(a)),E(b))`` is
LEX(G, E(a * b)).  A K base is a ``Graph`` that
``Graph.is_complete_multipartite`` accepts, held as one group of parts,
and five K rules hold, the only ones: ``C(3)`` is K(1,1,1) and a ``FILE``
whose graph is complete, K_n, is K(1, .., 1), vertex v in part v; an
edgeless ``FILE`` on n vertices is K(n); ``LEX(K(s),E(a))`` with one copy
is K(s * a); and ``U(m,K(s))`` with one part is the edgeless K(m * s).
So no later layer asks whether a base came from a file or a cycle, and
``LEX(FILE(k2.adj),E(5))`` is K(5,5).  A K under a union keeps its layers:
``LEX(U(2,K(3,3)),E(3))`` is Spec(K(3,3), 2, 3), not U(2,K(9,9)), although
both are one graph with one index, that of mK(a,b): its labeling takes
QMR(3, 12) columns, one per layer, while U(2,K(9,9)) takes QMR(9, 4)
columns, a different labeling of the same vertices.  So every spec's size
is known unbuilt, and ``build_from_ast`` checks both caps
before it builds more than the base.  The parser is also the one place
that orders K parts: every K base holds its part sizes nondecreasing, and
no later layer sorts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import GraphSpecError, SizeLimitError

DEFAULT_MAX_VERTICES = 100_000
# only FILE(...) and unions of it store over 2n block adjacency entries (a
# cycle 2 per vertex, K none); a dense file's union could reach gigabytes
MAX_BLOCK_ADJACENCY = 1_000_000
# characters of one adjacency file line: 8 per allowed entry, while an id
# under the vertex cap and its separating space take at most 6, so only a
# line padded with blanks or a comment is refused below the entry cap
MAX_LINE_CHARS = 8 * MAX_BLOCK_ADJACENCY
# the characters that end a line for str.splitlines ("\r" and "\r\n" reach
# it as "\n" in text mode)
_LINE_BREAKS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# the parser recurses twice per nested U( or LEX( (the builders do not);
# 200 levels stay well inside Python's default recursion limit of 1 000
MAX_SPEC_DEPTH = 200


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph stored as blocks of vertices with one shared
    neighbourhood, in one of two forms.

    Block ``i`` is the next ``sizes[i]`` ids.  With ``parts = 0``,
    ``adjacent[i]`` lists the blocks every vertex of block ``i`` is adjacent
    to.  With ``parts = r >= 1``, every ``adjacent`` entry is empty and the
    blocks fall into consecutive groups of r, each a complete multipartite
    component: a block is adjacent to every other block of its group and to
    no other.  ``U(m,K(n1..nr))`` is m groups of r.
    """

    sizes: tuple[int, ...]
    adjacent: tuple[tuple[int, ...], ...]
    parts: int = 0

    def __post_init__(self):
        if min(self.sizes, default=1) < 1:
            raise ValueError(f"block sizes must be >= 1, got {min(self.sizes)}")
        k = len(self.sizes)
        if len(self.adjacent) != k:
            raise ValueError(f"{len(self.adjacent)} adjacency lists for {k} blocks")
        if self.parts < 0 or self.parts and k % self.parts:
            raise ValueError(f"{k} blocks do not split into groups of {self.parts} parts")
        if not any(self.adjacent):  # no explicit entries to check, as in a K
            return
        if self.parts:
            raise ValueError(f"groups of {self.parts} parts list explicit neighbours")
        sets = [frozenset(adj) for adj in self.adjacent]
        for i, adj in enumerate(self.adjacent):
            if len(sets[i]) != len(adj):
                raise ValueError(f"block {i} lists a neighbouring block twice")
            if i in sets[i]:
                raise ValueError(f"block {i} is adjacent to itself (a self-loop)")
            for j in adj:
                if not 0 <= j < k:
                    raise ValueError(f"neighbouring block {j} of block {i} out of range")
                if i not in sets[j]:
                    raise ValueError(f"adjacency not symmetric between blocks {i} and {j}")

    @classmethod
    def from_neighbors(cls, neighbors) -> "Graph":
        """Graph with one singleton block per vertex, from per-vertex
        neighbour collections: an explicit adjacency list."""
        return cls((1,) * len(neighbors), tuple(tuple(sorted(nbrs)) for nbrs in neighbors))

    @cached_property
    def vertex_count(self) -> int:
        return sum(self.sizes)

    def neighbour_sums(self, values) -> list:
        """Per block, the sum of ``values`` (one per block) over its neighbouring
        blocks: in O(blocks + explicit entries), as the blocks of a group of
        complete parts take the group's total less their own value."""
        r = self.parts
        if not r:
            return [sum(map(values.__getitem__, adj)) for adj in self.adjacent]
        sums = []
        for lo in range(0, len(values), r):
            group = values[lo:lo + r]
            total = sum(group)
            sums += [total - value for value in group]
        return sums

    @cached_property
    def _block_degrees(self) -> tuple[int, ...]:
        """Degree of the vertices of each block."""
        return tuple(self.neighbour_sums(self.sizes))

    @property
    def edge_count(self) -> int:
        return sum(size * d for size, d in zip(self.sizes, self._block_degrees)) // 2

    @property
    def min_degree(self) -> int:
        return min(self._block_degrees)

    @property
    def max_degree(self) -> int:
        return max(self._block_degrees)

    @property
    def is_regular(self) -> bool:
        return self.min_degree == self.max_degree

    @property
    def is_complete_multipartite(self) -> bool:
        """True when every block is adjacent to every other block: the graph
        is then complete multipartite, one part per block of ``sizes``.  A
        K is one group of parts, so the test is one comparison there, and on
        other graphs it stops at the first block of too few neighbours."""
        k = len(self.sizes)
        # a block lists no duplicate and not itself
        return self.parts == k or all(len(adj) == k - 1 for adj in self.adjacent)


def build_complete_multipartite(sizes: tuple[int, ...]) -> Graph:
    """Complete multipartite graph: one group of parts, part ``i`` block ``i``."""
    if not sizes:
        raise ValueError("a complete multipartite graph needs at least one part")
    return Graph(sizes, ((),) * len(sizes), len(sizes))


def build_cycle(b: int) -> Graph:
    if b < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {b}")
    return Graph.from_neighbors([((v - 1) % b, (v + 1) % b) for v in range(b)])


def disjoint_union(m: int, g: Graph) -> Graph:
    """``m`` vertex-disjoint copies of ``g``; copy ``c`` is offset by ``c*|V(g)|``."""
    if m < 1:
        raise ValueError(f"need at least one copy, got {m}")
    k = len(g.sizes)
    return Graph(
        g.sizes * m,
        tuple(tuple(j + c * k for j in adj) for c in range(m) for adj in g.adjacent),
        g.parts,
    )


def lex_blowup(g: Graph, a: int) -> Graph:
    """Blow-up of ``g`` by an empty graph on ``a`` vertices.

    Vertex ``u`` of ``g`` becomes the independent layer ``{u*a, .., u*a+a-1}``;
    two vertices are adjacent iff their layers' originals were.  Twins stay
    twins, so block ``i`` of ``g`` becomes a block ``a`` times its size, with
    the same neighbouring blocks and groups of parts.
    """
    if a < 1:
        raise ValueError(f"layer size must be >= 1, got {a}")
    return Graph(tuple(size * a for size in g.sizes), g.adjacent, g.parts)


def _lines(file):
    """The lines of the text ``file`` as ``str.splitlines`` breaks them, read
    at most ``MAX_LINE_CHARS + 1`` characters at a time: a line of more than
    ``MAX_LINE_CHARS`` characters raises ``SizeLimitError`` with its number
    before the rest of it is read."""
    count, carry = 0, ""
    while chunk := carry + file.readline(MAX_LINE_CHARS + 1 - len(carry)):
        rows = chunk.splitlines()
        carry = ""
        if len(chunk) > MAX_LINE_CHARS and chunk[-1] not in _LINE_BREAKS:
            carry = rows.pop()  # the read may have stopped inside this line
            if not rows:
                raise SizeLimitError(
                    f"adjacency file line {count + 1} is over the cap of "
                    f"{MAX_LINE_CHARS} characters"
                )
        count += len(rows)
        yield from rows


def _over_cap(lineno: int):
    raise SizeLimitError(
        f"adjacency file exceeds the cap of {DEFAULT_MAX_VERTICES} vertices or "
        f"{MAX_BLOCK_ADJACENCY} block adjacency entries at line {lineno}"
    )


def read_adjacency_file(path: str | Path) -> Graph:
    """Read the ``id: n1 n2 ...`` adjacency format.

    Ids are 0-based and must be dense; blank lines and ``#`` comments are
    ignored; the list must describe a symmetric loop-free graph, each
    neighbour listed once.  Lines are read one at a time, each of at most
    ``MAX_LINE_CHARS`` characters, and ``SizeLimitError`` is raised at the
    first line past that, past ``DEFAULT_MAX_VERTICES`` ids or past
    ``MAX_BLOCK_ADJACENCY`` listed neighbours, the last before any of the
    line's neighbours is converted, so the memory a read takes is bounded
    whatever the file holds.
    """
    adj: dict[int, list[int]] = {}
    entries = 0
    try:
        lines = open(path)
    except OSError as exc:
        raise GraphSpecError(
            f"cannot read adjacency file: {exc.strerror}", position=str(path)
        ) from None
    with lines:
        for lineno, raw in enumerate(_lines(lines), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, sep, tail = line.partition(":")
            if not sep:
                raise GraphSpecError("expected 'id: neighbors' line", position=f"line {lineno}")
            left = MAX_BLOCK_ADJACENCY - entries
            tokens = tail.split(maxsplit=left)  # a token past ``left`` is over the cap
            if len(tokens) > left:
                _over_cap(lineno)
            try:
                u = int(head.strip())
                nbrs = [int(tok) for tok in tokens]
            except ValueError as exc:
                raise GraphSpecError(f"bad integer: {exc}", position=f"line {lineno}") from None
            if u in adj:
                raise GraphSpecError(f"duplicate vertex {u}", position=f"line {lineno}")
            adj[u] = nbrs
            entries += len(nbrs)
            if len(adj) > DEFAULT_MAX_VERTICES:
                _over_cap(lineno)
    if not adj:
        raise GraphSpecError("empty adjacency file", position=str(path))
    n = len(adj)
    if set(adj) != set(range(n)):
        raise GraphSpecError(f"vertex ids must be exactly 0..{n - 1}", position=str(path))
    try:
        return Graph.from_neighbors([adj[v] for v in range(n)])
    except ValueError as exc:
        raise GraphSpecError(str(exc), position=str(path)) from None


# ---------------------------------------------------------------------------
# Spec language


@dataclass(frozen=True)
class CNode:
    b: int


@dataclass(frozen=True)
class Spec:
    """The spec ``U(m,LEX(base,E(a)))``: the one form every spec parses to.
    A ``K(...)`` base is its built ``Graph``, one group of parts with the
    part sizes nondecreasing, and so is ``C(3)``, a ``FILE`` of K_n and an
    edgeless ``FILE``; any other ``FILE`` base is the ``Graph`` read from
    the file.  Only a cycle of four or more vertices stays symbolic, as
    building C(b) is O(b)."""

    base: CNode | Graph
    m: int = 1
    a: int = 1


def _is_k(base: CNode | Graph) -> bool:
    """True when the spec base ``base`` is a K: a complete multipartite
    ``Graph``, which the parser holds as one group of parts."""
    return isinstance(base, Graph) and base.is_complete_multipartite


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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

    def spec(self) -> Spec:
        self.depth += 1
        if self.depth > MAX_SPEC_DEPTH:
            self.error(f"specs nest at most {MAX_SPEC_DEPTH} levels deep")
        for head in ("K(", "C(", "U(", "LEX(", "FILE("):
            if self.text.startswith(head, self.pos):
                self.pos += len(head)
                spec = getattr(self, "_" + head[:-1].lower())()
                self.depth -= 1
                return spec
        self.error("expected one of K(, C(, U(, LEX(, FILE(")

    def _k(self) -> Spec:
        sizes = [self.integer()]
        while not self.eof() and self.text[self.pos] == ",":
            self.pos += 1
            sizes.append(self.integer())
        self.expect(")")
        if any(s < 1 for s in sizes):
            raise GraphSpecError(f"part sizes must be >= 1, got {tuple(sizes)}")
        return Spec(build_complete_multipartite(tuple(sorted(sizes))))

    def _c(self) -> Spec:
        b = self.integer()
        self.expect(")")
        if b < 3:
            raise GraphSpecError(f"cycles need at least 3 vertices, got {b}")
        if b == 3:  # C(3) is K_3: vertex v is part v
            return Spec(build_complete_multipartite((1, 1, 1)))
        return Spec(CNode(b))

    def _u(self) -> Spec:
        m = self.integer()
        self.expect(",")
        inner = self.spec()
        self.expect(")")
        if m < 1:
            raise GraphSpecError(f"unions need at least one copy, got {m}")
        base = inner.base
        if _is_k(base) and len(base.sizes) == 1:  # U(m,K(s)) is K(m * s)
            return Spec(build_complete_multipartite((m * base.sizes[0],)))
        return Spec(base, m * inner.m, inner.a)

    def _lex(self) -> Spec:
        inner = self.spec()
        self.expect(",E(")
        a = self.integer()
        self.expect(")")
        self.expect(")")
        if a < 1:
            raise GraphSpecError(f"layers need at least one vertex, got {a}")
        base = inner.base
        if _is_k(base) and inner.m == 1:  # LEX(K(s),E(a)) is K(s * a)
            return Spec(lex_blowup(base, a))
        return Spec(base, inner.m, inner.a * a)

    def _file(self) -> Spec:
        path = self.path()
        self.expect(")")
        graph = read_adjacency_file(path)
        if graph.is_complete_multipartite:  # K_n: vertex v is block v, part v
            return Spec(build_complete_multipartite(graph.sizes))
        if not any(graph.adjacent):  # edgeless: one part of n vertices
            return Spec(build_complete_multipartite((graph.vertex_count,)))
        return Spec(graph)


def parse_spec_ast(text: str) -> Spec:
    """The flat ``Spec`` of ``text``, checked, with ``FILE`` graphs read and
    K bases built, their part sizes sorted.  ``U(m,Spec(b,k,a))`` is read as
    Spec(b, m * k, a) and ``LEX(Spec(b,m,a'),E(a))`` as Spec(b, m, a' * a);
    ``C(3)`` and a ``FILE`` of K_n are K(1, .., 1), an edgeless ``FILE`` on
    n vertices is K(n), and over a K base, ``LEX`` with one copy is
    K(s * a) and ``U`` of one part is K(m * s).
    Each rewrite denotes the same graph with the same vertex ids."""
    parser = _Parser(text)
    spec = parser.spec()
    if not parser.eof():
        parser.error("trailing characters after spec")
    return spec


def _ast_size(spec: Spec) -> tuple[int, int]:
    """(vertices, block adjacency entries) of the graph ``spec`` builds."""
    base = spec.base
    if isinstance(base, CNode):
        vertices, entries = base.b, 2 * base.b
    else:  # a K's group of parts lists no entries
        vertices, entries = base.vertex_count, sum(map(len, base.adjacent))
    return spec.m * spec.a * vertices, spec.m * entries


def check_caps(spec: Spec, max_vertices: int = DEFAULT_MAX_VERTICES) -> None:
    """Raise ``SizeLimitError`` if the graph of ``spec`` is over the vertex or
    block adjacency cap; nothing is built."""
    vertices, entries = _ast_size(spec)
    if vertices > max_vertices:
        raise SizeLimitError(f"spec declares {vertices} vertices, cap is {max_vertices}")
    if entries > MAX_BLOCK_ADJACENCY:
        raise SizeLimitError(
            f"spec declares {entries} block adjacency entries, cap is {MAX_BLOCK_ADJACENCY}"
        )


def build_from_ast(spec: Spec, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Build the graph of ``spec``, refused unbuilt over a cap (``check_caps``):
    its base, then ``m`` copies of it, then each vertex blown up to ``a``."""
    check_caps(spec, max_vertices)
    base = spec.base
    graph = build_cycle(base.b) if isinstance(base, CNode) else base
    if spec.m > 1:
        graph = disjoint_union(spec.m, graph)
    if spec.a > 1:
        graph = lex_blowup(graph, spec.a)
    return graph


def parse_graph_spec(text: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Parse a graph-spec string and build the graph it denotes."""
    return build_from_ast(parse_spec_ast(text), max_vertices=max_vertices)
