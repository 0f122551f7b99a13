"""Independent checks of magiclab command output.

Nothing here imports ``magiclab``.  The checks rely only on the documented
output formats and vertex layout: a complete multipartite graph numbers its
parts in nondecreasing size order as consecutive id blocks, ``U(m, G)``
offsets copy ``c`` by ``c*|V(G)|``, and ``LEX(G, E(a))`` turns vertex ``u``
into the layer ``u*a .. u*a+a-1``.

Graphs given by a spec are handled as *block graphs*: consecutive id ranges
that are independent sets whose vertices share one neighbourhood, plus the
block adjacency.  Every vertex weight is then a sum of block label sums,
which makes a labeling check O(n + block edges) instead of O(edges).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class CheckError(Exception):
    """The output of a command is wrong."""


@dataclass(frozen=True)
class BlockGraph:
    n: int
    blocks: tuple[tuple[int, int], ...]  # [start, end) id ranges
    adjacent: tuple[tuple[int, ...], ...]  # block indices adjacent to each block


# ---------------------------------------------------------------------------
# Spec parsing


def _split_top(text: str) -> list[str]:
    """Split at commas that are not nested in parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def block_graph(spec: str) -> BlockGraph:
    """Block graph of a spec in the K/C/U/LEX/FILE grammar."""
    if spec.startswith("K(") and spec.endswith(")"):
        sizes = sorted(int(s) for s in spec[2:-1].split(","))
        blocks, start = [], 0
        for size in sizes:
            blocks.append((start, start + size))
            start += size
        r = len(blocks)
        adjacent = tuple(tuple(j for j in range(r) if j != i) for i in range(r))
        return BlockGraph(start, tuple(blocks), adjacent)
    if spec.startswith("C(") and spec.endswith(")"):
        b = int(spec[2:-1])
        return BlockGraph(
            b,
            tuple((v, v + 1) for v in range(b)),
            tuple(tuple(sorted({(v - 1) % b, (v + 1) % b})) for v in range(b)),
        )
    if spec.startswith("U(") and spec.endswith(")"):
        m_text, inner = _split_top(spec[2:-1])
        m, g = int(m_text), block_graph(inner)
        k = len(g.blocks)
        blocks = tuple((s + c * g.n, e + c * g.n) for c in range(m) for s, e in g.blocks)
        adjacent = tuple(
            tuple(j + c * k for j in adj) for c in range(m) for adj in g.adjacent
        )
        return BlockGraph(m * g.n, blocks, adjacent)
    if spec.startswith("LEX(") and spec.endswith("))"):
        inner, layer = _split_top(spec[4:-1])
        if not (layer.startswith("E(") and layer.endswith(")")):
            raise ValueError(f"bad blow-up {layer!r}")
        a, g = int(layer[2:-1]), block_graph(inner)
        return BlockGraph(g.n * a, tuple((s * a, e * a) for s, e in g.blocks), g.adjacent)
    if spec.startswith("FILE(") and spec.endswith(")"):
        adj = read_adjacency(Path(spec[5:-1]))
        return BlockGraph(
            len(adj),
            tuple((v, v + 1) for v in range(len(adj))),
            tuple(tuple(sorted(nbrs)) for nbrs in adj),
        )
    raise ValueError(f"unsupported spec {spec!r}")


def read_adjacency(path: Path) -> list[set[int]]:
    adj = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            head, _, tail = line.partition(":")
            adj[int(head)] = {int(t) for t in tail.split()}
    return [adj[v] for v in range(len(adj))]


# ---------------------------------------------------------------------------
# Labelings


def check_labels(graph: BlockGraph, labels: dict) -> tuple[int, int]:
    """(constant, top label) of an S-magic labeling, or raise CheckError."""
    if sorted(labels, key=int) != [str(v) for v in range(graph.n)]:
        raise CheckError(f"labels do not cover vertices 0..{graph.n - 1} exactly")
    values = [labels[str(v)] for v in range(graph.n)]
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in values):
        raise CheckError("labels must be positive integers")
    if len(set(values)) != len(values):
        raise CheckError("labels are not distinct")
    sums = [sum(values[s:e]) for s, e in graph.blocks]
    weights = {sum(sums[j] for j in adj) for adj in graph.adjacent}
    if len(weights) != 1:
        raise CheckError(f"{len(weights)} distinct vertex weights")
    return weights.pop(), max(values)


def parse_index(stdout: str) -> tuple[int, int | None]:
    """(lower, upper) from an ``index`` or ``oracle`` payload; upper None is infinity."""
    payload = json.loads(stdout)
    lower, upper, theta = payload["lower"], payload["upper"], payload["theta"]
    exact = upper is not None and lower == upper
    if payload["exact"] != exact or theta != (lower if exact else None):
        raise CheckError(f"inconsistent bounds {lower}, {upper}, theta {theta}")
    return lower, upper


def check_label(spec: str, stdout: str, reference: tuple[int, int | None] | None) -> None:
    payload = json.loads(stdout)
    graph = block_graph(spec)
    constant, top = check_labels(graph, payload["labels"])
    if payload["constant"] != constant:
        raise CheckError(f"reported constant {payload['constant']}, weights are {constant}")
    if payload["eta"] != top:
        raise CheckError(f"reported eta {payload['eta']}, top label is {top}")
    if reference is not None:
        lower, upper = reference
        if lower == upper and top != graph.n + lower:
            raise CheckError(f"top label {top} is not n + theta = {graph.n + lower}")
        if top < graph.n + lower:
            raise CheckError(f"top label {top} is below the index lower bound")


def check_oracle(
    spec: str, stdout: str, max_excess: int, reference: tuple[int, int | None] | None
) -> None:
    lower, upper = parse_index(stdout)
    payload = json.loads(stdout)
    graph = block_graph(spec)
    if upper is None:
        if lower != max_excess + 1 or "witness" in payload:
            raise CheckError(f"exhausted search must report lower {max_excess + 1}")
    else:
        if lower > max_excess:
            raise CheckError(f"index {lower} beyond --max-excess {max_excess}")
        _, top = check_labels(graph, payload["witness"]["labels"])
        if top != graph.n + lower:
            raise CheckError(f"witness top label {top} is not n + theta")
    if reference is not None:
        ref_lower, ref_upper = reference
        if ref_upper is not None and ref_upper < lower:
            raise CheckError(f"oracle lower {lower} exceeds index upper {ref_upper}")
        if upper is not None and upper < ref_lower:
            raise CheckError(f"oracle theta {upper} is below index lower {ref_lower}")


# ---------------------------------------------------------------------------
# Arrays


def _csv_rows(lines: list[str], a: int, b: int) -> list[list[int]]:
    rows = [[int(x) for x in line.split(",")] for line in lines]
    if len(rows) != a or any(len(row) != b for row in rows):
        raise CheckError(f"array is not {a} x {b}")
    return rows


def _header(line: str, keys: tuple[str, ...]) -> dict[str, int]:
    if not line.startswith("# "):
        raise CheckError("missing header")
    fields = dict(item.split("=") for item in line[2:].split())
    if tuple(fields) != keys:
        raise CheckError(f"header fields {tuple(fields)}, expected {keys}")
    return {k: int(v) for k, v in fields.items()}


def check_qmr(a: int, b: int, stdout: str) -> None:
    lines = stdout.strip().splitlines()
    head = _header(lines[0], ("d", "rho", "sigma"))
    rows = _csv_rows(lines[1:], a, b)
    d = a * b // 2 + 1
    rho, sigma = b * (a * b + 2) // 2, a * (a * b + 2) // 2
    if head != {"d": d, "rho": rho, "sigma": sigma}:
        raise CheckError(f"header {head} does not match QMR({a},{b})")
    entries = sorted(x for row in rows for x in row)
    if entries != [x for x in range(1, a * b + 2) if x != d]:
        raise CheckError(f"entries are not 1..{a * b + 1} without {d}")
    if any(sum(row) != rho for row in rows):
        raise CheckError("a row sum differs from rho")
    if any(sum(col) != sigma for col in zip(*rows)):
        raise CheckError("a column sum differs from sigma")


def check_kotzig(a: int, b: int, stdout: str) -> None:
    lines = stdout.strip().splitlines()
    c = _header(lines[0], ("c",))["c"]
    rows = _csv_rows(lines[1:], a, b)
    if 2 * c != a * (b - 1):
        raise CheckError(f"column sum {c} is not a(b-1)/2")
    expected = list(range(b))
    if any(sorted(row) != expected for row in rows):
        raise CheckError(f"a row is not a permutation of 0..{b - 1}")
    if any(sum(col) != c for col in zip(*rows)):
        raise CheckError("a column sum differs from c")


def check_output(command, stdout: str, references: dict) -> None:
    """Check one command's stdout; ``references`` maps spec -> index bounds."""
    kind = command.argv[0]
    if kind == "label":
        spec = command.argv[1]
        check_label(spec, stdout, references.get(command.index_ref))
    elif kind == "index":
        parse_index(stdout)
    elif kind == "oracle":
        check_oracle(
            command.argv[1], stdout, command.max_excess, references.get(command.index_ref)
        )
    elif kind == "qmr":
        check_qmr(int(command.argv[1]), int(command.argv[2]), stdout)
    elif kind == "kotzig":
        check_kotzig(int(command.argv[1]), int(command.argv[2]), stdout)
    else:
        raise ValueError(f"no check for {kind!r}")
