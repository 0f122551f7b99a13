"""Labelings, vertex weights, and the S-magic verifier.

A labeling assigns distinct positive integers (the label set S) bijectively
to the vertices.  It is S-magic when every vertex's neighbor-label sum is one
constant; for a complete multipartite graph that holds exactly when all
partite sets carry equal label sums, in which case the constant is
``alpha - alpha/r`` where ``alpha`` is the total label sum.

``verify_s_magic`` is the one S-magic check: no constructor checks its own
labeling, and ``cli._certify`` passes every labeling through it before
printing.  It works on the block structure of ``graphs.Graph``: it sums the
labels of each block once, and a vertex's weight is the sum over its
block's neighbouring blocks (``Graph.neighbour_sums``; in a group of
complete parts, the group's total less the block's own sum), so a check
costs O(n + explicit block edges) at any number of parts.  On a graph of
singleton blocks (cycles, adjacency files) this is the plain
explicit-adjacency sum.  Every vertex of a block has its block's weight,
so comparing every block's weight compares every vertex's.

All arithmetic is exact: Python integers cannot overflow, so every
certificate this module emits is bit-exact.

A label map is written as the JSON object ``{"<id>": label, ...}`` whose
keys come in the order ``json.dumps(..., sort_keys=True)`` gives them: the
string order of the decimal ids, so ``"10"`` precedes ``"9"``.
``labels_json`` writes that text without building a dict or sorting
strings.  For n ids let K = len(str(n - 1)); the id v of L decimal digits
gets the integer key P(v)·(K+1) + L, where P(v) = v·10^(K−L) is the value
of its string padded on the right with zeros to K digits.

*Claim: key order is string order.*  Since 1 <= L <= K < K + 1, keys
compare as the pairs (P, L).  Take the strings s != t of two ids.  (i) If
they first differ at a position i below both lengths, their padded forms
first differ there too, and K-digit strings compare as their values: s < t
iff P(s) < P(t).  (ii) Otherwise one is a proper prefix of the other, say
s of t, so s < t.  Padding puts zeros where t has digits, so
P(s) <= P(t), and on equality the shorter length L(s) < L(t) breaks the
tie.  Either way s < t iff key(s) < key(t).  (JSON keys sort by code
point, and the code points of ``0``..``9`` are in digit order.)  The keys of
one length L grow with v, so the sort merges K increasing runs.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat

from .graphs import Graph

# one sorted-key encoder for every JSON payload; ``json.dumps(...,
# sort_keys=True)`` builds a new encoder on each call
SORTED_JSON = json.JSONEncoder(sort_keys=True)


def _string_order(n: int) -> list[int]:
    """The ids 0..n-1 in the order of their decimal strings (proof in the
    module docstring)."""
    width = len(str(max(n - 1, 0)))
    keys = []
    start = 0
    for length in range(1, width + 1):
        stop = min(n, 10 ** length)
        step = 10 ** (width - length) * (width + 1)
        keys.extend(range(start * step + length, stop * step + length, step))
        start = stop
    return sorted(range(n), key=keys.__getitem__)


def labels_json(labels) -> str:
    """The JSON object mapping each id ``v`` to the integer ``labels[v]``,
    byte for byte as ``json.dumps({str(v): ...}, sort_keys=True)`` writes
    it, in one ``%`` format over the interleaved (id, label) pairs."""
    order = _string_order(len(labels))
    pairs = [0] * (2 * len(order))
    pairs[::2] = order
    pairs[1::2] = map(labels.__getitem__, order)
    return "{%s}" % ", ".join(['"%d": %d'] * len(order)) % tuple(pairs)


@dataclass(frozen=True)
class Labeling:
    """Bijection from vertices ``0..n-1`` onto a set of distinct positive labels."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if min(self.labels, default=1) < 1:
            raise ValueError("labels must be positive")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def eta(self) -> int:
        return max(self.labels)

    @classmethod
    def from_parts(cls, label_sets) -> "Labeling":
        """Labeling that concatenates the sorted label sets: the ids, in
        order, take set 0, then set 1, and so on.  Since blocks tile the ids
        in order, one set per part of a complete multipartite graph labels
        each part with its set."""
        return cls(tuple(chain.from_iterable(sorted(labels) for labels in label_sets)))

    @classmethod
    def from_json(cls, text: str) -> "Labeling":
        """The labeling of ``{"labels": {"0": l0, ..., "<n-1>": l}}``.  The ids
        must be exactly the canonical decimals 0..n-1, each once, and every
        label a JSON integer; anything else raises ``ValueError``."""
        try:
            payload = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError("labeling JSON nests too deep") from None
        mapping = payload.get("labels") if isinstance(payload, dict) else None
        if not isinstance(mapping, dict):
            raise ValueError('labeling JSON needs a "labels" object mapping ids to ints')
        ids = list(map(str, range(len(mapping))))
        try:
            labels = tuple(map(mapping.__getitem__, ids))
        except KeyError:
            stray = min(set(mapping) - set(ids))
            raise ValueError(
                f"labeling ids must be exactly 0..{len(ids) - 1} in decimal, got {stray!r}"
            ) from None
        if set(map(type, labels)) - {int}:
            bad = next(lab for lab in labels if type(lab) is not int)
            raise ValueError(f"labels must be JSON integers, got {json.dumps(bad)}")
        return cls(labels)


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("labeling JSON repeats a key")
    return obj


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an S-magic check: the constant, or the outlying vertices
    with their weights."""

    is_magic: bool
    constant: int | None
    violations: tuple[tuple[int, int], ...]

    def to_json(self) -> str:
        payload = {
            "is_magic": self.is_magic,
            "constant": self.constant,
            "violations": [list(v) for v in self.violations],
        }
        return SORTED_JSON.encode(payload)


@dataclass(frozen=True)
class ThetaResult:
    """Distance magic index outcome: exact value or bounds, with provenance.

    ``upper is None`` encodes an infinite (unknown) upper bound.  For exact
    results the index is ``lower`` and any attached witness labeling realizes
    ``eta = n + lower``.
    """

    lower: int
    upper: int | None
    case_tag: str
    provenance: str = "theorem"
    witness: Labeling | None = None

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    @property
    def theta(self) -> int | None:
        return self.lower if self.exact else None

    def to_payload(self) -> dict:
        payload = {
            "case": self.case_tag,
            "exact": self.exact,
            "lower": self.lower,
            "upper": self.upper,
            "theta": self.theta,
            "provenance": self.provenance,
        }
        if self.witness is not None:
            payload["witness"] = {
                "labels": {str(v): lab for v, lab in enumerate(self.witness.labels)}
            }
        return payload


def verify_s_magic(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check whether every vertex weight equals one constant, decided on
    the block weights (module docstring).

    Violations are reported relative to the modal weight over the vertices
    (ties broken toward the smaller weight) so a single mislabeled vertex
    shows up alone.  Equal weights, the common case, are recognised by one
    count of the first block's.
    """
    if labeling.n != g.vertex_count:
        raise ValueError(
            f"labeling covers {labeling.n} vertices, graph has {g.vertex_count}"
        )
    labels = iter(labeling.labels)
    weights = g.neighbour_sums([sum(islice(labels, size)) for size in g.sizes])
    if weights and weights.count(weights[0]) == len(weights):
        return VerifyReport(is_magic=True, constant=weights[0], violations=())
    counts = Counter()
    for w, size in zip(weights, g.sizes):
        counts[w] += size
    mode = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    starts = accumulate(g.sizes, initial=0)
    violations = tuple(chain.from_iterable(
        zip(range(start, start + size), repeat(w))
        for w, size, start in zip(weights, g.sizes, starts) if w != mode
    ))
    return VerifyReport(is_magic=False, constant=None, violations=violations)

