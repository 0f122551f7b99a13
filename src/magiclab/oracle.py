"""Brute-force computation of the distance magic index on small instances.

Ground truth for every closed form in the package, on graphs of at most 16
vertices.  Excess levels are scanned in increasing order, and at excess
``e`` only label sets with n labels from 1..n+e, n+e among them, are tried,
so the first level with a hit is the exact index.  Both searches below take
the labels n+e, n+e-1, ..., 1 in decreasing order and put each into a block
with an open slot or skip it: e labels are skipped, never n+e.  So when
label x is next, the unprocessed labels are exactly 1..x, and T(c) = 1 + ...
+ c and T(x) - T(x - c) are the least and the largest sums of c of them.
With s skips left, S = x - s slots are open in all: at the start x = n + e,
s = e and S = n, and each label lowers x by one and S (a place) or s (a
skip) by one.

Complete multipartite graphs, and unions of them: a common part sum.  A
vertex of part P has weight (total label sum) - l(P), so a labeling is
magic exactly when all parts have one label sum t, and in m copies of a
graph with r >= 2 parts exactly when all m * r parts do
(``oracle_theta_multipartite``).  ``_pack`` fixes t (from the admissible
range of ``_candidate_targets``) and fills the parts; a part with c open
slots still short of d needs T(c) <= d <= T(x) - T(x - c), and the S open
slots of all parts, short of D in all, need T(S) <= D <= T(x) - T(x - S).
Parts with the same (open slots, shortfall) are interchangeable, so only
one of them takes a label.

Any other graph: block packing.  All vertices of a block of ``graphs.Graph``
have one neighbourhood, so one weight: the sum of the label sums of the
block's neighbouring blocks, which ``Graph.adjacent`` lists explicitly on
every graph ``oracle_theta_general`` searches (``Graph.parts`` at most 1,
where a group of one part is an edgeless block).  ``_pack_blocks`` fills
the blocks directly, and the labels of each block, in block order, are
the witness.  A label tries the blocks with the least label sum so far
first, which finds balanced labelings early and cuts no branch.  One
necessary condition prunes:

* Common weight.  Let the neighbouring blocks of block P hold label sum f
  so far and c open slots.  Those c slots take c distinct labels of 1..x,
  so P's final weight lies in [f + T(c), f + T(x) - T(x - c)].  All final
  weights are equal, so these intervals share a point.  Once every slot is
  filled each interval is the point f, and this is the magic condition.

Twin blocks.  Let blocks P and Q have the same neighbouring blocks.  Then P
and Q are not adjacent, and every other block is next to both or to
neither.  So the weights of P and Q involve neither, any other block sees
l(P) + l(Q), and swapping two labels between P and Q changes no weight.
If a labeling puts label x into Q while P still has an open slot, that
slot takes a later label y < x, and swapping x and y gives a labeling that
puts x into P.  So among twins, x goes only into the first block with an
open slot, and that branch has a labeling whenever a skipped one does.

Neighbourhood lemma.  Let u != v be vertices, A = N(u) - N(v) and
B = N(v) - N(u).  Under any labeling l by distinct positive integers,
w(u) - w(v) = l(A) - l(B).  If exactly one of A, B is empty, this is plus
or minus a sum of positive labels; if A = {a} and B = {b}, then a != b
since A and B are disjoint, and it is l(a) - l(b) != 0.  Either way
w(u) != w(v), so the graph has no S-magic labeling for any label set S,
at any excess.  Special cases: adjacent vertices with equal closed
neighbourhoods (A = {v}, B = {u}), and an isolated vertex beside a
non-isolated one (A empty, B not).  On blocks: for u in block P and v in
block Q != P, A is the union of the blocks next to P and not next to Q,
and u, v in one block have A and B empty.  In a complete multipartite
graph, vertices in parts P and Q != P have A = Q and B = P, so the lemma
applies exactly when two parts are singletons.

All pruning is by these necessary conditions only, so a pruned branch never
hides a solution.  Searches carry a wall-clock budget and report
exhaustion rather than guessing.
"""

from __future__ import annotations

import time
from itertools import accumulate, combinations
from math import isfinite

from .errors import BudgetExceededError, DomainError
from .graphs import Graph
from .labelings import Labeling, ThetaResult

MAX_N = 16
MAX_EXCESS = 16
BUDGET_SECONDS = 60.0  # default of both oracles and of --budget-seconds

_BUDGET_CHECK_MASK = 0xFFF


def check_search_flags(max_excess: int, budget_seconds: float) -> None:
    """Check a scan of excess levels 0..max_excess under a budget in seconds.

    Raises ``DomainError`` for a ``max_excess`` outside 0..MAX_EXCESS, and
    for a budget that is not a finite number: a NaN or infinite deadline
    would never end the search.
    """
    if not 0 <= max_excess <= MAX_EXCESS:
        raise DomainError(f"max_excess must lie in 0..{MAX_EXCESS}, got {max_excess}")
    if not isfinite(budget_seconds):
        raise DomainError(
            f"budget_seconds must be a finite number of seconds, got {budget_seconds!r}"
        )


class _Ticker:
    """Cheap cooperative deadline check for the search loops."""

    __slots__ = ("deadline", "nodes")

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if (self.nodes & _BUDGET_CHECK_MASK) == 1 and time.monotonic() > self.deadline:
            raise _OutOfTime


class _OutOfTime(Exception):
    pass


# ---------------------------------------------------------------------------
# Equal-sum partition engine


def _pack(sizes, target, e, ticker):
    """Labels of each part of the first packing of a label set with top
    label n+e into parts of ``sizes``, each with label sum ``target``, or
    None (module docstring: a common part sum)."""
    top = sum(sizes) + e
    asc_prefix = list(accumulate(range(top + 1)))  # asc_prefix[k] = 1 + ... + k
    state = [(size, target) for size in sizes]  # open slots, shortfall
    chosen: list[list[int]] = [[] for _ in sizes]
    skips = e

    def rec(label):
        # the unprocessed labels are exactly 1..label
        nonlocal skips
        ticker.tick()
        need = 0
        for c, d in state:
            if not asc_prefix[c] <= d <= asc_prefix[label] - asc_prefix[label - c]:
                return False
            need += d
        # S = label - skips open slots in all, and label - S = skips
        if not asc_prefix[label - skips] <= need <= asc_prefix[label] - asc_prefix[skips]:
            return False
        if label == 0:
            return True
        seen = set()
        for i, (c, d) in enumerate(state):
            if c == 0 or d < label or (c, d) in seen:
                continue
            seen.add((c, d))
            state[i] = (c - 1, d - label)
            chosen[i].append(label)
            if rec(label - 1):
                return True
            chosen[i].pop()
            state[i] = (c, d)
        if skips > 0 and label != top:
            skips -= 1
            if rec(label - 1):
                return True
            skips += 1
        return False

    return chosen if rec(top) else None


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _candidate_targets(sizes, e):
    """Admissible common part sums for label sets of max exactly n+e."""
    n = sum(sizes)
    r = len(sizes)
    alpha_lo = _tri(n - 1) + (n + e)
    alpha_hi = _tri(n + e) - _tri(e)
    lo = max(-((-alpha_lo) // r), _tri(max(sizes)))
    k_min = min(sizes)
    hi = min(alpha_hi // r, _tri(n + e) - _tri(n + e - k_min))
    return list(range(lo, hi + 1))


def _scan_level(sizes, e, ticker):
    """First equal-sum packing of a label set with max exactly n+e, or None.

    Targets are tried in increasing order, so the witness is deterministic.
    """
    for target in _candidate_targets(sizes, e):
        parts = _pack(sizes, target, e, ticker)
        if parts is not None:
            return parts
    return None


def _scan_levels(kind, n, max_excess, budget_seconds, refuted, search):
    """Exact index, or exhausted bounds, from ``search(e, ticker)``: the
    labels of each block of the first labeling with top label n+e, or None.

    ``refuted()`` answers "no labeling at any excess" before any level.
    ``check_search_flags`` checks ``max_excess`` and the budget.
    """
    if n > MAX_N:
        raise DomainError(f"{kind} oracle capped at n={MAX_N}, got {n}")
    check_search_flags(max_excess, budget_seconds)
    exhausted = ThetaResult(
        lower=max_excess + 1, upper=None, case_tag="oracle-exhausted", provenance="oracle"
    )
    if refuted():
        return exhausted  # what the full scan proves, without scanning
    ticker = _Ticker(time.monotonic() + budget_seconds)
    for e in range(max_excess + 1):
        try:
            parts = search(e, ticker)
        except _OutOfTime:
            raise BudgetExceededError(
                f"{kind} oracle out of budget at excess {e}", lower=e
            ) from None
        if parts is not None:
            return ThetaResult(
                lower=e, upper=e, case_tag="oracle", provenance="oracle",
                witness=Labeling.from_parts(parts),
            )
    return exhausted


def oracle_theta_multipartite(
    g: Graph,
    max_excess: int,
    budget_seconds: float = BUDGET_SECONDS,
) -> ThetaResult:
    """Exact index of a complete multipartite graph, or of m copies of one
    with r >= 2 parts (``Graph.parts`` >= 2), by one equal-sum packing of
    its blocks, its m * r parts, per excess level.

    The union has the magic condition of K with all m * r parts.  In copy
    c, with total label sum T_c, a vertex of part P has weight T_c - l(P).
    If every weight is w, each part P of copy c has l(P) = T_c - w = t_c,
    so T_c = r * t_c and w = (r - 1) * t_c; as r >= 2, t_c = w / (r - 1) is
    one sum t for every copy.  Conversely, if every part sums to t, every
    weight is (r - 1) * t.  Two singleton parts anywhere would carry label
    t twice, so such a shape has no labeling at any excess.

    Scans excess 0..max_excess; returns the first feasible level with a
    witness, its labels block by block, else the exhausted bounds
    ``[max_excess+1, infinity)``.  Raises ``DomainError`` when ``g`` is
    neither complete multipartite (``Graph.is_complete_multipartite``) nor
    such a union.
    """
    if not (g.parts >= 2 or g.is_complete_multipartite):
        raise DomainError("multipartite oracle needs a complete multipartite graph")
    sizes = list(g.sizes)
    return _scan_levels(
        "multipartite", g.vertex_count, max_excess, budget_seconds,
        # two singleton parts: the neighbourhood lemma refutes
        lambda: sizes.count(1) >= 2,
        lambda e, ticker: _scan_level(sizes, e, ticker),
    )


# ---------------------------------------------------------------------------
# Block packing engine


def _pack_blocks(g: Graph, e, ticker):
    """Labels of each block of the first S-magic labeling of ``g``, given by
    its explicit ``adjacent``, whose label set has top label n+e, or None
    (module docstring: block packing).
    """
    sizes = list(g.sizes)
    adjacent = g.adjacent
    top = sum(sizes) + e
    asc_prefix = list(accumulate(range(top + 1)))  # asc_prefix[k] = 1 + ... + k
    open_slots = sizes[:]
    sums = [0] * len(sizes)
    fixed = [0] * len(sizes)  # label sum of the neighbouring blocks so far
    near = [sum(sizes[j] for j in adj) for adj in adjacent]  # their open slots
    twin = [adjacent.index(adj) for adj in adjacent]  # first block with these neighbours
    chosen: list[list[int]] = [[] for _ in sizes]
    skips = e

    def place(i, label, step):
        open_slots[i] -= step
        sums[i] += step * label
        for j in adjacent[i]:
            fixed[j] += step * label
            near[j] -= step

    def rec(label):
        # the unprocessed labels are exactly 1..label
        nonlocal skips
        ticker.tick()
        lo = max(f + asc_prefix[c] for f, c in zip(fixed, near))
        if any(lo > f + asc_prefix[label] - asc_prefix[label - c] for f, c in zip(fixed, near)):
            return False
        if label == 0:
            return True
        seen = set()
        # emptier blocks first: an order of the branches, none is cut
        for i in sorted(range(len(sizes)), key=sums.__getitem__):
            c = open_slots[i]
            if c == 0 or twin[i] in seen:
                continue
            seen.add(twin[i])
            place(i, label, 1)
            chosen[i].append(label)
            if rec(label - 1):
                return True
            chosen[i].pop()
            place(i, label, -1)
        if skips > 0 and label != top:
            skips -= 1
            if rec(label - 1):
                return True
            skips += 1
        return False

    return chosen if rec(top) else None


def _refuted_by_neighbourhoods(g: Graph) -> bool:
    """True when two vertices meet the neighbourhood lemma (module docstring):
    one of N(u) - N(v), N(v) - N(u) is empty and the other is not, or both
    are single vertices.  Such a graph has no S-magic labeling at any excess.

    Vertices of one block have equal neighbourhoods, so only pairs of blocks
    P != Q of the explicit ``adjacent`` are compared: for u in P and v in Q,
    N(u) - N(v) is the union of the blocks next to P and not next to Q.
    """
    sizes = g.sizes
    near = [frozenset(adj) for adj in g.adjacent]
    for p, q in combinations(range(len(sizes)), 2):
        only_p = sum(sizes[j] for j in near[p] - near[q])
        only_q = sum(sizes[j] for j in near[q] - near[p])
        if (only_p == 0) != (only_q == 0) or only_p == only_q == 1:
            return True
    return False


def oracle_theta_general(
    g: Graph,
    max_excess: int,
    budget_seconds: float = BUDGET_SECONDS,
) -> ThetaResult:
    """Exact index of any graph: of a graph of groups of two or more complete
    parts by ``oracle_theta_multipartite``, which proves its common part
    sum exact there, and of any other, whose ``adjacent`` is explicit, by
    one block packing per excess level."""
    if g.parts >= 2:
        return oracle_theta_multipartite(g, max_excess, budget_seconds)
    return _scan_levels(
        "general", g.vertex_count, max_excess, budget_seconds,
        lambda: _refuted_by_neighbourhoods(g),
        lambda e, ticker: _pack_blocks(g, e, ticker),
    )
