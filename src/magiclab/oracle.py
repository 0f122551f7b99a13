"""Brute-force computation of the distance magic index on small instances.

Ground truth for every closed form in the package.  Two independent
semantics are implemented: an equal-sum-partition search specialized to
complete multipartite graphs, and a direct bijection search over arbitrary
graphs.  Excess levels are scanned in increasing order, and at excess ``e``
only label sets with maximum exactly ``n + e`` are tried, so the first hit is
the exact index.

All pruning is by necessary conditions only (divisibility of the total,
per-part sum bounds from the smallest/largest remaining labels, a joint
bound on all open slots together from the same labels, partial weight
bounds, and the neighbourhood lemma below), so a pruned branch never hides
a solution.  Searches carry a wall-clock budget and report exhaustion
rather than guessing.

Neighbourhood lemma.  Let u != v be vertices, A = N(u) - N(v) and
B = N(v) - N(u).  Under any labeling l by distinct positive integers,
w(u) - w(v) = l(A) - l(B).  If exactly one of A, B is empty, this is plus
or minus a sum of positive labels; if A = {a} and B = {b}, then a != b
since A and B are disjoint, and it is l(a) - l(b) != 0.  Either way
w(u) != w(v), so the graph has no S-magic labeling for any label set S,
at any excess.  Special cases: adjacent vertices with equal closed
neighbourhoods (A = {v}, B = {u}), and an isolated vertex beside a
non-isolated one (A empty, B not).  In a complete multipartite graph,
vertices in parts P and Q != P have A = Q and B = P, so the lemma applies
exactly when two parts are singletons.
"""

from __future__ import annotations

import os
import time
from itertools import accumulate, combinations

from .errors import BudgetExceededError, DomainError
from .graphs import Graph, PartiteSpec
from .labelings import Labeling, ThetaResult

MAX_MULTIPARTITE_N = 16
MAX_GENERAL_N = 8
MAX_EXCESS = 16

_BUDGET_CHECK_MASK = 0xFFF


def default_budget_seconds() -> float:
    return float(os.environ.get("MAGICLAB_BUDGET_SECONDS", "60"))


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


def _pack(labels_desc, asc_prefix, sizes, target, skips, must_use, forced, ticker):
    """Assign each label to a part or skip it; every part must hit ``target``.

    ``labels_desc`` is strictly decreasing, so at any depth the unprocessed
    pool is exactly the smallest remaining labels, making the per-part bounds
    O(1) via ``asc_prefix``.
    """
    total = len(labels_desc)
    state = [[size, target] for size in sizes]
    chosen: list[list[int]] = [[] for _ in sizes]
    dedupe_ok = not forced

    def bounds_ok(remaining):
        slots = 0
        need = 0
        for c, d in state:
            if c == 0:
                if d != 0:
                    return False
                continue
            slots += c
            need += d
            if c > remaining:
                return False
            lo = asc_prefix[c]
            hi = asc_prefix[remaining] - asc_prefix[remaining - c]
            if not lo <= d <= hi:
                return False
        if slots > remaining:
            return False
        if (remaining - slots) > skips[0]:
            return False
        # the open slots take distinct remaining labels, so together they
        # sum between the `slots` smallest and the `slots` largest of them
        lo = asc_prefix[slots]
        hi = asc_prefix[remaining] - asc_prefix[remaining - slots]
        return lo <= need <= hi

    def rec(idx):
        ticker.tick()
        remaining = total - idx
        if not bounds_ok(remaining):
            return False
        if idx == total:
            return True
        label = labels_desc[idx]
        if label in forced:
            indices = [forced[label]]
        else:
            indices = range(len(state))
        seen = set()
        for i in indices:
            c, d = state[i]
            if c == 0 or d < label:
                continue
            if dedupe_ok:
                key = (c, d)
                if key in seen:
                    continue
                seen.add(key)
            state[i][0] = c - 1
            state[i][1] = d - label
            chosen[i].append(label)
            if rec(idx + 1):
                return True
            chosen[i].pop()
            state[i][0] = c
            state[i][1] = d
        if skips[0] > 0 and label not in must_use and label not in forced:
            skips[0] -= 1
            if rec(idx + 1):
                return True
            skips[0] += 1
        return False

    if rec(0):
        return tuple(tuple(sorted(part)) for part in chosen)
    return None


def equal_sum_partition(labels, sizes, forced=None):
    """Partition ``labels`` into blocks of the given sizes with equal sums.

    Returns the blocks in ``sizes`` order (deterministic first solution of
    the descending-label search) or ``None``.  ``forced`` optionally pins a
    label to a block index.
    """
    labels = sorted(labels)
    sizes = list(sizes)
    if len(labels) != sum(sizes):
        raise ValueError(f"{len(labels)} labels cannot fill sizes {sizes}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    total = sum(labels)
    r = len(sizes)
    if total % r:
        return None
    asc_prefix = [0]
    for x in labels:
        asc_prefix.append(asc_prefix[-1] + x)
    ticker = _Ticker(time.monotonic() + default_budget_seconds())
    try:
        return _pack(
            labels[::-1], asc_prefix, sizes, total // r,
            [0], frozenset(), forced or {}, ticker,
        )
    except _OutOfTime:
        raise BudgetExceededError("equal-sum partition search ran out of time") from None


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _candidate_targets(sizes, n, e):
    """Admissible common part sums for label sets of max exactly n+e."""
    r = len(sizes)
    alpha_lo = _tri(n - 1) + (n + e)
    alpha_hi = _tri(n + e) - _tri(e)
    lo = max(-((-alpha_lo) // r), _tri(max(sizes)))
    k_min = min(sizes)
    hi = min(alpha_hi // r, _tri(n + e) - _tri(n + e - k_min))
    return list(range(lo, hi + 1))


def _scan_level(sizes, n, e, ticker):
    """First equal-sum packing of a label set with max exactly n+e, or None.

    Targets are tried in increasing order, so the witness is deterministic.
    """
    targets = _candidate_targets(sizes, n, e)
    if not targets:  # common for shapes with a singleton part; skip the set-up
        return None
    labels_desc = list(range(n + e, 0, -1))
    asc_prefix = list(accumulate(range(n + e + 1)))  # asc_prefix[k] = 1 + ... + k
    for target in targets:
        parts = _pack(
            labels_desc, asc_prefix, sizes, target,
            [e], frozenset({n + e}), {}, ticker,
        )
        if parts is not None:
            return parts
    return None


def oracle_theta_multipartite(
    spec: PartiteSpec,
    max_excess: int,
    budget_seconds: float | None = None,
    max_n: int = MAX_MULTIPARTITE_N,
) -> ThetaResult:
    """Exact index of the complete multipartite graph of ``spec`` by search.

    Scans excess 0..max_excess; returns the first feasible level with a
    witness, else the exhausted bounds ``[max_excess+1, infinity)``.  The
    ``max_n`` guardrail can be raised explicitly when the caller accepts the
    running time.
    """
    n = spec.n
    if n > max_n:
        raise DomainError(f"multipartite oracle capped at n={max_n}, got {n}")
    if max_excess > MAX_EXCESS:
        raise DomainError(f"max_excess capped at {MAX_EXCESS}, got {max_excess}")
    exhausted = ThetaResult(
        lower=max_excess + 1, upper=None, case_tag="oracle-exhausted", provenance="oracle"
    )
    sizes = list(spec.sizes)
    if sizes.count(1) >= 2:
        return exhausted  # two singleton parts: the neighbourhood lemma refutes
    budget = default_budget_seconds() if budget_seconds is None else budget_seconds
    ticker = _Ticker(time.monotonic() + budget)
    for e in range(max_excess + 1):
        try:
            parts = _scan_level(sizes, n, e, ticker)
        except _OutOfTime:
            raise BudgetExceededError(
                f"multipartite oracle out of budget at excess {e}", lower=e
            ) from None
        if parts is not None:
            return ThetaResult(
                lower=e, upper=e, case_tag="oracle", provenance="oracle",
                witness=Labeling.from_parts(parts),
            )
    return exhausted


# ---------------------------------------------------------------------------
# General-graph bijection search


def _bijection_search(g: Graph, labels, ticker):
    """First S-magic bijection of ``labels`` onto V(g) in canonical DFS order."""
    n = g.vertex_count
    if g.edge_count == 0:
        return list(sorted(labels))
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    assignment: list[int | None] = [None] * n
    partial = [0] * n
    unlabeled = [g.degree(v) for v in range(n)]
    pool = sorted(labels, reverse=True)
    used: set[int] = set()
    nbrs = g.neighbors
    # the common weight, once some vertex has all neighbours labelled; an
    # isolated vertex has them all from the start
    mu = 0 if 0 in unlabeled else None

    def rec(depth):
        nonlocal mu
        ticker.tick()
        if depth == n:
            return True
        v = order[depth]
        for label in pool:
            if label in used:
                continue
            ok = True
            mu_before = mu
            touched = []
            for u in nbrs[v]:
                partial[u] += label
                unlabeled[u] -= 1
                touched.append(u)
                if unlabeled[u] == 0:
                    if mu is None:
                        mu = partial[u]
                    elif partial[u] != mu:
                        ok = False
                        break
            if ok and mu is not None:
                # each open weight must still reach mu with its smallest or
                # largest free labels; top[c] sums the c largest
                free = [x for x in pool if x != label and x not in used]
                top = list(accumulate(free, initial=0))
                for u in range(n):
                    c = unlabeled[u]
                    if c and not top[-1] - top[-1 - c] <= mu - partial[u] <= top[c]:
                        ok = False
                        break
            if ok:
                used.add(label)
                assignment[v] = label
                if rec(depth + 1):
                    return True
                assignment[v] = None
                used.discard(label)
            for u in touched:
                partial[u] -= label
                unlabeled[u] += 1
            mu = mu_before
        return False

    if rec(0):
        return list(assignment)
    return None


def _refuted_by_neighbourhoods(nbrs) -> bool:
    """True when two vertices meet the neighbourhood lemma (module docstring):
    one of N(u) - N(v), N(v) - N(u) is empty and the other is not, or both
    are single vertices.  Such a graph has no S-magic labeling at any excess.
    """
    for u, v in combinations(range(len(nbrs)), 2):
        only_u = len(nbrs[u] - nbrs[v])
        only_v = len(nbrs[v] - nbrs[u])
        if (only_u == 0) != (only_v == 0) or only_u == only_v == 1:
            return True
    return False


def _label_sets(n, e):
    if e == 0:
        yield tuple(range(1, n + 1))
        return
    top = n + e
    for rest in combinations(range(1, top), n - 1):
        yield rest + (top,)


def oracle_theta_general(
    g: Graph,
    max_excess: int,
    budget_seconds: float | None = None,
) -> ThetaResult:
    """Exact index of an arbitrary graph by exhaustive bijection search."""
    n = g.vertex_count
    if n > MAX_GENERAL_N:
        raise DomainError(f"general oracle capped at n={MAX_GENERAL_N}, got {n}")
    if max_excess > MAX_EXCESS:
        raise DomainError(f"max_excess capped at {MAX_EXCESS}, got {max_excess}")
    exhausted = ThetaResult(
        lower=max_excess + 1, upper=None, case_tag="oracle-exhausted", provenance="oracle"
    )
    if _refuted_by_neighbourhoods(g.neighbors):
        return exhausted  # what the full scan proves, without scanning
    budget = default_budget_seconds() if budget_seconds is None else budget_seconds
    ticker = _Ticker(time.monotonic() + budget)
    regular_degree = g.max_degree if g.is_regular else 0
    for e in range(max_excess + 1):
        for labels in _label_sets(n, e):
            if regular_degree and (regular_degree * sum(labels)) % n:
                continue  # every weight equals r*sum(S)/n, which must be an integer
            try:
                assignment = _bijection_search(g, labels, ticker)
            except _OutOfTime:
                raise BudgetExceededError(
                    f"general oracle out of budget at excess {e}", lower=e
                ) from None
            if assignment is not None:
                return ThetaResult(
                    lower=e, upper=e, case_tag="oracle", provenance="oracle",
                    witness=Labeling(tuple(assignment)),
                )
    return exhausted
