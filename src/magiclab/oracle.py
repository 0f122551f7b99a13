"""Brute-force computation of the distance magic index on small instances.

Ground truth for every closed form in the package.  Two independent
semantics are implemented: an equal-sum-partition search specialized to
complete multipartite graphs, and a direct bijection search over arbitrary
graphs.  Excess levels are scanned in increasing order, and at excess ``e``
only label sets with maximum exactly ``n + e`` are tried, so the first hit is
the exact index.

All pruning is by necessary conditions only (divisibility of the total,
per-part sum bounds from the smallest/largest remaining labels, partial
weight bounds, and for general graphs no two adjacent vertices with equal
closed neighbourhoods), so a pruned branch never hides a solution.
Searches carry a wall-clock budget and report exhaustion rather than
guessing.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from random import Random

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
        for c, d in state:
            if c == 0:
                if d != 0:
                    return False
                continue
            slots += c
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
        return True

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


def _mp_level_worker(args):
    sizes, n, e, targets, deadline = args
    labels_desc = list(range(n + e, 0, -1))
    asc_prefix = [0]
    for x in range(1, n + e + 1):
        asc_prefix.append(asc_prefix[-1] + x)
    ticker = _Ticker(deadline)
    out = []
    for pos, target in targets:
        try:
            parts = _pack(
                labels_desc, asc_prefix, sizes, target,
                [e], frozenset({n + e}), {}, ticker,
            )
        except _OutOfTime:
            return ("timeout", out)
        if parts is not None:
            out.append((pos, parts))
            break  # targets are scanned in index order, so this is the chunk minimum
    return ("done", out)


def _scan_level(sizes, n, e, deadline, jobs, rng):
    targets = _candidate_targets(sizes, n, e)
    if rng is not None:
        rng.shuffle(targets)
    indexed = list(enumerate(targets))
    if not indexed:
        return None
    if jobs <= 1:
        status, hits = _mp_level_worker((sizes, n, e, indexed, deadline))
        if status == "timeout" and not hits:
            raise _OutOfTime
        return min(hits)[1] if hits else None
    chunks = [indexed[i::jobs] for i in range(jobs)]
    chunks = [c for c in chunks if c]
    hits = []
    timed_out = False
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for status, found in pool.map(
            _mp_level_worker, [(sizes, n, e, c, deadline) for c in chunks]
        ):
            if status == "timeout":
                timed_out = True
            hits.extend(found)
    if hits:
        return min(hits)[1]
    if timed_out:
        raise _OutOfTime
    return None


def oracle_theta_multipartite(
    spec: PartiteSpec,
    max_excess: int,
    budget_seconds: float | None = None,
    jobs: int = 1,
    seed: int = 0,
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
    budget = default_budget_seconds() if budget_seconds is None else budget_seconds
    deadline = time.monotonic() + budget
    sizes = list(spec.sizes)
    rng = Random(seed) if seed else None
    for e in range(max_excess + 1):
        try:
            parts = _scan_level(sizes, n, e, deadline, jobs, rng)
        except _OutOfTime:
            raise BudgetExceededError(
                f"multipartite oracle out of budget at excess {e}", lower=e
            ) from None
        if parts is not None:
            vertex_parts = []
            start = 0
            for size in sizes:
                vertex_parts.append(list(range(start, start + size)))
                start += size
            witness = Labeling.from_parts(vertex_parts, parts)
            return ThetaResult(
                lower=e, upper=e, case_tag="oracle", provenance="oracle", witness=witness
            )
    return ThetaResult(
        lower=max_excess + 1, upper=None, case_tag="oracle-exhausted", provenance="oracle"
    )


# ---------------------------------------------------------------------------
# General-graph bijection search


def _bijection_search(g: Graph, labels, ticker):
    """First S-magic bijection of ``labels`` onto V(g) in canonical DFS order."""
    n = g.vertex_count
    isolated = [v for v in range(n) if g.degree(v) == 0]
    if isolated and len(isolated) < n:
        return None  # an isolated vertex forces constant 0, an edge forbids it
    if len(isolated) == n:
        return list(sorted(labels))
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    assignment: list[int | None] = [None] * n
    partial = [0] * n
    unlabeled = [g.degree(v) for v in range(n)]
    pool = sorted(labels, reverse=True)
    used: set[int] = set()

    def remaining_bounds(k):
        free = [x for x in pool if x not in used]
        return sum(free[-k:]), sum(free[:k])

    mu_holder = [None]

    def rec(k):
        ticker.tick()
        if k == n:
            return True
        v = order[k]
        for label in pool:
            if label in used:
                continue
            ok = True
            mu_before = mu_holder[0]
            touched = []
            for u in g.neighbors[v]:
                partial[u] += label
                unlabeled[u] -= 1
                touched.append(u)
                if unlabeled[u] == 0:
                    if mu_holder[0] is None:
                        mu_holder[0] = partial[u]
                    elif partial[u] != mu_holder[0]:
                        ok = False
                        break
            if ok and mu_holder[0] is not None:
                used.add(label)
                mu = mu_holder[0]
                for u in range(n):
                    if unlabeled[u] > 0:
                        lo, hi = remaining_bounds(unlabeled[u])
                        if not partial[u] + lo <= mu <= partial[u] + hi:
                            ok = False
                            break
                used.discard(label)
            if ok:
                used.add(label)
                assignment[v] = label
                if rec(k + 1):
                    return True
                assignment[v] = None
                used.discard(label)
            for u in touched:
                partial[u] -= label
                unlabeled[u] += 1
            mu_holder[0] = mu_before
        return False

    if rec(0):
        return list(assignment)
    return None


def _general_worker(args):
    g, subsets, deadline = args
    ticker = _Ticker(deadline)
    out = []
    for pos, labels in subsets:
        try:
            found = _bijection_search(g, labels, ticker)
        except _OutOfTime:
            return ("timeout", out)
        if found is not None:
            out.append((pos, found))
            break  # subsets are scanned in index order, so this is the chunk minimum
    return ("done", out)


def _has_adjacent_closed_twins(g: Graph) -> bool:
    """True when two adjacent vertices have equal closed neighbourhoods.

    Their weights then differ by the difference of their own labels, which
    is never 0, so the graph has no S-magic labeling at any excess.
    """
    nbrs = g.neighbors
    return any(
        nbrs[u] | {u} == nbrs[v] | {v}
        for u in range(g.vertex_count)
        for v in nbrs[u]
        if u < v
    )


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
    jobs: int = 1,
    seed: int = 0,
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
    if _has_adjacent_closed_twins(g):
        return exhausted  # what the full scan proves, without scanning
    budget = default_budget_seconds() if budget_seconds is None else budget_seconds
    deadline = time.monotonic() + budget
    regular_degree = g.max_degree if g.is_regular else None
    rng = Random(seed) if seed else None
    for e in range(max_excess + 1):
        subsets = list(_label_sets(n, e))
        if regular_degree is not None and regular_degree > 0:
            # every weight equals r*sum(S)/n, which must be an integer
            subsets = [s for s in subsets if (regular_degree * sum(s)) % n == 0]
        if rng is not None:
            rng.shuffle(subsets)
        indexed = list(enumerate(subsets))
        if not indexed:
            continue
        hits = []
        timed_out = False
        if jobs <= 1:
            status, hits = _general_worker((g, indexed, deadline))
            timed_out = status == "timeout"
        else:
            chunks = [indexed[i::jobs] for i in range(jobs)]
            chunks = [c for c in chunks if c]
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                for status, found in pool.map(
                    _general_worker, [(g, c, deadline) for c in chunks]
                ):
                    if status == "timeout":
                        timed_out = True
                    hits.extend(found)
        if hits:
            assignment = min(hits)[1]
            return ThetaResult(
                lower=e, upper=e, case_tag="oracle", provenance="oracle",
                witness=Labeling(tuple(assignment)),
            )
        if timed_out:
            raise BudgetExceededError(
                f"general oracle out of budget at excess {e}", lower=e
            )
    return exhausted
