"""Distance magic index of complete bipartite graphs, with witness labelings.

For ``2 <= n1 <= n2`` and ``n = n1 + n2`` the index is

* 0 when ``n(n+1) >= 2*n2*(n2+1)`` and ``n = 0 or 3 (mod 4)``,
* 1 when that inequality holds and ``n = 1 or 2 (mod 4)``,
* ``ceil((2*n2*(n2+1) - n(n+1)) / (2*n1))`` otherwise.

The witness label sets realizing the first two branches are ``{1..n}`` and
``{1..n-1, n+1}``; the third branch keeps ``{1..n2}`` on the large side and
shifts the run ``{n2+1..n}`` upward on the small side (``_shifted_run``).
Every labeling this module returns is re-checked for equal side sums before
being handed out.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import permutations

from .errors import DomainError, InternalInconsistencyError
from .graphs import PartiteSpec
from .labelings import Labeling, ThetaResult, partite_sums_check


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _theta_value(n1: int, n2: int) -> int | None:
    """Index of K(n1, n2) for any n1 <= n2; None when no labeling exists."""
    if n1 == 1:
        if n2 == 1:
            return None  # two singletons would need equal distinct labels
        return _tri(n2) - (n1 + n2)  # lone vertex's label must carry a full side sum
    n = n1 + n2
    lhs = n * (n + 1)
    rhs = 2 * n2 * (n2 + 1)
    if lhs >= rhs:
        return 0 if n % 4 in (0, 3) else 1
    return _ceil_div(rhs - lhs, 2 * n1)


def _run_sum(lo: int, c: int) -> int:
    """Sum of the ``c`` consecutive integers starting at ``lo``."""
    return c * (2 * lo + c - 1) // 2


def _runs(labels) -> list[tuple[int, int]]:
    """Ascending ``(lo, hi)`` blocks of consecutive integers covering ``labels``."""
    runs: list[list[int]] = []
    for x in sorted(labels):
        if runs and runs[-1][1] == x - 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return [(lo, hi) for lo, hi in runs]


def _feasible(runs, c: int, t: int) -> bool:
    """Can ``c`` distinct labels from ``runs`` sum to ``t``?  Exact; see
    ``split_equal_sums`` for the argument.  Single labels beyond two runs
    are branched on (taken or not)."""
    if len(runs) > 2:
        for i, (lo, hi) in enumerate(runs):
            if lo == hi:
                rest = runs[:i] + runs[i + 1:]
                return _feasible(rest, c, t) or (c > 0 and _feasible(rest, c - 1, t - lo))
        raise ValueError("equal-sum splits need at most two runs of consecutive labels")
    (lo1, hi1), (lo2, hi2) = [(1, 0)] * (2 - len(runs)) + list(runs)
    j_lo, j_hi = max(0, c - (hi2 - lo2 + 1)), min(c, hi1 - lo1 + 1)
    if j_lo > j_hi:
        return False
    js = range(j_lo, j_hi + 1)
    # extremes of the sums with j labels from the lower run, both decreasing in j
    first = bisect_left(js, -t, key=lambda j: -(_run_sum(lo1, j) + _run_sum(lo2, c - j)))
    stop = bisect_right(
        js, -t, key=lambda j: -(_run_sum(hi1 - j + 1, j) + _run_sum(hi2 - c + j + 1, c - j))
    )
    return first < stop


def _top_heavy(pool, c: int, t: int, keep=(), drop=()) -> list[int] | None:
    """The c-subset of ``pool`` with sum ``t``, holding ``keep`` and missing
    ``drop``, that is largest first in descending order; ``None`` if none."""
    runs = _runs(x for x in pool if x not in keep and x not in drop)
    c -= len(keep)
    t -= sum(keep)
    if not _feasible(runs, c, t):
        return None
    chosen = list(keep)
    for i in range(len(runs) - 1, -1, -1):
        lo, hi = runs[i]
        for v in range(hi, lo - 1, -1):
            if c == 0:
                return sorted(chosen)
            below = runs[:i] + [(lo, v - 1)] if v > lo else runs[:i]
            if _feasible(below, c - 1, t - v):
                chosen.append(v)
                c -= 1
                t -= v
    return sorted(chosen)


# rows of the 3x3 magic square: the one 3-part split the U-first order misses
_MAGIC_SQUARE_ROWS = ((1, 5, 9), (2, 6, 7), (3, 4, 8))


def split_equal_sums(labels, sizes, forced=None) -> list[list[int]] | None:
    """Split ``labels`` into 2 or 3 parts of the given ``sizes`` with equal sums.

    Returns one sorted label list per part, or ``None``.  ``forced`` maps a
    label to the index of the part that must hold it.  Part 0 of a 2-part
    split is top-heavy: of the subsets with the right size, sum and forced
    labels, the largest when read in descending order.  The greedy walks
    the pool downward and keeps each label whose rest can still be
    completed, so it fails only when no split exists.  Three parts are two
    2-part splits: ``U``, the two larger parts (sum ``2T``), top-heavy from
    the pool; then the middle part top-heavy from ``U``.  The largest part
    is the rest of ``U``, the smallest the complement of ``U``.  A forced
    label's part is tried first in the middle part's role (in ``U`` with
    the largest other part); the plain order is the retry.

    *Feasibility is exact (proved).*  On one run of consecutive integers
    the ``c``-subset sums fill every integer between the sums of the lowest
    and the highest ``c``.  On two runs ``R1 < R2``, the sums with ``j``
    labels from ``R1`` fill the interval between two extremes (a sum of two
    integer intervals), and both extremes strictly fall as ``j`` grows,
    since each step trades a label of ``R2`` for a smaller one of ``R1``.
    So ``t`` is reachable iff the first ``j`` whose least sum is at most
    ``t`` is no later than the last ``j`` whose largest sum is at least
    ``t``: two binary searches, O(log n).  Detached labels are branched on.
    The pool must be at most two runs, such as ``{1..n}`` or
    ``{1..n-1, n+1}``; a top-heavy pick from it is a top run, an adjusting
    label and a bottom run, plus perhaps the detached label, so the second
    step sees two runs plus at most two detached labels.

    *The U-first order is checked, not proved.*  It splits every case I
    shape with n < 160 except K(3, 3, 3), and every case IV pool with
    n < 160 with the top label forced; the tests compare it with the
    exhaustive ``equal_sum_partition`` on every 3-part shape with n <= 18,
    both pools, with the top label forced into each part.  K(3, 3, 3) is a
    base case: the rows ``{1,5,9}``, ``{2,6,7}``, ``{3,4,8}`` of the 3x3
    magic square, ordered to honour ``forced``.
    """
    labels = sorted(labels)
    sizes = list(sizes)
    forced = forced or {}
    if len(labels) != sum(sizes) or len(set(labels)) != len(labels):
        raise ValueError(f"{len(labels)} distinct labels cannot fill sizes {sizes}")
    if len(sizes) not in (2, 3) or not set(forced) <= set(labels):
        raise ValueError("split needs 2 or 3 parts and forced labels from the pool")
    if len(_runs(labels)) > 2:
        raise ValueError("split pools hold at most two runs of consecutive labels")
    total = sum(labels)
    if total % len(sizes):
        return None
    target = total // len(sizes)

    def held(*parts):
        return [x for x, i in forced.items() if i in parts]

    if len(sizes) == 2:
        first = _top_heavy(labels, sizes[0], target, held(0), held(1))
        if first is None:
            return None
        return [first, sorted(set(labels) - set(first))]
    if labels == list(range(1, 10)) and sizes == [3, 3, 3]:
        for rows in permutations(_MAGIC_SQUARE_ROWS):
            if all(x in rows[i] for x, i in forced.items()):
                return [list(row) for row in rows]
        return None
    _, mid, large = sorted(range(3), key=sizes.__getitem__)
    orders = [(mid, large)]
    if forced:
        first = next(iter(forced.values()))
        orders.insert(0, (first, mid if first == large else large))
    for first, second in orders:
        (rest,) = {0, 1, 2} - {first, second}
        union = _top_heavy(labels, sizes[first] + sizes[second], 2 * target,
                           held(first, second), held(rest))
        if union is None:
            continue
        part = _top_heavy(union, sizes[first], target, held(first), held(second))
        if part is None:
            continue
        parts = [[], [], []]
        parts[first] = part
        parts[second] = sorted(set(union) - set(part))
        parts[rest] = sorted(set(labels) - set(union))
        return parts
    return None


def _shifted_run(lo: int, c: int, delta: int) -> list[int]:
    """The ``c`` consecutive labels from ``lo``, raised to a sum ``delta`` higher.

    With ``q, r = divmod(delta, c)`` every label is raised by ``q``, then the
    label ``r - 1`` below the new top is lifted by ``r``, just past the top
    (no lift when ``r = 0``).  The labels stay distinct, and the top is
    ``lo + c - 1 + q``, plus 1 when ``r > 0``.
    """
    q, r = divmod(delta, c)
    top = lo + q + c - 1
    return [x for x in range(lo + q, top + 2) if x != top + 1 - r]


def _third_branch_sets(n1: int, n2: int) -> tuple[list[int], list[int]]:
    """Canonical label sets when the big side's floor exceeds half the total.

    Side 2 takes ``{1..n2}``; side 1 takes the run ``{n2+1..n}`` shifted up
    until its sum reaches ``tri(n2)``.  The top label lands exactly at
    ``n + theta``.
    """
    n = n1 + n2
    deficit = 2 * _tri(n2) - _tri(n)  # side-2 sum minus the unshifted top run
    return _shifted_run(n2 + 1, n1, deficit), list(range(1, n2 + 1))


def label_bipartite(n1: int, n2: int, target_max: int) -> Labeling | None:
    """S-magic labeling of K(n1, n2) using labels from ``{1..target_max}``.

    Returns a labeling of minimal top label when one fits the budget, else
    ``None``.  The minimal label sets ``{1..n}`` and ``{1..n-1, n+1}`` are
    reproduced exactly whenever they are the feasible optimum.
    """
    if not 1 <= n1 <= n2:
        raise DomainError(f"need 1 <= n1 <= n2, got ({n1}, {n2})")
    n = n1 + n2
    if target_max < n:
        return None
    theta = _theta_value(n1, n2)
    if theta is None or n + theta > target_max:
        return None
    eta = n + theta
    if n1 == 1:
        sides = ([_tri(n2)], list(range(1, n2 + 1)))
    elif n * (n + 1) >= 2 * n2 * (n2 + 1):
        if theta == 0:
            sides = split_equal_sums(range(1, n + 1), (n1, n2))
        else:
            sides = split_equal_sums(list(range(1, n)) + [n + 1], (n1, n2))
    else:
        sides = _third_branch_sets(n1, n2)
    if sides is None:
        raise InternalInconsistencyError(
            f"K({n1},{n2}): predicted index {theta} but split failed"
        )
    labeling = Labeling.from_parts(sides)
    if labeling.eta != eta or not partite_sums_check(PartiteSpec((n1, n2)), labeling):
        raise InternalInconsistencyError(
            f"K({n1},{n2}): constructed labeling failed verification"
        )
    return labeling


def theta_bipartite(n1: int, n2: int) -> ThetaResult:
    """Exact index of K(n1, n2) for ``2 <= n1 <= n2``, without a witness."""
    if not 2 <= n1 <= n2:
        raise DomainError(f"formula needs 2 <= n1 <= n2, got ({n1}, {n2})")
    n = n1 + n2
    if n * (n + 1) >= 2 * n2 * (n2 + 1):
        tag = "bipartite-0" if n % 4 in (0, 3) else "bipartite-1"
    else:
        tag = "bipartite-deficit"
    theta = _theta_value(n1, n2)
    return ThetaResult(lower=theta, upper=theta, case_tag=tag)
