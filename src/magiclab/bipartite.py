"""Distance magic index of complete bipartite graphs, with witness labelings.

For ``2 <= n1 <= n2`` and ``n = n1 + n2`` the index is

* 0 when ``n(n+1) >= 2*n2*(n2+1)`` and ``n = 0 or 3 (mod 4)``,
* 1 when that inequality holds and ``n = 1 or 2 (mod 4)``,
* ``ceil((2*n2*(n2+1) - n(n+1)) / (2*n1))`` otherwise.

A star K(1, n2) with ``n2 >= 2`` has index ``n2(n2+1)/2 - n2 - 1``: the
lone vertex's label equals the other side's sum, at least ``1 + .. + n2``.

The witness label sets realizing the first two branches are ``{1..n}`` and
``{1..n-1, n+1}``, split by ``split_equal_sums``; the third branch keeps
``{1..n2}`` on the large side and shifts the run ``{n2+1..n}`` upward on
the small side (``_shifted_run``).  The splitter holds every label set,
from the pool to the parts, as ``(lo, hi)`` runs of consecutive labels and
writes each part out once.  The labelings are not verified here:
``cli._certify`` checks each one before it is printed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import permutations
from operator import itemgetter

from .errors import DomainError, InternalInconsistencyError
from .labelings import Labeling, ThetaResult


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _branch(n1: int, n2: int) -> tuple[str, int | None]:
    """(case tag, index) of K(n1, n2) for any n1 <= n2; the index is None
    when no labeling exists (two singletons would need equal labels)."""
    n = n1 + n2
    if n1 == 1:
        return "bipartite-star", _run_sum(1, n2) - n if n2 > 1 else None
    lhs, rhs = n * (n + 1), 2 * n2 * (n2 + 1)
    if lhs >= rhs:
        return ("bipartite-0", 0) if n % 4 in (0, 3) else ("bipartite-1", 1)
    return "bipartite-deficit", _ceil_div(rhs - lhs, 2 * n1)


def _run_sum(lo: int, c: int) -> int:
    """Sum of the ``c`` consecutive integers starting at ``lo``."""
    return c * (2 * lo + c - 1) // 2


def _read(labels) -> tuple[int, list[tuple[int, int]] | None]:
    """``(count, runs)``: how many ``labels`` there are, and the ascending
    ``(lo, hi)`` blocks of consecutive integers covering them, or ``None``
    when a label repeats.  A ``range`` is read in O(1), a list by
    ``_ascending_runs`` after a sort if it does not ascend."""
    if isinstance(labels, range) and labels.step == 1:
        return len(labels), [(labels.start, labels.stop - 1)] if labels else []
    xs = list(labels)
    runs = _ascending_runs(xs)
    if runs is None:
        xs.sort()
        runs = _ascending_runs(xs)
    return len(xs), runs


def _ascending_runs(xs) -> list[tuple[int, int]] | None:
    """The runs of the list ``xs`` if it strictly ascends, else ``None``.

    Along a strictly ascending list ``xs[j] - j`` never falls, and it is
    constant exactly along a run, so bisection finds where each run ends.
    On any list, the bisection from ``i`` stops at a ``j`` with
    ``xs[j - 1] - (j - 1) <= xs[i] - i`` and, short of the end,
    ``xs[j] - j > xs[i] - i``.  By the first, each run found holds at most
    as many labels as its stretch ``xs[i:j]``, and the stretches tile
    ``xs``.  So if the runs write out to ``xs`` (one comparison), each run
    is its stretch, and by the second the next stretch starts at least two
    higher: ``xs`` ascends strictly, and its runs are the ones found."""
    runs, i = [], 0
    while i < len(xs):
        j = i + bisect_right(range(i, len(xs)), xs[i] - i, key=lambda j: xs[j] - j)
        runs.append((xs[i], xs[j - 1]))
        i = j
    return runs if _labels(runs) == xs else None


def _holds(runs, x: int) -> bool:
    """Whether one of the ascending ``runs`` holds ``x``; by bisection."""
    i = bisect_right(runs, x, key=itemgetter(0))
    return i > 0 and x <= runs[i - 1][1]


def _minus(runs, cut) -> list[tuple[int, int]]:
    """``runs`` less the runs ``cut``, each run split around the cuts it holds."""
    for c_lo, c_hi in cut:
        runs = [
            piece
            for lo, hi in runs
            for piece in ((lo, min(hi, c_lo - 1)), (max(lo, c_hi + 1), hi))
            if piece[0] <= piece[1]
        ]
    return list(runs)


def _merged(pieces) -> list[tuple[int, int]]:
    """Disjoint runs ``pieces`` as ascending runs, touching ones joined."""
    runs = []
    for lo, hi in sorted(pieces):
        if runs and runs[-1][1] + 1 == lo:
            lo = runs.pop()[0]
        runs.append((lo, hi))
    return runs


def _labels(runs) -> list[int]:
    """The labels of ``runs``, ascending."""
    out = []
    for lo, hi in runs:
        out += range(lo, hi + 1)
    return out


def _descending(runs) -> list[tuple[int, int]]:
    """A key that orders equal-size label sets, each given as joined ``runs``,
    as their labels read in descending order: runs from the top, a higher top
    first, then a lower bottom (the run that reaches lower holds the next
    label down, where the other has a gap)."""
    return [(hi, -lo) for lo, hi in reversed(runs)]


def _detached(runs):
    """A single label of more than two ``runs``, with the other runs; else ``None``."""
    if len(runs) > 2:
        for i, (lo, hi) in enumerate(runs):
            if lo == hi:
                return lo, runs[:i] + runs[i + 1:]
        raise ValueError("equal-sum splits need at most two runs of consecutive labels")


def _feasible(runs, c: int, t: int) -> bool:
    """Can ``c`` distinct labels from ``runs`` sum to ``t``?  Exact; see
    ``split_equal_sums`` for the argument.  Single labels beyond two runs
    are branched on (taken or not)."""
    if detached := _detached(runs):
        d, rest = detached
        return _feasible(rest, c, t) or (c > 0 and _feasible(rest, c - 1, t - d))
    (lo1, hi1), (lo2, hi2) = [(1, 0)] * (2 - len(runs)) + list(runs)
    js = max(0, c - (hi2 - lo2 + 1)), min(c, hi1 - lo1 + 1)
    # extremes of the sums with j labels from the lower run, both decreasing in j
    first = _first(*js, lambda j: _run_sum(lo1, j) + _run_sum(lo2, c - j) <= t)
    stop = _first(*js, lambda j: _run_sum(hi1 - j + 1, j) + _run_sum(hi2 - c + j + 1, c - j) < t)
    return first < stop


def _first(lo: int, hi: int, pred) -> int:
    """The least ``i`` in ``lo..hi`` with ``pred(i)`` (false, then true), or ``hi + 1``."""
    return lo + bisect_left(range(lo, hi + 1), True, key=pred)


def _top_heavy(pool, c: int, t: int, keep=(), drop=()) -> list[tuple[int, int]] | None:
    """The c-subset of the runs ``pool`` with sum ``t``, holding ``keep`` and
    missing ``drop``, that is largest first in descending order, as joined
    runs; ``None`` if none.  It is found a run at a time; see
    ``split_equal_sums`` for the proof."""
    runs = _minus(pool, [(x, x) for x in (*keep, *drop)])
    if detached := _detached(runs):
        d = detached[0]
        picks = _top_heavy(pool, c, t, keep, [*drop, d]), _top_heavy(pool, c, t, [*keep, d], drop)
        return max(picks, key=lambda p: (p is not None, _descending(p or ())))
    chosen, c, t = [(x, x) for x in keep], c - len(keep), t - sum(keep)
    for i in range(len(runs) - 1, -1, -1):
        lo, hi = runs[i]
        ((lo1, hi1),) = runs[:i] or [(1, 0)]  # the run below, maybe empty
        k = _first(1, min(c, hi - lo + 1), lambda j: not _feasible(
            runs[:i] + [(lo, hi - j)], c - j, t - _run_sum(hi - j + 1, j))) - 1
        chosen.append((hi - k + 1, hi))
        c, t, m = c - k, t - _run_sum(hi - k + 1, k), hi - k - 1

        def top(b):  # y over the b lowest labels, the run below at its least sum
            return t - _run_sum(lo, b) - _run_sum(lo1, c - 1 - b)

        def floor(b):  # the same at its largest sum
            return t - _run_sum(lo, b) - _run_sum(hi1 + b + 2 - c, c - 1 - b)

        b = _first(max(0, c - 1 - (hi1 - lo1 + 1)), c - 1, lambda b: floor(b) <= m)
        if b < c and lo + b <= min(m, (y := top(b))):
            chosen += [(y, y), (lo, lo + b - 1)]
            c, t = c - 1 - b, t - y - _run_sum(lo, b)
    return _merged(run for run in chosen if run[0] <= run[1]) if c == t == 0 else None


# rows of the 3x3 magic square: the one 3-part split the U-first order misses
_MAGIC_SQUARE_ROWS = ((1, 5, 9), (2, 6, 7), (3, 4, 8))


def split_equal_sums(labels, sizes, forced=None) -> list[list[int]] | None:
    """Split ``labels`` into 2 or 3 parts of the given ``sizes`` with equal sums.

    Returns one sorted label list per part, or ``None``.  ``forced`` maps a
    label to the index of the part that must hold it.  Part 0 of a 2-part
    split is top-heavy: of the subsets with the right size, sum and forced
    labels, the largest when read in descending order, so it fails only
    when no split exists.  Three parts are two 2-part splits: ``U``, the
    two larger parts (sum ``2T``), top-heavy from the pool; then the
    middle part top-heavy from ``U``.  The largest part is the rest of
    ``U``, the smallest the complement of ``U``.  A forced label's part is
    tried first in the middle part's role (in ``U`` with the largest other
    part); the plain order is the retry.

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

    *The top-heavy pick takes a run at a time (proved).*  A detached label
    is branched on: the pick is the larger of the best with and without it.
    Else let ``lo..hi`` be the top run, ``c`` and ``t`` the size and sum left
    and ``R1`` the run below.  A completion holding the top ``j`` labels
    holds the top ``j - 1``, so bisection with ``_feasible`` finds the most,
    ``k``; then no completion holds ``m + 1``, where ``m = hi - k - 1``.
    Trading held ``z < y`` in ``lo..m`` for free ``z - 1 >= lo`` and ``y + 1``
    keeps size and sum and gives a larger pick or one holding ``m + 1``; so
    in ``lo..m`` the pick holds the ``b`` lowest labels and at most one more,
    ``y``, and ``R1`` gives ``c - 1 - b`` labels, whose sums fill an interval.
    As the run lies above ``R1``, each bound of ``lo + b <= y <= m`` holds on
    one side of a threshold in ``b``, and the largest fitting ``y`` strictly
    falls as ``b`` grows; at the least fitting ``b`` it is at most ``m``, or
    ``m + 1`` would fit.  So the pick takes the least fitting ``b``, found by
    bisection, with its largest ``y``; then ``R1`` likewise.  That is
    O(runs * log n) probes of ``_feasible`` per pick.

    *Every label set is runs.*  The pool is read once into ascending
    ``(lo, hi)`` runs of consecutive labels: in O(1) for a ``range``; for a
    list, by bisection and one comparison of the list with its runs written
    out, which also finds a repeated label (a list that does not ascend is
    sorted first; no caller passes one); ``label_bipartite`` hands over its
    pool ``{1..n-1, n+theta}`` as runs, unread.  Forced labels are found by
    bisection on the runs.  A pick is a few runs, joined where they touch;
    a complement is a run difference in O(runs); and the detached-label
    branch compares two picks from their top runs down (``_descending``).
    Each part is written out as a label list once, at the end.  So a split
    costs one read of the pool, O(runs * log n) probes and one write-out
    per part.

    *The U-first order is checked, not proved.*  It splits every case I
    shape with n < 160 except K(3, 3, 3), and every case IV pool with
    n < 160 with the top label forced; the tests compare it with the
    exhaustive referee ``equal_sum_partition`` of ``tests/referees.py`` on
    every 3-part shape with n <= 18, both pools, with the top label forced
    into each part.  K(3, 3, 3) is a base case: the rows ``{1,5,9}``,
    ``{2,6,7}``, ``{3,4,8}`` of the 3x3 magic square, ordered to honour
    ``forced``.
    """
    count, runs = _read(labels)
    if runs is None:
        raise ValueError(f"{count} distinct labels cannot fill sizes {list(sizes)}")
    return _split_runs(runs, sizes, forced)


def _split_runs(runs, sizes, forced=None) -> list[list[int]] | None:
    """``split_equal_sums`` of the pool given as its ascending, joined
    ``(lo, hi)`` runs."""
    count = sum(hi - lo + 1 for lo, hi in runs)
    sizes = list(sizes)
    forced = forced or {}
    if count != sum(sizes):
        raise ValueError(f"{count} distinct labels cannot fill sizes {sizes}")
    if len(sizes) not in (2, 3) or not all(_holds(runs, x) for x in forced):
        raise ValueError("split needs 2 or 3 parts and forced labels from the pool")
    if len(runs) > 2:
        raise ValueError("split pools hold at most two runs of consecutive labels")
    total = sum(_run_sum(lo, hi - lo + 1) for lo, hi in runs)
    if total % len(sizes):
        return None
    target = total // len(sizes)

    def held(*parts):
        return [x for x, i in forced.items() if i in parts]

    if len(sizes) == 2:
        first = _top_heavy(runs, sizes[0], target, held(0), held(1))
        if first is None:
            return None
        return [_labels(first), _labels(_minus(runs, first))]
    if runs == [(1, 9)] and sizes == [3, 3, 3]:
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
        union = _top_heavy(runs, sizes[first] + sizes[second], 2 * target,
                           held(first, second), held(rest))
        if union is None:
            continue
        part = _top_heavy(union, sizes[first], target, held(first), held(second))
        if part is None:
            continue
        parts = [[], [], []]
        parts[first] = _labels(part)
        parts[second] = _labels(_minus(union, part))
        parts[rest] = _labels(_minus(runs, union))
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


def label_bipartite(n1: int, n2: int) -> Labeling | None:
    """S-magic labeling of K(n1, n2) with the least top label, n + theta;
    ``None`` when there is none (two singleton sides).

    The label sets ``{1..n}`` and ``{1..n-1, n+1}`` are reproduced exactly
    whenever they are the feasible optimum.  The labeling is not verified.
    """
    if not 1 <= n1 <= n2:
        raise DomainError(f"need 1 <= n1 <= n2, got ({n1}, {n2})")
    n = n1 + n2
    _, theta = _branch(n1, n2)
    if theta is None:
        return None
    if n * (n + 1) >= 2 * n2 * (n2 + 1):
        sides = _split_runs(_merged([(1, n - 1), (n + theta, n + theta)]), (n1, n2))
    else:  # a star K(1, n2 >= 3) too: its lone label is the run {n2+1} raised
        sides = (_shifted_run(n2 + 1, n1, 2 * _run_sum(1, n2) - _run_sum(1, n)),
                 list(range(1, n2 + 1)))
    if sides is None:
        raise InternalInconsistencyError(f"K({n1},{n2}): predicted index {theta} but split failed")
    return Labeling.from_parts(sides)


def theta_bipartite(n1: int, n2: int) -> ThetaResult:
    """Exact index of K(n1, n2) for ``1 <= n1 <= n2``, ``n2 >= 2``, without a witness."""
    if not 1 <= n1 <= n2 or n2 < 2:
        raise DomainError(f"formula needs 1 <= n1 <= n2 and n2 >= 2, got ({n1}, {n2})")
    tag, theta = _branch(n1, n2)
    return ThetaResult(lower=theta, upper=theta, case_tag=tag)
