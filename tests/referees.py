"""Independent referees that the tests check the package against.

None of these is reached from the CLI: they are slow searches and textbook
formulas, kept apart from the package so that a bug in one of its fast
paths cannot hide in the check of that path.

* ``weight`` sums one vertex's neighbour labels, vertex by vertex.
* ``modal_report``: the verifier's report from per-vertex weights, by the
  modal-weight rule, for ``labelings.verify_s_magic``, which decides on
  block weights.
* ``g_function`` and ``gap_lower_bound``: the gap polynomial and the index
  lower bound it gives.
* ``magic_constant_multipartite`` and ``multipartite_distance_magic_check``:
  the magic constant and the distance-magic characterisation of complete
  p-partite graphs, p in 2..4, by partial sums rather than zeta sums.
* ``kotzig_exists_exhaustive`` and ``qmr_exists_exhaustive``: exhaustive
  array searches on small sizes.
* ``qmr_violation``: the QMR conditions checked entry by entry on the
  written-out rows, for ``arrays.verify_qmr``, which decides on row
  progressions.
* ``equal_sum_partition``: a depth-first equal-sum partitioner with label
  pins, for the splitter of ``bipartite.split_equal_sums``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from collections import Counter
from itertools import accumulate, permutations
from math import ceil

from magiclab import DomainError, Graph, Labeling, VerifyReport


def block_ranges(g: Graph) -> list[range]:
    """The vertex ids of each block of ``g``, read off its sizes."""
    ends = list(accumulate(g.sizes))
    return [range(end - size, end) for size, end in zip(g.sizes, ends)]


def block_of(g: Graph, v: int) -> int:
    """Index of the block of ``g`` holding vertex ``v``."""
    if not 0 <= v < g.vertex_count:
        raise IndexError(f"vertex {v} out of range")
    return bisect_right(list(accumulate(g.sizes)), v)


def weight(g: Graph, labeling: Labeling, u: int) -> int:
    """Sum of the labels on the neighbors of ``u`` (0 for an isolated vertex),
    over the explicit neighbouring blocks ``g.neighbours``."""
    if labeling.n != g.vertex_count:
        raise ValueError(
            f"labeling covers {labeling.n} vertices, graph has {g.vertex_count}"
        )
    ranges = block_ranges(g)
    return sum(labeling.labels[v] for j in g.neighbours[block_of(g, u)] for v in ranges[j])


def modal_report(weights) -> VerifyReport:
    """The report on the per-vertex ``weights``: the vertices off the modal
    weight (ties broken toward the smaller weight), one weight at a time."""
    counts = Counter(weights)
    mode = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    violations = tuple((u, w) for u, w in enumerate(weights) if w != mode)
    return VerifyReport(not violations, None if violations else mode, violations)


def g_function(n: int, delta: int, Delta: int, x: int) -> Fraction:
    """The gap polynomial ``(2*delta*(n+x) - delta^2 + delta - Delta*(Delta+1)) / 2``.

    Affine in ``x`` with slope ``delta``; a negative value at ``x = 0`` rules
    out a distance magic labeling.
    """
    if not 1 <= delta <= Delta <= n - 1:
        raise DomainError(f"need 1 <= delta <= Delta <= n-1, got ({n}, {delta}, {Delta})")
    return Fraction(2 * delta * (n + x) - delta * delta + delta - Delta * (Delta + 1), 2)


def gap_lower_bound(g: Graph) -> int | None:
    """Index lower bound ``ceil(|g(0)| / delta)`` when ``g(0) < 0``.

    Returns ``None`` when ``g(0) >= 0``: the gap polynomial then gives no
    information (in particular for every regular graph).  Graphs with an
    isolated vertex are rejected.
    """
    delta = g.min_degree
    if delta == 0:
        raise DomainError("graph has an isolated vertex")
    g0 = g_function(g.vertex_count, delta, g.max_degree, 0)
    if g0 >= 0:
        return None
    return ceil(Fraction(abs(g0), delta))


def magic_constant_multipartite(sizes: tuple[int, ...], alpha: int) -> Fraction:
    """Magic constant ``alpha * (r-1) / r`` of a complete r-partite graph.

    Every part sums to ``alpha/r``, so each weight is ``alpha - alpha/r``;
    a non-integer value certifies that no labeling with total ``alpha`` works.
    """
    r = len(sizes)
    if r < 2:
        raise DomainError("need at least two parts")
    return Fraction(alpha * (r - 1), r)


def multipartite_distance_magic_check(sizes: tuple[int, ...]) -> bool:
    """Distance magic test for complete p-partite graphs, p in {2, 3, 4}.

    Conditions, for nondecreasing sizes with partial sums ``s_i`` and
    ``n = s_p``: second-smallest part has size >= 2; ``n(n+1) = 0 (mod 2p)``;
    and for each ``i``, the ``s_i`` largest of ``1..n`` sum to at least
    ``i/p`` of the total.  Kept deliberately independent of the zeta-sum
    reformulation used in ``tripartite`` so the two can cross-check each other.
    """
    p = len(sizes)
    if p not in (2, 3, 4):
        raise DomainError(f"characterization covers 2..4 parts, got {p}")
    if list(sizes) != sorted(sizes) or min(sizes) < 1:
        raise DomainError(f"sizes must be nondecreasing positives, got {sizes}")
    n = sum(sizes)
    if sizes[1] < 2:
        return False
    if (n * (n + 1)) % (2 * p) != 0:
        return False
    s_i = 0
    for i, size in enumerate(sizes, start=1):
        s_i += size
        top_sum = sum(n - j + 1 for j in range(1, s_i + 1))
        if 2 * p * top_sum < n * (n + 1) * i:
            return False
    return True


def kotzig_exists_exhaustive(a: int, b: int) -> bool:
    """Search all Kotzig arrays with first row fixed to the identity.

    Column permutations act on the solution set, so fixing the first row
    loses no generality.
    """
    if a * b > 18:
        raise DomainError("exhaustive check capped at a*b <= 18")
    target2 = a * (b - 1)  # doubled column-sum constant
    cols = [0] * b

    def rec(i: int) -> bool:
        if i == a:
            return all(2 * c == target2 for c in cols)
        rows_left = a - i
        for perm in permutations(range(b)):
            ok = True
            for j, v in enumerate(perm):
                low = 2 * (cols[j] + v)
                high = low + 2 * (rows_left - 1) * (b - 1)
                if low > target2 or high < target2:
                    ok = False
                    break
            if not ok:
                continue
            for j, v in enumerate(perm):
                cols[j] += v
            if rec(i + 1):
                return True
            for j, v in enumerate(perm):
                cols[j] -= v
        return False

    first = list(range(b))
    for j, v in enumerate(first):
        cols[j] += v
    return rec(1)


def qmr_exists_exhaustive(a: int, b: int) -> bool:
    """Cell-by-cell search for any QMR(a, b : ab/2+1); small sizes only."""
    if a * b > 12:
        raise DomainError("exhaustive check capped at a*b <= 12")
    if a % 2 == 0 or b % 2 == 1:
        raise DomainError("quasimagic rectangles need odd a and even b")
    d = a * b // 2 + 1
    pool = sorted(set(range(1, a * b + 2)) - {d}, reverse=True)
    rho = b * (a * b + 2) // 2
    sigma = a * (a * b + 2) // 2
    grid = [[0] * b for _ in range(a)]
    row_sum = [0] * a
    col_sum = [0] * b
    used = set()

    def rec(pos: int) -> bool:
        if pos == a * b:
            return True
        i, j = divmod(pos, b)
        rest_row = b - j - 1
        rest_col = a - i - 1
        top = pool[0]
        for v in pool:
            if v in used:
                continue
            r = row_sum[i] + v
            c = col_sum[j] + v
            if rest_row == 0 and r != rho:
                continue
            if r > rho or r + rest_row * top < rho:
                continue
            if rest_col == 0 and c != sigma:
                continue
            if c > sigma or c + rest_col * top < sigma:
                continue
            used.add(v)
            grid[i][j] = v
            row_sum[i] = r
            col_sum[j] = c
            if rec(pos + 1):
                return True
            used.discard(v)
            row_sum[i] -= v
            col_sum[j] -= v
        return False

    return rec(0)


def qmr_violation(arr) -> str | None:
    """The first condition of QMR(a, b : ab/2+1) that ``arr`` breaks, worded
    as ``verify_qmr`` words it, or ``None``.  It reads ``arr.entries``, the
    rows written out, and checks them entry by entry: the entries sorted
    against ``1..ab+1`` minus the hole, then every row sum, then every
    column sum."""
    a, b = arr.rows, arr.cols
    if arr.kind != "qmr":
        return f"kind is {arr.kind!r}, not 'qmr'"
    if a % 2 == 0 or b % 2 == 1:
        return f"shape {a}x{b} needs odd rows and even columns"
    rows = arr.entries
    if len(rows) != a or any(len(row) != b for row in rows):
        return f"entries are not {a} rows of {b}"
    d = a * b // 2 + 1
    if arr.hole != d:
        return f"hole is {arr.hole}, must be {d}"
    if sorted(x for row in rows for x in row) != [x for x in range(1, a * b + 2) if x != d]:
        return f"entries are not 1..{a * b + 1} minus {d}"
    rho, sigma = b * (a * b + 2) // 2, a * (a * b + 2) // 2
    for i, row in enumerate(rows):
        if sum(row) != rho:
            return f"row {i} sums to {sum(row)}, expected {rho}"
    for j in range(b):
        column = sum(row[j] for row in rows)
        if column != sigma:
            return f"column {j} sums to {column}, expected {sigma}"
    return None


def equal_sum_partition(labels, sizes, forced=None):
    """Partition ``labels`` into blocks of the given sizes with equal sums.

    Returns the blocks in ``sizes`` order, each sorted, or ``None``.
    ``forced`` optionally pins a label to a block index.  The labels go in
    decreasing order, each into the blocks in index order (a pinned label
    only into its block), and the first partition of that depth-first
    order is the answer.  With the k smallest labels left, a block with c
    open slots still short of d needs d between the sums of the c smallest
    and the c largest of them; that is the only pruning.
    """
    labels = sorted(labels)
    sizes = list(sizes)
    if len(labels) != sum(sizes):
        raise ValueError(f"{len(labels)} labels cannot fill sizes {sizes}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    total = sum(labels)
    if total % len(sizes):
        return None
    forced = forced or {}
    low = list(accumulate(labels, initial=0))  # low[k]: sum of the k smallest
    open_slots = sizes[:]
    short = [total // len(sizes)] * len(sizes)
    chosen: list[list[int]] = [[] for _ in sizes]

    def rec(k: int) -> bool:
        # labels[:k] are left; every label fills a slot, so no c exceeds k
        if any(not low[c] <= d <= low[k] - low[k - c] for c, d in zip(open_slots, short)):
            return False
        if k == 0:
            return True
        x = labels[k - 1]
        for i in [forced[x]] if x in forced else range(len(sizes)):
            if open_slots[i] == 0:
                continue
            open_slots[i] -= 1
            short[i] -= x
            chosen[i].append(x)
            if rec(k - 1):
                return True
            chosen[i].pop()
            short[i] += x
            open_slots[i] += 1
        return False

    if not rec(len(labels)):
        return None
    return tuple(tuple(sorted(part)) for part in chosen)
