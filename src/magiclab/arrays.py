"""Kotzig arrays and quasimagic rectangles, constructed and certified.

A Kotzig array KA(a, b) has every row a permutation of ``0..b-1`` and every
column summing to ``a(b-1)/2``; it exists for even ``a`` and any ``b``, and
for odd ``a >= 3`` exactly when ``b`` is odd (single-row arrays only exist
for ``b = 1``).

A quasimagic rectangle QMR(a, b : d) is an ``a x b`` array over
``{1..ab+1} minus {d}`` with constant row sums ``rho = b(ab+2)/2`` and
constant column sums ``sigma = a(ab+2)/2``; here always ``d = ab/2 + 1``.
For odd ``a >= 3`` and even ``b`` it exists except when ``b = 2`` and
``a = 1 (mod 4)``.

Construction works in the hole-centred coordinates ``entry - d``, where the
problem becomes: arrange ``+-1..+-ab/2`` so all rows and columns sum to zero.
Entries pair off as ``{x, ab+2-x}``; each column takes ``(a-3)/2`` such pairs
plus one zero-sum triple built from the middle magnitudes.  Signs of the
pair rows balance via an exact subset-sum split, and the triple rows by a
small arrangement search.  Every array is certified by its verifier before
being returned; the searches are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from random import Random

from .errors import (
    ConstructionError,
    DomainError,
    InternalInconsistencyError,
    SizeLimitError,
)

_ARRANGE_NODE_CAP = 400_000
_GLOBAL_NODE_CAP = 4_000_000


@dataclass(frozen=True)
class MagicArray:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    kind: str  # "kotzig" | "qmr"
    hole: int | None = None

    def row_sums(self) -> list[int]:
        return [sum(row) for row in self.entries]

    def col_sums(self) -> list[int]:
        return [sum(row[j] for row in self.entries) for j in range(self.cols)]

    @property
    def rho(self) -> int | None:
        sums = set(self.row_sums())
        return sums.pop() if len(sums) == 1 else None

    @property
    def sigma(self) -> int | None:
        sums = set(self.col_sums())
        return sums.pop() if len(sums) == 1 else None

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.entries)


@dataclass(frozen=True)
class ArrayCheck:
    valid: bool
    violation: str | None = None


# ---------------------------------------------------------------------------
# Verifiers


def verify_kotzig(arr: MagicArray) -> bool:
    a, b = arr.rows, arr.cols
    if arr.kind != "kotzig" or len(arr.entries) != a:
        return False
    expected = tuple(range(b))
    for row in arr.entries:
        if tuple(sorted(row)) != expected:
            return False
    # compare doubled sums so odd a(b-1) cannot sneak through
    return all(2 * s == a * (b - 1) for s in arr.col_sums())


def verify_qmr(arr: MagicArray) -> ArrayCheck:
    a, b = arr.rows, arr.cols
    if arr.kind != "qmr":
        return ArrayCheck(False, f"kind is {arr.kind!r}, not 'qmr'")
    if a % 2 == 0 or b % 2 == 1:
        return ArrayCheck(False, f"shape {a}x{b} needs odd rows and even columns")
    d = a * b // 2 + 1
    if arr.hole != d:
        return ArrayCheck(False, f"hole is {arr.hole}, must be {d}")
    flat = [x for row in arr.entries for x in row]
    expected = sorted(set(range(1, a * b + 2)) - {d})
    if sorted(flat) != expected:
        return ArrayCheck(False, f"entries are not 1..{a * b + 1} minus {d}")
    rho = b * (a * b + 2) // 2
    sigma = a * (a * b + 2) // 2
    for i, s in enumerate(arr.row_sums()):
        if s != rho:
            return ArrayCheck(False, f"row {i} sums to {s}, expected {rho}")
    for j, s in enumerate(arr.col_sums()):
        if s != sigma:
            return ArrayCheck(False, f"column {j} sums to {s}, expected {sigma}")
    return ArrayCheck(True)


# ---------------------------------------------------------------------------
# Kotzig construction


def _kotzig_odd_block(b: int) -> list[list[int]]:
    # three rows: identity, a cyclic shift, and the column complement
    shift = (b + 1) // 2
    r1 = list(range(b))
    r2 = [(j + shift) % b for j in range(b)]
    c = 3 * (b - 1) // 2
    r3 = [c - r1[j] - r2[j] for j in range(b)]
    return [r1, r2, r3]


def kotzig_array(a: int, b: int) -> MagicArray | None:
    """KA(a, b), or ``None`` when none exists."""
    if a < 1 or b < 1:
        raise DomainError(f"need a, b >= 1, got ({a}, {b})")
    if a == 1:
        if b > 1:
            return None  # one row cannot have constant distinct column sums
        rows = [[0]]
    elif a % 2 == 1 and b % 2 == 0:
        return None
    else:
        rows = []
        if a % 2 == 1:
            rows.extend(_kotzig_odd_block(b))
        for _ in range((a - len(rows)) // 2):
            rows.append(list(range(b)))
            rows.append(list(range(b - 1, -1, -1)))
    arr = MagicArray(rows=a, cols=b, entries=tuple(tuple(r) for r in rows), kind="kotzig")
    if not verify_kotzig(arr):
        raise InternalInconsistencyError(f"KA({a},{b}) construction failed its verifier")
    return arr


# ---------------------------------------------------------------------------
# Zero-sum machinery (hole-centred QMR coordinates)


def _zero_sum_triple_partition(magnitudes, attempts: int = 40) -> list[tuple[int, int, int]] | None:
    """Partition {+-x : x in magnitudes} into zero-sum triples.

    Depth-first search on the largest remaining magnitude; stuck runs are
    retried with the partner order reshuffled by a fixed seed sequence, so
    the output is deterministic.
    """
    magnitudes = list(magnitudes)
    if (2 * len(magnitudes)) % 3:
        raise ValueError(f"need 2*{len(magnitudes)} divisible by 3")
    for attempt in range(attempts):
        rng = Random(attempt) if attempt else None
        result = _triple_partition_once(magnitudes, rng, node_cap=30_000)
        if result is not None:
            return result
    return None


def _triple_partition_once(magnitudes, rng, node_cap):
    remaining = set(magnitudes) | {-x for x in magnitudes}
    triples: list[tuple[int, int, int]] = []
    nodes = 0

    def rec() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return False
        if not remaining:
            return True
        z = max(remaining, key=lambda v: (abs(v), v))
        remaining.discard(z)
        # partners x < y with x + y = -z
        candidates = sorted(v for v in remaining if 2 * v < -z)
        if rng is not None:
            rng.shuffle(candidates)
        for x in candidates:
            y = -z - x
            if y in remaining and y != x:
                remaining.discard(x)
                remaining.discard(y)
                triples.append((z, x, y))
                if rec():
                    return True
                triples.pop()
                remaining.add(x)
                remaining.add(y)
        remaining.add(z)
        return False

    if rec():
        return triples
    return None


def _arrange_zero_rows(cols: list[list[int]], node_cap: int = _ARRANGE_NODE_CAP) -> list[list[int]] | None:
    """Order each column's entries so every row sums to zero.

    Columns all sum to zero already; the search permutes entries within
    columns, branching on the most balanced partial row sums first.  Columns
    are processed heaviest first, and the first column is pinned to one
    canonical order (rows start interchangeable, so this loses nothing).
    """
    height = len(cols[0])
    order = sorted(range(len(cols)), key=lambda j: (-max(abs(v) for v in cols[j]), j))
    cols = [cols[j] for j in order]
    width = len(cols)
    suffix_max = [0] * (width + 1)
    for j in range(width - 1, -1, -1):
        suffix_max[j] = suffix_max[j + 1] + max(abs(v) for v in cols[j])
    grid: list[list[int] | None] = [None] * width
    partial = [0] * height
    nodes = 0

    def rec(j: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return False
        if j == width:
            return all(p == 0 for p in partial)
        if any(abs(p) > suffix_max[j] for p in partial):
            return False
        if j == 0:
            choices = [tuple(sorted(cols[0]))]
        else:
            scored = []
            for perm in set(permutations(cols[j])):
                score = sum((p + v) * (p + v) for p, v in zip(partial, perm))
                scored.append((score, perm))
            choices = [perm for _, perm in sorted(scored)]
        for perm in choices:
            grid[j] = list(perm)
            for i in range(height):
                partial[i] += perm[i]
            if rec(j + 1):
                return True
            for i in range(height):
                partial[i] -= perm[i]
            grid[j] = None
        return False

    if not rec(0):
        return None
    undo = [0] * width
    for slot, j in enumerate(order):
        undo[j] = slot
    return [[grid[undo[j]][i] for j in range(width)] for i in range(height)]


def _signed_zero_split(values: list[int]) -> set[int] | None:
    """Subset of ``values`` summing to half the total (exact bitmask DP)."""
    total = sum(values)
    if total % 2:
        return None
    target = total // 2
    masks = [1]
    for v in values:
        masks.append(masks[-1] | (masks[-1] << v))
    if not (masks[-1] >> target) & 1:
        return None
    chosen = set()
    t = target
    for i in range(len(values) - 1, -1, -1):
        v = values[i]
        if t >= v and (masks[i] >> (t - v)) & 1:
            chosen.add(values[i])
            t -= v
    return chosen


def _deal_bands(outer: list[int], band_count: int, b: int) -> list[list[int]] | None:
    """Split the detached pair magnitudes into bands of b with even sums.

    Consecutive blocks keep subset sums dense; when adjacent blocks both
    have odd totals (the b = 2 mod 4 shape) a boundary swap fixes the pair.
    """
    if band_count == 0:
        return [] if not outer else None
    if len(outer) != band_count * b:
        return None
    blocks = [outer[i * b:(i + 1) * b] for i in range(band_count)]
    # an odd block passes its parity right through a boundary swap of two
    # consecutive values; with an even grand total everything cancels
    for i in range(band_count - 1):
        if sum(blocks[i]) % 2:
            blocks[i][-1], blocks[i + 1][0] = blocks[i + 1][0], blocks[i][-1]
    if any(sum(block) % 2 for block in blocks):
        return None
    return [sorted(block) for block in blocks]


def _mirror_columns(a: int) -> list[list[int]]:
    # two columns, each the negation of the other; rows are (x, -x)
    total = a * (a + 1) // 2
    t = total // 2
    positives = set()
    for v in range(a, 0, -1):
        if v <= t:
            positives.add(v)
            t -= v
    col = [v if v in positives else -v for v in range(a, 0, -1)]
    return [[v, -v] for v in col]


def _qmr_shifted_banded(a: int, b: int) -> list[list[int]] | None:
    k = 3 * b // 2
    m = a * b // 2
    tri_set = list(range(1, k + 1))
    outer = list(range(k + 1, m + 1))
    if sum(outer) % 2:
        # trade magnitude k for k+1 so the pair bands can all balance
        # (happens exactly for a = 1 mod 4, b = 2 mod 4)
        tri_set = list(range(1, k)) + [k + 1]
        outer = [k] + list(range(k + 2, m + 1))
    triples = _zero_sum_triple_partition(tri_set)
    if triples is None:
        return None
    bands = _deal_bands(outer, (a - 3) // 2, b)
    if bands is None:
        return None
    block = _arrange_zero_rows([list(t) for t in triples])
    if block is None:
        return None
    rows = list(block)
    for band in bands:
        chosen = _signed_zero_split(band)
        if chosen is None:
            return None
        top = [v if v in chosen else -v for v in band]
        rows.append(top)
        rows.append([-v for v in top])
    return rows


def _qmr_shifted_global(a: int, b: int) -> list[list[int]] | None:
    """Direct search over hole-centred entries; last-resort for small sizes."""
    m = a * b // 2
    values = sorted(
        set(range(1, m + 1)) | set(range(-m, 0)), key=lambda v: (-abs(v), -v)
    )
    grid = [[0] * b for _ in range(a)]
    col_sum = [0] * b
    row_sum = [0] * a
    col_fill = [0] * b
    row_fill = [0] * a
    used = set()
    nodes = 0
    order = [(i, j) for j in range(b) for i in range(a)]

    def rec(pos: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _GLOBAL_NODE_CAP:
            return False
        if pos == len(values):
            return True
        i, j = order[pos]
        rest_col = a - col_fill[j] - 1
        rest_row = b - row_fill[i] - 1
        for v in values:
            if v in used:
                continue
            if rest_col == 0 and col_sum[j] + v != 0:
                continue
            if rest_row == 0 and row_sum[i] + v != 0:
                continue
            if abs(col_sum[j] + v) > rest_col * m or abs(row_sum[i] + v) > rest_row * m:
                continue
            used.add(v)
            grid[i][j] = v
            col_sum[j] += v
            row_sum[i] += v
            col_fill[j] += 1
            row_fill[i] += 1
            if rec(pos + 1):
                return True
            used.discard(v)
            col_sum[j] -= v
            row_sum[i] -= v
            col_fill[j] -= 1
            row_fill[i] -= 1
        return False

    if rec(0):
        return grid
    return None


def qmr(a: int, b: int) -> MagicArray | None:
    """QMR(a, b : ab/2+1), or ``None`` for the proven non-existence cases."""
    if a < 1 or a % 2 == 0 or b < 2 or b % 2 == 1:
        raise DomainError(f"quasimagic rectangles need odd a >= 1, even b >= 2, got ({a}, {b})")
    if a * b > 100_000:
        raise SizeLimitError(f"QMR({a},{b}) exceeds the {100_000}-entry construction cap")
    if a == 1:
        return None  # columns are single distinct entries, never constant
    if b == 2 and a % 4 == 1:
        return None
    if b == 2:
        shifted = _mirror_columns(a)
    else:
        try:
            shifted = _qmr_shifted_banded(a, b)
            if shifted is None:
                shifted = _qmr_shifted_global(a, b)
        except RecursionError:
            raise ConstructionError(f"QMR({a},{b}) search ran past the recursion limit") from None
    if shifted is None:
        raise ConstructionError(f"QMR({a},{b}) search exhausted its node budget")
    d = a * b // 2 + 1
    entries = tuple(tuple(v + d for v in row) for row in shifted)
    arr = MagicArray(rows=a, cols=b, entries=entries, kind="qmr", hole=d)
    check = verify_qmr(arr)
    if not check.valid:
        raise InternalInconsistencyError(f"QMR({a},{b}): {check.violation}")
    return arr


# ---------------------------------------------------------------------------
# Exhaustive existence checks (test support, sound pruning only)


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
