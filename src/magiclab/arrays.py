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

Both are explicit constructions.  A QMR is built in the hole-centred
coordinates ``entry - d``: with ``b = 2m``, place ``+-1..+-am`` so that
every row and column sums to zero.  For ``b = 2`` the rows are ``(x, -x)``
with the column signed greedily.  Otherwise three rows form a block of m
column pairs, and the other ``a - 3`` rows are ``c = (a - 3)/2`` bands,
each a row and its negation.  ``verify_qmr`` checks every array before it
is returned.

*Column pair.*  For ``d`` in a set ``D``, the columns
``A_d = (-d, -alpha_d, alpha_d + d)`` and
``B_d = (d, K - d - alpha_d, alpha_d - K)`` sum to zero.  Suppose the
pairs ``{alpha_d, K - alpha_d}`` partition a set ``H`` disjoint from
``D``, and so do the pairs ``{alpha_d + d, K - alpha_d - d}``.  Then the
entries are ``+-(D u H)``, each once: ``-d, d``, then ``-H``, then ``+H``.

*Rows.*  Row 0 holds ``-d`` and ``d``.  In rows 1 and 2, ``A_d`` beside
``B_d`` with rows 1, 2 swapped adds ``(-K, K)``; ``A_d`` swapped beside
``B_d`` adds ``(K, -K)``.  Alternating the two cancels an even number of
pairs.  For odd ``|D|``, the three smallest ``d1 < d2 < d3`` go first as
six columns: ``A_d1``; ``A_d2`` rotated up one row; ``A_d3`` rotated up
two rows; ``B_d1`` with rows 1, 2 swapped; ``B_d2`` with rows 0, 2
swapped; ``B_d3`` with rows 0, 1 swapped.  Every row then cancels for any
alpha and K; row 0, for one, is
``-d1 - alpha2 + (alpha3 + d3) + d1 + (alpha2 - K) + (K - d3 - alpha3)``.

*The alpha tables.*  The bands below need an even total.  The magnitudes
``3m+1..am`` sum to ``c m ((a + 3)m + 1)``, which is odd exactly when
``m`` is odd and ``a = 1 (mod 4)``.  Then the block *trades*: it takes
``3m + 1`` and leaves out a spare magnitude ``s`` (last column).

=================  =====  ===========================================  ================
case               K      alpha_d                                      D u H
no trade           4m+1   m + d; D = 1..m                              1..3m
trade, m = 4t+1    4m+3   m + 1 + d; D = 1..m+1 but 2t+1; except       1..3m+1 but 2t+1
                          alpha_t = m+5t+3, alpha_3t+1 = m+t+1,
                          alpha_m+1 = m+2t+2
trade, m = 4t+3    4m+2   3m+2-2d if d > h = (m+1)/2, else 3m+1-2d;    1..3m+1 but 2m+1
                          D = 1..m; except alpha_h/2 = m+1,
                          alpha_h = 3m+1-h
=================  =====  ===========================================  ================

Proof for the first two tables.  ``H = [h0+1, h0+2m]`` with
``K = 2 h0 + 2m + 1``, so ``{y, K - y}`` is ``h0 + {x, 2m + 1 - x}`` for
``y = h0 + x``.  With ``fold(x) = min(x, 2m + 1 - x)`` and
``alpha_d = h0 + x_d``, the condition is that ``fold(x_d)`` and
``fold(x_d + d)`` each run over ``1..m``.  No trade (``h0 = m``,
``x_d = d``): ``d`` folds to itself, and ``2d`` to the evens up to ``m``
and the odds ``2m + 1 - 2d`` above.  ``m = 4t+1`` (``h0 = m + 1``,
``x_d = d`` but ``x_t = 5t+2``, ``x_3t+1 = t``, ``x_m+1 = 2t+1``): the
plain ``d`` fold to ``1..m`` but ``t, 2t+1, 3t+1``, which the exceptions
fill.  Their ``2d`` fold to the evens up to ``4t`` but ``2t`` and the odds
up to ``4t - 1`` but ``2t + 1``; the exceptions' ``6t+2, 4t+1, 6t+3``
fold to ``2t+1, 4t+1, 2t``.

Proof for the third table.  Here ``min(y, K - y)`` must run over ``m+1..2m``
for ``y = alpha_d`` and for ``y = alpha_d + d``.  For ``alpha_d``: the
plain ``d > h`` give the odds ``m+2..2m-1``; the plain ``d < h`` give
``m + 1 + 2d``, the evens ``m+3..2m`` but ``m + 1 + h`` (at ``d = h/2``);
the exceptions give ``m + 1`` and ``m + 1 + h``.  For ``alpha_d + d``:
the plain ``d > h`` give ``m + d``, that is ``m+h+1..2m``; the plain
``d < h`` give ``m + 1 + d``, that is ``m+2..m+h`` but ``m + 1 + h/2``;
the exceptions give ``m + 1 + h/2`` and ``m + 1``.

*Bands.*  ``_deal_bands`` cuts the outer magnitudes (``3m+1..am``, or
``s`` and ``3m+2..am``) into c bands of b consecutive values.  A run of
2m consecutive values has the parity of m.  So for even m every band is
even.  For odd m there are an even number of odd bands: c is even without
a trade; with one, the first band ``{s} u 3m+2..5m`` is even (``s`` is
odd) and ``c - 1`` is even.  An odd band swaps its top value with the next
band's bottom value, which makes both even.  Each band then is a run
``R = r..r+2m-2`` plus one value ``e`` with
``r - (m-1)^2 <= e <= r + m^2 - 1``.  The m-subset sums of R fill the
interval between its least and largest m-sums, and these bounds on ``e``
put half the band total inside it.  So an equal split into halves of m
exists, and the exact ``bipartite.split_equal_sums`` finds it.  The band
row signs the halves + and -, followed by its negation.  Halves of equal
size stay equal when every value shifts by the same amount, so bands with
the same offsets from their least value share one split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .bipartite import split_equal_sums
from .errors import DomainError, InternalInconsistencyError, SizeLimitError

MAX_ARRAY_ENTRIES = 100_000  # largest Kotzig array or QMR the constructions build


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
    if a * b > MAX_ARRAY_ENTRIES:
        raise SizeLimitError(
            f"KA({a},{b}) exceeds the {MAX_ARRAY_ENTRIES}-entry construction cap"
        )
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
# QMR construction (hole-centred coordinates; the proofs are in the module
# docstring)


def _block_table(m: int, trade: bool) -> tuple[int, dict[int, int], int | None]:
    """``(K, {d: alpha_d}, spare)`` of the 3-row block, ``d`` increasing."""
    if not trade:
        return 4 * m + 1, {d: m + d for d in range(1, m + 1)}, None
    if m % 4 == 1:
        t = m // 4
        alpha = {d: m + 1 + d for d in range(1, m + 2) if d != 2 * t + 1}
        alpha.update({t: m + 5 * t + 3, 3 * t + 1: m + t + 1, m + 1: m + 2 * t + 2})
        return 4 * m + 3, alpha, 2 * t + 1
    h = (m + 1) // 2
    alpha = {d: 3 * m + 2 - 2 * d if d > h else 3 * m + 1 - 2 * d for d in range(1, m + 1)}
    alpha.update({h // 2: m + 1, h: 3 * m + 1 - h})
    return 4 * m + 2, alpha, 2 * m + 1


def _three_row_block(k_const: int, alpha: dict[int, int]) -> list[list[int]]:
    """The three zero-sum rows of the column pairs of one ``_block_table``."""
    pairs = [
        ((-d, -x, x + d), (d, k_const - d - x, x - k_const)) for d, x in alpha.items()
    ]
    cols = []
    if len(pairs) % 2:
        (a1, b1), (a2, b2), (a3, b3) = pairs[:3]
        cols += [
            a1, (a2[1], a2[2], a2[0]), (a3[2], a3[0], a3[1]),
            (b1[0], b1[2], b1[1]), (b2[2], b2[1], b2[0]), (b3[1], b3[0], b3[2]),
        ]
        pairs = pairs[3:]
    for k, (col_a, col_b) in enumerate(pairs):
        if k % 2:
            cols += [(col_a[0], col_a[2], col_a[1]), col_b]
        else:
            cols += [col_a, (col_b[0], col_b[2], col_b[1])]
    return [list(row) for row in zip(*cols)]


def _deal_bands(outer: list[int], b: int) -> list[list[int]]:
    """Cut the outer magnitudes into consecutive bands of b with even sums.

    A band with an odd sum swaps its top value for the next band's bottom
    value, which moves the odd parity on; the module docstring shows that
    it always cancels.
    """
    bands = [outer[i:i + b] for i in range(0, len(outer), b)]
    for low, high in zip(bands, bands[1:]):
        if sum(low) % 2:
            low[-1], high[0] = high[0], low[-1]
    return [sorted(band) for band in bands]


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


def _qmr_shifted_banded(a: int, b: int) -> list[list[int]]:
    """Hole-centred rows of QMR(a, b) for b >= 4: the 3-row block, then bands."""
    m = b // 2
    trade = m % 2 == 1 and a % 4 == 1
    k_const, alpha, spare = _block_table(m, trade)
    rows = _three_row_block(k_const, alpha)
    if trade:
        outer = [spare, *range(3 * m + 2, a * m + 1)]
    else:
        outer = list(range(3 * m + 1, a * m + 1))
    signs = {}  # band shape -> which entries are positive
    for band in _deal_bands(outer, b):
        shape = tuple(v - band[0] for v in band)
        if shape not in signs:
            halves = split_equal_sums(band, (m, m))
            if halves is None:
                raise InternalInconsistencyError(f"QMR({a},{b}): a band has no equal split")
            plus = set(halves[0])
            signs[shape] = [v in plus for v in band]
        top = [v if positive else -v for v, positive in zip(band, signs[shape])]
        rows.append(top)
        rows.append([-v for v in top])
    return rows


def qmr(a: int, b: int) -> MagicArray | None:
    """QMR(a, b : ab/2+1), or ``None`` for the proven non-existence cases."""
    if a < 1 or a % 2 == 0 or b < 2 or b % 2 == 1:
        raise DomainError(f"quasimagic rectangles need odd a >= 1, even b >= 2, got ({a}, {b})")
    if a * b > MAX_ARRAY_ENTRIES:
        raise SizeLimitError(
            f"QMR({a},{b}) exceeds the {MAX_ARRAY_ENTRIES}-entry construction cap"
        )
    if a == 1:
        return None  # columns are single distinct entries, never constant
    if b == 2 and a % 4 == 1:
        return None
    shifted = _mirror_columns(a) if b == 2 else _qmr_shifted_banded(a, b)
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
