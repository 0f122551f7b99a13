"""Kotzig arrays and quasimagic rectangles, constructed and certified.

A Kotzig array KA(a, b) has every row a permutation of ``0..b-1`` and every
column summing to ``a(b-1)/2``; it exists for even ``a`` and any ``b``, and
for odd ``a >= 3`` exactly when ``b`` is odd (single-row arrays only exist
for ``b = 1``).  It is built from pairs of rows ``0..b-1`` and its reverse,
whose columns sum to ``b - 1``; for odd ``a`` (so odd ``b``) three rows go
first: ``0..b-1``, its rotation ``h..b-1, 0..h-1`` with ``h = (b+1)/2``, and
the odd values then the even values, each descending.  Column ``j < b - h``
sums to ``j + (j + h) + (b - 2 - 2j)`` and column ``j >= b - h`` to
``j + (j + h - b) + (2b - 2 - 2j)``, both ``3(b-1)/2``.

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
each a row and its negation.  The entries are written ``d`` above these
values straight into row tuples, the block's three rows whole and the
bands one column progression at a time (below).  Every array passes its
verifier before it is returned.  ``verify_qmr`` works in whole-array
passes: the ``ab`` entries are exactly ``{1..ab+1} minus {d}`` iff their
set has ``ab`` members (no two are equal), its least is at least 1, its
largest at most ``ab + 1``, and it misses ``d``, which one set and two
scans decide in O(ab) without a sort; then the row sums and the column
sums of the transpose.  ``verify_kotzig`` sorts and sums each distinct
row once, weighted by its count (its docstring shows that this decides
the same conditions).

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
row signs the halves + and -, followed by its negation.

*Shape classes.*  Bands with the same offsets from their least value are
translates, and halves of equal size stay equal when every value shifts by
the same amount, so translates share one split.  The bands fall into at
most three classes of translates by a multiple of b:

* No trade, even m.  No band swaps, so band i is the run from
  ``3m+1 + ib``: one class, translates by b.
* No trade, odd m.  Every run has an odd sum, so bands 2j and 2j+1 swap:
  with ``r = 3m+1 + 2jb`` they are ``r..r+2m-2, r+2m`` and
  ``r+2m-1, r+2m+1..r+4m-1``.  Two classes, translates by 2b.
* A trade (m odd, either table).  The first band ``{s} u 3m+2..5m`` has
  an even sum and swaps with none: a class of its own.  The rest are dealt
  from the run starting at ``5m+1`` and pair up as without a trade: two
  classes, translates by 2b.

So only the first band of each class is dealt and split.  With ``p`` the
period (1 or 2) and ``s_j v_j`` the signed value in column j of a class's
first band, the copies ``i = 0, 1, ...`` put ``d + s_j (v_j + i p b)`` in
every ``2p``-th row from the class's first band row and the negations
below them.  So column j of a class's band rows is the arithmetic
progression ``d + s_j v_j, d + s_j (v_j + p b), ...`` and that of their
negations the mirror progression ``d - s_j v_j, d - s_j (v_j + p b), ...``.
A class with many copies (a tall array) is written as one ``range`` per
column, which ``zip`` turns into rows; one with few copies (a short
array, where b ranges cost more than the rows) a row at a time, each row
the previous one plus ``+-p b`` in every column.  Either way the rows go
into every ``2p``-th row by one extended-slice assignment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, mul

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


@dataclass(frozen=True)
class ArrayCheck:
    valid: bool
    violation: str | None = None


def _line_sums(arr: MagicArray) -> tuple[int, int]:
    """``(rho, sigma)``: the row and column sum of every array of ``arr``'s
    kind and shape that passes its verifier."""
    a, b = arr.rows, arr.cols
    if arr.kind == "qmr":
        return b * (a * b + 2) // 2, a * (a * b + 2) // 2
    return b * (b - 1) // 2, a * (b - 1) // 2


# ---------------------------------------------------------------------------
# Verifiers


def _first_miss(sums, target: int) -> int | None:
    """The index of the first of ``sums`` other than ``target``, or ``None``."""
    if sums.count(target) == len(sums):
        return None
    return next(i for i, s in enumerate(sums) if s != target)


def verify_kotzig(arr: MagicArray) -> bool:
    """Whether every row of ``arr`` is a permutation of ``0..b-1`` and every
    column sums to ``a(b-1)/2``.

    Both conditions depend only on the multiset of rows: the first holds of
    each row on its own, and column j adds up ``row[j]`` over the rows in
    any order, which is the sum over the distinct rows of ``count *
    row[j]``.  So each distinct row is sorted and summed once, weighted by
    the number of times it appears; KA(a, b) from ``kotzig_array`` has at
    most four distinct rows.
    """
    a, b = arr.rows, arr.cols
    if arr.kind != "kotzig" or len(arr.entries) != a:
        return False
    counts = Counter(arr.entries)
    if list(map(sorted, counts)).count(list(range(b))) != len(counts):
        return False
    weighted = [row if n == 1 else map(mul, row, repeat(n)) for row, n in counts.items()]
    col_sums = list(map(sum, zip(*weighted)))
    # the rows fix the total at ab(b-1)/2, so b equal column sums make a(b-1)
    # even and the floor below exact
    return col_sums.count(a * (b - 1) // 2) == b


def _fills_but_hole(rows, top: int, hole: int) -> bool:
    """Whether the ``top - 1`` entries of ``rows`` are ``1..top`` minus ``hole``:
    they are iff they are distinct (a set of ``top - 1``), lie in ``1..top``
    and miss ``hole``."""
    entries = set(chain.from_iterable(rows))
    return (len(entries) == top - 1 and hole not in entries
            and min(entries) >= 1 and max(entries) <= top)


def verify_qmr(arr: MagicArray) -> ArrayCheck:
    a, b = arr.rows, arr.cols
    if arr.kind != "qmr":
        return ArrayCheck(False, f"kind is {arr.kind!r}, not 'qmr'")
    if a % 2 == 0 or b % 2 == 1:
        return ArrayCheck(False, f"shape {a}x{b} needs odd rows and even columns")
    if len(arr.entries) != a or set(map(len, arr.entries)) != {b}:
        return ArrayCheck(False, f"entries are not {a} rows of {b}")
    d = a * b // 2 + 1
    if arr.hole != d:
        return ArrayCheck(False, f"hole is {arr.hole}, must be {d}")
    if not _fills_but_hole(arr.entries, a * b + 1, d):
        return ArrayCheck(False, f"entries are not 1..{a * b + 1} minus {d}")
    rho, sigma = _line_sums(arr)
    row_sums = list(map(sum, arr.entries))
    if (i := _first_miss(row_sums, rho)) is not None:
        return ArrayCheck(False, f"row {i} sums to {row_sums[i]}, expected {rho}")
    col_sums = list(map(sum, zip(*arr.entries)))
    if (j := _first_miss(col_sums, sigma)) is not None:
        return ArrayCheck(False, f"column {j} sums to {col_sums[j]}, expected {sigma}")
    return ArrayCheck(True)


# ---------------------------------------------------------------------------
# Kotzig construction


def kotzig_array(a: int, b: int) -> MagicArray | None:
    """KA(a, b), or ``None`` when none exists."""
    if a < 1 or b < 1:
        raise DomainError(f"need a, b >= 1, got ({a}, {b})")
    if a * b > MAX_ARRAY_ENTRIES:
        raise SizeLimitError(
            f"KA({a},{b}) exceeds the {MAX_ARRAY_ENTRIES}-entry construction cap"
        )
    if a == 1 and b > 1:
        return None  # one row cannot have constant distinct column sums
    if a % 2 == 1 and b % 2 == 0:
        return None
    up, half = tuple(range(b)), (b + 1) // 2
    if a == 1:
        rows = [up]
    elif a % 2 == 1:  # the odd block of the module docstring
        rows = [up, (*range(half, b), *range(half)), (*range(b - 2, 0, -2), *range(b - 1, -1, -2))]
    else:
        rows = []
    rows += [up, up[::-1]] * ((a - len(rows)) // 2)  # one row object per direction
    arr = MagicArray(rows=a, cols=b, entries=tuple(rows), kind="kotzig")
    if not verify_kotzig(arr):
        raise InternalInconsistencyError(f"KA({a},{b}) construction failed its verifier")
    return arr


# ---------------------------------------------------------------------------
# QMR construction (the proofs are in the module docstring)


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


def _weave(*parts: list[int]) -> list[int]:
    """One list holding ``parts[i]`` at the positions ``i (mod len(parts))``."""
    out = [0] * sum(map(len, parts))
    for i, part in enumerate(parts):
        out[i::len(parts)] = part
    return out


def _three_row_block(k_const: int, alpha: dict[int, int], hole: int) -> list[tuple[int, ...]]:
    """The three rows of the block of one ``_block_table``, each entry
    ``hole`` above its hole-centred value.

    For odd ``|D|`` the six columns of the three smallest ``d`` go first.
    The other pairs alternate ``A_d`` beside ``B_d`` with rows 1, 2 swapped
    and ``A_d`` swapped beside ``B_d``, so each row is woven whole from
    per-pair values: row 0 is ``-d, d``; row 1 takes ``-alpha, alpha - K``
    and ``alpha + d, K - d - alpha`` in turn, and row 2 the other way round.
    """
    ds, xs = list(alpha), list(alpha.values())
    head = [(), (), ()]
    if len(ds) % 2:
        (a1, b1), (a2, b2), (a3, b3) = [
            ((hole - d, hole - x, hole + x + d),
             (hole + d, hole + k_const - d - x, hole + x - k_const))
            for d, x in zip(ds[:3], xs[:3])
        ]
        head = list(zip(
            a1, (a2[1], a2[2], a2[0]), (a3[2], a3[0], a3[1]),
            (b1[0], b1[2], b1[1]), (b2[2], b2[1], b2[0]), (b3[1], b3[0], b3[2]),
        ))
        ds, xs = ds[3:], xs[3:]
    minus_alpha = [hole - x for x in xs]
    alpha_minus_k = [hole + x - k_const for x in xs]
    alpha_plus_d = [hole + x + d for d, x in zip(ds, xs)]
    k_minus = [hole + k_const - d - x for d, x in zip(ds, xs)]
    rows = (
        _weave([hole - d for d in ds], [hole + d for d in ds]),
        _weave(minus_alpha[::2], alpha_minus_k[::2], alpha_plus_d[1::2], k_minus[1::2]),
        _weave(alpha_plus_d[::2], k_minus[::2], minus_alpha[1::2], alpha_minus_k[1::2]),
    )
    return [(*first, *rest) for first, rest in zip(head, rows)]


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


def _mirror_columns(a: int, hole: int) -> list[tuple[int, int]]:
    """The rows of QMR(a, 2): two columns, each the other reflected in the
    hole, the first signed greedily."""
    t, rows = a * (a + 1) // 4, []
    for v in range(a, 0, -1):
        if v <= t:
            t -= v
        else:
            v = -v
        rows.append((hole + v, hole - v))
    return rows


# Band classes with this many copies or more are written a column at a
# time.  Setting up one range per column costs about as much as 8 to 16 rows
# of map(add, ...), and beyond that the ranges, transposed by zip, cost a
# third to a half as much per entry (Python 3.11).
_COLUMN_COPIES = 16


def _translates(first: tuple[int, ...], shift: list[int], copies: int) -> Iterable[tuple[int, ...]]:
    """The rows ``first + i * shift`` for ``i < copies``.

    Column j is the progression ``first[j], first[j] + shift[j], ...``.
    With ``_COLUMN_COPIES`` copies or more it is one ``range``, and ``zip``
    turns the ranges into the rows; with fewer each row is the previous
    one plus ``shift``.
    """
    if copies >= _COLUMN_COPIES:
        return zip(*[range(x, x + copies * s, s) for x, s in zip(first, shift)])
    rows = [first]
    for _ in range(copies - 1):
        rows.append(tuple(map(add, rows[-1], shift)))
    return rows


def _qmr_shifted_banded(a: int, b: int) -> list[tuple[int, ...]]:
    """The rows of QMR(a, b) for b >= 4: the 3-row block, then the bands,
    one shape class at a time (module docstring)."""
    m, hole, bands = b // 2, a * b // 2 + 1, (a - 3) // 2
    trade = m % 2 == 1 and a % 4 == 1
    k_const, alpha, spare = _block_table(m, trade)
    rows = [*_three_row_block(k_const, alpha, hole), *[()] * (a - 3)]
    # only the first band of each shape class is dealt; the rest are translates
    head, period = int(trade), 2 if m % 2 else 1
    dealt = (head + period) * b
    if trade:
        outer = [spare, *range(3 * m + 2, a * m + 1)[:dealt - 1]]
    else:
        outer = list(range(3 * m + 1, a * m + 1)[:dealt])
    for k, band in enumerate(_deal_bands(outer, b)):
        halves = split_equal_sums(band, (m, m))
        if halves is None:
            raise InternalInconsistencyError(f"QMR({a},{b}): a band has no equal split")
        plus = set(halves[0])
        top = tuple(hole + v if v in plus else hole - v for v in band)
        shift = [period * b if x > hole else -period * b for x in top]
        # copy i of the band is the row pair 3 + 2k + 2 * period * i
        copies = 1 if k < head else (bands - head) // period
        first, stride = 3 + 2 * k, 2 * period
        last = first + copies * stride
        rows[first:last:stride] = _translates(top, shift, copies)
        mirror = tuple([2 * hole - x for x in top])
        rows[first + 1:last:stride] = _translates(mirror, [-s for s in shift], copies)
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
    d = a * b // 2 + 1
    rows = _mirror_columns(a, d) if b == 2 else _qmr_shifted_banded(a, b)
    arr = MagicArray(rows=a, cols=b, entries=tuple(rows), kind="qmr", hole=d)
    check = verify_qmr(arr)
    if not check.valid:
        raise InternalInconsistencyError(f"QMR({a},{b}): {check.violation}")
    return arr
