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
each a row and its negation.  The entries are ``d`` above these values.
Every array passes its verifier before it is returned.
``verify_kotzig`` sorts and sums each distinct row once, weighted by its
count (its docstring shows that this decides the same conditions).

*Row progressions.*  A QMR is held as explicit rows ``0..n-1`` and row
progressions ``(first, stride, copies, row, shift)``: rows
``first + i * stride`` hold ``row + i * shift`` for ``i < copies``, with
at least two copies.  The block, QMR(a, 2) and every band class with fewer
than ``_COLUMN_COPIES`` copies are explicit rows; a class with more is one
progression and its mirror another (*Shape classes*, below).
``MagicArray.written`` writes the rows out in row order, one ``range`` per
column of a progression turned into rows by ``zip``; the CSV printer
formats each row as it is written, and ``entries`` is the written-out
rows, on demand.

``verify_qmr`` decides on the progressions, never on written-out rows,
in O(progressions * b + explicit entries) Python steps (the bytearray
slices below run in C):

* *Tiling.*  Every row and every shift has b entries; every progression's
  positions lie in ``n..a-1`` (the first ``>= n``, the stride ``>= 1``,
  ``2 <= copies`` and the last ``< a``); one bytearray slice per
  progression marks its positions; there are ``a - n`` of them, and every
  position in ``n..a-1`` is marked.  So no position is marked twice, and
  the progressions with the explicit rows write out an ``a x b`` array.
* *Entries.*  The hole is marked in a bytearray over ``0..ab+1``.  Column
  j of a progression is the arithmetic progression
  ``x, x + s, ..., x + (copies-1) s`` with ``x = row[j]`` and
  ``s = shift[j]``.  With ``s != 0`` its values are distinct, its least
  and largest are its two ends, which must lie in ``1..ab+1``, and its
  values are exactly the slice ``lo..hi`` by ``|s|`` of the bytearray.
  That slice must be all zero before it is marked, so the column misses
  the hole and every column marked before it.  The entries of the
  explicit rows are one set: as many members as entries, none below 1 or
  above ``ab + 1``, not the hole, and none marked.  So all ``ab`` entries
  are distinct members of ``{1..ab+1} minus {d}``, which has ``ab``
  members: they are exactly it.
* *Rows.*  Row ``first + i * stride`` sums to ``sum(row) + i * sum(shift)``,
  so every row of a progression sums to ``rho`` iff ``sum(row) = rho`` and
  ``sum(shift) = 0``; the least failing row is the first, or else the
  second.
* *Columns.*  Column j of a progression adds
  ``sum_i (x + i s) = copies * x + copies(copies-1)/2 * s``; with the
  explicit rows these give every column sum, which must be ``sigma``.

On explicit rows the verifier makes the checks it always made, in the
same order, so an array given as explicit rows gets the same verdict and
the same violation message.

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
below them.  So a class's band rows are the progression with stride
``2p``, row ``d + s_j v_j`` and shift ``s_j p b``, and their negations the
mirror progression one row below, row ``d - s_j v_j`` and shift
``-s_j p b``.  Every class but a trade's first band has the same number of
copies, ``(c - head) / p``, so either all of them are progressions (a tall
array), which then hold every row after the block and that first band,
or none is (a short array, where b ranges cost more than the rows).  A
short array's classes are written a row at a time, each row the previous
one plus ``+-p b`` in every column, into every ``2p``-th row by one
extended-slice assignment.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, repeat
from operator import add, mul
from typing import NamedTuple

from .bipartite import split_equal_sums
from .errors import DomainError, InternalInconsistencyError, SizeLimitError

MAX_ARRAY_ENTRIES = 100_000  # largest Kotzig array or QMR the constructions build


class Progression(NamedTuple):
    """Rows ``first + i * stride`` hold ``row + i * shift``, for ``i < copies``;
    ``copies`` is at least 2."""

    first: int
    stride: int
    copies: int
    row: tuple[int, ...]
    shift: tuple[int, ...]


def _written(line: Progression) -> zip:
    """The rows of one progression: column j is one ``range``, and ``zip``
    turns the ranges into rows."""
    _, _, copies, row, shift = line
    stops = map(add, row, map(mul, shift, repeat(copies)))
    return zip(*map(range, row, stops, shift))


class MagicArray:
    """An ``a x b`` Kotzig array or QMR: explicit rows, then row progressions.

    ``MagicArray(rows, cols, entries, kind, hole)`` takes explicit rows,
    kept as the row tuples given; they are rows ``0..len(entries)-1``.
    ``progressions`` holds the other rows.  ``entries`` writes every row
    out, in row order, on each read.
    """

    __slots__ = ("rows", "cols", "kind", "hole", "explicit", "progressions")

    def __init__(self, rows: int, cols: int, entries, kind: str, hole: int | None = None,
                 progressions=()):
        self.rows, self.cols, self.kind, self.hole = rows, cols, kind, hole
        self.explicit = tuple(entries)  # as given: Kotzig arrays share row objects
        self.progressions: tuple[Progression, ...] = tuple(progressions)

    def written(self, form=None) -> list:
        """The rows in row order, each passed through ``form`` if given."""
        out = list(self.explicit if form is None else map(form, self.explicit))
        if lines := self.progressions:
            out += [None] * sum([line.copies for line in lines])
            for line in lines:
                rows = _written(line) if form is None else map(form, _written(line))
                out[line.first:line.first + line.copies * line.stride:line.stride] = rows
        return out

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.written())


class ArrayCheck(NamedTuple):
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
    entries = arr.entries
    if arr.kind != "kotzig" or len(entries) != a:
        return False
    counts = Counter(entries)
    if list(map(sorted, counts)).count(list(range(b))) != len(counts):
        return False
    weighted = [row if n == 1 else map(mul, row, repeat(n)) for row, n in counts.items()]
    col_sums = list(map(sum, zip(*weighted)))
    # the rows fix the total at ab(b-1)/2, so b equal column sums make a(b-1)
    # even and the floor below exact
    return col_sums.count(a * (b - 1) // 2) == b


def _tiles(rows, lines, a: int, b: int) -> bool:
    """Whether the explicit ``rows`` and the progressions ``lines`` tile
    ``0..a-1``, each row and each shift ``b`` long and each progression of
    at least two copies.  The ``n`` explicit rows are ``0..n-1``; every
    progression's positions lie in ``n..a-1``, one slice per progression
    marks them all, and there are ``a - n`` of them, so none is marked
    twice."""
    n = len(rows)
    if set(map(len, rows)) - {b}:
        return False
    if not lines:
        return n == a
    marks = bytearray(a)
    for first, stride, copies, row, shift in lines:
        if len(row) != b or len(shift) != b:
            return False
        if first < n or stride < 1 or copies < 2 or first + (copies - 1) * stride >= a:
            return False
        marks[first:first + copies * stride:stride] = bytes([1]) * copies
    return n + sum([line.copies for line in lines]) == a and 0 not in marks[n:]


def _fills_but_hole(rows, lines, top: int, hole: int) -> bool:
    """Whether the entries of the explicit ``rows`` and the progressions
    ``lines`` are distinct, lie in ``1..top`` and miss ``hole``; tiled into
    ``top - 1`` entries they are then ``1..top`` minus ``hole``.

    Each column of a progression is marked with one slice of a bytearray,
    after a check that none of it was marked before; the hole is marked
    first.  The explicit entries are one set, checked against the marks.
    """
    entries = set(chain.from_iterable(rows))
    if len(entries) != sum(map(len, rows)) or hole in entries:
        return False
    if entries and (min(entries) < 1 or max(entries) > top):
        return False
    if not lines:
        return True
    marks = bytearray(top + 1)
    marks[hole] = 1
    for _, _, copies, row, shift in lines:
        ones = bytes([1]) * copies
        for x, s in zip(row, shift):
            lo, hi = sorted((x, x + (copies - 1) * s))
            cut = slice(lo, hi + 1, abs(s))
            if s == 0 or lo < 1 or hi > top or 1 in marks[cut]:
                return False
            marks[cut] = ones
    return not any(map(marks.__getitem__, entries))


def _column_sums(line: Progression):
    """Column j of ``line`` sums to ``copies * row[j] + copies(copies-1)/2 * shift[j]``."""
    _, _, copies, row, shift = line
    return map(add, map(mul, row, repeat(copies)), map(mul, shift, repeat(copies * (copies - 1) // 2)))


def verify_qmr(arr: MagicArray) -> ArrayCheck:
    """Whether ``arr`` is QMR(a, b : ab/2+1), decided on its explicit rows
    and row progressions (module docstring), with the first violation
    found."""
    a, b = arr.rows, arr.cols
    if arr.kind != "qmr":
        return ArrayCheck(False, f"kind is {arr.kind!r}, not 'qmr'")
    if a % 2 == 0 or b % 2 == 1:
        return ArrayCheck(False, f"shape {a}x{b} needs odd rows and even columns")
    rows, lines = arr.explicit, arr.progressions
    if not _tiles(rows, lines, a, b):
        return ArrayCheck(False, f"entries are not {a} rows of {b}")
    d = a * b // 2 + 1
    if arr.hole != d:
        return ArrayCheck(False, f"hole is {arr.hole}, must be {d}")
    if not _fills_but_hole(rows, lines, a * b + 1, d):
        return ArrayCheck(False, f"entries are not 1..{a * b + 1} minus {d}")
    rho, sigma = _line_sums(arr)
    row_sums = list(map(sum, rows))
    misses = [] if (i := _first_miss(row_sums, rho)) is None else [(i, row_sums[i])]
    # row first + i * stride sums to sum(row) + i * sum(shift): the least
    # failing row of a progression is its first, or else its second
    for first, stride, _, row, shift in lines:
        if (s := sum(row)) != rho:
            misses.append((first, s))
        elif t := sum(shift):
            misses.append((first + stride, s + t))
    if misses:
        i, s = min(misses)
        return ArrayCheck(False, f"row {i} sums to {s}, expected {rho}")
    col_sums = list(map(sum, zip(*rows, *map(_column_sums, lines))))
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


def _plus(row: tuple[int, ...], shift: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, row, shift))


# Band classes with this many copies or more are kept as one progression
# each; classes with fewer are written out as explicit rows.  Below it, one
# range per column costs more to set up than the rows cost to write, and the
# verifier's b slice marks per column cost more than one set of the entries
# (Python 3.11).
_COLUMN_COPIES = 16


def _qmr_shifted_banded(a: int, b: int) -> tuple[list[tuple[int, ...]], list[Progression]]:
    """QMR(a, b) for b >= 4 as ``(rows, lines)``: the explicit rows
    ``0..len(rows)-1`` and the row progressions.  The 3-row block comes
    first, then the bands, one shape class and its mirror at a time (module
    docstring).  All classes but a trade's first band have the same number
    of copies, so either all of them are progressions, which then hold every
    row after the block and that first band, or none is."""
    m, hole, bands = b // 2, a * b // 2 + 1, (a - 3) // 2
    trade = m % 2 == 1 and a % 4 == 1
    k_const, alpha, spare = _block_table(m, trade)
    rows = [*_three_row_block(k_const, alpha, hole), *[()] * (a - 3)]
    lines = []
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
        top = tuple([hole + v if v in plus else hole - v for v in band])
        shift = tuple([period * b if x > hole else -period * b for x in top])
        # copy i of the band is the row pair 3 + 2k + 2 * period * i
        copies = 1 if k < head else (bands - head) // period
        first, stride = 3 + 2 * k, 2 * period
        mirror = (first + 1, tuple([2 * hole - x for x in top]), tuple([-s for s in shift]))
        for start, row, step in (first, top, shift), mirror:
            if copies >= _COLUMN_COPIES:
                lines.append(Progression(start, stride, copies, row, step))
            else:  # explicit rows, each the one above it plus the shift
                rows[start:first + copies * stride:stride] = accumulate(
                    repeat(step, copies - 1), _plus, initial=row)
    # with progressions, the explicit rows are the block and a trade's first band
    return (rows[:3 + 2 * head] if lines else rows), lines


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
    rows, lines = (_mirror_columns(a, d), ()) if b == 2 else _qmr_shifted_banded(a, b)
    arr = MagicArray(a, b, rows, "qmr", d, lines)
    check = verify_qmr(arr)
    if not check.valid:
        raise InternalInconsistencyError(f"QMR({a},{b}): {check.violation}")
    return arr
