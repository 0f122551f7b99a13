import random
import time
from itertools import product
from operator import sub

import pytest

from magiclab import (
    DomainError,
    MagicArray,
    SizeLimitError,
    kotzig_array,
    qmr,
    verify_kotzig,
    verify_qmr,
)
from magiclab import arrays
from magiclab.arrays import (
    _COLUMN_COPIES,
    ArrayCheck,
    Progression,
    _block_table,
    _line_sums,
    _three_row_block,
)

from referees import kotzig_exists_exhaustive, qmr_exists_exhaustive, qmr_violation

# the published QMR(3,10) instance; the verifier must accept it verbatim
PRINTED_QMR_3_10 = (
    (22, 23, 5, 20, 1, 10, 12, 6, 30, 31),
    (17, 18, 19, 3, 26, 27, 8, 13, 14, 15),
    (9, 7, 24, 25, 21, 11, 28, 29, 4, 2),
)


def test_kotzig_small_examples():
    arr = kotzig_array(2, 4)
    assert arr.entries == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert verify_kotzig(arr)
    arr = kotzig_array(3, 3)
    assert verify_kotzig(arr) and _line_sums(arr) == (3, 3)
    assert kotzig_array(3, 4) is None


def test_kotzig_verifier_rejections():
    bad_cols = MagicArray(rows=2, cols=2, entries=((0, 1), (0, 1)), kind="kotzig")
    assert not verify_kotzig(bad_cols)
    bad_rows = MagicArray(rows=2, cols=2, entries=((0, 0), (1, 1)), kind="kotzig")
    assert not verify_kotzig(bad_rows)
    # a(b-1) = 3 is odd: column 0 reaches the floor of 3/2, column 1 sums to 2
    odd_total = MagicArray(rows=3, cols=2, entries=((0, 1), (1, 0), (0, 1)), kind="kotzig")
    assert not verify_kotzig(odd_total)
    assert not verify_qmr(MagicArray(2, 2, ((0, 1), (1, 0)), kind="kotzig")).valid


def test_kotzig_existence_grid():
    for a in range(1, 7):
        for b in range(1, 9):
            arr = kotzig_array(a, b)
            if a == 1:
                expected = b == 1
            elif a % 2 == 0:
                expected = True
            else:
                expected = b % 2 == 1
            assert (arr is not None) == expected, (a, b)
            if arr is not None:
                assert verify_kotzig(arr)
            elif a * b <= 18:
                assert not kotzig_exists_exhaustive(a, b), (a, b)


def test_kotzig_exhaustive_finds_existing():
    assert kotzig_exists_exhaustive(2, 4)
    assert kotzig_exists_exhaustive(3, 3)
    assert not kotzig_exists_exhaustive(1, 3)


def test_qmr_3_10_golden():
    arr = qmr(3, 10)
    assert arr.hole == 16
    assert verify_qmr(arr).valid and _line_sums(arr) == (160, 48)


def test_printed_qmr_3_10_passes_verbatim():
    arr = MagicArray(rows=3, cols=10, entries=PRINTED_QMR_3_10, kind="qmr", hole=16)
    assert verify_qmr(arr).valid and _line_sums(arr) == (160, 48)


def test_printed_qmr_with_swapped_entries_fails():
    # swapping 22 and 23 between the first two columns skews them to 49 and 47
    swapped = ((23, 22) + PRINTED_QMR_3_10[0][2:],) + PRINTED_QMR_3_10[1:]
    arr = MagicArray(rows=3, cols=10, entries=swapped, kind="qmr", hole=16)
    check = verify_qmr(arr)
    assert not check.valid and check.violation == "column 0 sums to 49, expected 48"


def test_tiny_invalid_qmr():
    arr = MagicArray(rows=1, cols=2, entries=((1, 3),), kind="qmr", hole=2)
    check = verify_qmr(arr)
    assert not check.valid  # row sum 4 works but columns are 1 and 3, not 2


def test_qmr_domain_errors():
    with pytest.raises(DomainError):
        qmr(4, 6)
    with pytest.raises(DomainError):
        qmr(3, 5)


def test_qmr_existence_grid():
    for a in range(1, 1001, 2):
        for b in range(2, 1000 // a + 1, 2):
            arr = qmr(a, b)
            if a == 1 or (a % 4 == 1 and b == 2):
                assert arr is None, (a, b)
            else:
                check = verify_qmr(arr)
                assert check.valid, (a, b, check.violation)
                ab = a * b
                assert sum(sum(row) for row in arr.entries) == ab * (ab + 2) // 2
                # the referee reads the rows written out, entry by entry
                assert qmr_violation(arr) is None, (a, b)
                explicit = MagicArray(a, b, arr.entries, "qmr", arr.hole)
                assert verify_qmr(explicit) == check, (a, b)


def test_qmr_nonexistence_confirmed_exhaustively():
    assert not qmr_exists_exhaustive(5, 2)
    assert not qmr_exists_exhaustive(1, 2)
    assert not qmr_exists_exhaustive(1, 4)
    assert qmr_exists_exhaustive(3, 2)


def test_qmr_3_2_matches_hand_computation():
    arr = qmr(3, 2)
    assert sorted(x for row in arr.entries for x in row) == [1, 2, 3, 5, 6, 7]
    assert verify_qmr(arr).valid and _line_sums(arr) == (8, 12)


def test_qmr_is_deterministic():
    assert qmr(5, 6).entries == qmr(5, 6).entries
    assert qmr(3, 10).entries == qmr(3, 10).entries


def _block_magnitudes(m, trade):
    """The magnitudes each alpha table promises the 3-row block."""
    if not trade:
        return set(range(1, 3 * m + 1))
    spare = (m + 1) // 2 if m % 4 == 1 else 2 * m + 1
    return set(range(1, 3 * m + 2)) - {spare}


@pytest.mark.parametrize("table", ["no trade", "m = 1 (mod 4)", "m = 3 (mod 4)"])
def test_three_row_block_tables(table):
    if table == "no trade":
        sizes, trade = range(2, 401), False
    else:
        sizes, trade = range(5 if table == "m = 1 (mod 4)" else 3, 401, 4), True
    for m in sizes:
        rows = _three_row_block(*_block_table(m, trade)[:2], 0)
        assert len(rows) == 3 and all(len(row) == 2 * m for row in rows), m
        assert all(sum(row) == 0 for row in rows), m
        assert all(sum(col) == 0 for col in zip(*rows)), m
        mags = _block_magnitudes(m, trade)
        assert sorted(v for row in rows for v in row) == sorted(mags | {-x for x in mags}), m


def test_band_classes_write_out_by_rows_and_by_columns(monkeypatch):
    # from _COLUMN_COPIES copies on, every band class but a trade's first
    # band is one progression, written out one range per column; below it,
    # explicit rows, each the one above it plus the shift.  Both forms must
    # write out the same rows.
    for a, b in product(range(5, 4 * _COLUMN_COPIES + 8, 2), (4, 6, 10)):
        m = b // 2
        head, period = int(m % 2 == 1 and a % 4 == 1), 2 if m % 2 else 1
        copies = ((a - 3) // 2 - head) // period
        rows, lines = arrays._qmr_shifted_banded(a, b)
        assert len(lines) == (2 * period if copies >= _COLUMN_COPIES else 0), (a, b)
        assert all(line.copies == copies for line in lines), (a, b)
        monkeypatch.setattr(arrays, "_COLUMN_COPIES", a)  # no class has a copies
        explicit, none = arrays._qmr_shifted_banded(a, b)
        monkeypatch.undo()
        assert none == [] and len(explicit) == a, (a, b)
        assert MagicArray(a, b, rows, "qmr", progressions=lines).entries == tuple(explicit), (a, b)


@pytest.mark.parametrize("a, b", [(3, 33332), (5, 20000), (5, 19998), (9, 11106), (12499, 6)])
def test_qmr_at_the_entry_cap(a, b):
    start = time.perf_counter()
    arr = qmr(a, b)
    check = verify_qmr(arr)
    assert check.valid and time.perf_counter() - start < 1.0, (check.violation, a, b)


def test_kotzig_entry_cap():
    # the QMR cap: 100 000 entries build, one more column is refused unbuilt
    assert verify_kotzig(kotzig_array(4, 25_000))
    with pytest.raises(SizeLimitError):
        kotzig_array(4, 25_001)
    with pytest.raises(SizeLimitError):
        kotzig_array(4, 1_000_000)


def _mutated(entries, **cells):
    """``entries`` with each cell ``"r<i>c<j>"`` of ``cells`` set to its value."""
    rows = [list(row) for row in entries]
    for cell, value in cells.items():
        i, j = map(int, cell[1:].split("c"))
        rows[i][j] = value
    return tuple(map(tuple, rows))


QMR_5_6 = qmr(5, 6).entries  # rho 96, sigma 80, hole 16; row 0 is 15, 8, 24, ...


@pytest.mark.parametrize("change, violation", [
    ({"entries": _mutated(QMR_5_6, r0c0=16)}, "entries are not 1..31 minus 16"),  # the hole
    ({"entries": _mutated(QMR_5_6, r0c0=8)}, "entries are not 1..31 minus 16"),  # 8 twice
    ({"entries": _mutated(QMR_5_6, r0c0=32)}, "entries are not 1..31 minus 16"),  # ab + 2
    ({"entries": _mutated(QMR_5_6, r0c0=12, r1c0=15)}, "row 0 sums to 93, expected 96"),
    ({"entries": _mutated(QMR_5_6, r0c0=8, r0c1=15)}, "column 0 sums to 73, expected 80"),
    ({"hole": 15}, "hole is 15, must be 16"),
    ({"kind": "kotzig"}, "kind is 'kotzig', not 'qmr'"),
    ({"rows": 4, "entries": QMR_5_6[:4]}, "shape 4x6 needs odd rows and even columns"),
    ({"entries": QMR_5_6[:4] + (QMR_5_6[4][:5],)}, "entries are not 5 rows of 6"),
    ({"entries": _mutated(QMR_5_6, r0c0=0)}, "entries are not 1..31 minus 16"),
    ({"entries": _mutated(QMR_5_6, r0c0=-15)}, "entries are not 1..31 minus 16"),
    ({"entries": QMR_5_6[:4]}, "entries are not 5 rows of 6"),
])
def test_qmr_verifier_names_each_violation(change, violation):
    fields = {"rows": 5, "cols": 6, "entries": QMR_5_6, "kind": "qmr", "hole": 16, **change}
    assert verify_qmr(MagicArray(**fields)) == ArrayCheck(False, violation)
    assert qmr_violation(MagicArray(**fields)) == violation
    assert verify_qmr(MagicArray(5, 6, QMR_5_6, "qmr", 16)).valid


# QMR(69, 6): rows 0..4 explicit (the block and the first band pair), then
# four band classes of 16 copies, one progression each, at rows 5, 6, 7, 8
# (mod 4); hole 208, ab + 1 = 415, rho 1248, sigma 14352.
TALL = qmr(69, 6)
LINES = TALL.progressions


def _tall(*lines, **changes):
    """QMR(69, 6) with explicit row ``i`` made ``changes["r<i>"]``,
    progression ``k`` (at row 5 + k) given the fields ``changes["p<k>"]``,
    and ``lines`` appended."""
    rows, out = list(TALL.explicit), list(LINES)
    for key, change in changes.items():
        k = int(key[1:])
        if key[0] == "r":
            rows[k] = change
        else:
            out[k] = out[k]._replace(**change)
    return MagicArray(69, 6, rows, "qmr", 208, [*out, *lines])


def _bumped(values, j, by):
    return (*values[:j], values[j] + by, *values[j + 1:])


@pytest.mark.parametrize("arr, violation", [
    # rows 7, 11, .. overlap rows 5, 9, ..; rows 7 + 4i stay empty
    (_tall(p2={"first": 5}), "entries are not 69 rows of 6"),
    (_tall(LINES[0]), "entries are not 69 rows of 6"),  # rows 5 + 4i twice, none missing
    (_tall(p3={"copies": 15}), "entries are not 69 rows of 6"),  # row 68 missing
    (_tall(p3={"stride": 0}), "entries are not 69 rows of 6"),
    (_tall(p3={"first": -1}), "entries are not 69 rows of 6"),
    (_tall(p3={"first": 12}), "entries are not 69 rows of 6"),  # rows 12..72; row 8 empty
    # a line of -16 copies cancels the second copy of rows 5 + 4i in the count
    (_tall(LINES[0], LINES[0]._replace(copies=-16)), "entries are not 69 rows of 6"),
    (_tall(p0={"shift": LINES[0].shift[:5]}), "entries are not 69 rows of 6"),
    (_tall(p0={"row": LINES[0].row[:5]}), "entries are not 69 rows of 6"),
    # row 4's explicit copy overlaps progression rows 4 + 4i, and rows 8 + 4i stay empty
    (_tall(p3={"first": 4}), "entries are not 69 rows of 6"),
    (_tall(p0={"shift": (0, *LINES[0].shift[1:])}), "entries are not 1..415 minus 208"),
    # column 0 of rows 5 + 4i, moved down one step to 212..392: 212 = row 1's
    (_tall(p0={"row": _bumped(LINES[0].row, 0, -12)}), "entries are not 1..415 minus 208"),
    # column 0 of rows 6 + 4i made 204 - 12i, 204..24: 204 is row 1's
    (_tall(p1={"row": _bumped(LINES[1].row, 0, 12)}), "entries are not 1..415 minus 208"),
    # the same column moved one step either way within itself: 180..0 and 236..416
    (_tall(p1={"row": _bumped(LINES[1].row, 0, -12)}), "entries are not 1..415 minus 208"),
    (_tall(p0={"row": _bumped(LINES[0].row, 0, 12)}), "entries are not 1..415 minus 208"),
    # columns 1 and 2 of rows 8 + 4i made those of rows 6 + 4i
    (_tall(p3={"row": (187, 225, 190, 183, 234, 181), "shift": (-12, 12, -12, -12, 12, -12)}),
     "entries are not 1..415 minus 208"),
    # an explicit entry made 224, the first of column 0 of rows 5 + 4i, or the hole
    (_tall(r0=(207, 200, 216, 209, 202, 224)), "entries are not 1..415 minus 208"),
    (_tall(r0=(207, 200, 216, 209, 202, 208)), "entries are not 1..415 minus 208"),
    # row 1's 204 and 205 swapped: only columns 0 and 2 change
    (_tall(r1=(205, 218, 204, 198, 212, 211)), "column 0 sums to 14353, expected 14352"),
    # column 0 of rows 5 + 4i and 6 + 4i swapped: the entries stay, row 5 misses by 32
    (_tall(p0={"row": (192, 191, 226, 189, 188, 230), "shift": (-12, -12, 12, -12, -12, 12)},
           p1={"row": (224, 225, 190, 227, 228, 186), "shift": (12, 12, -12, 12, 12, -12)}),
     "row 5 sums to 1216, expected 1248"),
])
def test_qmr_verifier_rejects_broken_progressions(arr, violation):
    assert verify_qmr(TALL).valid and verify_qmr(_tall()).valid
    assert _tall().entries == TALL.entries
    assert verify_qmr(arr) == ArrayCheck(False, violation)
    # rows that tile, with no zero step (no range), write out for the referee
    if "rows of" not in violation and all(all(line.shift) for line in arr.progressions):
        assert qmr_violation(arr) == violation


def test_qmr_verifier_refuses_a_one_copy_progression():
    # row 4 of QMR(69, 6) as a progression of one copy: every row is in
    # place and every shift is 6 long, but a progression holds two copies
    # or more, and an explicit row is kept in ``explicit``
    one = Progression(4, 1, 1, TALL.explicit[4], LINES[0].shift)
    arr = MagicArray(69, 6, TALL.explicit[:4], "qmr", 208, [one, *LINES])
    assert arr.entries == TALL.entries
    assert verify_qmr(arr) == ArrayCheck(False, "entries are not 69 rows of 6")


def test_qmr_verifier_accepts_row_pairs_as_progressions():
    # rows i and i + 2 of a QMR are the two copies of row i plus their
    # difference, whose sum is 0; no mirror cancels that difference in the
    # column sums, as it does in the constructions' band classes
    rows = QMR_5_6
    lines = [Progression(i, 2, 2, rows[i], tuple(map(sub, rows[i + 2], rows[i]))) for i in (1, 2)]
    arr = MagicArray(5, 6, rows[:1], "qmr", 16, lines)
    assert arr.entries == rows and verify_qmr(arr).valid


@pytest.mark.parametrize("lines, violation", [
    # rows 0, 1 and 2..4 each one progression whose shift moves its row sum:
    # the entries are 1..11 but 6, and each line's first row sums to 12
    ([Progression(0, 1, 2, (4, 8), (6, 3)), Progression(2, 1, 3, (3, 9), (-1, -2))],
     "row 1 sums to 21, expected 12"),
    # QMR(3, 2) with 4, the hole, in a column of rows 1 and 2: the entries are
    # distinct and lie in 1..7, so only the hole's mark refuses them
    ([(7, 3), Progression(1, 1, 2, (4, 5), (2, -3))], "entries are not 1..7 minus 4"),
])
def test_qmr_verifier_checks_small_progressions(lines, violation):
    # the explicit rows come first, then the progressions
    rows = [line for line in lines if not isinstance(line, Progression)]
    lines = lines[len(rows):]
    a = len(rows) + sum(line.copies for line in lines)
    arr = MagicArray(a, 2, rows, "qmr", a + 1, lines)
    assert verify_qmr(arr) == ArrayCheck(False, violation)
    assert qmr_violation(arr) == violation


@pytest.mark.parametrize("entries", [
    ((0, 1, 2, 3, 3), (3, 4, 0, 1, 2), (3, 1, 4, 2, 0)),  # a row repeats 3
    ((1, 0, 2, 3, 4), (3, 4, 0, 1, 2), (3, 1, 4, 2, 0)),  # row 0 permuted: columns 7, 5
])
def test_kotzig_verifier_rejects_rows_and_columns(entries):
    assert kotzig_array(3, 5).entries == ((0, 1, 2, 3, 4), (3, 4, 0, 1, 2), (3, 1, 4, 2, 0))
    assert not verify_kotzig(MagicArray(3, 5, entries, kind="kotzig"))


def test_kotzig_verifier_rejects_a_shared_bad_row():
    up, down = (0, 1, 2, 3, 4), (4, 3, 2, 1, 0)
    assert verify_kotzig(MagicArray(4, 5, (up, down, up, down), kind="kotzig"))
    repeated = (0, 1, 2, 3, 3)  # one bad tuple object, three times
    assert not verify_kotzig(MagicArray(4, 5, (repeated, down, repeated, repeated), kind="kotzig"))
    skewed = (1, 0, 2, 3, 4)  # a permutation, but columns 0 and 1 miss by 2
    assert not verify_kotzig(MagicArray(4, 5, (skewed, down, skewed, down), kind="kotzig"))
    flat = (1, 1, 1)  # every column sums to 2 = a(b-1)/2, but no row is a permutation
    assert not verify_kotzig(MagicArray(2, 3, (flat, flat), kind="kotzig"))


def test_kotzig_verifier_accepts_equal_rows_that_are_distinct_objects():
    shared = kotzig_array(6, 5).entries
    copies = tuple(tuple(list(row)) for row in shared)
    assert len(set(map(id, shared))) == 2 and len(set(map(id, copies))) == 6
    assert verify_kotzig(MagicArray(6, 5, copies, kind="kotzig"))


def _naive_kotzig_check(entries, a, b):
    """Every row a permutation of 0..b-1, every column summing to a(b-1)/2."""
    if len(entries) != a or any(sorted(row) != list(range(b)) for row in entries):
        return False
    return all(2 * sum(row[j] for row in entries) == a * (b - 1) for j in range(b))


def test_kotzig_verifier_matches_a_per_row_reference():
    rng = random.Random(16)
    verdicts = set()
    for _ in range(600):
        a, b = rng.choice([(2, 4), (3, 5), (4, 5), (5, 3), (6, 7), (8, 2), (3, 1)])
        entries = list(kotzig_array(a, b).entries)
        target = rng.choice(entries)
        row = list(target)
        kind = rng.randrange(4)
        if kind == 0 and b > 1:  # swap two entries: still a permutation
            i, j = rng.sample(range(b), 2)
            row[i], row[j] = row[j], row[i]
        elif kind == 1:  # one entry out of place or out of range
            row[rng.randrange(b)] = rng.randrange(-1, b + 1)
        elif kind == 2:  # permute the rows: still a Kotzig array
            rng.shuffle(entries)
        bad = tuple(row)
        if rng.random() < 0.5:  # every occurrence of the shared object
            entries = [bad if r is target else r for r in entries]
        else:  # one occurrence only
            entries[entries.index(target)] = bad
        expected = _naive_kotzig_check(entries, a, b)
        verdicts.add(expected)
        assert verify_kotzig(MagicArray(a, b, tuple(entries), kind="kotzig")) == expected, entries
    assert verdicts == {True, False}
