"""The equal-sum splitter behind every witness, and the witnesses at scale."""

import random
from itertools import combinations

import pytest

from magiclab import (
    label_bipartite,
    label_tripartite,
    split_equal_sums,
    theta_bipartite,
    theta_tripartite,
)
from magiclab import arrays, bipartite, tripartite

from conftest import magic_on_parts
from referees import equal_sum_partition


def _size_tuples(n):
    """Every ordered 2- and 3-part size tuple of n with positive parts."""
    for k in range(1, n):
        yield (k, n - k)
    for a in range(1, n - 1):
        for b in range(1, n - a):
            yield (a, b, n - a - b)


def _runs(labels):
    """Ascending ``(lo, hi)`` blocks of consecutive integers covering ``labels``."""
    xs = sorted(labels)
    cuts = [i for i in range(1, len(xs)) if xs[i] != xs[i - 1] + 1]
    return [(xs[i], xs[j - 1]) for i, j in zip([0, *cuts], [*cuts, len(xs)])] if xs else []


def _labels(runs):
    return [x for lo, hi in runs for x in range(lo, hi + 1)]


def _greedy(pool, c, t, keep=(), drop=()):
    """The per-label top-heavy pick, the referee for ``bipartite._top_heavy``:
    walk the pool downward and keep each label whose rest can be completed."""
    runs = _runs(x for x in pool if x not in keep and x not in drop)
    c -= len(keep)
    t -= sum(keep)
    if not bipartite._feasible(runs, c, t):
        return None
    chosen = list(keep)
    for i in range(len(runs) - 1, -1, -1):
        lo, hi = runs[i]
        for v in range(hi, lo - 1, -1):
            if c == 0:
                return sorted(chosen)
            below = runs[:i] + [(lo, v - 1)] if v > lo else runs[:i]
            if bipartite._feasible(below, c - 1, t - v):
                chosen.append(v)
                c -= 1
                t -= v
    return sorted(chosen)


@pytest.fixture
def refereed(monkeypatch):
    """Check every ``_top_heavy`` call, nested ones included, against
    ``_greedy`` on the labels of its runs; returns the distinct calls checked,
    keyed by their pools as runs."""
    real, checked = bipartite._top_heavy, {}

    def top_heavy(pool, c, t, keep=(), drop=()):
        call = (tuple(pool), c, t, tuple(keep), tuple(drop))
        if call not in checked:
            checked[call] = real(pool, c, t, keep, drop)
            got = None if checked[call] is None else _labels(checked[call])
            assert got == _greedy(_labels(pool), c, t, keep, drop), call
            assert checked[call] is None or checked[call] == _runs(got), call  # joined runs
        return None if checked[call] is None else list(checked[call])

    monkeypatch.setattr(bipartite, "_top_heavy", top_heavy)
    return checked


def test_feasible_matches_enumeration():
    # every pool of labels up to 7 with at most two runs plus two detached labels
    for mask in range(1, 128):
        pool = [x for x in range(1, 8) if mask >> (x - 1) & 1]
        runs = _runs(pool)
        if len(runs) - sum(lo == hi for lo, hi in runs) > 2 or len(runs) > 4:
            continue
        for c in range(len(pool) + 1):
            sums = {sum(combo) for combo in combinations(pool, c)}
            for t in range(-1, sum(pool) + 2):
                assert bipartite._feasible(runs, c, t) == (t in sums), (pool, c, t)


def test_top_heavy_matches_the_greedy_on_every_small_split(refereed):
    # 3-part splits assign roles by size, so reordering the sizes of a
    # 3-part shape repeats its _top_heavy calls
    for n in range(2, 41):
        for pool in (list(range(1, n + 1)), list(range(1, n)) + [n + 1]):
            for sizes in _size_tuples(n):
                if sum(pool) % len(sizes) or len(sizes) == 3 and list(sizes) != sorted(sizes):
                    continue  # no equal sums, or a reordering of a shape already split
                forcings = [None]
                if len(sizes) == 3 and pool[-1] == n:  # case IV forces the top label
                    forcings += [{n: i} for i in range(3)]
                for forced in forcings:
                    split_equal_sums(pool, sizes, forced=forced)
    assert len(refereed) > 5000


def test_top_heavy_matches_the_greedy_on_qmr_bands(refereed):
    # every band QMR(a, b) splits for a * b <= 2 000; b = 2 has no bands
    for a in range(3, 501, 2):
        for b in range(4, 2000 // a + 1, 2):
            arrays._qmr_shifted_banded(a, b)
    assert len(refereed) > 400


def test_top_heavy_matches_the_greedy_on_a_seeded_sweep(refereed):
    rng = random.Random(12)
    done = 0
    while done < 4:
        n = rng.randint(41, 5000)
        if rng.random() < 0.5:  # near-balanced shapes, where splits exist
            k = rng.randint(3 * n // 10, n // 2)
            sizes = (k, n - k)
        else:
            a = rng.randint(3 * n // 10, n // 3)
            b = rng.randint(a, (n - a) // 2)
            sizes = (a, b, n - a - b)
        for pool in (list(range(1, n + 1)), list(range(1, n)) + [n + 1]):
            if sum(pool) % len(sizes) == 0:
                forced = {pool[-1]: rng.randrange(3)} if len(sizes) == 3 else None
                assert split_equal_sums(pool, sizes, forced=forced) is not None
                done += 1
                break
    assert max(len(_labels(call[0])) for call in refereed) > 3000


def test_split_agrees_with_the_exhaustive_partition():
    for n in range(2, 19):
        for pool in (list(range(1, n + 1)), list(range(1, n)) + [n + 1]):
            for sizes in _size_tuples(n):
                forcings = [None]
                if len(sizes) == 3:
                    forcings += [{pool[-1]: i} for i in range(3)]
                for forced in forcings:
                    want = equal_sum_partition(pool, sizes, forced=forced)
                    got = split_equal_sums(pool, sizes, forced=forced)
                    assert (got is None) == (want is None), (pool, sizes, forced)
                    if got is None:
                        continue
                    assert [len(part) for part in got] == list(sizes)
                    assert sorted(x for part in got for x in part) == pool
                    assert len({sum(part) for part in got}) == 1
                    for label, i in (forced or {}).items():
                        assert label in got[i]


def test_pool_read_matches_a_sort():
    # lists in any order, with repeats and gaps, read into runs without a
    # sort unless they do not ascend
    rng = random.Random(5)
    for _ in range(5000):
        xs = [rng.randint(-3, 12) for _ in range(rng.randint(0, 9))]
        for pool in (xs, sorted(xs), sorted(set(xs))):
            runs = _runs(pool) if len(set(pool)) == len(pool) else None
            assert bipartite._read(pool) == (len(pool), runs), pool
    for pool in (range(1, 10), range(4, 4), range(1, 10, 2), range(9, 0, -1)):
        assert bipartite._read(pool) == (len(pool), _runs(pool)), pool


def test_split_base_case_and_rejections():
    assert split_equal_sums(range(1, 5), (2, 2)) == [[1, 4], [2, 3]]
    assert split_equal_sums(range(1, 10), (3, 3, 3)) == [[1, 5, 9], [2, 6, 7], [3, 4, 8]]
    assert split_equal_sums(range(1, 10), (3, 3, 3), forced={9: 2})[2] == [1, 5, 9]
    assert split_equal_sums(range(1, 7), (3, 3)) is None  # odd total
    with pytest.raises(ValueError):
        split_equal_sums(range(1, 7), (3, 4))
    with pytest.raises(ValueError):
        split_equal_sums(range(1, 9), (2, 2, 2, 2))
    with pytest.raises(ValueError):
        split_equal_sums([1, 3, 5, 7], (2, 2))
    for repeated in ([1, 2, 2, 3], [2, 3, 1, 2]):
        with pytest.raises(ValueError, match=r"^4 distinct labels cannot fill sizes \[2, 2\]$"):
            split_equal_sums(repeated, (2, 2))
    shuffled = list(range(1, 33))
    random.Random(3).shuffle(shuffled)
    for sizes in ((12, 20), (8, 10, 14)):
        split = split_equal_sums(range(1, 33), sizes)
        assert split is not None and split_equal_sums(shuffled, sizes) == split
    assert split_equal_sums([4, 1, 3, 2], (2, 2)) == [[1, 4], [2, 3]]
    with pytest.raises(ValueError, match="^split needs 2 or 3 parts and forced labels from the"):
        split_equal_sums(range(1, 5), (2, 2), forced={5: 0})  # a forced label outside the pool
    with pytest.raises(ValueError, match="^split pools hold at most two runs of consecutive"):
        split_equal_sums([1, 2, 4, 5, 7, 8], (3, 3))  # three runs


@pytest.mark.parametrize("sizes", [(2000, 3000), (2001, 3000), (700, 4300)])
def test_bipartite_witnesses_at_scale(sizes):
    result = theta_bipartite(*sizes)
    witness = label_bipartite(*sizes)
    assert magic_on_parts(sizes, witness)
    assert witness.eta == sum(sizes) + result.theta


@pytest.mark.parametrize("sizes", [(1660, 1670, 1680), (425, 2050, 2525), (1661, 1670, 1680)])
def test_tripartite_witnesses_at_scale(sizes):
    n = sum(sizes)
    result = theta_tripartite(*sizes)
    witness = label_tripartite(*sizes)
    assert magic_on_parts(sizes, witness)
    if result.case_tag == "tripartite-IV":
        assert witness.eta <= 2 * n + 1
    else:
        assert witness.eta == n + result.theta


@pytest.mark.parametrize("sizes, tag", [
    ((50000, 50000), "bipartite-0"),
    ((33000, 33333, 33666), "I"),
    ((33000, 33330, 33670), "IV"),
])
def test_a_witness_at_the_cap_takes_few_feasibility_probes(monkeypatch, sizes, tag):
    probes = []
    real = bipartite._feasible

    def feasible(runs, c, t):
        probes.append(c)
        return real(runs, c, t)

    monkeypatch.setattr(bipartite, "_feasible", feasible)
    if len(sizes) == 2:
        assert theta_bipartite(*sizes).case_tag == tag
        witness = label_bipartite(*sizes)
    else:
        assert tripartite.classify_tripartite(*sizes) == tag
        witness = label_tripartite(*sizes)
    assert magic_on_parts(sizes, witness)
    # the per-label walk took 100 001 to 216 579 probes here
    assert 0 < len(probes) < 2000
