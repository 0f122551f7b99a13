"""The equal-sum splitter behind every witness, and the witnesses at scale."""

import pytest

from magiclab import (
    PartiteSpec,
    equal_sum_partition,
    label_bipartite,
    label_tripartite,
    partite_sums_check,
    split_equal_sums,
    theta_bipartite,
    theta_tripartite,
)


def _size_tuples(n):
    """Every ordered 2- and 3-part size tuple of n with positive parts."""
    for k in range(1, n):
        yield (k, n - k)
    for a in range(1, n - 1):
        for b in range(1, n - a):
            yield (a, b, n - a - b)


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


@pytest.mark.parametrize("sizes", [(2000, 3000), (2001, 3000), (700, 4300)])
def test_bipartite_witnesses_at_scale(sizes):
    result = theta_bipartite(*sizes)
    witness = label_bipartite(*sizes, sum(sizes) + result.theta)
    assert partite_sums_check(PartiteSpec(sizes), witness)
    assert witness.eta == sum(sizes) + result.theta


@pytest.mark.parametrize("sizes", [(1660, 1670, 1680), (425, 2050, 2525), (1661, 1670, 1680)])
def test_tripartite_witnesses_at_scale(sizes):
    n = sum(sizes)
    result = theta_tripartite(*sizes)
    witness = label_tripartite(*sizes)
    assert partite_sums_check(PartiteSpec(sizes), witness)
    if result.case_tag == "tripartite-IV":
        assert witness.eta <= 2 * n + 1
    else:
        assert witness.eta == n + result.theta
