import pytest

from magiclab import (
    DomainError,
    build_complete_multipartite,
    label_bipartite,
    oracle_theta_multipartite,
    theta_bipartite,
)

from conftest import magic_on_parts
from referees import multipartite_distance_magic_check


def test_formula_branches():
    assert theta_bipartite(2, 2).theta == 0
    assert theta_bipartite(2, 3).theta == 1
    assert theta_bipartite(2, 6).theta == 3  # deficit branch: ceil(12/4)
    assert theta_bipartite(2, 2).case_tag == "bipartite-0"
    assert theta_bipartite(2, 3).case_tag == "bipartite-1"
    assert theta_bipartite(2, 6).case_tag == "bipartite-deficit"


def test_formula_rejects_singleton_side():
    with pytest.raises(DomainError):
        theta_bipartite(1, 1)  # two singleton sides: no labeling at any excess
    with pytest.raises(DomainError):
        theta_bipartite(3, 2)


def test_star_index_is_a_side_sum_and_matches_the_oracle():
    for n2 in range(2, 7):
        res = theta_bipartite(1, n2)
        assert res.case_tag == "bipartite-star" and res.theta == n2 * (n2 + 1) // 2 - n2 - 1
        star = build_complete_multipartite((1, n2))
        assert oracle_theta_multipartite(star, 16).theta == res.theta  # 0, 2, 5, 9, 14
        lab = label_bipartite(1, n2)
        assert lab.eta == n2 + 1 + res.theta
        assert magic_on_parts((1, n2), lab)


def test_witnesses_verify_and_realize_eta():
    for n1, n2 in [(2, 2), (2, 3), (2, 6), (3, 8), (4, 7), (5, 5), (2, 9)]:
        res = theta_bipartite(n1, n2)
        lab = label_bipartite(n1, n2)
        assert lab is not None and lab.eta == n1 + n2 + res.theta
        assert magic_on_parts((n1, n2), lab)


def test_label_k22_golden():
    lab = label_bipartite(2, 2)
    assert sorted(lab.labels[:2]) == [1, 4]
    assert sorted(lab.labels[2:]) == [2, 3]


def test_label_parity_blocked_sets():
    # sum of 1..17 is odd, so K(8,9) cannot split it; one label steps up
    lab = label_bipartite(8, 9)
    assert tuple(sorted(lab.labels)) == tuple(range(1, 17)) + (18,)
    assert sum(lab.labels[:8]) == sum(lab.labels[8:]) == 77

    lab = label_bipartite(6, 7)
    assert tuple(sorted(lab.labels)) == tuple(range(1, 13)) + (14,)


def test_label_singleton_side():
    lab = label_bipartite(1, 3)
    assert sorted(lab.labels[1:]) == [1, 2, 3] and lab.labels[0] == 6
    assert label_bipartite(1, 1) is None  # equal distinct labels impossible


def test_witnesses_beyond_the_lexmin_threshold():
    # large instances split by the same top-heavy greedy as small ones
    res = theta_bipartite(300, 400)
    witness = label_bipartite(300, 400)
    assert res.theta == 0 and witness.eta == 700
    assert magic_on_parts((300, 400), witness)
    res = theta_bipartite(41, 60)  # near-balanced shape, one label stepped up
    witness = label_bipartite(41, 60)
    assert witness.eta == 101 + res.theta
    assert magic_on_parts((41, 60), witness)
    res = theta_bipartite(3, 300)  # deficit shape at scale
    witness = label_bipartite(3, 300)
    assert res.theta == 14748 and witness.eta == 303 + res.theta
    assert magic_on_parts((3, 300), witness)


def test_zero_branch_agrees_with_characterization():
    for n1 in range(2, 7):
        for n2 in range(n1, 13 - n1):
            want_zero = theta_bipartite(n1, n2).theta == 0
            assert want_zero == multipartite_distance_magic_check((n1, n2))
