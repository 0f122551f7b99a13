import pytest

from magiclab import (
    DomainError,
    build_complete_multipartite,
    classify_tripartite,
    label_tripartite,
    theta_tripartite,
    verify_s_magic,
    zeta,
)

from conftest import tripartite_instances
from referees import g_function


def test_zeta():
    assert zeta(1, 5) == 15
    assert zeta(14, 18) == 80
    for k in (1, 4, 9):
        assert zeta(k, k) == k
    with pytest.raises(DomainError):
        zeta(5, 4)
    with pytest.raises(DomainError):
        zeta(0, 3)


def _abc(n1, n2, n3):
    """(A, B, C) of the module docstring: three times the top-n1 sum of
    {1..n}, the total and three times the bottom-n3 sum."""
    n = n1 + n2 + n3
    return 3 * zeta(n - n1 + 1, n), zeta(1, n), 3 * zeta(1, n3)


def test_classification_examples():
    assert classify_tripartite(5, 6, 7) == "I"
    A, B, C = _abc(5, 6, 7)
    assert (A, B, C) == (240, 171, 84) and (2 * B) % 6 == 0
    assert classify_tripartite(3, 8, 9) == "II"
    assert _abc(3, 8, 9)[:2] == (171, 210)
    assert classify_tripartite(2, 2, 9) == "III"
    assert classify_tripartite(2, 2, 3) == "IV"
    assert classify_tripartite(2, 2, 6) == "V"


def _independent_case_conditions(n1, n2, n3):
    A, B, C = _abc(n1, n2, n3)
    return [
        A >= B >= C and (2 * B) % 6 == 0,
        B > A and B >= C,
        A < B < C,
        A >= B >= C and (2 * B) % 6 == 2,
        B <= A and B < C,
    ]


def test_classification_total_and_single_valued():
    tags = "I II III IV V".split()
    for n1 in range(2, 11):
        for n2 in range(n1, 16):
            for n3 in range(n2, 31 - n1 - n2):
                if n3 < n2:
                    continue
                hits = _independent_case_conditions(n1, n2, n3)
                assert sum(hits) == 1, (n1, n2, n3, hits)
                assert classify_tripartite(n1, n2, n3) == tags[hits.index(True)]


def test_residue_is_never_four():
    for (n1, n2, n3) in tripartite_instances(20):
        B = _abc(n1, n2, n3)[1]
        assert (2 * B) % 6 in (0, 2)


def test_distance_magic_examples():
    # distance magic exactly in case I
    assert classify_tripartite(5, 6, 7) == "I"
    assert classify_tripartite(3, 8, 9) != "I"
    assert classify_tripartite(2, 2, 2) == "I"
    for sizes in tripartite_instances(30):
        is_case_one = classify_tripartite(*sizes) == "I"
        assert is_case_one == (theta_tripartite(*sizes).theta == 0), sizes


def test_theta_examples():
    assert theta_tripartite(5, 6, 7).theta == 0
    res = theta_tripartite(3, 8, 9)
    assert res.theta == 7 and res.case_tag == "tripartite-II"
    # the second case-II branch applies: n - n1 = 17 = 1 (mod 4)
    assert (3 * zeta(1, 17) - 2 * zeta(1, 20) + 1) == 40

    res = theta_tripartite(2, 2, 9)
    assert (res.lower, res.upper) == (5, None)
    res = theta_tripartite(2, 2, 3)
    assert (res.lower, res.upper) == (1, 8)
    res = theta_tripartite(2, 2, 6)
    assert res.case_tag == "tripartite-V" and not res.exact
    assert (res.lower, res.upper) == (1, 4)


def test_rejects_singleton_part():
    with pytest.raises(DomainError):
        theta_tripartite(1, 2, 3)
    with pytest.raises(DomainError):
        classify_tripartite(2, 3, 2)


def test_case3_bound_is_the_gap_bound():
    # on case III the zeta form of the bound equals ceil(|g(0)|/delta)
    for (n1, n2, n3) in tripartite_instances(30):
        if classify_tripartite(n1, n2, n3) != "III":
            continue
        n = n1 + n2 + n3
        g0 = g_function(n, n - n3, n - n1, 0)
        assert g0 == zeta(n - n1 + 1, n) - zeta(1, n3)
        assert g0 < 0
        lower = theta_tripartite(n1, n2, n3).lower
        assert lower == -((-abs(g0)) // (n - n3))


def test_witness_labelings():
    lab = label_tripartite(5, 6, 7)
    assert tuple(sorted(lab.labels)) == tuple(range(1, 19))
    sets = [sorted(lab.labels[0:5]), sorted(lab.labels[5:11]), sorted(lab.labels[11:18])]
    assert all(sum(s) == 57 for s in sets)

    lab = label_tripartite(3, 8, 9)
    assert lab.eta == 27
    g = build_complete_multipartite((3, 8, 9))
    assert verify_s_magic(g, lab).constant == 154

    assert label_tripartite(2, 2, 9) is None  # case III: no construction
    assert label_tripartite(2, 2, 6) is None  # case V, conditional branch


def test_case4_witness_merges_one_label():
    for sizes in [(2, 2, 3), (2, 3, 5), (3, 3, 7), (3, 5, 5)]:
        n = sum(sizes)
        lab = label_tripartite(*sizes)
        assert lab is not None
        g = build_complete_multipartite(sizes)
        assert verify_s_magic(g, lab).is_magic
        assert lab.eta <= 2 * n + 1


def test_witness_eta_matches_exact_theta():
    for sizes in tripartite_instances():
        res = theta_tripartite(*sizes)
        lab = label_tripartite(*sizes)
        if res.exact:
            assert lab is not None
            assert lab.eta == sum(sizes) + res.theta


def test_witnesses_at_scale():
    # exercises the greedy bipartite split and the shift construction far
    # beyond the oracle range; the verifier is the referee
    lab = label_tripartite(20, 150, 200)
    res = theta_tripartite(20, 150, 200)
    g = build_complete_multipartite((20, 150, 200))
    report = verify_s_magic(g, lab)
    assert report.is_magic and lab.eta == 370 + res.theta
    lab = label_tripartite(100, 120, 140)
    g = build_complete_multipartite((100, 120, 140))
    assert verify_s_magic(g, lab).is_magic and lab.eta == 360


def test_case2_shift_never_hits_the_impossible_combo():
    # in the second case-II branch, lambda = n1*q + r with q=1, r=0 would
    # need 3*zeta(1,m) - 2*zeta(1,n) + 3 = 2*n1, which has no solutions
    for n1 in range(2, 60):
        for n2 in range(n1, 120):
            for n3 in range(n2, 180):
                n = n1 + n2 + n3
                m = n - n1
                if m % 4 not in (1, 2):
                    continue
                if 3 * zeta(1, m) - 2 * zeta(1, n) + 3 == 2 * n1:
                    pytest.fail(f"combo reached at {(n1, n2, n3)}")


def test_case5_exact_branch_is_empty_at_desk_scale():
    # the shift scheme's exact test, top-set deficit L - T >= n1 * theta(H)
    # with theta(H) = ceil((L - M) / n2), forces n2 >= 2*n1, which the case-V
    # inequalities exclude (proof in the tripartite docstring)
    for (n1, n2, n3) in tripartite_instances(40):
        if classify_tripartite(n1, n2, n3) != "V":
            continue
        n = n1 + n2 + n3
        top, mid, bottom = zeta(n - n1 + 1, n), zeta(n3 + 1, n3 + n2), zeta(1, n3)
        assert bottom - top < n1 * -((mid - bottom) // n2)
        assert not theta_tripartite(n1, n2, n3).exact
