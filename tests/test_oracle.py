from itertools import combinations

import pytest

from magiclab import (
    BudgetExceededError,
    PartiteSpec,
    build_complete_multipartite,
    build_cycle,
    equal_sum_partition,
    oracle_theta_general,
    oracle_theta_multipartite,
    parse_graph_spec,
    verify_s_magic,
)


def test_equal_sum_partition_examples():
    assert equal_sum_partition(range(1, 7), (3, 3)) is None  # total 21 is odd
    assert equal_sum_partition([1, 2, 3, 4, 5, 7], (3, 3)) == ((1, 3, 7), (2, 4, 5))
    assert equal_sum_partition(range(1, 7), (2, 2, 2)) == ((1, 6), (2, 5), (3, 4))


def test_equal_sum_partition_matches_brute_force():
    # independent re-check of the pruned search on every small instance
    def brute(labels, k):
        labels = list(labels)
        total = sum(labels)
        if total % 2:
            return False
        return any(sum(c) * 2 == total for c in combinations(labels, k))

    for top in range(4, 9):
        pool = list(range(1, top + 1))
        for size in range(4, top + 1):
            for labels in combinations(pool, size):
                for k in range(1, size):
                    got = equal_sum_partition(labels, (k, size - k))
                    assert (got is not None) == brute(labels, k), (labels, k)
                    if got is not None:
                        assert sorted(got[0] + got[1]) == sorted(labels)
                        assert sum(got[0]) == sum(got[1])


def test_multipartite_oracle_golden_values():
    assert oracle_theta_multipartite(PartiteSpec((5, 6, 7)), 0, max_n=18).theta == 0
    assert oracle_theta_multipartite(PartiteSpec((3, 8, 9)), 8, max_n=20).theta == 7
    res = oracle_theta_multipartite(PartiteSpec((1, 1)), 6)
    assert not res.exact and res.case_tag == "oracle-exhausted"
    assert (res.lower, res.upper) == (7, None)


def test_oracle_witnesses_verify():
    for sizes in [(2, 3), (2, 2, 2), (3, 3, 4), (2, 2, 6), (2, 3, 5)]:
        res = oracle_theta_multipartite(PartiteSpec(sizes), 8)
        g = build_complete_multipartite(PartiteSpec(sizes))
        assert verify_s_magic(g, res.witness).is_magic
        assert res.witness.eta == sum(sizes) + res.theta


def test_feasibility_monotone_in_excess():
    for sizes, theta in [((2, 3), 1), ((2, 2, 6), 2), ((3, 3), 1)]:
        for budget in range(theta, theta + 3):
            res = oracle_theta_multipartite(PartiteSpec(sizes), budget)
            assert res.theta == theta


def test_general_oracle_small_graphs():
    assert oracle_theta_general(build_cycle(4), 2).theta == 0
    res = oracle_theta_general(parse_graph_spec("K(3,3)"), 2)
    assert res.theta == 1
    assert verify_s_magic(parse_graph_spec("K(3,3)"), res.witness).is_magic
    assert oracle_theta_general(parse_graph_spec("K(1,2)"), 2).theta == 0


def test_general_oracle_regression_fixtures():
    # frozen desk-scale outcomes the formulas never cover
    assert oracle_theta_general(build_cycle(5), 6).case_tag == "oracle-exhausted"
    assert oracle_theta_general(parse_graph_spec("K(1,1,1)"), 4).case_tag == "oracle-exhausted"
    # a matching edge forces its two labels equal, so no labeling exists
    matching = parse_graph_spec("U(2,K(1,1))")
    assert oracle_theta_general(matching, 4).case_tag == "oracle-exhausted"
    assert oracle_theta_general(parse_graph_spec("LEX(C(3),E(2))"), 3).theta == 0


def test_adjacent_closed_twin_prune(monkeypatch):
    from magiclab import oracle

    twins = ["K(1,1)", "K(1,1,1)", "K(1,1,2)", "K(1,1,3)", "K(1,1,4)", "U(2,K(1,1))", "C(3)"]
    twin_free = ["C(4)", "C(5)", "C(6)", "K(2,2)", "K(1,2)", "K(1,2,3)", "LEX(C(3),E(2))"]
    for text in twins:
        assert oracle._has_adjacent_closed_twins(parse_graph_spec(text)), text
    for text in twin_free:
        assert not oracle._has_adjacent_closed_twins(parse_graph_spec(text)), text
    specs = ["C(4)", "C(5)", "C(6)", "K(1,1)", "K(1,1,1)", "K(1,1,2)", "K(1,1,3)", "K(1,1,4)"]
    pruned = [oracle_theta_general(parse_graph_spec(t), 3) for t in specs]
    monkeypatch.setattr(oracle, "_has_adjacent_closed_twins", lambda g: False)
    full = [oracle_theta_general(parse_graph_spec(t), 3) for t in specs]
    assert pruned == full
    assert [r.case_tag for r in full[3:]] == ["oracle-exhausted"] * 5


def test_two_oracles_agree_on_multipartite():
    # every partite shape up to 8 vertices; the larger order gets a smaller
    # excess cap to keep the general oracle's infeasibility proofs quick
    for top, excess in ((7, 4), (8, 2)):
        for n in range(2 if top == 7 else 8, top + 1):
            for r in range(1, n + 1):
                for sizes in _partitions(n, r):
                    spec = PartiteSpec(sizes)
                    fast = oracle_theta_multipartite(spec, excess)
                    slow = oracle_theta_general(build_complete_multipartite(spec), excess)
                    assert (fast.lower, fast.upper) == (slow.lower, slow.upper), sizes


def _partitions(n, r, minimum=1):
    if r == 1:
        yield (n,)
        return
    for first in range(minimum, n // r + 1):
        for rest in _partitions(n - first, r - 1, first):
            yield (first,) + rest


def test_budget_is_reported_not_silent():
    with pytest.raises(BudgetExceededError):
        oracle_theta_multipartite(PartiteSpec((2, 2, 9)), 14, budget_seconds=-1)


def test_budget_env_var_sets_default(monkeypatch):
    from magiclab.oracle import default_budget_seconds

    assert default_budget_seconds() == 60.0
    monkeypatch.setenv("MAGICLAB_BUDGET_SECONDS", "0.25")
    assert default_budget_seconds() == 0.25
