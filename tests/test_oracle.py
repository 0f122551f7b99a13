import time
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magiclab import (
    BudgetExceededError,
    DomainError,
    build_complete_multipartite,
    build_cycle,
    oracle_theta_general,
    oracle_theta_multipartite,
    parse_graph_spec,
    theta_bipartite,
    theta_tripartite,
    verify_s_magic,
)
from magiclab.families import theta_K_ab
from magiclab.graphs import Graph
from magiclab.oracle import _pack, _pack_blocks, _refuted_by_neighbourhoods, _scan_level, _Ticker

from conftest import explicit, neighbour_sets, petersen, tripartite_instances
from referees import equal_sum_partition


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


def test_joint_slot_bound_prunes_at_the_root():
    # each part needs 4 from one label of {1..4}, which it can reach alone,
    # but the two open slots together need 8 > 4 + 3
    ticker = _Ticker(time.monotonic() + 60)
    assert _pack([1, 1], 4, 2, ticker) is None
    assert ticker.nodes == 1


@st.composite
def _pack_instances(draw):
    # parts of two to four labels, so that draws with a packing are common
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4).filter(
        lambda s: sum(s) <= 8
    ))
    e = draw(st.integers(0, 3))
    pool = range(1, sum(sizes) + e + 1)
    # half the draws take a target that has a packing, when there is one
    sums = sorted({sum(part) for part in combinations(pool, sizes[0])})
    packable = [t for t in sums if _brute_pack_exists(pool, sizes, t)]
    target = draw(st.sampled_from(packable if packable and draw(st.booleans()) else sums))
    return sizes, target, e


def _brute_pack_exists(pool, sizes, target):
    """Whether disjoint subsets of ``pool`` of the given sizes, all summing
    to ``target``, use the top label of ``pool``."""
    def rec(free, i):
        if i == len(sizes):
            return pool[-1] not in free
        return any(
            rec(free - set(part), i + 1)
            for part in combinations(sorted(free), sizes[i])
            if sum(part) == target
        )

    return rec(set(pool), 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_pack_instances())
def test_pack_finds_a_packing_exactly_when_one_exists(instance):
    sizes, target, e = instance
    pool = range(1, sum(sizes) + e + 1)
    ticker = _Ticker(time.monotonic() + 60)
    got = _pack(sizes, target, e, ticker)
    assert (got is not None) == _brute_pack_exists(pool, sizes, target)
    if got is not None:
        used = [x for part in got for x in part]
        assert [len(part) for part in got] == sizes
        assert all(sum(part) == target for part in got)
        assert len(set(used)) == len(used) and set(used) <= set(pool)
        assert pool[-1] in used


def test_infeasible_levels_are_proved_in_few_nodes():
    ticker = _Ticker(time.monotonic() + 60)
    assert _scan_level([2, 6, 8], 11, ticker) is not None
    # targets 49-52 have no packing and 53 does; the joint-slot bound
    # refutes each empty target within a few dozen nodes
    assert ticker.nodes < 1000


@pytest.mark.parametrize("sizes, nodes", [
    ((2, 6, 8), [0] * 9 + [8, 36, 126]),
    ((2, 2, 9), [0] * 10 + [3, 36]),
    ((2, 3, 4, 5), [0, 68]),
    ((3, 3, 3, 4), [0, 20]),
    ((3, 4, 5), [14]),
])
def test_search_nodes_per_level_are_pinned(sizes, nodes):
    # the nodes each excess level visits, up to the index: a change of the
    # search that moves them changes its branch order or its prunes
    visited = []
    for e in range(len(nodes)):
        ticker = _Ticker(time.monotonic() + 60)
        found = _scan_level(list(sizes), e, ticker)
        visited.append(ticker.nodes)
        assert (found is not None) == (e == len(nodes) - 1), e
    assert visited == nodes


def _closed_form(sizes):
    if len(sizes) == 2:
        return theta_bipartite(*sizes)
    if len(sizes) == 3:
        return theta_tripartite(*sizes)
    return theta_K_ab(sizes[0], len(sizes))


def test_closed_forms_agree_with_the_oracle_over_its_cap():
    shapes = [(n1, n - n1) for n in range(4, 17) for n1 in range(2, n // 2 + 1)]
    shapes += tripartite_instances(16)
    shapes += [(a,) * r for a in range(2, 5) for r in range(4, 16 // a + 1)]
    assert len(shapes) == 124
    kinds = {"exact": 0, "bounded": 0, "exhausted": 0}
    for sizes in shapes:
        formula = _closed_form(sizes)
        found = oracle_theta_multipartite(build_complete_multipartite(sizes), 16)
        if found.exact:
            assert formula.lower <= found.theta, sizes
            assert formula.upper is None or found.theta <= formula.upper, sizes
            kinds["exact" if formula.exact else "bounded"] += 1
        else:
            assert formula.upper is None or formula.upper >= found.lower, sizes
            kinds["exhausted"] += 1
    assert kinds == {"exact": 90, "bounded": 27, "exhausted": 7}


def _first_level(sizes, max_excess):
    """The oracle's scan of a shape over its vertex cap: the first excess
    level up to ``max_excess`` with an equal-sum packing, or None."""
    ticker = _Ticker(time.monotonic() + 60)
    levels = range(max_excess + 1)
    return next((e for e in levels if _scan_level(list(sizes), e, ticker)), None)


def test_multipartite_oracle_golden_values():
    assert _first_level((5, 6, 7), 0) == 0
    assert _first_level((3, 8, 9), 8) == 7
    res = oracle_theta_multipartite(build_complete_multipartite((1, 1)), 6)
    assert not res.exact and res.case_tag == "oracle-exhausted"
    assert (res.lower, res.upper) == (7, None)


def test_oracle_witnesses_verify():
    for sizes in [(2, 3), (2, 2, 2), (3, 3, 4), (2, 2, 6), (2, 3, 5)]:
        res = oracle_theta_multipartite(build_complete_multipartite(sizes), 8)
        g = build_complete_multipartite(sizes)
        assert verify_s_magic(g, res.witness).is_magic
        assert res.witness.eta == sum(sizes) + res.theta


def test_feasibility_monotone_in_excess():
    for sizes, theta in [((2, 3), 1), ((2, 2, 6), 2), ((3, 3), 1)]:
        for budget in range(theta, theta + 3):
            res = oracle_theta_multipartite(build_complete_multipartite(sizes), budget)
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
    refuted = twins + ["C(5)", "C(6)"]
    admitted = ["C(4)", "K(2,2)", "K(1,2)", "K(1,2,3)", "LEX(C(3),E(2))"]
    for text in refuted:
        assert oracle._refuted_by_neighbourhoods(explicit(parse_graph_spec(text))), text
    for text in admitted:
        assert not oracle._refuted_by_neighbourhoods(explicit(parse_graph_spec(text))), text
    specs = ["C(4)", "C(5)", "C(6)", "K(1,1)", "K(1,1,1)", "K(1,1,2)", "K(1,1,3)", "K(1,1,4)"]
    graphs = [explicit(parse_graph_spec(t)) for t in specs]
    pruned = [oracle_theta_general(g, 3) for g in graphs]
    monkeypatch.setattr(oracle, "_refuted_by_neighbourhoods", lambda g: False)
    full = [oracle_theta_general(g, 3) for g in graphs]
    assert pruned == full
    assert [r.case_tag for r in full[3:]] == ["oracle-exhausted"] * 5


def _graph(n, edges):
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph.from_neighbors(tuple(map(frozenset, nbrs)))


@pytest.mark.parametrize("graph, refuted", [
    # subset, the path P4: N(0) = {1} lies inside N(2) = {1, 3}
    (_graph(4, [(0, 1), (1, 2), (2, 3)]), True),
    # subset: the pendant vertex 4 has N(4) = {0} inside N(1) = {0, 2}
    (_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]), True),
    # singleton differences, C(b): N(0) - N(2) = {b - 1} and N(2) - N(0) = {3}
    (build_cycle(5), True),
    (build_cycle(7), True),
    # an isolated vertex beside an edge: N(2) is empty, N(0) is not
    (_graph(3, [(0, 1)]), True),
    (build_cycle(4), False),
    (explicit(parse_graph_spec("K(3,3)")), False),
    (petersen(), False),
])
def test_neighbourhood_lemma_cases(graph, refuted):
    from magiclab import oracle

    assert oracle._refuted_by_neighbourhoods(graph) is refuted


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_small_graphs())
def test_neighbourhood_lemma_matches_the_unpruned_search(graph):
    from magiclab import oracle

    pruned = oracle_theta_general(graph, 2)
    with mock.patch.object(oracle, "_refuted_by_neighbourhoods", return_value=False):
        full = oracle_theta_general(graph, 2)
    assert pruned == full
    if oracle._refuted_by_neighbourhoods(graph):
        assert full.witness is None


# nested specs of at most five vertices, for the brute-force referees
_NESTED_GRAPHS = st.recursive(
    st.one_of(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
            lambda sizes: "K(" + ",".join(map(str, sizes)) + ")"
        ),
        st.integers(3, 5).map(lambda b: f"C({b})"),
    ),
    lambda inner: st.one_of(
        st.tuples(st.integers(1, 2), inner).map(lambda t: f"U({t[0]},{t[1]})"),
        st.tuples(inner, st.integers(1, 2)).map(lambda t: f"LEX({t[0]},E({t[1]}))"),
    ),
    max_leaves=2,
).map(parse_graph_spec)
_REFEREE_GRAPHS = st.one_of(_small_graphs(), _NESTED_GRAPHS).filter(
    lambda g: g.vertex_count <= 5
)


def _brute_levels(graph, max_excess):
    """The excesses e <= max_excess at which some bijection onto a label set
    with top label n + e is magic, trying every set and permutation."""
    nbrs = neighbour_sets(graph)
    n = len(nbrs)
    return [
        e for e in range(max_excess + 1)
        if any(
            len({sum(labels[v] for v in nbrs[u]) for u in range(n)}) == 1
            for rest in combinations(range(1, n + e), n - 1)
            for labels in permutations(rest + (n + e,))
        )
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_REFEREE_GRAPHS)
# index 1, and a star the lemma admits with no labeling up to excess 2
@example(parse_graph_spec("K(2,3)"))
@example(parse_graph_spec("K(1,4)"))
def test_general_oracle_matches_brute_force(graph):
    from magiclab import oracle

    levels = _brute_levels(graph, 2)
    n = graph.vertex_count
    blocks = explicit(graph)
    for e in range(3):
        parts = _pack_blocks(blocks, e, _Ticker(time.monotonic() + 60))
        assert (parts is not None) == (e in levels), e
        if parts is not None:
            assert max(max(labels, default=0) for labels in parts) == n + e
    # on groups of parts, the part sums; the block search on the explicit form
    pruned = oracle_theta_general(graph, 2)
    # the block search alone must prove what the lemma refutes
    with mock.patch.object(oracle, "_refuted_by_neighbourhoods", return_value=False):
        unpruned = oracle_theta_general(blocks, 2)
    for res in (pruned, unpruned):
        if not levels:
            assert (res.lower, res.upper, res.witness) == (3, None, None)
        else:
            assert (res.lower, res.upper) == (levels[0], levels[0])
            assert verify_s_magic(graph, res.witness).is_magic
            assert res.witness.eta == n + levels[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_REFEREE_GRAPHS)
def test_block_lemma_matches_the_vertex_lemma(graph):
    from magiclab import oracle

    nbrs = neighbour_sets(graph)
    refuted = False
    for u, v in combinations(range(len(nbrs)), 2):
        only_u, only_v = len(nbrs[u] - nbrs[v]), len(nbrs[v] - nbrs[u])
        refuted |= (only_u == 0) != (only_v == 0) or only_u == only_v == 1
    assert oracle._refuted_by_neighbourhoods(explicit(graph)) is refuted


def test_two_singleton_parts_match_the_unpruned_scan():
    # the multipartite oracle answers these shapes before any level; the
    # scan it skips must find no packing at any level either
    shapes = [
        sizes
        for n in range(2, 11)
        for r in range(2, n + 1)
        for sizes in _partitions(n, r)
        if sizes.count(1) >= 2
    ]
    for sizes in shapes:
        n = sum(sizes)
        res = oracle_theta_multipartite(build_complete_multipartite(sizes), 16)
        assert (res.lower, res.upper, res.case_tag) == (17, None, "oracle-exhausted"), sizes
        ticker = _Ticker(time.monotonic() + 60)
        assert all(_scan_level(list(sizes), e, ticker) is None for e in range(17)), sizes


def test_two_oracles_agree_on_multipartite():
    # every complete multipartite shape up to 10 vertices
    for n in range(1, 11):
        for r in range(1, n + 1):
            for sizes in _partitions(n, r):
                g = build_complete_multipartite(sizes)
                # the two refutation rules: two singleton parts, and the lemma
                assert _refuted_by_neighbourhoods(explicit(g)) == (sizes.count(1) >= 2), sizes
                fast = oracle_theta_multipartite(g, 6)
                slow = oracle_theta_general(explicit(g), 6)
                assert (fast.lower, fast.upper) == (slow.lower, slow.upper), sizes


def test_multipartite_oracle_refuses_other_graphs():
    with pytest.raises(DomainError, match="complete multipartite"):
        oracle_theta_multipartite(build_cycle(5), 4)


def test_multipartite_oracle_labels_blocks_out_of_size_order():
    # K(1,2) written explicitly with its parts in decreasing order: the
    # witness lists its labels block by block, whatever the block order
    g = Graph((2, 1), ((1,), (0,)))
    res = oracle_theta_multipartite(g, 4)
    assert res.theta == 0 and verify_s_magic(g, res.witness).is_magic


def _partitions(n, r, minimum=1):
    if r == 1:
        yield (n,)
        return
    for first in range(minimum, n // r + 1):
        for rest in _partitions(n - first, r - 1, first):
            yield (first,) + rest


def test_budget_is_reported_not_silent():
    with pytest.raises(BudgetExceededError):
        oracle_theta_multipartite(build_complete_multipartite((2, 2, 9)), 14, budget_seconds=-1)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_budget_is_refused(budget):
    # a NaN or infinite deadline never ends the search, so neither oracle runs
    with pytest.raises(DomainError, match="finite"):
        oracle_theta_multipartite(build_complete_multipartite((2, 2)), 2, budget_seconds=budget)
    with pytest.raises(DomainError, match="finite"):
        oracle_theta_general(build_cycle(6), 2, budget_seconds=budget)
