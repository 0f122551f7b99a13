import json
import random
import re
from fractions import Fraction
from itertools import accumulate, islice, permutations

import pytest

from magiclab import (
    DomainError,
    Graph,
    Labeling,
    build_complete_multipartite,
    build_cycle,
    label_tripartite,
    parse_graph_spec,
    verify_s_magic,
)
from magiclab.labelings import labels_json

from referees import (
    g_function,
    gap_lower_bound,
    magic_constant_multipartite,
    modal_report,
    multipartite_distance_magic_check,
    weight,
)


def test_weight_basics():
    g = build_complete_multipartite((3, 3))
    identity = Labeling(tuple(range(1, 7)))
    assert weight(g, identity, 0) == 4 + 5 + 6
    lonely = build_complete_multipartite((1,))
    assert weight(lonely, Labeling((1,)), 0) == 0


def test_weight_on_constructed_tripartite_witness():
    g = build_complete_multipartite((5, 6, 7))
    lab = label_tripartite(5, 6, 7)
    assert all(weight(g, lab, u) == 114 for u in range(18))


def test_verify_reports_constant_and_violations():
    g = build_complete_multipartite((5, 6, 7))
    report = verify_s_magic(g, label_tripartite(5, 6, 7))
    assert report.is_magic and report.constant == 114 and not report.violations

    edge = build_complete_multipartite((1, 1))
    report = verify_s_magic(edge, Labeling((1, 2)))
    assert not report.is_magic and report.constant is None
    assert report.violations == ((0, 2),)  # weights 2 and 1 tie: the mode is 1


@pytest.mark.parametrize("labels", [(0, 1), (2, -1), (3, 1, 0)])
def test_labels_must_be_positive(labels):
    with pytest.raises(ValueError, match="positive"):
        Labeling(labels)


def _reference_report(g, labeling):
    """The report by the modal-weight rule on the referee's vertex weights."""
    return modal_report([weight(g, labeling, u) for u in range(g.vertex_count)])


@pytest.mark.parametrize("spec, labels, violations", [
    ("K(3,3)", (1, 5, 6, 2, 3, 7), ()),  # magic: both parts sum to 12
    ("K(1,2,2)", (1, 2, 5, 3, 4), ((0, 14),)),  # one vertex off the mode 8
    ("K(1,1)", (1, 2), ((0, 2),)),  # weights 2 and 1 tie: the mode is 1
    # weights 16 on two blocks of one vertex, 1 and 3 on two of three: over
    # the vertices 1 and 3 tie and the mode is 1; over the blocks it is 16
    ("U(2,K(1,3))", (1, 2, 6, 8, 3, 4, 5, 7), ((0, 16), (4, 16), (5, 3), (6, 3), (7, 3))),
])
def test_verify_report_by_the_modal_weight(spec, labels, violations):
    g = parse_graph_spec(spec)
    report = verify_s_magic(g, Labeling(labels))
    assert report == _reference_report(g, Labeling(labels))
    assert report.violations == violations


def test_verify_on_no_vertices_raises_as_before():
    with pytest.raises(ValueError, match="empty"):
        verify_s_magic(Graph((), ()), Labeling(()))


def test_no_cubic_bijection_is_magic():
    # odd-regular graphs admit no distance magic labeling at all
    g = build_complete_multipartite((3, 3))
    for perm in permutations(range(1, 7)):
        assert not verify_s_magic(g, Labeling(perm)).is_magic


def test_partite_sums_matches_verifier_on_small_graphs():
    # the two characterizations of magicness must agree on complete
    # multipartite graphs, singleton parts included (for two singleton
    # parts both sides are simply never satisfied); exhaustive for n <= 6,
    # sampled beyond.  Parts take consecutive ids in order.
    specs = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3),
             (1, 2), (1, 3), (1, 1), (1, 1, 2), (1, 2, 3)]
    for sizes in specs:
        g = build_complete_multipartite(sizes)
        n = g.vertex_count
        perms = permutations(range(1, n + 1))
        if n > 6:
            perms = islice(perms, 2000)
        cuts = list(accumulate(sizes, initial=0))
        for perm in perms:
            equal_sums = len({sum(perm[s:e]) for s, e in zip(cuts, cuts[1:])}) == 1
            assert verify_s_magic(g, Labeling(perm)).is_magic == equal_sums


def test_g_function_values():
    assert g_function(20, 11, 17, 0) == 12
    assert g_function(13, 4, 11, 0) == -20
    for n, r in [(6, 3), (8, 3), (10, 4)]:
        assert g_function(n, r, r, 0) == Fraction(r * (n - r))
    with pytest.raises(DomainError):
        g_function(5, 0, 3, 0)
    with pytest.raises(DomainError):
        g_function(5, 3, 5, 0)


def test_g_function_is_affine_with_slope_delta():
    for n, delta, Delta in [(10, 3, 7), (13, 4, 11), (20, 11, 17)]:
        values = [g_function(n, delta, Delta, x) for x in (0, 1, 2)]
        assert values[1] - values[0] == delta
        assert values[2] - values[1] == delta


def test_gap_lower_bound():
    assert gap_lower_bound(build_complete_multipartite((2, 2, 9))) == 5
    assert gap_lower_bound(build_cycle(5)) is None  # regular: no information
    assert gap_lower_bound(build_complete_multipartite((3, 8, 9))) is None
    lonely = build_complete_multipartite((1,))
    with pytest.raises(DomainError):
        gap_lower_bound(lonely)


def test_magic_constant():
    assert magic_constant_multipartite((5, 6, 7), 171) == 114
    assert magic_constant_multipartite((3, 8, 9), 231) == 154
    assert magic_constant_multipartite((1, 1), 3) == Fraction(3, 2)
    with pytest.raises(DomainError):
        magic_constant_multipartite((4,), 10)


def test_magic_constant_matches_witness_constants():
    for sizes in [(5, 6, 7), (3, 8, 9), (2, 2, 3)]:
        lab = label_tripartite(*sizes)
        report = verify_s_magic(build_complete_multipartite(sizes), lab)
        assert magic_constant_multipartite(sizes, sum(lab.labels)) == report.constant


def test_distance_magic_characterization():
    assert multipartite_distance_magic_check((5, 6, 7))
    assert not multipartite_distance_magic_check((3, 8, 9))
    assert multipartite_distance_magic_check((1, 2))  # the path on 3 vertices
    assert not multipartite_distance_magic_check((1, 1))
    assert multipartite_distance_magic_check((3, 4))
    with pytest.raises(DomainError):
        multipartite_distance_magic_check((2, 2, 2, 2, 2))


def test_labeling_json_roundtrip():
    lab = label_tripartite(3, 8, 9)
    again = Labeling.from_json('{"labels": %s}' % labels_json(lab.labels))
    assert again == lab
    assert lab.eta == 27 and min(lab.labels) == 1


def _shuffled_labels(n, seed):
    labels = list(range(1, n + 1))
    random.Random(seed).shuffle(labels)
    return tuple(labels)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 4513,
                               99_999, 100_000])
def test_labels_json_matches_sorted_json_dumps(n):
    labels = _shuffled_labels(n, n)
    assert labels_json(labels) == json.dumps(
        {str(v): lab for v, lab in enumerate(labels)}, sort_keys=True
    )


def test_labels_json_matches_sorted_json_dumps_on_random_sizes():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice([rng.randrange(30), rng.randrange(3000), rng.randrange(30_000)])
        labels = _shuffled_labels(n, rng.random())
        # labels need not be 1..n: any positive integers print the same way
        labels = tuple(lab * rng.randrange(1, 10**12) for lab in labels)
        assert labels_json(labels) == json.dumps(
            {str(v): lab for v, lab in enumerate(labels)}, sort_keys=True
        ), n


@pytest.mark.parametrize("text, message", [
    ('{"labels": {"0": 1.9, "1": 4, "2": 2, "3": 3}}', "JSON integers, got 1.9"),
    ('{"labels": {"0": 1, "1": 4, "2": 2, "3": 3, "03": 99}}', "got '03'"),
    ('{"labels": {"0": 1, "1": "4", "2": 2, "3": 3}}', 'JSON integers, got "4"'),
    ('{"labels": {"0": 1, "1": true, "2": 2, "3": 3}}', "JSON integers, got true"),
    ('{"labels": {"0": 1, "1": 4.0, "2": 2, "3": 3}}', "JSON integers, got 4.0"),
    ('{"labels": {"0": 1, "01": 4, "2": 2, "3": 3}}', "got '01'"),
    ('{"labels": {"0": 1, " 1": 4, "2": 2, "3": 3}}', "got ' 1'"),
    ('{"labels": {"1": 1, "2": 4, "3": 2, "4": 3}}', "got '4'"),
    ('{"labels": {"0": 1, "1": 4, "1": 2, "3": 3}}', "repeats a key"),
    ('{"labels": [1, 4, 2, 3]}', '"labels" object'),
    ('[1, 4, 2, 3]', '"labels" object'),
    ('{"weights": {}}', '"labels" object'),
])
def test_from_json_takes_only_canonical_ids_and_integer_labels(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Labeling.from_json(text)


def test_from_json_reads_ids_in_any_order():
    text = '{"labels": {"10": 11, "2": 3, "0": 1, "1": 2, "9": 10, "3": 4, "4": 5, ' \
           '"5": 6, "6": 7, "7": 8, "8": 9}}'
    assert Labeling.from_json(text).labels == tuple(range(1, 12))
    assert Labeling.from_json('{"labels": {}}').labels == ()
