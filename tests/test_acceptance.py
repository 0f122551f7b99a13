"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from magiclab import (
    DECISION_TABLES,
    MagicArray,
    build_complete_multipartite,
    build_cycle,
    disjoint_union,
    kotzig_array,
    label_by_qmr_columns,
    lex_blowup,
    oracle_theta_multipartite,
    qmr,
    theta_bipartite,
    theta_tripartite,
    verify_kotzig,
    verify_qmr,
    verify_s_magic,
)
from magiclab.arrays import _line_sums
from magiclab.cli import main
from magiclab.tripartite import classify_tripartite, zeta

from conftest import check_decision_table_row, circulant, petersen
from referees import (
    g_function,
    gap_lower_bound,
    kotzig_exists_exhaustive,
    multipartite_distance_magic_check,
    qmr_exists_exhaustive,
)
from test_arrays import PRINTED_QMR_3_10


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_golden_k567():
    start = time.monotonic()
    code, out, _ = run_cli("index", "K(5,6,7)")
    payload = json.loads(out)
    assert code == 0 and payload["theta"] == 0 and payload["case"] == "tripartite-I"
    code, out, _ = run_cli("label", "K(5,6,7)")
    payload = json.loads(out)
    assert code == 0 and payload["constant"] == 114
    labels = sorted(int(v) for v in payload["labels"].values())
    assert labels == list(range(1, 19))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion-1", f"K(5,6,7): theta=0, constant=114 ({elapsed:.2f}s)")


def test_criterion_2_golden_k389():
    start = time.monotonic()
    code, out, _ = run_cli("index", "K(3,8,9)")
    payload = json.loads(out)
    assert code == 0 and payload["theta"] == 7 and payload["case"] == "tripartite-II"
    assert (20 - 3) % 4 == 1  # the +1 branch of case II
    code, out, _ = run_cli("label", "K(3,8,9)")
    payload = json.loads(out)
    assert code == 0 and payload["constant"] == 154 and payload["eta"] == 27
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion-2", f"K(3,8,9): theta=7, max label 27, constant 154 ({elapsed:.2f}s)")


def test_criterion_3_qmr_3_10():
    start = time.monotonic()
    arr = qmr(3, 10)
    check = verify_qmr(arr)
    assert check.valid and arr.hole == 16
    assert _line_sums(arr) == (160, 48)
    printed = MagicArray(rows=3, cols=10, entries=PRINTED_QMR_3_10, kind="qmr", hole=16)
    assert verify_qmr(printed).valid
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report("criterion-3", f"QMR(3,10): d=16, rho=160, sigma=48 ({elapsed:.2f}s)")


def test_criterion_4_oracle_formula_sweep(tri_oracle):
    results, sweep_seconds = tri_oracle
    start = time.monotonic()
    exact_checked = bounded_checked = 0
    for sizes, oracle_result in results.items():
        formula = theta_tripartite(*sizes)
        assert oracle_result.exact, sizes
        if formula.exact:
            assert formula.theta == oracle_result.theta, sizes
            exact_checked += 1
        else:
            assert formula.lower <= oracle_result.theta, sizes
            if formula.upper is not None:
                assert oracle_result.theta <= formula.upper, sizes
            bounded_checked += 1
    elapsed = sweep_seconds + (time.monotonic() - start)
    assert elapsed <= 600
    report(
        "criterion-4",
        f"{exact_checked} exact + {bounded_checked} bounded instances agree ({elapsed:.2f}s)",
    )


def test_criterion_5_characterization_cross_check(tri_oracle):
    results, _ = tri_oracle
    for sizes, oracle_result in results.items():
        dm = classify_tripartite(*sizes) == "I"
        assert dm == (oracle_result.theta == 0), sizes
        assert dm == multipartite_distance_magic_check(sizes), sizes
    report("criterion-5", f"{len(results)} instances, both characterizations agree")


def test_criterion_6_bipartite_formula_sweep():
    start = time.monotonic()
    checked = 0
    for n in range(4, 13):
        for n1 in range(2, n // 2 + 1):
            n2 = n - n1
            formula = theta_bipartite(n1, n2)
            oracle_result = oracle_theta_multipartite(build_complete_multipartite((n1, n2)), 16)
            assert oracle_result.theta == formula.theta, (n1, n2)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    report("criterion-6", f"{checked} bipartite instances exact ({elapsed:.2f}s)")


def test_criterion_7_case3_identity(tri_oracle):
    results, _ = tri_oracle
    case3 = 0
    for sizes, oracle_result in results.items():
        n1, n2, n3 = sizes
        n = n1 + n2 + n3
        g = build_complete_multipartite(sizes)
        bound = gap_lower_bound(g)
        if bound is not None:
            assert bound <= oracle_result.theta, sizes
        if classify_tripartite(*sizes) != "III":
            continue
        case3 += 1
        g0 = g_function(n, n - n3, n - n1, 0)
        assert g0 == zeta(n - n1 + 1, n) - zeta(1, n3), sizes
        assert theta_tripartite(*sizes).lower == -((-abs(g0)) // (n - n3)), sizes
    assert case3 > 0
    report("criterion-7", f"{case3} case-III instances match the gap bound exactly")


# every family instance whose index is 1 with at most 31 labels in play
_KAB = [(3, 2), (3, 4), (3, 6), (3, 8), (3, 10), (5, 4), (5, 6), (7, 2), (7, 4)]
_MKAB = [(2, 3, 2), (2, 3, 3), (2, 3, 4), (2, 3, 5), (3, 3, 2), (4, 3, 2),
         (5, 3, 2), (2, 5, 2), (2, 5, 3), (3, 5, 2), (2, 7, 2)]
_MCLEX = [(1, 3, 6), (1, 3, 10), (2, 3, 3), (2, 3, 5), (1, 5, 6), (2, 5, 3)]


def _lex_instances():
    k2 = build_complete_multipartite((1, 1))
    k4 = build_complete_multipartite((1, 1, 1, 1))
    k33 = build_complete_multipartite((3, 3))
    yield from ((k2, a) for a in (3, 7, 11, 15))
    yield from ((disjoint_union(2, k2), a) for a in (3, 5, 7))
    yield from ((disjoint_union(3, k2), a) for a in (3, 5))
    yield from ((k4, a) for a in (3, 5, 7))
    yield from ((k33, a) for a in (3, 5))
    yield (petersen(), 3)
    yield from ((build_cycle(6), a) for a in (3, 5))
    yield (build_cycle(10), 3)
    yield (circulant(10, (1, 2, 3)), 3)


def test_criterion_8_family_rules_and_witnesses():
    start = time.monotonic()
    assert len(DECISION_TABLES) == 34
    cells = sum(check_decision_table_row(row) for row in DECISION_TABLES)
    assert cells > 150
    witnesses = 0

    def certify(g, a, constant):
        nonlocal witnesses
        lab = label_by_qmr_columns(g, a)
        report = verify_s_magic(g, lab)
        assert report.is_magic and report.constant == constant
        assert lab.eta == g.vertex_count + 1 <= 31
        witnesses += 1

    for a, b in _KAB:
        sigma = a * (a * b + 2) // 2
        certify(build_complete_multipartite((a,) * b), a, sigma * (b - 1))
    for m, a, b in _MKAB:
        sigma = a * (a * m * b + 2) // 2
        k_ab = build_complete_multipartite((a,) * b)
        certify(disjoint_union(m, k_ab), a, sigma * (b - 1))
    for m, a, b in _MCLEX:
        sigma = a * (a * m * b + 2) // 2
        certify(disjoint_union(m, lex_blowup(build_cycle(b), a)), a, 2 * sigma)
    for base, a in _lex_instances():
        sigma = a * (a * base.vertex_count + 2) // 2
        certify(lex_blowup(base, a), a, base.max_degree * sigma)
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    report("criterion-8", f"{witnesses} certified index-1 witnesses ({elapsed:.2f}s)")


def test_criterion_9_array_properties():
    start = time.monotonic()
    for a in range(1, 7):
        for b in range(1, 9):
            arr = kotzig_array(a, b)
            if arr is not None:
                assert verify_kotzig(arr), (a, b)
            elif a * b <= 18:
                assert not kotzig_exists_exhaustive(a, b), (a, b)
    for a in (1, 3, 5):
        for b in (2, 4, 6, 8):
            arr = qmr(a, b)
            if a == 1 or (a % 4 == 1 and b == 2):
                assert arr is None, (a, b)
            else:
                assert verify_qmr(arr).valid, (a, b)
                ab = a * b
                assert sum(map(sum, arr.entries)) == ab * (ab + 2) // 2
    assert not qmr_exists_exhaustive(5, 2)
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    report("criterion-9", f"array grids verified, QMR(5,2) ruled out ({elapsed:.2f}s)")


_CLI_MATRIX = [
    ("index", "K(5,6,7)"),
    ("index", "K(3,8,9)"),
    ("index", "K(2,2,9)"),
    ("index", "U(2,K(3,3))"),
    ("index", "LEX(C(10),E(3))"),
    ("index", "K(2,2,2,2)"),
    ("index", "C(4)", "--oracle", "--max-excess", "2"),
    ("label", "K(5,6,7)"),
    ("label", "K(3,8,9)"),
    ("label", "K(2,2,3)"),
    ("label", "U(2,K(3,3))"),
    ("oracle", "K(2,3)", "--max-excess", "3"),
    ("oracle", "K(2,2,6)", "--max-excess", "4"),
    ("oracle", "K(3,3)", "--max-excess", "2"),
    ("qmr", "3", "10"),
    ("qmr", "5", "6"),
    ("qmr", "5", "2"),
    ("kotzig", "3", "5"),
    ("kotzig", "3", "4"),
    ("tables",),
]


def test_criterion_10_determinism_across_jobs():
    """The CLI matrix prints the same bytes twice over.  ``--jobs`` is
    accepted and ignored, so the ``--jobs 1`` and ``--jobs 4`` batches take
    one code path and this checks run-to-run determinism only."""
    outputs = []
    for jobs in ("1", "4"):
        batch = []
        for argv in _CLI_MATRIX:
            if argv[0] in ("index", "label", "oracle"):
                batch.append(run_cli(*argv, "--jobs", jobs))
            else:
                batch.append(run_cli(*argv))
        outputs.append(batch)
    assert outputs[0] == outputs[1]
    report("criterion-10", f"{len(_CLI_MATRIX)} CLI calls byte-identical at jobs 1 and 4")
