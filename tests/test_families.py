import pytest

from magiclab import (
    DECISION_TABLES,
    DomainError,
    build_complete_multipartite,
    build_cycle,
    disjoint_union,
    label_by_qmr_columns,
    lex_blowup,
    theta_bipartite,
    theta_K_ab,
    theta_lex_regular,
    theta_mC_lex,
    theta_mK_ab,
    verify_s_magic,
)

from conftest import check_decision_table_row, petersen


def test_theta_K_ab_examples():
    assert theta_K_ab(3, 4).theta == 1
    assert theta_K_ab(2, 5).theta == 0
    with pytest.raises(DomainError):
        theta_K_ab(1, 4)
    with pytest.raises(DomainError, match="theta_bipartite"):
        theta_K_ab(5, 2)  # two parts: the bipartite theorem gives index 1


def test_theta_mK_ab_examples():
    assert theta_mK_ab(2, 3, 3).theta == 1
    assert theta_mK_ab(2, 3, 3).case_tag == "mKab-otherwise"
    assert theta_mK_ab(3, 3, 3).theta == 0
    assert theta_mK_ab(2, 2, 4).theta == 0
    with pytest.raises(DomainError):
        theta_mK_ab(1, 3, 3)


def test_theta_mC_lex_examples():
    assert theta_mC_lex(1, 3, 4).theta == 0
    assert theta_mC_lex(2, 3, 6).theta == 1
    assert theta_mC_lex(2, 3, 5).theta == 1


def test_theta_lex_regular_examples():
    assert theta_lex_regular(3, 10, 3).theta == 1  # the Petersen graph
    assert theta_lex_regular(3, 10, 2).theta == 0
    assert theta_lex_regular(4, 7, 3).theta == 0  # a 4-regular circulant on 7
    for r, b in ((3, 5), (5, 5), (-1, 4)):  # no r-regular graph on b vertices
        with pytest.raises(DomainError):
            theta_lex_regular(r, b, 3)


def test_theta_lex_unresolved_cells():
    res = theta_lex_regular(4, 8, 3)  # r=4, b=0 mod 4
    assert (res.lower, res.upper) == (0, 1)
    assert res.case_tag == "lex-unsolved"
    res = theta_lex_regular(2, 8, 3)  # r=2, b=0 mod 4
    assert (res.lower, res.upper) == (0, 1)
    res = theta_lex_regular(2, 6, 3)  # r=2, b=2 mod 4: solved
    assert res.theta == 1


def test_theta_lex_open_and_uncovered():
    # a = 1 (mod 4) with b = 2: no QMR(5, 2), but K_2 o E_5 is K(5, 5)
    assert theta_lex_regular(1, 2, 5).theta == theta_bipartite(5, 5).theta == 1
    with pytest.raises(DomainError):  # the identity blow-up is no family member
        theta_lex_regular(2, 5, 1)
    assert theta_lex_regular(0, 4, 3).theta == 0  # edgeless


def test_uniform_k_union_blow_up_refines_lex_regular():
    # U(m,LEX(K(s^r),E(a))) is G o E_a for G = U(m,K(s^r)), which is
    # (r-1)s-regular on mrs vertices, and also mK(s*a, r): the two forms
    # agree wherever G o E_a is exact, and mK(a,b) decides its open cells
    exact = decided = 0
    for s in range(1, 8):
        for r in range(2, 7):
            for m in range(2, 9):
                for a in range(2, 10):
                    lex = theta_lex_regular((r - 1) * s, m * r * s, a)
                    mk = theta_mK_ab(m, s * a, r)
                    if lex.exact:
                        assert mk.theta == lex.theta, (s, r, m, a)
                        exact += 1
                    else:
                        assert (lex.lower, lex.upper) == (0, 1) and mk.exact, (s, r, m, a)
                        decided += 1
    assert (exact, decided) == (1444, 516)


def test_every_decision_table_cell():
    checked = 0
    for row in DECISION_TABLES:
        checked += check_decision_table_row(row)
    assert checked > 150


def _column_constant(g, a):
    """Magic constant of the column labeling of ``g`` with groups of ``a``
    vertices, checking eta = n + 1."""
    lab = label_by_qmr_columns(g, a)
    report = verify_s_magic(g, lab)
    assert report.is_magic and lab.eta == g.vertex_count + 1
    return report.constant


def test_family_witnesses():
    assert _column_constant(build_complete_multipartite((3, 3)), 3) == 12

    sigma = 3 * (3 * 6 + 2) // 2  # column sum of QMR(3, 6)
    k333 = build_complete_multipartite((3, 3, 3))
    assert _column_constant(disjoint_union(2, k333), 3) == sigma * 2

    assert _column_constant(lex_blowup(petersen(), 3), 3) == 144  # eta 31

    c5_blowup = lex_blowup(build_cycle(5), 3)
    assert _column_constant(disjoint_union(2, c5_blowup), 3) == 2 * (3 * (3 * 10 + 2) // 2)


def test_family_witness_gate():
    with pytest.raises(DomainError):  # index 0: no QMR with an even number of rows
        label_by_qmr_columns(build_complete_multipartite((2,) * 5), 2)
    with pytest.raises(DomainError):  # open cell: no QMR(5, 2)
        label_by_qmr_columns(build_complete_multipartite((5, 5)), 5)
    with pytest.raises(DomainError):  # a block of 3 is not whole groups of 2
        label_by_qmr_columns(build_complete_multipartite((2, 3)), 2)


def _family_specs(max_n):
    """Every K(a^b), U(m,K(a^b)), LEX(C(b),E(a)) and U(m,LEX(C(b),E(a))) with
    a, b, m >= 2 (b >= 3 for a cycle) and at most ``max_n`` vertices."""
    specs = []
    for a in range(2, max_n // 2 + 1):
        for b in range(2, max_n // a + 1):
            for m in range(1, max_n // (a * b) + 1):
                k = "K(" + ",".join([str(a)] * b) + ")"
                specs.append(k if m == 1 else f"U({m},{k})")
                if b >= 3:
                    lex = f"LEX(C({b}),E({a}))"
                    specs.append(lex if m == 1 else f"U({m},{lex})")
    return specs


def test_family_values_match_the_oracle_on_small_instances(tmp_path):
    from magiclab import oracle_theta_general, oracle_theta_multipartite, parse_graph_spec
    from magiclab.cli import _certify, _plan
    from magiclab.graphs import parse_spec_ast

    c4 = tmp_path / "c4.adj"
    c4.write_text("0: 1 3\n1: 0 2\n2: 1 3\n3: 0 2\n")
    # two index-1 cells of other families, and the [0, 1] lex-unsolved cell
    specs = _family_specs(16) + ["LEX(U(2,K(1,1)),E(3))", f"LEX(FILE({c4}),E(3))"]
    assert len(specs) == 42
    for text in specs:
        formula = _plan(parse_spec_ast(text))[0]
        g = parse_graph_spec(text)
        if g.is_complete_multipartite:
            found = oracle_theta_multipartite(g, 16)
        else:
            found = oracle_theta_general(g, 2)
        assert found.exact, text
        if formula.exact:
            assert found.theta == formula.theta, text
        else:
            assert formula.lower <= found.theta, text
            assert formula.upper is None or found.theta <= formula.upper, text
        _certify(g, found.witness, found)


def test_table1_table2_rules_coincide_where_defined():
    # single-copy decisions agree with the multi-copy rule at m=1
    for a in range(2, 8):
        for b in range(3, 8):
            single = theta_K_ab(a, b)
            copies_zero = a % 2 == 0 or (a * b) % 2 == 1
            assert single.exact and (single.theta == 0) == copies_zero
