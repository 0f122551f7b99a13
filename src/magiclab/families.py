"""Indices of uniform multipartite graphs and empty-graph blow-ups.

``K(a, b)`` here means the complete multipartite graph with ``b`` parts of
size ``a``.  The families covered are K(a,b), disjoint copies mK(a,b),
blown-up cycle copies m(C_b o E_a), and G o E_a for an arbitrary regular
graph G, where ``o E_a`` replaces each vertex by an independent layer of
``a`` vertices.

Whenever such a family member is not distance magic but a quasimagic
rectangle of matching shape exists, labeling each part/layer by one column
yields a constant-weight labeling with one skipped label, so the index is
exactly 1.  With column sum ``sigma`` the magic constants are
``sigma*(b-1)`` for (m)K(a,b), ``2*sigma`` for cycle blow-ups and
``r*sigma`` for an r-regular base graph.
"""

from __future__ import annotations

from .arrays import qmr
from .errors import DomainError
from .graphs import Graph
from .labelings import Labeling, ThetaResult


def theta_K_ab(a: int, b: int) -> ThetaResult:
    """Index of K(a, b) for b >= 3 parts: 0 unless a is odd and b even, then 1.
    Two parts are the bipartite graph K(a, a) of ``theta_bipartite``."""
    if a < 2 or b < 3:
        raise DomainError(f"need a >= 2 and b >= 3, got ({a}, {b}); two parts: theta_bipartite")
    if a % 2 == 0 or b % 2 == 1:
        return ThetaResult(lower=0, upper=0, case_tag="Kab-dmg")
    return ThetaResult(lower=1, upper=1, case_tag="Kab-qmr")


def theta_mK_ab(m: int, a: int, b: int) -> ThetaResult:
    """Index of m disjoint copies of K(a, b), for m >= 2."""
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    if a < 2 or b < 2:
        raise DomainError(f"need a, b >= 2, got ({a}, {b})")
    if a % 2 == 0 or (m * a * b) % 2 == 1:
        return ThetaResult(lower=0, upper=0, case_tag="mKab-dmg")
    return ThetaResult(lower=1, upper=1, case_tag="mKab-otherwise")


def theta_mC_lex(m: int, a: int, b: int) -> ThetaResult:
    """Index of m copies of the cycle blow-up C_b o E_a."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if a < 2:
        raise DomainError(f"need a >= 2, got {a}")
    if b < 3:
        raise DomainError(f"need b >= 3, got {b}")
    if a % 2 == 0 or (m * a * b) % 2 == 1 or b % 4 == 0:
        return ThetaResult(lower=0, upper=0, case_tag="mClex-dmg")
    return ThetaResult(lower=1, upper=1, case_tag="mClex-otherwise")


def theta_lex_regular(g: Graph, a: int) -> ThetaResult:
    """Index of G o E_a for a regular graph G on b vertices.

    The open parameter cells are surfaced as explicit [0, 1] bounds (the
    column construction still caps the index at 1 for odd ``a``) rather
    than guessed.
    """
    if a < 2:
        raise DomainError(f"need a >= 2, got {a}")
    if not g.is_regular:
        raise DomainError("base graph must be regular")
    r = g.max_degree
    b = g.vertex_count
    if r == 0:
        return ThetaResult(lower=0, upper=0, case_tag="lex-edgeless")
    if a % 2 == 0:
        return ThetaResult(lower=0, upper=0, case_tag="lex-dmg")
    if r % 2 == 1:
        # with b = 2, G o E_a is K(a, a), of index 1 by the bipartite theorem
        # also where no QMR(a, 2) exists (a = 1 mod 4)
        return ThetaResult(lower=1, upper=1, case_tag="lex-qmr")
    if b % 2 == 1:
        return ThetaResult(lower=0, upper=0, case_tag="lex-dmg")
    if r % 4 == 2 and b % 4 == 2:
        return ThetaResult(lower=1, upper=1, case_tag="lex-qmr")
    return ThetaResult(lower=0, upper=1, case_tag="lex-unsolved")


# ---------------------------------------------------------------------------
# Column-based witness labelings


def label_by_qmr_columns(graph: Graph, a: int) -> Labeling:
    """Label vertex ``v`` of ``graph`` from the sorted column ``v // a`` of
    QMR(a, n/a).

    The groups of ``a`` consecutive ids are the parts of ``K(...)`` and
    ``U(m, K(...))`` and the layers of ``LEX(G, E(a))``, so on the family
    members of index 1 this is the column construction of the module
    docstring.  Raises ``DomainError`` when a block is not a whole number of
    groups or when no such QMR exists.  The labeling is not verified here.
    """
    if any(size % a for size in graph.sizes):
        raise DomainError(f"column labeling needs blocks of whole groups of {a} vertices")
    groups = graph.vertex_count // a
    arr = qmr(a, groups)
    if arr is None:
        raise DomainError(f"no QMR({a},{groups}) exists")
    return Labeling.from_parts(zip(*arr.entries))


# ---------------------------------------------------------------------------
# Decision-table fixture

# Verdicts: "dmg" distance magic, "not" not distance magic, "open" unknown,
# "none" no such graph exists.  Condition strings: "odd", "even", "0mod4",
# "2mod4", "any".
DECISION_TABLES: tuple[dict, ...] = (
    # K(a, b)
    {"table": 1, "family": "Kab", "a": "even", "b": "odd", "verdict": "dmg"},
    {"table": 1, "family": "Kab", "a": "even", "b": "even", "verdict": "dmg"},
    {"table": 1, "family": "Kab", "a": "odd", "b": "odd", "verdict": "dmg"},
    {"table": 1, "family": "Kab", "a": "odd", "b": "even", "verdict": "not"},
    # mK(a, b), m > 1
    {"table": 2, "family": "mKab", "m": "odd", "a": "even", "b": "odd", "verdict": "dmg"},
    {"table": 2, "family": "mKab", "m": "odd", "a": "even", "b": "even", "verdict": "dmg"},
    {"table": 2, "family": "mKab", "m": "even", "a": "even", "b": "odd", "verdict": "dmg"},
    {"table": 2, "family": "mKab", "m": "even", "a": "even", "b": "even", "verdict": "dmg"},
    {"table": 2, "family": "mKab", "m": "odd", "a": "odd", "b": "odd", "verdict": "dmg"},
    {"table": 2, "family": "mKab", "m": "odd", "a": "odd", "b": "even", "verdict": "not"},
    {"table": 2, "family": "mKab", "m": "even", "a": "odd", "b": "odd", "verdict": "not"},
    {"table": 2, "family": "mKab", "m": "even", "a": "odd", "b": "even", "verdict": "not"},
    # m(C_b o E_a)
    {"table": 3, "family": "mClex", "m": "odd", "a": "even", "b": "even", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "odd", "a": "even", "b": "odd", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "even", "a": "even", "b": "even", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "even", "a": "even", "b": "odd", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "odd", "a": "odd", "b": "0mod4", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "odd", "a": "odd", "b": "2mod4", "verdict": "not"},
    {"table": 3, "family": "mClex", "m": "odd", "a": "odd", "b": "odd", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "even", "a": "odd", "b": "0mod4", "verdict": "dmg"},
    {"table": 3, "family": "mClex", "m": "even", "a": "odd", "b": "2mod4", "verdict": "not"},
    {"table": 3, "family": "mClex", "m": "even", "a": "odd", "b": "odd", "verdict": "not"},
    # G o E_a, G r-regular on b vertices
    {"table": 4, "family": "lex", "r": "0mod4", "a": "odd", "b": "0mod4", "verdict": "open"},
    {"table": 4, "family": "lex", "r": "0mod4", "a": "odd", "b": "2mod4", "verdict": "open"},
    {"table": 4, "family": "lex", "r": "0mod4", "a": "odd", "b": "odd", "verdict": "dmg"},
    {"table": 4, "family": "lex", "r": "2mod4", "a": "odd", "b": "0mod4", "verdict": "open"},
    {"table": 4, "family": "lex", "r": "2mod4", "a": "odd", "b": "2mod4", "verdict": "not"},
    {"table": 4, "family": "lex", "r": "2mod4", "a": "odd", "b": "odd", "verdict": "dmg"},
    {"table": 4, "family": "lex", "r": "odd", "a": "odd", "b": "0mod4", "verdict": "not"},
    {"table": 4, "family": "lex", "r": "odd", "a": "odd", "b": "2mod4", "verdict": "not"},
    {"table": 4, "family": "lex", "r": "odd", "a": "odd", "b": "odd", "verdict": "none"},
    {"table": 4, "family": "lex", "r": "even", "a": "even", "b": "any", "verdict": "dmg"},
    {"table": 4, "family": "lex", "r": "odd", "a": "even", "b": "even", "verdict": "dmg"},
    {"table": 4, "family": "lex", "r": "odd", "a": "even", "b": "odd", "verdict": "none"},
)
