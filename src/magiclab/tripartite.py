"""Distance magic index of complete tripartite graphs K(n1, n2, n3).

With ``2 <= n1 <= n2 <= n3``, ``n = n1+n2+n3`` and ``zeta(i, j)`` the sum of
the integers ``i..j``, put

    A = 3*zeta(n-n1+1, n)   three times the top-n1 sum of {1..n}
    B = zeta(1, n)          the total
    C = 3*zeta(1, n3)       three times the bottom-n3 sum

The graph is distance magic iff ``A >= B >= C`` and ``2B = 0 (mod 6)``, and
every instance falls in exactly one case:

    I    A >= B >= C, 2B = 0 (mod 6)   -> index 0
    II   B > A, B >= C                 -> exact ceiling formula
    III  A < B < C                     -> lower bound only
    IV   A >= B >= C, 2B = 2 (mod 6)   -> bounds [1, n+1]
    V    B <= A, B < C                 -> exact when the top-set deficit
                                          dominates the index of K(n2, n3)

Case I witnesses split ``{1..n}`` into three equal-sum parts with
``split_equal_sums``; case IV splits ``{1..n+1}`` for the enlarged graph
K(n1+1, n2, n3) and merges its top label away.  Cases II and V follow the
label-shift scheme: keep the bottom labels on V3, re-balance V2 through a
labeling of the subgraph K(n2, n3), and slide the top ``n1`` labels upward
by a quotient, repairing the remainder by bumping a single label.  Every
witness has its part sums checked before being returned (on a complete
multipartite graph, equal part sums are exactly the magic property); an
internal contradiction raises instead of emitting an uncertified object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipartite import label_bipartite, split_equal_sums
from .errors import DomainError, InternalInconsistencyError
from .graphs import PartiteSpec
from .labelings import Labeling, ThetaResult, partite_sums_check


def zeta(i: int, j: int) -> int:
    """Sum of the consecutive integers ``i + (i+1) + ... + j``."""
    if not 1 <= i <= j:
        raise DomainError(f"zeta needs 1 <= i <= j, got ({i}, {j})")
    return (j * (j + 1) - (i - 1) * i) // 2


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


@dataclass(frozen=True)
class TripartiteCase:
    tag: str  # "I".."V"
    top3: int  # A
    total: int  # B
    bottom3: int  # C
    residue: int  # 2B mod 6, always 0 or 2


def _validate(n1: int, n2: int, n3: int):
    if not 2 <= n1 <= n2 <= n3:
        raise DomainError(f"need 2 <= n1 <= n2 <= n3, got ({n1}, {n2}, {n3})")


def classify_tripartite(n1: int, n2: int, n3: int) -> TripartiteCase:
    """The unique case of (n1, n2, n3); total and exclusive by construction."""
    _validate(n1, n2, n3)
    n = n1 + n2 + n3
    top3 = 3 * zeta(n - n1 + 1, n)
    total = zeta(1, n)
    bottom3 = 3 * zeta(1, n3)
    residue = (2 * total) % 6
    if total > top3:
        tag = "II" if total >= bottom3 else "III"
    elif total < bottom3:
        tag = "V"
    else:
        tag = "I" if residue == 0 else "IV"
    return TripartiteCase(tag=tag, top3=top3, total=total, bottom3=bottom3, residue=residue)


def is_distance_magic_tripartite(n1: int, n2: int, n3: int) -> bool:
    _validate(n1, n2, n3)
    case = classify_tripartite(n1, n2, n3)
    return n2 >= 2 and case.residue == 0 and case.top3 >= case.total >= case.bottom3


def _case5_quantities(n1, n2, n3):
    n = n1 + n2 + n3
    m = n - n1
    top_deficit = zeta(1, n3) - zeta(m + 1, n)  # what the top run misses
    sub_deficit = 2 * zeta(1, n3) - zeta(1, m)  # what V2's run misses inside K(n2,n3)
    theta_h = _ceil_div(sub_deficit, n2)
    return top_deficit, sub_deficit, theta_h


def theta_tripartite(n1: int, n2: int, n3: int) -> ThetaResult:
    """Exact index or bounds for K(n1, n2, n3), by case."""
    case = classify_tripartite(n1, n2, n3)
    n = n1 + n2 + n3
    tag = f"tripartite-{case.tag}"
    if case.tag == "I":
        return ThetaResult(lower=0, upper=0, case_tag=tag)
    if case.tag == "II":
        m = n - n1
        num = 3 * zeta(1, m) - 2 * case.total
        if m % 4 in (1, 2):
            num += 1
        theta = _ceil_div(num, 2 * n1)
        return ThetaResult(lower=theta, upper=theta, case_tag=tag)
    if case.tag == "III":
        lower = _ceil_div(zeta(1, n3) - zeta(n - n1 + 1, n), n - n3)
        return ThetaResult(lower=lower, upper=None, case_tag=tag)
    if case.tag == "IV":
        return ThetaResult(lower=1, upper=n + 1, case_tag=tag)
    top_deficit, _, theta_h = _case5_quantities(n1, n2, n3)
    if top_deficit >= n1 * theta_h:
        theta = _ceil_div(top_deficit, n1)
        return ThetaResult(lower=theta, upper=theta, case_tag=tag)
    return ThetaResult(lower=1, upper=theta_h + 1, case_tag=tag)


# ---------------------------------------------------------------------------
# Witness constructions


def _run_without(lo: int, hi: int, hole: int) -> list[int]:
    return [x for x in range(lo, hi + 1) if x != hole]


def _case2_top_labels(n1: int, n: int) -> tuple[list[int], int]:
    """Label set for V1 in case II and the top label of the bipartite part.

    Returns (labels, H_target_max).  The quotient/remainder subcases mirror
    the shift-and-repair scheme; the combination q=1, r=0 of the second
    branch cannot occur (its defining equation has no integer solutions), so
    hitting it means the classification itself broke.
    """
    m = n - n1
    total = zeta(1, n)
    zm = zeta(1, m)
    if m % 4 in (0, 3):
        lam = (3 * zm - 2 * total) // 2
        q, r = divmod(lam, n1)
        if r == 0:
            labels = list(range(m + q + 1, n + q + 1))
        else:
            labels = _run_without(m + q + 1, n + q + 1, n + q + 1 - r)
        return labels, m
    lam = (3 * zm - 2 * total + 3) // 2
    q, r = divmod(lam, n1)
    if q > 1:
        if r == 0:
            labels = [m + q] + list(range(m + q + 2, n + q + 1))
        elif r == 1:
            labels = list(range(m + q + 1, n + q + 1))
        else:
            labels = _run_without(m + q + 1, n + q + 1, n + q + 2 - r)
    elif q == 1:
        if r == 0:
            raise InternalInconsistencyError(
                f"case II shift hit q=1, r=0 at n1={n1}, n={n}; this combination "
                "has no integer solutions and should be unreachable"
            )
        if r == 1:
            labels = list(range(m + 2, n + 2))
        else:
            labels = _run_without(m + 2, n + 2, n - r + 3)
    else:
        if r < 2:
            raise InternalInconsistencyError("case II shift needs r >= 2 when q = 0")
        labels = [m] + _run_without(m + 2, n + 1, n - r + 1)
    return labels, m + 1


def _label_case2(n1, n2, n3):
    n = n1 + n2 + n3
    top, h_target = _case2_top_labels(n1, n)
    sub = label_bipartite(n2, n3, h_target)
    if sub is None:
        raise InternalInconsistencyError(
            f"case II subgraph K({n2},{n3}) refused target {h_target}"
        )
    mid = sorted(sub.labels[:n2])
    bottom = sorted(sub.labels[n2:])
    return [sorted(top), mid, bottom]


def _label_case5(n1, n2, n3):
    n = n1 + n2 + n3
    m = n - n1
    top_deficit, sub_deficit, theta_h = _case5_quantities(n1, n2, n3)
    if top_deficit < n1 * theta_h:
        return None  # only the exact branch is constructive
    mu, r = divmod(sub_deficit, n2)
    if r == 0:
        mid = list(range(n3 + 1 + mu, m + mu + 1))
    else:
        mid = _run_without(n3 + 1 + mu, m + mu + 1, m + mu - r + 1)
    q, r1 = divmod(top_deficit, n1)
    if r1 == 0:
        top = list(range(m + q + 1, n + q + 1))
    else:
        top = _run_without(m + q + 1, n + q + 1, n + q + 1 - r1)
    bottom = list(range(1, n3 + 1))
    return [top, mid, bottom]


def _label_case4(n1, n2, n3):
    """Witness from the one-vertex-larger distance magic graph.

    Split ``{1..n+1}`` for K(n1+1, n2, n3) with the top label forced into
    the enlarged part, then delete that vertex and add its label onto the
    part's smallest label ``x``.  Part sums are unchanged, so the result is
    magic, and the merged label ``n+1+x`` exceeds every remaining one, so
    the top label is at most ``2n+1``.
    """
    n = n1 + n2 + n3
    enlarged = sorted([n1 + 1, n2, n3])
    if not is_distance_magic_tripartite(*enlarged):
        return None
    idx = enlarged.index(n1 + 1)
    parts = split_equal_sums(range(1, n + 2), enlarged, forced={n + 1: idx})
    if parts is None:
        raise InternalInconsistencyError(
            f"K{tuple(enlarged)} is distance magic but the forced split failed"
        )
    merge = parts[idx]  # sorted, so it ends with the forced label n + 1
    parts[idx] = merge[1:-1] + [n + 1 + merge[0]]
    parts.sort(key=lambda part: (len(part), part))
    return parts


def label_tripartite(n1: int, n2: int, n3: int) -> Labeling | None:
    """Certified S-magic witness when a constructive path exists.

    Cases I and II and the exact branch of case V realize the index (top
    label ``n + theta``); case IV realizes the ``n + 1`` upper bound; case
    III and the conditional branch of case V return ``None``.
    """
    case = classify_tripartite(n1, n2, n3)
    n = n1 + n2 + n3
    if case.tag == "I":
        label_sets = split_equal_sums(range(1, n + 1), (n1, n2, n3))
        if label_sets is None:
            raise InternalInconsistencyError(
                f"case I instance K({n1},{n2},{n3}) has no equal partition"
            )
    elif case.tag == "II":
        label_sets = _label_case2(n1, n2, n3)
    elif case.tag == "III":
        return None
    elif case.tag == "IV":
        label_sets = _label_case4(n1, n2, n3)
    else:
        label_sets = _label_case5(n1, n2, n3)
    if label_sets is None:
        return None
    parts = [range(0, n1), range(n1, n1 + n2), range(n1 + n2, n)]
    labeling = Labeling.from_parts(parts, label_sets)
    if not partite_sums_check(PartiteSpec((n1, n2, n3)), labeling):
        raise InternalInconsistencyError(
            f"case {case.tag} construction for K({n1},{n2},{n3}) has unequal part sums"
        )
    result = theta_tripartite(n1, n2, n3)
    if result.exact and labeling.eta != n + result.theta:
        raise InternalInconsistencyError(
            f"case {case.tag} witness for K({n1},{n2},{n3}) has top label "
            f"{labeling.eta}, expected {n + result.theta}"
        )
    if case.tag == "IV" and labeling.eta > 2 * n + 1:
        raise InternalInconsistencyError(
            f"case IV witness for K({n1},{n2},{n3}) exceeds top label {2 * n + 1}"
        )
    return labeling
