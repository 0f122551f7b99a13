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
    V    B <= A, B < C                 -> bounds [1, theta(K(n2, n3)) + 1]

Case I witnesses split ``{1..n}`` into three equal-sum parts with
``split_equal_sums``; case IV splits ``{1..n+1}`` for the enlarged graph
K(n1+1, n2, n3) and merges its top label away.  Case II follows the
label-shift scheme: V3 and V2 take a labeling of the subgraph K(n2, n3),
and V1 takes the top ``n1`` labels shifted upward (``_shifted_run``).
The witnesses are not verified here: ``cli._certify`` checks each one
against the case's bounds before it is printed.  A split that a theorem
guarantees but that comes back empty raises instead.

*Case V is never exact (proved).*  The shift scheme would give case V the
exact index ``ceil((L - T) / n1)`` when ``L - T >= n1 * ceil((L - M) / n2)``,
where T, M and L are the sums of the top n1, middle n2 and bottom n3
labels of ``{1..n}`` and ``B = T + M + L``; no shape passes that test.
Case V is ``B <= 3T`` and ``B < 3L``.

* ``B <= 3T`` gives ``T - M >= L - T``, so ``L - M >= 2(L - T)``.
* ``M = B - T - L < B - B/3 - B/3 = B/3 < L``, so ``ceil((L - M)/n2) >= 1``
  and the test forces ``L - T >= n1 > 0``.  Then
  ``L - T >= n1 (L - M)/n2 >= 2 n1 (L - T)/n2`` forces ``n2 >= 2 n1``.
* ``B <= 3T <= 3 n1 n`` gives ``n1 >= (n+1)/6``, so
  ``n3 <= n - 3 n1 <= (n-1)/2`` and
  ``3L = 3 n3 (n3+1)/2 <= 3 (n^2-1)/8 < n(n+1)/2 = B``, contradicting
  ``B < 3L``.
"""

from __future__ import annotations

from .bipartite import _ceil_div, _shifted_run, label_bipartite, split_equal_sums
from .errors import DomainError, InternalInconsistencyError
from .labelings import Labeling, ThetaResult


def zeta(i: int, j: int) -> int:
    """Sum of the consecutive integers ``i + (i+1) + ... + j``."""
    if not 1 <= i <= j:
        raise DomainError(f"zeta needs 1 <= i <= j, got ({i}, {j})")
    return (j * (j + 1) - (i - 1) * i) // 2


def _validate(n1: int, n2: int, n3: int):
    if not 2 <= n1 <= n2 <= n3:
        raise DomainError(f"need 2 <= n1 <= n2 <= n3, got ({n1}, {n2}, {n3})")


def classify_tripartite(n1: int, n2: int, n3: int) -> str:
    """The unique case "I".."V" of (n1, n2, n3); total and exclusive by
    construction."""
    _validate(n1, n2, n3)
    n = n1 + n2 + n3
    top3, total, bottom3 = 3 * zeta(n - n1 + 1, n), zeta(1, n), 3 * zeta(1, n3)  # A, B, C
    if total > top3:
        return "II" if total >= bottom3 else "III"
    if total < bottom3:
        return "V"
    return "I" if (2 * total) % 6 == 0 else "IV"


def theta_tripartite(n1: int, n2: int, n3: int) -> ThetaResult:
    """Exact index or bounds for K(n1, n2, n3), by case."""
    case = classify_tripartite(n1, n2, n3)
    n = n1 + n2 + n3
    tag = f"tripartite-{case}"
    if case == "I":
        return ThetaResult(lower=0, upper=0, case_tag=tag)
    if case == "II":
        m = n - n1
        num = 3 * zeta(1, m) - 2 * zeta(1, n)
        if m % 4 in (1, 2):
            num += 1
        theta = _ceil_div(num, 2 * n1)
        return ThetaResult(lower=theta, upper=theta, case_tag=tag)
    if case == "III":
        lower = _ceil_div(zeta(1, n3) - zeta(n - n1 + 1, n), n - n3)
        return ThetaResult(lower=lower, upper=None, case_tag=tag)
    if case == "IV":
        return ThetaResult(lower=1, upper=n + 1, case_tag=tag)
    theta_h = _ceil_div(2 * zeta(1, n3) - zeta(1, n - n1), n2)  # index of K(n2, n3)
    return ThetaResult(lower=1, upper=theta_h + 1, case_tag=tag)


# ---------------------------------------------------------------------------
# Witness constructions


def _case2_top_labels(n1: int, n: int) -> tuple[list[int], int]:
    """Label set for V1 in case II and the top label of the bipartite part.

    Returns (labels, h_target).  V1 takes the run ``{m+1..n}`` with its
    sum raised by ``lam``, or by ``lam - 1`` when ``m = 1, 2 (mod 4)``, where
    the subgraph labeling ends at ``m + 1``.  With ``q = 0`` there, the
    freed label ``m`` joins V1 instead.  The combination q=1, r=0 of the
    second branch cannot occur (its defining equation has no integer
    solutions), so hitting it means the classification itself broke.
    """
    m = n - n1
    total = zeta(1, n)
    zm = zeta(1, m)
    if m % 4 in (0, 3):
        return _shifted_run(m + 1, n1, (3 * zm - 2 * total) // 2), m
    lam = (3 * zm - 2 * total + 3) // 2
    q, r = divmod(lam, n1)
    if q == 0:
        if r < 2:
            raise InternalInconsistencyError("case II shift needs r >= 2 when q = 0")
        labels = [m] + [x for x in range(m + 2, n + 2) if x != n - r + 1]
    elif q == 1 and r == 0:
        raise InternalInconsistencyError(
            f"case II shift hit q=1, r=0 at n1={n1}, n={n}; this combination "
            "has no integer solutions and should be unreachable"
        )
    else:
        labels = _shifted_run(m + 1, n1, lam - 1)
    return labels, m + 1


def _label_case2(n1, n2, n3):
    n = n1 + n2 + n3
    top, h_target = _case2_top_labels(n1, n)
    sub = label_bipartite(n2, n3)
    if sub is None or sub.eta > h_target:
        raise InternalInconsistencyError(
            f"case II subgraph K({n2},{n3}) refused target {h_target}"
        )
    return [top, sub.labels[:n2], sub.labels[n2:]]


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
    if classify_tripartite(*enlarged) != "I":  # not distance magic
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
    """S-magic witness when a constructive path exists, not verified here.

    Cases I and II realize the index (top label ``n + theta``); case IV
    realizes the ``n + 1`` upper bound; cases III and V return ``None``.
    """
    case = classify_tripartite(n1, n2, n3)
    if case in ("III", "V"):
        return None
    n = n1 + n2 + n3
    if case == "I":
        label_sets = split_equal_sums(range(1, n + 1), (n1, n2, n3))
        if label_sets is None:
            raise InternalInconsistencyError(
                f"case I instance K({n1},{n2},{n3}) has no equal partition"
            )
    elif case == "II":
        label_sets = _label_case2(n1, n2, n3)
    else:
        label_sets = _label_case4(n1, n2, n3)
    return None if label_sets is None else Labeling.from_parts(label_sets)
