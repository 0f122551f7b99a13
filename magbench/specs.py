"""Seeded command lists for the magiclab benchmark workloads.

Everything here is independent of the ``magiclab`` package: the generator
classifies shapes with its own arithmetic, so the program under test only
ever sees the argument vectors and adjacency files produced below.

Cap-scale sizes sit near the middle of each range, jittered by at most
2.5% of its width; splits, residues and the exact order still change with
every seed, so each seed lands on new instances of the same mechanisms
while neither the work of a pass nor the time of its median command moves
much.  Strata whose cost jumps between neighbouring sizes (the QMR restart
searches) use a fixed grid instead; a seeded draw there would make the
seed, not the code, decide the measured time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ORACLE_BUDGET = "60"
SHAPE_MAX_EXCESS = "16"
GENERAL_MAX_EXCESS = "1"
GENERAL_GRAPHS = 24  # half of them with an adjacent closed twin pair
# FILE graphs have 7 vertices and 8..11 edges.  On random 8-vertex or denser
# graphs the search time at --max-excess 2 spans 3 ms .. 1.4 s, and even a
# vertex relabeling moves it tenfold, so the seed would set pass_s; C(8)
# keeps an 8-vertex instance in the list.
GENERAL_VERTICES = 7
GENERAL_EXTRA_EDGES = 4

# qmr 3 b for b = 40 + 42k: the step is 2 (mod 8), so the grid visits every
# even residue once while spanning [40, 200].
QMR3_GRID = tuple(40 + 42 * k for k in range(4))
# label U(m,LEX(C(6),E(3))) runs qmr(3, 6m) inside the label command.
UNION_COPIES = 25


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the checker needs to judge it."""

    argv: tuple[str, ...]
    stratum: str
    expect_codes: tuple[int, ...] = (0,)
    # spec whose ``index`` output is the reference for this command
    index_ref: str | None = None
    max_excess: int | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    warmup: list[tuple[str, ...]] = field(default_factory=list)
    # specs whose ``index`` output the ``label`` checks compare against
    reference_specs: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Independent shape arithmetic


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def bipartite_branch(n1: int, n2: int) -> str:
    """``greedy`` when the equal-split branch applies, else ``deficit``."""
    n = n1 + n2
    return "greedy" if n * (n + 1) >= 2 * n2 * (n2 + 1) else "deficit"


def tripartite_case(n1: int, n2: int, n3: int) -> str:
    """Case I..V of K(n1,n2,n3), n1 <= n2 <= n3, from the zeta-sum rule."""
    n = n1 + n2 + n3
    top3 = 3 * (_tri(n) - _tri(n - n1))
    total = _tri(n)
    bottom3 = 3 * _tri(n3)
    if total > top3:
        return "II" if total >= bottom3 else "III"
    if total < bottom3:
        return "V"
    return "I" if (2 * total) % 6 == 0 else "IV"


def k_spec(sizes) -> str:
    return "K(" + ",".join(str(s) for s in sizes) + ")"


# ---------------------------------------------------------------------------
# label-cap


def mid(rng, low: int, high: int) -> int:
    """The middle of [low, high], jittered by up to 2.5% of its width."""
    return (low + high) // 2 + round((high - low) * rng.uniform(-0.025, 0.025))


def _bipartite(n: int, ratio: float, branch: str, residues) -> tuple[int, int]:
    """Nearest K(n1,n2) to (n, ratio) with n mod 4 in ``residues`` on ``branch``."""
    while n % 4 not in residues:
        n += 1
    n1 = max(2, round(n * ratio))
    step = 1 if branch == "greedy" else -1
    while bipartite_branch(n1, n - n1) != branch:
        n1 += step
    return n1, n - n1


def _tripartite(rng, n: int, case: str, share1, share2) -> tuple[int, int, int]:
    """Rejection-sample K(n1,n2,n3) of order n in ``case``, with n1/n and n2/n
    drawn from the ranges ``share1`` and ``share2``."""
    for _ in range(10_000):
        n1 = max(2, round(n * rng.uniform(*share1)))
        n2 = round(n * rng.uniform(*share2))
        sizes = (n1, n2, n - n1 - n2)
        if n1 <= n2 <= sizes[2] and tripartite_case(*sizes) == case:
            return sizes
    raise RuntimeError(f"no case {case} shape of order {n}")


def label_cap(seed: int) -> Workload:
    rng = random.Random(f"label-cap/{seed}")
    theta_zero = rng.random() < 0.5  # n = 0, 3 (mod 4) gives theta 0, else theta 1
    specs = [
        ("bipartite-greedy", k_spec(_bipartite(
            mid(rng, 4000, 5000), rng.uniform(0.33, 0.37), "greedy",
            (0, 3) if theta_zero else (1, 2)))),
        ("bipartite-deficit", k_spec(_bipartite(
            mid(rng, 4000, 5000), rng.uniform(0.13, 0.17), "deficit", (0, 1, 2, 3)))),
        ("tripartite-II", k_spec(_tripartite(
            rng, mid(rng, 1500, 2500), "II", (0.08, 0.09), (0.40, 0.42)))),
    ]
    near_thirds = ((0.31, 0.33), (0.33, 0.34))
    n = mid(rng, 1000, 2000)
    specs.append(("tripartite-I", k_spec(_tripartite(rng, n - n % 3, "I", *near_thirds))))
    n = mid(rng, 1000, 2000)
    specs.append(("tripartite-IV", k_spec(_tripartite(rng, n + (1 - n) % 3, "IV", *near_thirds))))
    # 6*a6^2 + 10*a10^2, the size of the two blow-ups, is flat along a6 + a10 = 600
    j = rng.randint(0, 49)
    specs.append(("lex-cycle", f"LEX(C(6),E({399 - 2 * j}))"))
    specs.append(("lex-cycle", f"LEX(C(10),E({201 + 2 * j}))"))
    commands = [
        Command(("label", spec), stratum, index_ref=spec) for stratum, spec in specs
    ]
    return Workload(
        name="label-cap",
        commands=commands,
        warmup=[
            ("label", "K(20,30)"), ("label", "K(3,40)"), ("label", "K(3,10,12)"),
            ("label", "LEX(C(6),E(5))"), ("index", "K(20,30)"),
        ],
        reference_specs=[spec for _, spec in specs],
    )


# ---------------------------------------------------------------------------
# qmr-construct


def qmr_construct(seed: int) -> Workload:
    rng = random.Random(f"qmr-construct/{seed}")
    commands = [Command(("qmr", "3", str(b)), f"qmr3-r{b % 8}") for b in QMR3_GRID]
    for a in (5, 7, 9):
        commands.append(Command(("qmr", str(a), str(2 * mid(rng, 10, 30))), "qmr-banded"))
    b = rng.choice((6, 10))
    a = mid(rng, 50_000, 100_000) // b
    commands.append(Command(("qmr", str(a - 1 + a % 2), str(b)), "qmr-tall"))
    # a + b = 630 keeps a*b near 10^5; odd a needs odd b
    a = mid(rng, 250, 380)
    commands.append(Command(("kotzig", str(a), str(630 - a)), "kotzig"))
    spec = f"U({UNION_COPIES},LEX(C(6),E(3)))"
    commands.append(Command(("label", spec), "label-union", index_ref=spec))
    commands.append(Command(("qmr", "3", str(2 * mid(rng, 600, 1000))), "qmr3-large"))
    return Workload(
        name="qmr-construct",
        commands=commands,
        warmup=[
            ("qmr", "3", "10"), ("qmr", "5", "8"), ("qmr", "101", "6"),
            ("kotzig", "4", "5"), ("label", "U(2,LEX(C(6),E(3)))"),
        ],
        reference_specs=[spec],
    )


# ---------------------------------------------------------------------------
# oracle-desk and oracle-jobs2


def partitions(n: int, k: int, low: int = 1):
    """Nondecreasing k-tuples of positive integers summing to n."""
    if k == 1:
        if n >= low:
            yield (n,)
        return
    for first in range(low, n // k + 1):
        for rest in partitions(n - first, k - 1, first):
            yield (first,) + rest


def closed_form_covers(sizes) -> bool:
    """Whether ``index`` documents a closed form for this complete multipartite shape."""
    if len(sizes) in (2, 3):
        return sizes[0] >= 2
    return len(set(sizes)) == 1 and sizes[0] >= 2


def closed_twin_pair(adj) -> bool:
    """Some adjacent u, v with N[u] = N[v]."""
    n = len(adj)
    return any(
        v in adj[u] and adj[u] | {u} == adj[v] | {v}
        for u in range(n) for v in range(u + 1, n)
    )


def _connected(adj) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def random_graph(rng, n: int, twins: bool) -> list[set[int]]:
    """Connected graph on n vertices with or without an adjacent closed twin pair."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        m = rng.randint(n + 1, n + GENERAL_EXTRA_EDGES)
        adj = [set() for _ in range(n)]
        for u, v in rng.sample(pairs, m):
            adj[u].add(v)
            adj[v].add(u)
        if _connected(adj) and closed_twin_pair(adj) == twins:
            return adj


def adjacency_text(adj) -> str:
    return "".join(
        f"{u}: {' '.join(str(v) for v in sorted(nbrs))}\n" for u, nbrs in enumerate(adj)
    )


def oracle_desk(seed: int, jobs: int = 1) -> Workload:
    rng = random.Random(f"oracle-desk/{seed}")
    flags = ("--budget-seconds", ORACLE_BUDGET, "--jobs", str(jobs))
    commands = []
    for n in range(2, 17):
        for k in (2, 3, 4):
            for sizes in partitions(n, k):
                spec = k_spec(sizes)
                codes = (0,) if closed_form_covers(sizes) else (0, 3)
                commands.append(Command(("index", spec), f"index-{k}part", codes))
                commands.append(Command(
                    ("oracle", spec, "--max-excess", SHAPE_MAX_EXCESS) + flags,
                    f"oracle-{k}part", index_ref=spec, max_excess=int(SHAPE_MAX_EXCESS),
                ))
    files = {}
    general = [f"C({b})" for b in (6, 7, 8)]
    for i in range(GENERAL_GRAPHS):
        twins = i % 2 == 0
        adj = random_graph(rng, GENERAL_VERTICES, twins)
        path = f"magbench/inputs/seed{seed}/g{i:02d}-{'twin' if twins else 'free'}.adj"
        files[path] = adjacency_text(adj)
        general.append(f"FILE({path})")
    for spec in general:
        stratum = "general-cycle" if spec.startswith("C(") else (
            "general-twin" if "twin" in spec else "general-twinfree")
        commands.append(Command(
            ("oracle", spec, "--max-excess", GENERAL_MAX_EXCESS) + flags,
            stratum, max_excess=int(GENERAL_MAX_EXCESS),
        ))
    return Workload(
        name="oracle-jobs2" if jobs > 1 else "oracle-desk",
        commands=commands,
        files=files,
        warmup=[
            ("index", "K(3,4)"), ("index", "K(1,2,3)"),
            ("oracle", "K(2,3,3)", "--max-excess", "4") + flags,
            ("oracle", "C(5)", "--max-excess", "1") + flags,
        ],
    )


WORKLOADS = {
    "label-cap": label_cap,
    "qmr-construct": qmr_construct,
    "oracle-desk": oracle_desk,
    "oracle-jobs2": lambda seed: oracle_desk(seed, jobs=2),
}


def write_files(workload: Workload, root: Path) -> None:
    for rel, text in workload.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
