import pytest

from magiclab import (
    build_complete_multipartite,
    oracle_theta_multipartite,
    verify_s_magic,
)
from magiclab.graphs import Graph

from referees import block_neighbours, block_of, block_ranges


def tripartite_instances(max_n=13):
    """All (n1, n2, n3) with 2 <= n1 <= n2 <= n3 and n1+n2+n3 <= max_n."""
    out = []
    for n in range(6, max_n + 1):
        for n1 in range(2, n // 3 + 1):
            for n2 in range(n1, (n - n1) // 2 + 1):
                n3 = n - n1 - n2
                if n2 <= n3:
                    out.append((n1, n2, n3))
    return out


@pytest.fixture(scope="session")
def tri_oracle():
    """Exact oracle indices for the whole tripartite sweep range.

    Returns (results, elapsed_seconds) so acceptance timing can include the
    cost of the sweep itself.
    """
    import time

    start = time.monotonic()
    results = {}
    for sizes in tripartite_instances():
        results[sizes] = oracle_theta_multipartite(build_complete_multipartite(sizes), 14)
    return results, time.monotonic() - start


def magic_on_parts(sizes, labeling) -> bool:
    """Whether ``labeling`` is S-magic on K(sizes); no constructor checks its own."""
    return verify_s_magic(build_complete_multipartite(sizes), labeling).is_magic


def petersen() -> Graph:
    adj = {
        0: (1, 4, 5), 1: (0, 2, 6), 2: (1, 3, 7), 3: (2, 4, 8), 4: (0, 3, 9),
        5: (0, 7, 8), 6: (1, 8, 9), 7: (2, 5, 9), 8: (3, 5, 6), 9: (4, 6, 7),
    }
    return Graph.from_neighbors(tuple(frozenset(adj[v]) for v in range(10)))


def neighbour_sets(g: Graph) -> tuple[frozenset[int], ...]:
    """Per-vertex neighbour sets, read off the explicit blocks of ``g``."""
    ranges, nbrs = block_ranges(g), block_neighbours(g)
    return tuple(
        frozenset(v for j in nbrs[block_of(g, u)] for v in ranges[j])
        for u in range(g.vertex_count)
    )


def explicit(g: Graph) -> Graph:
    """``g`` with its groups of complete parts written out as explicit block
    adjacency: the one form ``_pack_blocks`` and the neighbourhood lemma
    read, and one that ``oracle_theta_general`` searches by blocks, not by
    part sums."""
    return Graph(g.sizes, block_neighbours(g))


def degree(g: Graph, v: int) -> int:
    """The degree of vertex ``v``: the sizes of its block's neighbouring blocks."""
    return sum(g.sizes[j] for j in block_neighbours(g)[block_of(g, v)])


def circulant(b: int, jumps) -> Graph:
    """Circulant graph on b vertices with the given symmetric jump set."""
    neighbors = tuple(
        frozenset(((v + j) % b for j in jumps)) | frozenset(((v - j) % b for j in jumps))
        for v in range(b)
    )
    return Graph.from_neighbors(neighbors)


def condition_values(cond, pool):
    """Concrete parameter values matching a decision-table condition string."""
    return {
        "odd": [v for v in pool if v % 2 == 1],
        "even": [v for v in pool if v % 2 == 0],
        "0mod4": [v for v in pool if v % 4 == 0],
        "2mod4": [v for v in pool if v % 4 == 2],
        "any": list(pool),
    }[cond]


def verdict_of(result):
    """Map a ThetaResult onto a decision-table verdict string."""
    if result.exact:
        return "dmg" if result.theta == 0 else "not"
    if (result.lower, result.upper) == (0, 1):
        return "open"
    return "not" if result.lower >= 1 else "open"


def regular_example(r_cond, b_cond) -> Graph:
    """A concrete regular graph realizing one (degree, order) parity cell."""
    from magiclab import build_complete_multipartite, build_cycle

    examples = {
        ("0mod4", "0mod4"): lambda: circulant(8, (1, 2)),
        ("0mod4", "2mod4"): lambda: build_complete_multipartite((2, 2, 2)),
        ("0mod4", "odd"): lambda: circulant(7, (1, 2)),
        ("2mod4", "0mod4"): lambda: build_cycle(8),
        ("2mod4", "2mod4"): lambda: build_cycle(6),
        ("2mod4", "odd"): lambda: build_cycle(5),
        ("odd", "0mod4"): lambda: build_complete_multipartite((1, 1, 1, 1)),
        ("odd", "2mod4"): lambda: build_complete_multipartite((3, 3)),
        ("even", "any"): lambda: build_cycle(6),
        ("odd", "even"): lambda: petersen(),
    }
    return examples[(r_cond, b_cond)]()


def check_decision_table_row(row) -> int:
    """Instantiate one fixture row over small grids; return cells checked."""
    from magiclab import theta_K_ab, theta_lex_regular, theta_mC_lex, theta_mK_ab

    checked = 0
    if row["family"] == "Kab":
        for a in condition_values(row["a"], range(2, 6)):
            for b in condition_values(row["b"], range(3, 6)):
                assert verdict_of(theta_K_ab(a, b)) == row["verdict"], (row, a, b)
                checked += 1
    elif row["family"] == "mKab":
        for m in condition_values(row["m"], range(2, 6)):
            for a in condition_values(row["a"], range(2, 6)):
                for b in condition_values(row["b"], range(2, 6)):
                    assert verdict_of(theta_mK_ab(m, a, b)) == row["verdict"], (row, m, a, b)
                    checked += 1
    elif row["family"] == "mClex":
        for m in condition_values(row["m"], range(1, 5)):
            for a in condition_values(row["a"], range(2, 6)):
                for b in condition_values(row["b"], range(3, 9)):
                    assert verdict_of(theta_mC_lex(m, a, b)) == row["verdict"], (row, m, a, b)
                    checked += 1
    else:
        if row["verdict"] == "none":
            # no r-regular graph on b vertices exists with r*b odd
            assert row["r"] == "odd" and row["b"] == "odd"
            return 1
        g = regular_example(row["r"], row["b"])
        for a in condition_values(row["a"], range(2, 6)):
            result = theta_lex_regular(g.max_degree, g.vertex_count, a)
            if row["verdict"] == "not":
                assert result.lower >= 1, (row, a)
            else:
                assert verdict_of(result) == row["verdict"], (row, a)
            checked += 1
    return checked
