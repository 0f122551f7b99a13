"""Seeded inputs: reproducible, stratified as documented."""

import pytest

import specs


@pytest.mark.parametrize("name", sorted(specs.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = specs.WORKLOADS[name]
    first, second, other = make(5), make(5), make(6)
    assert first.commands == second.commands and first.files == second.files
    if name != "oracle-desk" and name != "oracle-jobs2":
        assert first.commands != other.commands
    else:
        assert first.files != other.files


def test_label_cap_strata():
    for seed in range(20):
        for command in specs.WORKLOADS["label-cap"](seed).commands:
            spec = command.argv[1]
            if spec.startswith("K("):
                sizes = sorted(int(s) for s in spec[2:-1].split(","))
                n = sum(sizes)
                if len(sizes) == 2:
                    assert 4000 <= n <= 5000
                    assert specs.bipartite_branch(*sizes) == command.stratum.split("-")[1]
                else:
                    assert specs.tripartite_case(*sizes) == command.stratum.split("-")[1]
                    low, high = (1500, 2500) if command.stratum == "tripartite-II" else (1000, 2000)
                    assert low <= n <= high


def test_qmr_grid_covers_every_even_residue():
    residues = [b % 8 for b in specs.QMR3_GRID]
    assert sorted(residues) == [0, 2, 4, 6]
    assert all(40 <= b <= 200 for b in specs.QMR3_GRID)


def test_oracle_graphs_half_with_twins():
    workload = specs.WORKLOADS["oracle-desk"](3)
    twins = []
    for rel, text in workload.files.items():
        adj = [set(map(int, line.split(":")[1].split())) for line in text.splitlines()]
        twins.append(specs.closed_twin_pair(adj))
        assert ("twin" in rel.rsplit("/", 1)[1].split("-")[1]) == twins[-1]
    assert twins.count(True) == twins.count(False) == specs.GENERAL_GRAPHS // 2
