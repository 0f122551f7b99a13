"""The output checker accepts real magiclab output and rejects broken copies."""

import json

import pytest

import checks
import run
import specs


def cli_stdout(*argv):
    main = run.import_program().main
    _, status, stdout = run.run_argv(main, argv)
    assert status == "0", (argv, status)
    return stdout


def test_block_graph_layouts():
    g = checks.block_graph("K(5,3,4)")
    assert g.n == 12 and g.blocks == ((0, 3), (3, 7), (7, 12))
    g = checks.block_graph("U(2,LEX(C(6),E(3)))")
    assert g.n == 36 and len(g.blocks) == 12
    assert g.blocks[7] == (21, 24) and g.adjacent[7] == (6, 8)


@pytest.mark.parametrize("spec", ["K(3,8,9)", "K(4,9)", "LEX(C(6),E(3))", "U(3,LEX(C(6),E(3)))"])
def test_real_labelings_pass(spec):
    reference = checks.parse_index(cli_stdout("index", spec))
    checks.check_label(spec, cli_stdout("label", spec), reference)


def test_labels_swapped_across_parts_are_rejected():
    spec = "K(3,8,9)"
    payload = json.loads(cli_stdout("label", spec))
    labels = payload["labels"]
    labels["0"], labels["5"] = labels["5"], labels["0"]  # vertex 0 in part 0, 5 in part 1
    with pytest.raises(checks.CheckError):
        checks.check_label(spec, json.dumps(payload), None)


def test_wrong_top_label_is_rejected():
    spec = "K(4,9)"
    stdout = cli_stdout("label", spec)
    with pytest.raises(checks.CheckError):
        checks.check_label(spec, stdout, (0, 0))  # claims theta 0, witness needs more


def test_qmr_with_one_entry_changed_is_rejected():
    stdout = cli_stdout("qmr", "3", "10")
    checks.check_qmr(3, 10, stdout)
    head, first, *rest = stdout.strip().splitlines()
    cells = first.split(",")
    cells[0] = str(int(cells[0]) + 1)
    broken = "\n".join([head, ",".join(cells), *rest])
    with pytest.raises(checks.CheckError):
        checks.check_qmr(3, 10, broken)


def test_kotzig_checked():
    stdout = cli_stdout("kotzig", "5", "7")
    checks.check_kotzig(5, 7, stdout)
    with pytest.raises(checks.CheckError):
        checks.check_kotzig(5, 7, stdout.replace("# c=", "# c=1", 1))


def test_oracle_against_index():
    spec = "K(2,3)"
    reference = checks.parse_index(cli_stdout("index", spec))
    stdout = cli_stdout("oracle", spec, "--max-excess", "4")
    checks.check_oracle(spec, stdout, 4, reference)
    with pytest.raises(checks.CheckError):
        checks.check_oracle(spec, stdout, 4, (reference[0] + 1, reference[0] + 1))


def test_oracle_on_adjacency_file(tmp_path):
    path = tmp_path / "c5.adj"
    path.write_text("0: 1 4\n1: 0 2\n2: 1 3\n3: 2 4\n4: 3 0\n")
    spec = f"FILE({path})"
    stdout = cli_stdout("oracle", spec, "--max-excess", "1")
    checks.check_oracle(spec, stdout, 1, None)
    with pytest.raises(checks.CheckError):
        checks.check_oracle(spec, stdout, 0, None)


def test_failed_check_counts_as_failed_command():
    command = specs.Command(("qmr", "3", "10"), "test")
    good = cli_stdout("qmr", "3", "10")
    assert run.judge(command, 0.1, "0", good, {}).ok
    outcome = run.judge(command, 0.1, "0", good.replace("# d=16", "# d=17"), {})
    assert not outcome.ok and outcome.wrong
    crashed = run.judge(command, 0.1, "RecursionError", "", {})
    assert not crashed.ok and not crashed.wrong
