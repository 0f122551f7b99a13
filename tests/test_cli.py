import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import magiclab
from magiclab import cli
from magiclab.cli import main
from magiclab.errors import InternalInconsistencyError
from magiclab.graphs import MAX_SPEC_DEPTH, _ast_size, build_from_ast, parse_spec_ast

from conftest import explicit, petersen
from test_cli_fuzz import _files, command_lines


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_index_goldens():
    code, out, _ = run_cli("index", "K(5,6,7)")
    payload = json.loads(out)
    assert code == 0 and payload["theta"] == 0 and payload["case"] == "tripartite-I"

    code, out, _ = run_cli("index", "K(3,8,9)")
    payload = json.loads(out)
    assert code == 0 and payload["theta"] == 7 and payload["case"] == "tripartite-II"

    code, out, _ = run_cli("index", "U(2,K(3,3))")
    payload = json.loads(out)
    assert code == 0 and payload["theta"] == 1 and payload["case"] == "mKab-otherwise"


def test_index_dispatch_variety():
    assert json.loads(run_cli("index", "K(2,2)")[1])["theta"] == 0
    assert json.loads(run_cli("index", "K(2,2,2,2)")[1])["theta"] == 0
    assert json.loads(run_cli("index", "K(3,3,3,3)")[1])["theta"] == 1
    assert json.loads(run_cli("index", "LEX(C(10),E(3))")[1])["theta"] == 1
    assert json.loads(run_cli("index", "U(2,LEX(C(3),E(3)))")[1])["theta"] == 1
    assert json.loads(run_cli("index", "K(4)")[1])["case"] == "edgeless"
    assert json.loads(run_cli("index", "K(1,5)")[1])["case"] == "bipartite-star"
    payload = json.loads(run_cli("index", "K(2,2,9)")[1])
    assert payload["exact"] is False and payload["lower"] == 5 and payload["upper"] is None


def test_index_exit_codes():
    code, _, err = run_cli("index", "K(5,6,")
    assert code == 2 and "error" in err
    code, _, err = run_cli("index", "C(9)")
    assert code == 3 and "--oracle" in err
    code, _, err = run_cli("index", "K(1,1)")  # two singleton parts: no labeling exists
    assert code == 3 and "--oracle" in err
    code, out, _ = run_cli("index", "C(4)", "--oracle")
    assert code == 0 and json.loads(out)["provenance"] == "oracle"
    code, out, err = run_cli("index", "LEX(U(2,K(1,2)),E(3))")
    assert code == 3 and out == "" and "blow-up base graph is not regular" in err


def test_single_copy_and_single_layer_dispatch_inward():
    payload = json.loads(run_cli("index", "U(1,K(5,6,7))")[1])
    assert payload["case"] == "tripartite-I"
    payload = json.loads(run_cli("index", "LEX(K(3,8,9),E(1))")[1])
    assert payload["case"] == "tripartite-II"


def test_label_oracle_fallback():
    code, out, _ = run_cli("label", "C(4)", "--oracle", "--max-excess", "2")
    payload = json.loads(out)
    assert code == 0 and payload["eta"] == 4
    code, out, _ = run_cli("label", "C(5)", "--oracle", "--max-excess", "2")
    assert code == 4  # search exhausted without a witness


def test_label_golden_and_verify_roundtrip(tmp_path):
    code, out, _ = run_cli("label", "K(3,8,9)")
    payload = json.loads(out)
    assert code == 0 and payload["constant"] == 154 and payload["eta"] == 27
    labfile = tmp_path / "k389.json"
    labfile.write_text(json.dumps({"labels": payload["labels"]}))
    code, out, _ = run_cli("verify", "K(3,8,9)", str(labfile))
    report = json.loads(out)
    assert code == 0 and report["is_magic"] and report["constant"] == 154


def test_verify_flags_broken_labeling(tmp_path):
    labfile = tmp_path / "bad.json"
    labfile.write_text(json.dumps({"labels": {str(v): v + 1 for v in range(6)}}))
    code, out, _ = run_cli("verify", "K(3,3)", str(labfile))
    assert code == 1 and not json.loads(out)["is_magic"]


def test_label_file_blowup(tmp_path):
    adj = tmp_path / "g10.adj"
    lines = [f"{v}: {' '.join(str(u) for u in petersen().adjacent[v])}"
             for v in range(10)]
    adj.write_text("\n".join(lines))
    code, out, _ = run_cli("label", f"LEX(FILE({adj}),E(3))")
    payload = json.loads(out)
    assert code == 0 and payload["constant"] == 144


def test_label_file_blowup_reads_the_file_once(tmp_path, monkeypatch):
    adj = tmp_path / "petersen.adj"
    adj.write_text("\n".join(
        f"{v}: {' '.join(str(u) for u in petersen().adjacent[v])}" for v in range(10)
    ))
    reads = []
    read = magiclab.graphs.read_adjacency_file

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(magiclab.graphs, "read_adjacency_file", counting_read)
    code, out, _ = run_cli("label", f"LEX(FILE({adj}),E(3))")
    assert code == 0 and len(reads) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d9e6063874f0d866b213b03ee598f294f535d10d403bcb7a49032135d6d20c8d"
    )


def test_label_lex_blowup_builds_its_base_once(monkeypatch):
    builds = []
    build_cycle = magiclab.graphs.build_cycle
    build_k = magiclab.graphs.build_complete_multipartite

    def counting_build_cycle(b):
        builds.append(b)
        return build_cycle(b)

    def counting_build_k(sizes):
        builds.append(sizes)
        return build_k(sizes)

    monkeypatch.setattr(magiclab.graphs, "build_cycle", counting_build_cycle)
    monkeypatch.setattr(magiclab.graphs, "build_complete_multipartite", counting_build_k)
    code, out, _ = run_cli("label", "LEX(U(3,C(10)),E(3))")
    assert code == 0 and json.loads(out)["eta"] == 91 and builds == [10]
    # the parser builds K(3,3) once, as the spec's base; the closed form
    # builds nothing, and the witness makes U(2,K(3,3)) and its blow-up from it
    builds.clear()
    code, out, _ = run_cli("label", "LEX(U(2,K(3,3)),E(3))")
    assert code == 0 and json.loads(out)["eta"] == 37 and builds == [(3, 3)]


def test_label_no_construction_exits_4():
    code, out, _ = run_cli("label", "K(2,2,9)")
    assert code == 4
    assert json.loads(out)["lower"] == 5


C4_ADJACENCY = "0: 1 3\n1: 0 2\n2: 1 3\n3: 0 2\n"


@pytest.mark.parametrize("spec, case, bounds", [
    ("K(2,2,6)", "tripartite-V", (1, 4)),
    ("LEX(FILE({c4}),E(3))", "lex-unsolved", (0, 1)),
])
def test_label_without_a_witness_prints_the_index_payload(tmp_path, spec, case, bounds):
    c4 = tmp_path / "c4.adj"
    c4.write_text(C4_ADJACENCY)
    spec = spec.format(c4=c4)
    code, out, err = run_cli("label", spec)
    payload = json.loads(out)
    assert code == 4 and err == "" and (payload["case"], payload["lower"], payload["upper"]) == (
        case, *bounds)
    assert (0, out, "") == run_cli("index", spec)


@pytest.mark.parametrize("spec", ["K(2,2)", "FILE({c4})"])
def test_verify_refuses_a_labeling_of_the_wrong_size(tmp_path, spec):
    # verify_s_magic compares the sizes; a FILE is read when the spec is parsed
    c4 = tmp_path / "c4.adj"
    c4.write_text(C4_ADJACENCY)
    labfile = tmp_path / "labels.json"
    labfile.write_text(json.dumps({"labels": {"0": 1, "1": 2, "2": 3}}))
    code, out, err = run_cli("verify", spec.format(c4=c4), str(labfile))
    assert (code, out, err) == (2, "", "error: labeling covers 3 vertices, graph has 4\n")


@pytest.mark.parametrize("spec, eta", [
    ("K(2,2,2,2)", 8),  # index 0, construction lives outside this package
    ("K(2,2,6)", 12),  # tripartite V: the closed form gives bounds [1, 4] only
])
def test_label_oracle_witnesses_a_cell_without_a_construction(tmp_path, spec, eta):
    assert run_cli("label", spec)[0] == 4
    code, out, _ = run_cli("label", spec, "--oracle")
    assert code == 0 and json.loads(out)["eta"] == eta
    labfile = tmp_path / "labels.json"
    labfile.write_text(out)
    code, out, _ = run_cli("verify", spec, str(labfile))
    assert code == 0 and json.loads(out)["is_magic"]


def test_array_commands():
    code, out, _ = run_cli("qmr", "3", "10")
    assert code == 0
    assert out.splitlines()[0] == "# d=16 rho=160 sigma=48"
    assert len(out.splitlines()) == 4

    code, _, err = run_cli("qmr", "5", "2")
    assert code == 5 and "does not exist" in err
    code, _, err = run_cli("kotzig", "3", "4")
    assert code == 5 and "odd" in err
    code, out, _ = run_cli("kotzig", "3", "5")
    assert code == 0 and out.splitlines()[0] == "# c=6"
    code, _, err = run_cli("qmr", "4", "6")
    assert code == 2

    code, out, _ = run_cli("qmr", "3", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["d"] == 4 and payload["rho"] == 8 and payload["sigma"] == 12


def test_oracle_command():
    code, out, _ = run_cli("oracle", "K(2,3)", "--max-excess", "3")
    payload = json.loads(out)
    assert code == 0 and payload["theta"] == 1 and "witness" in payload


def test_tables_command():
    code, out, _ = run_cli("tables")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 34
    assert {row["table"] for row in rows} == {1, 2, 3, 4}


DETERMINISM_MATRIX = [
    ("index", "K(5,6,7)"),
    ("index", "K(3,8,9)"),
    ("index", "K(2,2,9)"),
    ("index", "U(2,K(3,3))"),
    ("index", "LEX(C(10),E(3))"),
    ("index", "C(4)", "--oracle", "--max-excess", "2"),
    ("label", "K(5,6,7)"),
    ("label", "K(2,2,3)"),
    ("label", "U(2,K(3,3))"),
    ("oracle", "K(2,3)", "--max-excess", "3"),
    ("oracle", "K(2,2,6)", "--max-excess", "4"),
    ("qmr", "3", "10"),
    ("qmr", "5", "6"),
    ("kotzig", "5", "5"),
    ("tables",),
]


def test_cli_outputs_are_deterministic_across_jobs():
    """Each command prints the same bytes twice over.  ``--jobs`` is accepted
    and ignored, so the ``--jobs 1`` and ``--jobs 4`` runs take one code path
    and this checks run-to-run determinism only."""
    for argv in DETERMINISM_MATRIX:
        takes_jobs = argv[0] in ("index", "label", "oracle")
        one = run_cli(*argv, "--jobs", "1") if takes_jobs else run_cli(*argv)
        four = run_cli(*argv, "--jobs", "4") if takes_jobs else run_cli(*argv)
        assert one == four, argv


# sha256 of the ``label`` stdout; bipartite, case II and family witnesses
# keep their bytes when the splitter changes.  U(2,K(3,3)) labels its parts
# with the columns {4,6,11}, {1,8,12}, {3,5,13}, {2,9,10} of QMR(3,4).
# The shapes after K(20,30) were pinned before the shift arithmetic became
# one run helper: the case II ones cover each shift branch (m = 0, 3 mod 4
# with r = 0 and r > 0; otherwise q = 0, q = 1 with r = 1 and r >= 2, q > 1
# with r = 0, 1 and >= 2), the bipartite ones the deficit with r = 0 and r > 0.
# The edgeless K(4) and the star K(1,5) were pinned before the plan and its
# witness became one function.  The last five, pinned before the splitter
# kept its label sets as runs, are label-cap sizes: the bipartite greedy and
# deficit branches and the tripartite case II, I and IV splits.
LABEL_GOLDEN_SHA256 = {
    "K(2,2)": "0ebc2109db37189287c9b5683c20faed67f4f6727a3f7195dee310fffd4a6dee",
    "K(4,7)": "80d6749eea6c19c5ebaabe216c635d29d98f0d9ef67d7eb9d11d6565706e01af",
    "K(6,7)": "aa0349f4288623c511e78954c12806bd6d53198d531437b06c7ae262d38127f3",
    "K(20,30)": "4e56cf0f933198e6c3b34fddd8c2f436ac020ac45d7a63f2829e49ebf576f208",
    "K(2,5)": "ee5949f026e3f19af9463547798ee93727f92d4dada0ff669b8543ad0c617e1e",
    "K(3,7)": "f92295f847128acfabac697488603ec0aedfac8bac0cd4680d46005e48fed7e8",
    "K(2,4,7)": "d2e60294af670b334af43f6d41d84dbc6bb305979f9141541efb0f03c1f46a77",
    "K(2,6,9)": "2188997233834220210eade59fefdde4de68021f4471307e87803fc1a98030d5",
    "K(3,4,9)": "051ea61f49364cbfed790516a40d45b1fc5c072e1ee466c0731fd52153c37bc7",
    "K(2,3,6)": "746b8cc323e4d47c5a62aebd496f66340b5d1ddb7ceb4522675ced8e8db46aa3",
    "K(10,14,31)": "ac5dffbe209849664548f252d22c1fc7fce5d0f98c1ab4b669427a17c70d1b96",
    "K(2,4,6)": "5d926c526a2fa43e4b68b6ad9247d0ef0a05c32ce944933c943473e05537c537",
    "K(2,5,9)": "759a8e62e7fd41386a4eae972df55091ec4a8212cde58f00a31180edaf4cfc5a",
    "K(3,8,14)": "7425cdbbe617e526a6b2f5a7bda00be1cb0db4bb1d21771f5f51b0d34fae7212",
    "K(3,8,9)": "73c1cee10ba18f668a9ba836d8a40cee3c3543998ac7ba7719b1e78db4185441",
    "U(2,K(3,3))": "656f745977fc3328e523ee9b8c152baf9470c22f47110591689295ab1e345d97",
    "K(3,3,3,3)": "fd125e8e6e4c889d24b6e03f6576e59bbd241603d574e025289f0617185e503b",
    "U(3,K(3,3))": "4a4be71b24943e406572cf70e930fbceecad5941e318591b108ed1b5b7c7b766",
    "LEX(C(6),E(5))": "d9c22581c63525801b2cba7d78e8f978941a77e00ffa2751a10e30db6f217198",
    "U(2,LEX(C(5),E(3)))": "82af1f5b51f0e4c338af46652e15715fff26d9058d8c06ceadd244a4ab824177",
    "LEX(U(2,K(3,3)),E(3))": "163f8a589173ffd8ce9d8926d3949f3b0250f9b0ec20a81eeb8eca1de41c857b",
    "K(4)": "f55956a22498b7656235c48b9bc33c1daeb51c71be422f4e3bc25e8447d48e48",
    "K(1,5)": "621c382e4c397fe46586a84e4621564a3a0b663d07baa4417b20fae0cac82c5a",
    "K(1568,2945)": "96e7462bc079d333ac3f2448ce185077ec095ac453985e2f6b9d0739a6888022",
    "K(661,3857)": "098e41c0c551a3714c01a51134bb7c1e325fd9f3dac754ce8b13ee5a75a53943",
    "K(164,814,1000)": "4f05a99127e8bc752af4cbfcd76e4c59f696348d86762e065d428bbd69055f44",
    "K(480,494,517)": "b71ba28d9a23bb776900b40832eb23267f38634b606de461769b8f7d16e76f97",
    "K(469,499,524)": "42dd2d3108fbeff19edc5ee2e86b0fdc66846bf0bc6f164ed0dd409b2327fc6e",
}


def test_label_stdout_goldens():
    for spec, digest in LABEL_GOLDEN_SHA256.items():
        code, out, _ = run_cli("label", spec)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, spec



# sha256 of ``qmr``/``kotzig`` stdout in both formats, pinned before the
# arrays were built, verified and printed in whole-column passes.  The qmr
# shapes cover each construction branch: b = 2 with a = 3 (mod 4), even m,
# odd m without a trade, a trade with m = 4t+1 and with m = 4t+3 (m = b/2),
# and two tall arrays at the cap; the kotzig ones even a, odd a and 1x1.
# The last four CSV digests, pinned before the bands were written as column
# progressions and Kotzig rows printed once per distinct row, add a tall
# array without a trade (odd m), one with even m, and Kotzig arrays with
# shared rows for odd a and for even a at the cap.
ARRAY_GOLDEN_SHA256 = {
    ("qmr", 7, 2, "csv"): "53f40d21d36fe87c466f3cab33b0422654ada2327faff1a26c59cfc6827748b6",
    ("qmr", 7, 2, "json"): "93275d10cdf3fa3ae3dcf895a6016dce28c676cbb8a52563a791acf1e0e2011e",
    ("qmr", 5, 8, "csv"): "d5f2f25e89c717a0b546b0ef1e59a93c001799f454bf25d483d6768c2803985c",
    ("qmr", 5, 8, "json"): "748914ec93eac38b95b5a67e79aff53c7242b09dbe875a770447556ab13dfb9a",
    ("qmr", 7, 6, "csv"): "6989e9c6d7e72e8a9e778184278c04ce5ebd556939a77c090ec135ca4fe3bb73",
    ("qmr", 7, 6, "json"): "c34d4f516824f3a8e9c0f929e3a6ce376d2d0cbc8af45a41076c75475a48e10d",
    ("qmr", 9, 10, "csv"): "65df5cd78d105d7aec6738e8d47a4467a23c6b4a6fd1aa683d0e0ac8136d1184",
    ("qmr", 9, 10, "json"): "a56f7e871ecdca81b3a6c0a24e48b018e15e65bec0295aa49f30b6e8b951d10d",
    ("qmr", 9, 6, "csv"): "570403a1f3d2939bf0993177e84bbbdcf82fecd1f6529cd0fe3999a064a00be4",
    ("qmr", 9, 6, "json"): "825be3fd1f770c951db037d34fa6166e086baafb8b0a3163869675b38ed0d335",
    ("qmr", 5, 14, "csv"): "8ddf54e02f1065ff302e3caa019bf502ec9a3eb84741c108f037d145f92ce4d7",
    ("qmr", 5, 14, "json"): "efed6adc8eed32421a194d24d1c8ae3d9a4fd96937506e1acf47cc92d1f23bea",
    ("qmr", 16665, 6, "csv"): "13d94c7401302d40acbfb37aa18da5c1b10ffc14650604852e528d3995167a53",
    ("qmr", 16665, 6, "json"): "09dde5b529a47174cca648e25a6e65059beb27cb00594fbbadff6944676f902d",
    ("qmr", 7501, 10, "csv"): "415cd7f1c8f101a22181bbf432756ce693f020234def78b796ff5128698b11fa",
    ("qmr", 7501, 10, "json"): "89ce0b876f7ea2f6b210d9a798745cc8aedacc7cb74e92d3b7d0808eb60b0ef6",
    ("kotzig", 4, 5, "csv"): "48939cb28538eefb5013bfb0cc310abd546b2434778329328e188a6c26337e61",
    ("kotzig", 4, 5, "json"): "cd33c5bc159553b85157a5f26333359df685901b219eed80517495fbd81e11f3",
    ("kotzig", 5, 7, "csv"): "ef067deec1ebb1bbf8e1ea77ca67620274147f9fd2166cd49c2b7829ca0929a3",
    ("kotzig", 5, 7, "json"): "a37e05970bc4d9c1d5fd901379955d0a3e8c938fef7c5f953f9b7c9e1f053671",
    ("kotzig", 1, 1, "csv"): "4c49b31177cde7afec5289d6a2a798cfdb174bbd04e7c2511f1009555a92e0e3",
    ("kotzig", 1, 1, "json"): "110fee4db8a591435f194547934d75e277a78d1696cffce1b37d2cf7124f6122",
    ("qmr", 12499, 6, "csv"): "45b8959fca5a5aac59b5bcccbedac369cd05262cfbae65e3826fb306853f1a4d",
    ("qmr", 4999, 20, "csv"): "e17d88aa12252f1fa34e050cc8bfb2cd3bf64503fd60eef340c9fb1c9e3e32c6",
    ("kotzig", 313, 317, "csv"): "ac4e75c422fc63c8f96b426af8c55319fff1b811c789937b2f5829bd8ed67794",
    ("kotzig", 4, 25000, "csv"): "f78f9d8a01dedefbae380466181bc78ccc073b7e931e0f8724b6f41f6bd602cd",
}


# The ``label`` specs of the benchmark's label-cap and qmr-construct
# workloads at seeds 1-3: bipartite greedy and deficit, tripartite II, I and
# IV, two cycle blow-ups, and a union of blow-ups labeled from a QMR.
BENCHMARK_LABEL_SPECS = [
    "K(1568,2945)", "K(661,3857)", "K(164,814,1000)", "K(480,494,517)", "K(469,499,524)",
    "LEX(C(6),E(377))", "LEX(C(10),E(223))",
    "K(1647,2842)", "K(713,3769)", "K(172,804,1016)", "K(489,501,519)", "K(474,504,523)",
    "LEX(C(6),E(363))", "LEX(C(10),E(237))",
    "K(1641,2880)", "K(629,3893)", "K(167,827,988)", "K(478,502,502)", "K(474,493,525)",
    "LEX(C(6),E(313))", "LEX(C(10),E(287))",
    "U(25,LEX(C(6),E(3)))",
]


def _is_sorted_json(out):
    return out == json.dumps(json.loads(out), sort_keys=True) + "\n"


@pytest.mark.parametrize("spec", BENCHMARK_LABEL_SPECS)
def test_label_stdout_is_sorted_key_json(spec):
    code, out, _ = run_cli("label", spec)
    assert code == 0 and _is_sorted_json(out)


def test_json_stdout_is_sorted_key_json_on_fuzz_argvs(tmp_path_factory):
    files = _files(tmp_path_factory)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(command_lines().filter(lambda argv: argv[0] in ("index", "label", "oracle", "verify")))
    def check(argv):
        for name, path in files.items():
            argv = [arg.replace("@" + name, path) for arg in argv]
        _, out, _ = run_cli(*argv)
        assert out == "" or _is_sorted_json(out), argv

    check()


def test_json_stdout_is_sorted_key_json_on_desk_shapes(tmp_path):
    # most fuzz specs are malformed or refused: every payload kind, here
    specs = [f"C({b})" for b in range(3, 11)] + ["LEX(C(4),E(3))", "U(2,K(3,3))"] + [
        "K(" + ",".join(map(str, sizes)) + ")"
        for r in (2, 3, 4) for sizes in combinations_with_replacement(range(1, 11), r)
        if sum(sizes) <= 12
    ]
    labfile = tmp_path / "labels.json"
    for spec in specs:
        for argv in (["index", spec, "--oracle"], ["oracle", spec, "--max-excess", "2"],
                     ["label", spec, "--oracle", "--max-excess", "2"]):
            code, out, _ = run_cli(*argv)
            assert out == "" or _is_sorted_json(out), argv
        if code == 0:
            labfile.write_text(out)
            code, out, _ = run_cli("verify", spec, str(labfile))
            assert code == 0 and _is_sorted_json(out), spec


@pytest.mark.parametrize("labels", [
    {"0": 1.9, "1": 4, "2": 2, "3": 3},  # int() would read 1.9 as 1: a magic labeling
    {"0": 1, "1": 4, "2": 2, "3": 3, "03": 99},  # int() would read "03" as id 3
    {"0": 1, "1": "4", "2": 2, "3": 3},
    {"0": 1, "1": True, "2": 2, "3": 3},
    {"0": 1, "01": 4, "2": 2, "3": 3},
    {"0": 1, " 1": 4, "2": 2, "3": 3},
])
def test_verify_exits_2_on_non_integer_labels_and_stray_ids(tmp_path, labels):
    labfile = tmp_path / "labels.json"
    labfile.write_text(json.dumps({"labels": labels}))
    code, out, err = run_cli("verify", "K(2,2)", str(labfile))
    assert code == 2 and out == "" and err.startswith("error: "), (code, out, err)


def test_array_stdout_goldens():
    for (command, a, b, fmt), digest in ARRAY_GOLDEN_SHA256.items():
        code, out, _ = run_cli(command, str(a), str(b), "--format", fmt)
        digest_out = hashlib.sha256(out.encode()).hexdigest()
        assert code == 0 and digest_out == digest, (command, a, b, fmt)


@pytest.mark.parametrize("command, a, b", [
    ("qmr", 3, 2), ("qmr", 7, 2), ("qmr", 5, 8), ("qmr", 9, 6), ("qmr", 11, 10), ("qmr", 301, 12),
    ("kotzig", 1, 1), ("kotzig", 7, 1), ("kotzig", 4, 1), ("kotzig", 2, 6), ("kotzig", 9, 7),
    ("kotzig", 40, 13),
])
def test_array_csv_matches_a_per_row_reference(command, a, b):
    # the printer formats each distinct row object once; the reference
    # formats every row on its own
    arr = magiclab.qmr(a, b) if command == "qmr" else magiclab.kotzig_array(a, b)
    if command == "qmr":
        rho, sigma = b * (a * b + 2) // 2, a * (a * b + 2) // 2
        header = f"# d={a * b // 2 + 1} rho={rho} sigma={sigma}"
    else:
        header = f"# c={a * (b - 1) // 2}"
    expected = "\n".join([header, *(",".join(map(str, row)) for row in arr.entries)]) + "\n"
    assert run_cli(command, str(a), str(b)) == (0, expected, "")


@pytest.mark.parametrize("a, b", [
    (7501, 10), (12577, 6), (12295, 6),  # the benchmark's tall shapes
    (3, 33332), (5, 20000), (5, 19998), (9, 11106), (12499, 6),  # the entry cap
])
def test_printed_qmr_reads_back_as_a_qmr(a, b):
    # the verifier decides on the row progressions and never reads the rows
    # the printer writes out: parsed back, they must pass it as explicit rows
    code, out, _ = run_cli("qmr", str(a), str(b))
    header, *lines = out.splitlines()
    ab, d = a * b, a * b // 2 + 1
    assert code == 0 and header == f"# d={d} rho={b * (ab + 2) // 2} sigma={a * (ab + 2) // 2}"
    rows = tuple(tuple(map(int, line.split(","))) for line in lines)
    assert magiclab.verify_qmr(magiclab.MagicArray(a, b, rows, "qmr", d)).valid


# sha256 of ``oracle <spec> --max-excess 16`` stdout, pinned before the
# joint-slot prune: pruning only cuts subtrees without a packing, so the
# first packing found, and every byte printed, stays the same.
ORACLE_GOLDEN_SHA256 = {
    "K(2,6,8)": "9983a9b641a48521d3f4c1abdc528f401b4933c5a21126d5630737f23d457ac9",
    "K(2,7,7)": "e7fa186e04d36c7a750b95681dfdeb34bf560e923418a852da8a08e194f3a093",
    "K(1,3,4,5)": "ad82db03c839725140669ee55c377e490b3cd9150877abdac40d2376b5fcb86a",
    "K(2,4,5,5)": "967cc86614b79c12f3b91383a88253f28e82121940824d1dc25d663cc04b09f5",
    "K(1,2,5,5)": "b558b5e00b202fc4d2f0dd4ea0faf9161637f17d0734fb3bf64fe3e93f98a5e4",
}


def test_oracle_stdout_goldens():
    for spec, digest in ORACLE_GOLDEN_SHA256.items():
        code, out, _ = run_cli("oracle", spec, "--max-excess", "16")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, spec


@pytest.mark.parametrize("argv", [
    ("index",),
    ("label",),
    ("oracle", "--max-excess", "4"),
    ("label", "--oracle"),
])
@pytest.mark.parametrize("written, sorted_", [("K(3,2)", "K(2,3)"), ("K(5,2,3)", "K(2,3,5)")])
def test_k_parts_in_any_order_print_the_same(argv, written, sorted_):
    command, *flags = argv
    assert run_cli(command, written, *flags) == run_cli(command, sorted_, *flags)


def test_nested_unions_are_read_as_one_union():
    assert run_cli("index", "U(2,U(2,K(2,2)))") == run_cli("index", "U(4,K(2,2))")
    code, out, _ = run_cli("index", "U(2,U(2,K(2,2)))")
    assert code == 0 and json.loads(out)["case"] == "mKab-dmg"


@pytest.mark.parametrize("disguised, literal", [
    ("LEX(K(1,1),E(5))", "K(5,5)"),
    ("LEX(K(2,3),E(2))", "K(4,6)"),
    ("U(1,K(2,3))", "K(2,3)"),
    ("LEX(C(3),E(2))", "K(2,2,2)"),
])
def test_disguised_complete_multipartite_specs_match_their_k_form(disguised, literal):
    answers = []
    for spec in (disguised, literal):
        code, out, _ = run_cli("oracle", spec, "--max-excess", "4")
        payload = json.loads(out)
        answers.append((code, payload["theta"], payload["lower"], payload["upper"]))
    assert answers[0] == answers[1] and answers[0][0] == 0


@pytest.mark.parametrize("disguised, literal", [
    ("LEX(K(1,1),E(5))", "K(5,5)"),
    ("LEX(K(2,3),E(2))", "K(4,6)"),
    ("LEX(U(1,LEX(K(1,2),E(2))),E(3))", "K(6,12)"),
    ("LEX(K(1,5),E(2))", "K(2,10)"),
    ("LEX(K(2,3,4),E(3))", "K(6,9,12)"),
    ("LEX(K(1,1,1,1),E(3))", "K(3,3,3,3)"),
    ("U(2,LEX(K(3,3),E(1)))", "U(2,K(3,3))"),
    ("U(3,K(4))", "K(12)"),
    ("LEX(U(3,K(1)),E(2))", "K(6)"),
    ("U(2,U(3,K(3,3)))", "U(6,K(3,3))"),
    ("LEX(C(3),E(2))", "K(2,2,2)"),  # C(3) is K(1,1,1)
])
def test_disguised_k_specs_are_planned_as_their_k_form(disguised, literal):
    for command in ("index", "label"):
        code, out, _ = run_cli(command, disguised)
        assert code == 0 and (code, out, "") == run_cli(command, literal), command
    labels = json.loads(out)["labels"]
    labeling = magiclab.Labeling(tuple(labels[str(v)] for v in range(len(labels))))
    ast = parse_spec_ast(disguised)
    cli._certify(build_from_ast(ast), labeling, cli._plan(ast)[0])


@pytest.mark.parametrize("disguised, literal", [
    ("LEX(U(1,C(4)),E(3))", "LEX(C(4),E(3))"),
    ("LEX(LEX(C(6),E(1)),E(3))", "LEX(C(6),E(3))"),
    ("U(2,LEX(U(1,C(6)),E(3)))", "U(2,LEX(C(6),E(3)))"),
    ("LEX(LEX(C(4),E(2)),E(3))", "LEX(C(4),E(6))"),
    ("LEX(U(2,C(4)),E(3))", "U(2,LEX(C(4),E(3)))"),
    ("U(2,LEX(U(2,C(4)),E(3)))", "U(4,LEX(C(4),E(3)))"),
])
def test_disguised_cycle_blowups_are_planned_as_their_literal_form(disguised, literal):
    # the parser reads every nesting as one U(m,LEX(C(b),E(a)))
    for command in ("index", "label"):
        assert run_cli(command, disguised) == run_cli(command, literal), command


def test_blow_ups_of_a_complete_file_are_planned_as_their_k_form(tmp_path):
    # the parser reads a FILE of K_n as K(1, .., 1), so any spelling over it
    # answers as the same spelling over K(1, .., 1), on every command
    for n in range(1, 5):
        path = tmp_path / f"k{n}.adj"
        path.write_text("".join(
            f"{u}: " + " ".join(str(v) for v in range(n) if v != u) + "\n" for u in range(n)
        ))
        k = "K(" + ",".join(["1"] * n) + ")"
        for spec in _wrapped(f"FILE({path})", 2, (1, 2, 3)):
            twin = spec.replace(f"FILE({path})", k)
            commands = [("index",), ("label",)]
            if _ast_size(parse_spec_ast(twin))[0] <= 16:
                commands.append(("oracle", "--max-excess", "2"))
            for argv in commands:
                assert run_cli(argv[0], spec, *argv[1:]) == run_cli(argv[0], twin, *argv[1:]), (
                    argv, spec)
    # U(4,K(3,3,3)), the same graph with the same vertex ids, takes mK(a,b)
    k3 = tmp_path / "k3.adj"
    for command in ("index", "label"):
        code, out, err = run_cli(command, f"U(2,U(2,LEX(FILE({k3}),E(3))))")
        assert (code, out, err) == run_cli(command, "U(4,K(3,3,3))") and code == 0, command
    assert json.loads(out)["eta"] == 37  # n + theta: 36 vertices, theta 1
    k2 = tmp_path / "k2.adj"
    for a in range(2, 7):
        for command in ("index", "label"):
            blown = run_cli(command, f"LEX(FILE({k2}),E({a}))")
            assert blown == run_cli(command, f"K({a},{a})"), (command, a)
    # E(9) on K_2 has no QMR(9, 2) column labeling; its K form labels it
    spec = f"LEX(LEX(FILE({k2}),E(3)),E(3))"
    code, out, _ = run_cli("label", spec)
    assert code == 0
    labfile = tmp_path / "labels.json"
    labfile.write_text(out)
    code, out, _ = run_cli("verify", spec, str(labfile))
    assert code == 0 and json.loads(out)["is_magic"]


def test_edgeless_files_are_planned_as_their_k_form(tmp_path):
    # the parser reads an edgeless FILE on n vertices as K(n), one part with
    # the same vertex ids, so any spelling over it answers as over K(n)
    for n in range(2, 5):
        path = tmp_path / f"e{n}.adj"
        path.write_text("".join(f"{v}:\n" for v in range(n)))
        for spec in _wrapped(f"FILE({path})", 2, (1, 2, 3)):
            twin = spec.replace(f"FILE({path})", f"K({n})")
            commands = [("index",), ("label",)]
            if _ast_size(parse_spec_ast(twin))[0] <= 16:
                commands.append(("oracle",))
            for argv in commands:
                got = run_cli(argv[0], spec, *argv[1:])
                assert got == run_cli(argv[0], twin, *argv[1:]) and got[0] == 0, (argv, spec)
    code, out, _ = run_cli("index", f"FILE({tmp_path / 'e3.adj'})")
    assert code == 0 and json.loads(out)["case"] == "edgeless"


# every U(m,K(S)) with m >= 2 copies, r >= 2 parts and at most 16 vertices
_UNION_SHAPES = [
    (m, sizes)
    for r in range(2, 9)
    for sizes in combinations_with_replacement(range(1, 8), r)
    for m in range(2, 16 // sum(sizes) + 1)
]


def test_union_of_ks_has_the_magic_condition_of_k_with_all_parts():
    # m copies of K(S) with r >= 2 parts are magic exactly when all m * r
    # parts carry one label sum: the oracle's bounds are those of K(S^m)
    assert len(_UNION_SHAPES) == 84
    witnessed = 0
    for m, sizes in _UNION_SHAPES:
        spec = f"U({m},K({','.join(map(str, sizes))}))"
        code, out, _ = run_cli("oracle", spec, "--max-excess", "16", "--budget-seconds", "5")
        found = json.loads(out)
        flat = magiclab.oracle_theta_multipartite(
            magiclab.build_complete_multipartite(tuple(sorted(sizes * m))), 16)
        assert code == 0 and (found["lower"], found["upper"]) == (flat.lower, flat.upper), spec
        graph = magiclab.parse_graph_spec(spec)
        if found["exact"]:
            labeling = magiclab.Labeling.from_json(json.dumps(found["witness"]))
            assert magiclab.verify_s_magic(graph, labeling).is_magic, spec
            witnessed += 1
        if graph.vertex_count <= 8:
            # the block search on the explicit form, which no part sum guides
            slow = magiclab.oracle_theta_general(explicit(graph), 16)
            assert (slow.lower, slow.upper) == (found["lower"], found["upper"]), spec
    assert witnessed > 0


@pytest.mark.parametrize("spec", [
    "U(2,K(1,2,2))", "U(3,K(1,2,2))", "U(2,K(1,2,3))", "U(2,K(1,2,4))", "U(2,K(1,3,3))",
    "U(2,K(1,2,2,2))", "U(2,K(1,2,5))", "U(2,K(1,3,4))", "U(2,K(1,2,2,3))",
])
def test_unions_with_two_singleton_parts_have_no_labeling(spec):
    # two singleton parts would carry the common part sum as one label twice
    code, out, _ = run_cli("oracle", spec, "--max-excess", "16", "--budget-seconds", "1")
    assert code == 0 and json.loads(out) == {
        "case": "oracle-exhausted", "exact": False, "lower": 17, "provenance": "oracle",
        "theta": None, "upper": None}


def test_union_with_index_one_is_found_within_a_second():
    code, out, _ = run_cli("oracle", "U(2,K(2,3,3))", "--max-excess", "16", "--budget-seconds", "1")
    found = json.loads(out)
    assert code == 0 and found["theta"] == 1
    code, out, _ = run_cli("label", "U(2,K(2,3,3))", "--oracle", "--budget-seconds", "1")
    assert code == 0 and json.loads(out)["eta"] == 17


def _wrapped(spec, levels, factors=(2, 3, 4)):
    """``spec`` under at most ``levels`` of U(m,.) and LEX(.,E(a)), m and a
    drawn from ``factors``."""
    yield spec
    if levels:
        for f in factors:
            yield from _wrapped(f"U({f},{spec})", levels - 1, factors)
            yield from _wrapped(f"LEX({spec},E({f}))", levels - 1, factors)


def test_index_bounds_hold_the_oracle_theta_on_nested_specs(tmp_path):
    k2, c4 = tmp_path / "k2.adj", tmp_path / "c4.adj"
    k2.write_text("0: 1\n1: 0\n")
    c4.write_text(C4_ADJACENCY)
    bases = ["K(2,2)", "K(1,2)", "K(3,3)", "C(4)", "C(5)", "C(6)", f"FILE({k2})", f"FILE({c4})"]
    checked = 0
    for base in bases:
        for spec in _wrapped(base, 2):
            if _ast_size(parse_spec_ast(spec))[0] > 16:
                continue
            code, out, _ = run_cli("index", spec)
            if code == 3:  # no closed form: no bounds to hold
                continue
            index = json.loads(out)
            code, out, _ = run_cli("oracle", spec, "--max-excess", "3")
            found = json.loads(out)
            assert code == 0, spec
            if found["exact"]:
                checked += 1
                upper = index["upper"]
                assert index["lower"] <= found["theta"], spec
                assert upper is None or found["theta"] <= upper, spec
    assert checked >= 50


def _c3_spellings():
    """Every spelling of C(3) under one or two wrappers, m and a in 1..4."""
    yield "C(3)"
    for a in range(1, 5):
        yield f"LEX(C(3),E({a}))"
        for m in range(1, 5):
            yield f"U({m},LEX(C(3),E({a})))"
            yield f"LEX(U({m},C(3)),E({a}))"


@pytest.mark.parametrize("spec", list(_c3_spellings()))
def test_c3_spellings_print_their_k111_spelling(spec):
    # C(3) is K_3, vertex v in part v, so it is read as K(1,1,1)
    twin = spec.replace("C(3)", "K(1,1,1)")
    commands = [("index",), ("label",)]
    if _ast_size(parse_spec_ast(twin))[0] <= 16:
        commands.append(("oracle", "--max-excess", "2"))
    for argv in commands:
        assert run_cli(argv[0], spec, *argv[1:]) == run_cli(argv[0], twin, *argv[1:]), argv


def _uniform_k_union_blow_ups(max_n):
    """(spec, m, s, r, a) of every LEX(U(m,K(s^r)),E(a)) with m, r, a >= 2
    on at most ``max_n`` vertices."""
    for m in range(2, max_n // 4 + 1):
        for s in range(1, max_n // (4 * m) + 1):
            for r in range(2, max_n // (2 * m * s) + 1):
                for a in range(2, max_n // (m * s * r) + 1):
                    parts = ",".join([str(s)] * r)
                    yield f"LEX(U({m},K({parts})),E({a}))", m, s, r, a


def test_uniform_k_union_blow_ups_take_the_mk_form(tmp_path):
    # U(m,LEX(K(s^r),E(a))) is mK(s * a, r): each part is s * a twins
    cells = oracle_checked = witnesses = 0
    for spec, m, s, r, a in _uniform_k_union_blow_ups(64):
        expected = magiclab.theta_mK_ab(m, s * a, r)
        code, out, _ = run_cli("index", spec)
        index = json.loads(out)
        assert code == 0 and index["theta"] == expected.theta, spec
        assert index["case"] == expected.case_tag, spec
        cells += 1
        if m * r * s * a <= 16:
            found = json.loads(run_cli("oracle", spec, "--max-excess", "2")[1])
            assert found["exact"] and found["theta"] == expected.theta, spec
            oracle_checked += 1
        if expected.theta == 1:
            code, out, _ = run_cli("label", spec)
            assert code == 0, spec
            labfile = tmp_path / "labels.json"
            labfile.write_text(out)
            code, out, _ = run_cli("verify", spec, str(labfile))
            assert code == 0 and json.loads(out)["is_magic"], spec
            witnesses += 1
    assert (cells, oracle_checked, witnesses) == (212, 8, 51)


@pytest.mark.parametrize("spec, case, theta", [
    ("LEX(U(4,C(3)),E(3))", "mKab-otherwise", 1),  # 4K(3,3,3)
    ("LEX(U(2,LEX(K(1,1),E(2))),E(3))", "mKab-dmg", 0),  # U(2,K(6,6))
])
def test_uniform_k_union_blow_up_pins(spec, case, theta):
    code, out, _ = run_cli("index", spec)
    payload = json.loads(out)
    assert code == 0 and (payload["case"], payload["theta"]) == (case, theta)


def _nested(depth):
    """``K(2,2)`` inside ``depth - 1`` one-copy unions: ``depth`` spec levels."""
    return "U(1," * (depth - 1) + "K(2,2)" + ")" * (depth - 1)


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deep_nesting_exits_2_with_position(depth):
    code, out, err = run_cli("index", _nested(depth))
    # level MAX_SPEC_DEPTH + 1 starts after MAX_SPEC_DEPTH four-character "U(1,"
    assert code == 2 and out == "" and f"(at {4 * MAX_SPEC_DEPTH})" in err


def test_nesting_at_the_limit_succeeds():
    for command in ("index", "label"):
        code, out, _ = run_cli(command, _nested(MAX_SPEC_DEPTH))
        assert code == 0 and json.loads(out), command


def test_family_label_keeps_constant_and_eta(tmp_path):
    code, out, _ = run_cli("label", "U(2,K(3,3))")
    payload = json.loads(out)
    assert code == 0 and payload["constant"] == 21 and payload["eta"] == 13
    labfile = tmp_path / "labels.json"
    labfile.write_text(out)
    code, out, _ = run_cli("verify", "U(2,K(3,3))", str(labfile))
    assert code == 0 and json.loads(out)["is_magic"] and json.loads(out)["constant"] == 21


def test_label_tripartite_cases_one_and_four_at_depth():
    # case I and case IV at n ~ 1000, deeper than a recursive search can go
    for spec, eta in (("K(330,340,350)", 1020), ("K(331,340,350)", 1023)):
        code, out, _ = run_cli("label", spec)
        assert code == 0 and json.loads(out)["eta"] == eta


@pytest.mark.parametrize("text, message", [
    ("0: 1\n1:\n", "adjacency not symmetric between blocks 0 and 1"),
    ("0: 0 1\n1: 0\n", "block 0 is adjacent to itself (a self-loop)"),
    ("0: 1\n", "neighbouring block 1 of block 0 out of range"),
    ("0: -1\n", "neighbouring block -1 of block 0 out of range"),
], ids=["asymmetric", "self-loop", "out-of-range", "negative"])
def test_adjacency_file_checks_exit_2_with_their_message(tmp_path, text, message):
    # Graph.__post_init__ is the check of FILE input
    path = tmp_path / "bad.adj"
    path.write_text(text)
    for command in ("index", "oracle"):
        assert run_cli(command, f"FILE({path})") == (2, "", f"error: {message} (at {path})\n")


def test_unreadable_files_exit_2(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert run_cli("verify", "K(3,3)", missing)[0] == 2
    assert run_cli("index", f"FILE({missing})", "--oracle")[0] == 2
    assert run_cli("verify", f"FILE({missing})", missing)[0] == 2
    assert run_cli("verify", "K(3,3)", str(tmp_path))[0] == 2  # a directory
    nolabels = tmp_path / "nolabels.json"
    nolabels.write_text(json.dumps({"weights": {}}))
    code, _, err = run_cli("verify", "K(3,3)", str(nolabels))
    assert code == 2 and '"labels"' in err


@pytest.mark.parametrize("error", [InternalInconsistencyError])
def test_construction_failures_exit_7(monkeypatch, error):
    def fail(*args):
        raise error("forced failure")

    monkeypatch.setattr(cli, "label_tripartite", fail)
    code, out, err = run_cli("label", "K(5,6,7)")
    assert code == 7 and out == "" and err.startswith("error:")



def test_arrays_failing_their_verifier_exit_7(monkeypatch):
    # QMR(5,6) with the first two entries of row 0 swapped: only columns break
    build = magiclab.arrays._qmr_shifted_banded

    def swapped(a, b):
        rows, lines = build(a, b)
        rows[0] = (rows[0][1], rows[0][0], *rows[0][2:])
        return rows, lines

    monkeypatch.setattr(magiclab.arrays, "_qmr_shifted_banded", swapped)
    code, out, err = run_cli("qmr", "5", "6")
    assert code == 7 and out == "" and "column 0 sums to" in err
    monkeypatch.setattr(magiclab.arrays, "verify_kotzig", lambda arr: False)
    code, out, err = run_cli("kotzig", "3", "5", "--format", "json")
    assert code == 7 and out == "" and "failed its verifier" in err

def test_column_labeling_off_by_one_exits_7(monkeypatch):
    # every label one higher: still magic on a uniform K(a,b), but the top
    # label is n + 2 where the index says n + 1
    column_labeling = magiclab.families.label_by_qmr_columns

    def shifted(graph, a):
        return magiclab.Labeling(tuple(x + 1 for x in column_labeling(graph, a).labels))

    monkeypatch.setattr(magiclab.families, "label_by_qmr_columns", shifted)
    code, out, err = run_cli("label", "K(3,3,3,3)")
    assert code == 7 and out == "" and "top label 14" in err


@pytest.mark.parametrize("lower, upper", [(3, None), (0, 1)])
def test_witness_outside_claimed_bounds_exits_7(monkeypatch, lower, upper):
    # the case IV witness of K(3,3,4) has top label 12 = n + 2: a result
    # that claims the index is at least 3, or at most 1, must not print it
    assert run_cli("label", "K(3,3,4)")[0] == 0
    monkeypatch.setattr(cli, "theta_tripartite", lambda *sizes: magiclab.ThetaResult(
        lower=lower, upper=upper, case_tag="tripartite-IV"))
    code, out, err = run_cli("label", "K(3,3,4)")
    assert code == 7 and out == "" and "top label 12" in err


@pytest.mark.parametrize("argv", [
    ("oracle", "C(5)", "--max-excess", "2"),  # the general oracle
    ("oracle", "K(2,3)", "--max-excess", "3"),  # part sums, inside the one oracle
    ("index", "C(4)", "--oracle", "--max-excess", "2"),
])
def test_oracle_witness_is_certified_before_printing(monkeypatch, argv):
    # an oracle that claims index 0 with a labeling no weight check passes
    def wrong(graph, max_excess, budget_seconds=None):
        return magiclab.ThetaResult(
            lower=0, upper=0, case_tag="oracle", provenance="oracle",
            witness=magiclab.Labeling(tuple(range(1, graph.vertex_count + 1))),
        )

    monkeypatch.setattr(cli, "oracle_theta_general", wrong)
    code, out, err = run_cli(*argv)
    assert code == 7 and out == "" and "failed verification" in err


@pytest.mark.parametrize("argv", [
    ("label", "K(2,3)"),  # a closed form
    ("label", "K(3,8,9)"),  # a tripartite construction
    ("label", "LEX(C(6),E(3))"),  # a QMR column labeling
    ("label", "K(2,2,2,2)", "--oracle"),  # the multipartite oracle's witness
    ("label", "C(4)", "--oracle"),  # the general oracle's witness
    ("oracle", "K(2,3)"),
])
def test_each_witness_is_verified_once(monkeypatch, argv):
    calls = []

    def counted(graph, labeling):
        calls.append(labeling)
        return magiclab.verify_s_magic(graph, labeling)

    monkeypatch.setattr(cli, "verify_s_magic", counted)
    code, out, _ = run_cli(*argv)
    assert code == 0 and out and len(calls) == 1


def test_oracle_refutes_a_cycle_without_searching():
    # C(8) has N(0) - N(2) = {7} and N(2) - N(0) = {3}, so the neighbourhood
    # lemma answers before the search tries any of the 17 levels
    start = time.perf_counter()
    code, out, _ = run_cli("oracle", "C(8)", "--max-excess", "16")
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    assert code == 0 and payload["case"] == "oracle-exhausted" and payload["lower"] == 17
    assert payload["upper"] is None and "witness" not in payload
    assert elapsed < 0.5


def test_budget_and_size_cap_exit_codes():
    code, out, err = run_cli("oracle", "U(2,C(4))", "--max-excess", "6", "--budget-seconds", "0")
    assert code == 6 and out == "" and "out of budget" in err
    code, out, err = run_cli("qmr", "3", "40000")  # 120 000 entries, over the cap
    assert code == 2 and out == "" and "cap" in err
    code, out, err = run_cli("kotzig", "4", "1000000")  # 4 000 000 entries
    assert code == 2 and out == "" and "cap" in err


# one command per path: the oracle, and closed forms that run no search
SEARCH_ARGVS = [("oracle", "K(2,2)"), ("index", "K(2,3)"), ("label", "K(2,3)")]


@pytest.mark.parametrize("budget", [
    ("--budget-seconds", "nan"),
    ("--budget-seconds", "inf"),
    ("--budget-seconds", "1e309"),  # overflows to inf
    ("--budget-seconds=-inf",),  # with a space, argparse reads -inf as an option
])
def test_non_finite_budget_flag_exits_2(budget):
    # refused before routing, also where a closed form answers and no oracle runs
    for argv in SEARCH_ARGVS:
        code, out, err = run_cli(*argv, *budget)
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and "budget_seconds must be a finite" in err, argv


def test_non_numeric_budget_flag_exits_2():
    for argv in SEARCH_ARGVS:
        code, out, err = _run_main([*argv, "--budget-seconds", "abc"])
        assert code == 2 and out == "" and "invalid float value: 'abc'" in err, argv


@pytest.mark.parametrize("argv", [
    ("oracle", "C(5)"),  # the general oracle
    ("oracle", "K(2,3)"),  # the multipartite oracle
    ("index", "C(4)", "--oracle"),
    ("label", "C(4)", "--oracle"),
    ("index", "K(2,3)"),  # closed forms, no oracle
    ("label", "K(2,3)"),
])
def test_negative_max_excess_exits_2(argv):
    code, out, err = run_cli(*argv, "--max-excess", "-1")
    assert code == 2 and out == "" and "max_excess" in err


@pytest.mark.parametrize("argv", SEARCH_ARGVS)
def test_max_excess_over_16_exits_2(argv):
    code, out, err = run_cli(*argv, "--max-excess", "17")
    assert code == 2 and out == "" and "max_excess must lie in 0..16" in err


def test_general_oracle_answers_up_to_16_vertices():
    # the index-1 members of mK(a,b) and of G o E_a with a perfect matching G
    for spec in ("U(2,K(3,3))", "LEX(U(2,K(1,1)),E(3))"):
        code, out, _ = run_cli("oracle", spec, "--max-excess", "2")
        payload = json.loads(out)
        assert code == 0 and payload["case"] == "oracle" and payload["theta"] == 1, spec
    code, out, err = run_cli("oracle", "C(17)", "--max-excess", "2")
    assert code == 2 and out == "" and "cap" in err


@pytest.mark.parametrize("a, b", [(3, 400), (3, 1000), (5, 2000)])
def test_qmr_with_many_columns_exits_0_with_header(a, b):
    code, out, _ = run_cli("qmr", str(a), str(b))
    ab = a * b
    header = f"# d={ab // 2 + 1} rho={b * (ab + 2) // 2} sigma={a * (ab + 2) // 2}"
    assert code == 0 and out.splitlines()[0] == header
    assert len(out.splitlines()) == a + 1


# The child reports its own VmHWM: ru_maxrss of a spawned process starts at
# the spawning process's peak, so it would partly measure the test process.
_HWM_CHILD = """
import sys
from magiclab.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _cap_address_space():
    limit = 3 << 29  # 1.5 GB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_child(*argv):
    """(exit code, stdout, stderr, peak RSS in MB) of the CLI in a fresh
    process.  Its address space is capped at 1.5 GB, so a graph built past
    the size caps ends in a MemoryError instead of filling the machine."""
    src = Path(magiclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _HWM_CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_cap_address_space,
    )
    err, _, hwm = proc.stderr.rstrip("\n").rpartition("\n")
    return proc.returncode, proc.stdout, err, int(hwm) / 1024 if hwm.isdigit() else None


@pytest.mark.parametrize("spec, groups", [
    ("K(50000,50000)", [(0, 50000), (50000, 100000)]),
    ("LEX(C(10),E(9999))", [(u * 9999, (u + 1) * 9999) for u in range(10)]),
    ("K(33000,33333,33666)", [(0, 33000), (33000, 66333), (66333, 99999)]),  # case I
    ("K(33000,33330,33670)", [(0, 33000), (33000, 66330), (66330, 100000)]),  # case IV
])
def test_cap_scale_label_and_verify_in_bounded_memory(tmp_path, spec, groups):
    code, out, _, rss_mb = _run_child("label", spec)
    assert code == 0 and rss_mb < 200, (code, rss_mb)
    labels = json.loads(out)["labels"]
    # equal sums per part (per layer for the blow-up) make the labeling magic
    sums = {sum(labels[str(v)] for v in range(s, e)) for s, e in groups}
    assert len(labels) == groups[-1][1] and len(sums) == 1
    labfile = tmp_path / "labels.json"
    labfile.write_text(out)
    code, out, _, rss_mb = _run_child("verify", spec, str(labfile))
    assert code == 0 and json.loads(out)["is_magic"] and rss_mb < 200, (code, rss_mb)


@pytest.mark.parametrize("command, flags", [("oracle", ()), ("label", ("--oracle",))])
def test_oracle_caps_reject_before_building(command, flags):
    # 3 000 parts, 6 000 vertices: the declared vertex count is refused
    # before the oracle's 16-vertex graph is built
    spec = "K(" + ",".join(["2"] * 3000) + ")"
    start = time.perf_counter()
    code, out, _, rss_mb = _run_child(command, spec, *flags)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and elapsed < 0.5 and rss_mb < 60, (code, elapsed, rss_mb)


def test_unbounded_inputs_exit_2_without_a_traceback(tmp_path):
    # a FILE line with no end and a labeling nested 200 000 levels deep are
    # refused, not read until the address space or the stack runs out
    deep = tmp_path / "deep.json"
    deep.write_text('{"labels": ' + "[" * 200_000 + "]" * 200_000 + "}")
    for argv, message in [
        (("index", "FILE(/dev/zero)"), "adjacency file line 1 is over the cap of 8000000 characters"),
        (("verify", "K(1)", str(deep)), "labeling JSON nests too deep"),
    ]:
        start = time.perf_counter()
        code, out, err, rss_mb = _run_child(*argv)
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (2, "", f"error: {message}"), (code, err[-300:])
        assert elapsed < 3 and rss_mb < 60, (argv, elapsed, rss_mb)


def test_a_long_file_line_is_refused_before_its_integers(tmp_path):
    # 3 000 000 neighbours on one 6 MB line: the line is split only up to the
    # entries left under the cap, and refused before any of them is converted
    path = tmp_path / "long.adj"
    path.write_text("0:" + " 1" * 3_000_000 + "\n1: 0\n")
    code, out, err, rss_mb = _run_child("index", f"FILE({path})")
    assert code == 2 and out == "" and rss_mb < 60, (code, err, rss_mb)
    assert err.endswith("block adjacency entries at line 1"), err


def test_block_adjacency_cap_rejects_before_building(tmp_path):
    # only FILE graphs and unions of them store more than 2n block adjacency
    # entries: 12 copies of K_300 less a perfect matching (u is adjacent to
    # every v but u and u ^ 1) as a file are 3 600 vertices, inside the
    # vertex cap, but 12 * 89 400 = 1 072 800 entries, refused unbuilt; a
    # file of K_300 itself would be read as K(1, .., 1), which stores none
    dense = tmp_path / "k300-matching.adj"
    dense.write_text("".join(
        f"{u}: " + " ".join(str(v) for v in range(300) if v not in (u, u ^ 1)) + "\n"
        for u in range(300)
    ))
    labfile = tmp_path / "labels.json"
    labfile.write_text(json.dumps({"labels": {"0": 1}}))
    start = time.perf_counter()
    code, out, err, rss_mb = _run_child("verify", f"U(12,FILE({dense}))", str(labfile))
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and elapsed < 0.5 and rss_mb < 60, (code, elapsed, rss_mb)
    assert "spec declares 1072800 block adjacency entries" in err, err


def test_label_k_with_20000_parts_in_linear_time_and_memory(tmp_path):
    # 60 000 vertices in 20 000 parts: one group of parts, so building and
    # verifying are O(n) at any part count
    spec = "K(" + ",".join(["3"] * 20000) + ")"
    start = time.perf_counter()
    code, out, _, rss_mb = _run_child("label", spec)
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 2 and rss_mb < 100, (code, elapsed, rss_mb)
    labfile = tmp_path / "labels.json"
    labfile.write_text(out)
    code, out, _, rss_mb = _run_child("verify", spec, str(labfile))
    assert code == 0 and json.loads(out)["is_magic"] and rss_mb < 100, (code, rss_mb)
    code, out, _ = run_cli("index", spec)  # the closed form builds nothing
    assert code == 0 and json.loads(out)["theta"] == 1


@pytest.mark.parametrize("spec", ["K(20000000)", "K(2,20000000)", "K(2,2,3000000)"])
def test_label_vertex_cap_rejects_before_labeling(spec):
    # over the vertex cap, a K route's witness refuses the graph before it
    # makes a labeling of tens of millions of vertices
    start = time.perf_counter()
    code, out, _, rss_mb = _run_child("label", spec)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and elapsed < 0.5 and rss_mb < 60, (code, elapsed, rss_mb)


@pytest.fixture(scope="module")
def path_files(tmp_path_factory):
    """A 3-vertex path, a 1 000 000-vertex path and a 3-vertex labeling."""
    root = tmp_path_factory.mktemp("paths")
    p3, big, labels = root / "p3.adj", root / "p1m.adj", root / "p3.json"
    p3.write_text("0: 1\n1: 0 2\n2: 1\n")
    n = 1_000_000
    with open(big, "w") as out:
        out.write("0: 1\n")
        out.writelines(f"{v}: {v - 1} {v + 1}\n" for v in range(1, n - 1))
        out.write(f"{n - 1}: {n - 2}\n")
    labels.write_text(json.dumps({"labels": {"0": 1, "1": 3, "2": 2}}))
    return p3, big, labels


@pytest.mark.parametrize("argv", [
    ("oracle", "U(50000000,FILE({p3}))"),
    ("index", "U(50000000,FILE({p3}))", "--oracle"),
    ("label", "U(50000000,FILE({p3}))", "--oracle"),
    ("verify", "U(50000000,FILE({p3}))", "{labels}"),
    ("index", "FILE({big})"),
    ("oracle", "FILE({big})"),
])
def test_file_specs_past_the_caps_exit_2_unbuilt(path_files, argv):
    # a FILE is read when the spec is parsed, and at most DEFAULT_MAX_VERTICES
    # of its ids, so every cap is checked before a graph is built
    p3, big, labels = path_files
    argv = [arg.format(p3=p3, big=big, labels=labels) for arg in argv]
    start = time.perf_counter()
    code, _, err, rss_mb = _run_child(*argv)
    elapsed = time.perf_counter() - start
    assert code == 2 and elapsed < 1 and rss_mb < 200, (code, err, elapsed, rss_mb)
    expected = "spec declares 150000000 vertices" if str(p3) in argv[1] else "exceeds the cap"
    assert expected in err, err


def test_labeling_size_rejected_after_a_build_linear_in_the_parts(tmp_path):
    # 1 500 parts: one group of parts, built in O(r), then refused for its size
    spec = "K(" + ",".join(["2"] * 1500) + ")"
    labfile = tmp_path / "labels.json"
    labfile.write_text(json.dumps({"labels": {"0": 1}}))
    start = time.perf_counter()
    code, out, err, rss_mb = _run_child("verify", spec, str(labfile))
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and elapsed < 0.5 and rss_mb < 60, (code, elapsed, rss_mb)
    assert "labeling covers 1 vertices, graph has 3000" in err, err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    # the reader goes away after the header, so the rest of the ~400 kB
    # output cannot be written: buffered or not, main exits 141
    src = Path(magiclab.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", "from magiclab.cli import main; raise SystemExit(main())",
         "kotzig", "315", "317"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=60)
    proc.stderr.close()
    assert first == b"# c=49770\n" and "Traceback" not in err, err
    assert code == cli.EXIT_PIPE and err == "", code


# Command lines the plain reader leaves to argparse: help, abbreviations,
# attached values, a value that starts with "-", repeats, a missing value,
# a bad type or choice, a wrong number of positionals, no sub-command.
ARGPARSE_ARGVS = [
    [], ["-h"], ["--help"], ["index", "-h"], ["frobnicate"],
    ["oracle", "K(2,3)", "--max-excess=3"],
    ["oracle", "K(2,3)", "--max-exc", "3"],
    ["oracle", "K(2,3)", "--max-excess", "-1"],
    ["oracle", "K(2,3)", "--max-excess", "2", "--max-excess", "3"],
    ["index", "K(2,3)", "--oracle", "--oracle"],
    ["oracle", "K(2,3)", "--max-excess"],
    ["qmr", "x", "4"],
    ["qmr", "3", "10", "11"],
    ["qmr", "3"],
    ["qmr", "3", "10", "--format", "xml"],
    ["tables", "extra"],
    ["index", "--", "K(2,3)"],
]
# Command lines it reads itself, options before, between and after positionals.
PLAIN_ARGVS = [
    ["index", "K(2,3,4)"],
    ["oracle", "K(2,3,4)", "--max-excess", "16", "--budget-seconds", "60", "--jobs", "1"],
    ["oracle", "--jobs", "2", "C(6)", "--max-excess", "3"],
    ["label", "C(4)", "--oracle", "--max-excess", "2"],
    ["verify", "K(2,2)", "missing.json"],
    ["qmr", "3", "--format", "json", "10"],
    ["kotzig", "3", "5", "--format", "csv"],
    ["tables"],
]


@st.composite
def _argvs(draw):
    """A fuzz command line, half the time with its arguments shuffled."""
    argv = draw(command_lines())
    if draw(st.booleans()):
        argv = argv[:1] + draw(st.permutations(argv[1:]))
    return argv


def _parse_both(argv):
    """The plain reader's ``vars`` (or None) and argparse's (or its exit code)."""
    plain = cli._read_plain(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli._parser().parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
    return None if plain is None else vars(plain), parsed


def _run_main(argv):
    """(exit status, stdout, stderr) of ``main``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ARGPARSE_ARGVS)
def test_plain_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_plain(argv) is None


@pytest.mark.parametrize("argv", PLAIN_ARGVS)
def test_plain_reader_builds_the_argparse_namespace(argv):
    plain, parsed = _parse_both(argv)
    assert plain is not None and plain == parsed


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_argvs())
def test_plain_reader_matches_argparse_on_fuzz_argvs(argv):
    plain, parsed = _parse_both(argv)
    assert plain is None or plain == parsed, argv


@pytest.mark.parametrize("command", ["index", "label", "oracle"])
def test_jobs_is_accepted_on_the_plain_path(command):
    argv = [command, "K(2,3)", "--jobs", "2"]
    args = cli._read_plain(argv)
    assert args is not None and args.jobs == 2
    assert run_cli(*argv) == run_cli(command, "K(2,3)")


def test_main_is_the_same_through_argparse_alone(tmp_path_factory, monkeypatch):
    files = _files(tmp_path_factory)

    def both_paths(argv):
        fast = _run_main(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_plain", lambda argv: None)
            assert _run_main(argv) == fast, argv

    for argv in ARGPARSE_ARGVS + PLAIN_ARGVS:
        both_paths(argv)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(_argvs())
    def check(argv):
        for name, path in files.items():
            argv = [arg.replace("@" + name, path) for arg in argv]
        both_paths(argv)

    check()
