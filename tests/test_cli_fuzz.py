"""Desk-scale fuzz of the spec grammar and the CLI arguments.

Every generated command line must end in a documented exit code, never in
an exception escaping ``main``.  A second fuzz draws only admissible
command lines and checks what they print: every labeling is S-magic by the
referee's vertex weights, its top label is the printed ``eta``, and
``verify`` accepts it.  Graphs stay at 40 vertices or fewer, arrays at 200
entries or fewer, and searches at excess 2 or less under a one-second
budget, so the whole run takes a few seconds.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from magiclab import Labeling, parse_graph_spec
from magiclab.cli import main
from magiclab.errors import GraphSpecError
from magiclab.graphs import _ast_size, parse_spec_ast

from conftest import petersen
from referees import weight

DOCUMENTED_CODES = {0, 1, 2, 3, 4, 5, 6, 7}
MAX_VERTICES = 40


def _specs():
    leaves = st.one_of(
        st.lists(st.integers(0, 12), min_size=1, max_size=5).map(
            lambda sizes: "K(" + ",".join(map(str, sizes)) + ")"
        ),
        st.integers(0, 12).map(lambda b: f"C({b})"),
        st.sampled_from(["FILE(@adj)", "FILE(@missing)"]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.integers(0, 3), inner).map(lambda t: f"U({t[0]},{t[1]})"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"LEX({t[0]},E({t[1]}))"),
        ),
        max_leaves=3,
    )


def _small(text):
    """Keep well-formed specs within the vertex bound; malformed ones pass."""
    text = text.replace("FILE(@adj)", "C(10)")  # the file holds the Petersen graph
    try:
        return _ast_size(parse_spec_ast(text))[0] <= MAX_VERTICES
    except GraphSpecError:
        return True


# a well-formed spec, or a prefix of one plus a stray character
SPECS = (_specs() | st.tuples(
    _specs(), st.integers(0, 30), st.sampled_from("(),KE9")
).map(lambda t: t[0][: t[1]] + t[2])).filter(_small)
SEARCH_FLAGS = st.tuples(st.integers(-1, 2), st.integers(0, 3)).map(
    lambda t: ["--max-excess", str(t[0]), "--jobs", str(t[1]), "--budget-seconds", "1"]
)
ARRAY_DIMS = st.tuples(st.integers(0, 200), st.integers(0, 200)).filter(
    lambda t: t[0] * t[1] <= 200
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(
        ["index", "label", "oracle", "verify", "qmr", "kotzig", "tables"]
    ))
    if command in ("qmr", "kotzig"):
        a, b = draw(ARRAY_DIMS)
        return [command, str(a), str(b), "--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "tables":
        return [command]
    spec = draw(SPECS)
    if command == "verify":
        labeling = draw(st.sampled_from(["@good", "@nolabels", "@garbage", "@missing"]))
        return [command, spec, labeling]
    argv = [command, spec] + draw(SEARCH_FLAGS)
    if command in ("index", "label") and draw(st.booleans()):
        argv.append("--oracle")
    return argv


def _files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    adj = root / "petersen.adj"
    adj.write_text("\n".join(
        f"{v}: {' '.join(str(u) for u in petersen().adjacent[v])}" for v in range(10)
    ))
    good = root / "good.json"
    good.write_text(json.dumps({"labels": {str(v): v + 1 for v in range(4)}}))
    (root / "nolabels.json").write_text(json.dumps({"weights": {}}))
    (root / "garbage.json").write_text("{labels: 1")
    return {
        "adj": str(adj), "good": str(good), "missing": str(root / "missing"),
        "nolabels": str(root / "nolabels.json"), "garbage": str(root / "garbage.json"),
    }


def test_cli_exits_with_documented_codes(tmp_path_factory):
    files = _files(tmp_path_factory)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(command_lines())
    def check(argv):
        for name, path in files.items():
            argv = [arg.replace("@" + name, path) for arg in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in DOCUMENTED_CODES, argv

    check()


@st.composite
def admissible_specs(draw):
    """A well-formed spec: parts, copies and layers of at least 1, cycles of
    at least 3 vertices, and 40 vertices or fewer in all.  Half the bases
    are complete multipartite, the shape most closed forms cover, and up
    to two ``U`` or ``LEX`` wrappers go around the base."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
        spec = "K(" + ",".join(map(str, sizes)) + ")"
    else:
        spec = f"C({draw(st.integers(3, 12))})"
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 3))
        spec = f"U({k},{spec})" if draw(st.booleans()) else f"LEX({spec},E({k}))"
    assume(_ast_size(parse_spec_ast(spec))[0] <= MAX_VERTICES)
    return spec


@st.composite
def admissible_command_lines(draw):
    command = draw(st.sampled_from(["oracle", "label", "index", "label"]))
    argv = [command, draw(admissible_specs()),
            "--max-excess", str(draw(st.integers(0, 2))), "--budget-seconds", "1"]
    # label takes --oracle in three draws of four: as often as it reached
    # the oracle when --oracle and --certify were two independent draws
    share = {"index": 2, "label": 3}.get(command, 0)
    if draw(st.integers(1, 4)) <= share:
        argv.append("--oracle")
    return argv


def _labeling(mapping, n):
    assert sorted(mapping, key=int) == [str(v) for v in range(n)]
    return Labeling(tuple(mapping[str(v)] for v in range(n)))


def _weights(spec, labeling):
    g = parse_graph_spec(spec)
    return {weight(g, labeling, u) for u in range(g.vertex_count)}


def _check_payload(argv, out, labfile):
    """Assert what a command that exited 0 printed."""
    command, spec = argv[0], argv[1]
    payload = json.loads(out)
    n = _ast_size(parse_spec_ast(spec))[0]
    if command == "label":
        labeling = _labeling(payload["labels"], n)
        assert _weights(spec, labeling) == {payload["constant"]}
        assert payload["eta"] == labeling.eta
        labfile.write_text(out)
        with redirect_stdout(io.StringIO()) as report, redirect_stderr(io.StringIO()):
            assert main(["verify", spec, str(labfile)]) == 0
        assert json.loads(report.getvalue())["is_magic"] is True
        return
    lower, upper, theta = payload["lower"], payload["upper"], payload["theta"]
    assert upper is None or lower <= upper
    assert theta == (lower if lower == upper else None)
    if command == "oracle" and theta is not None:
        labeling = _labeling(payload["witness"]["labels"], n)
        assert len(_weights(spec, labeling)) == 1
        assert labeling.eta == n + theta
    else:
        assert "witness" not in payload


def test_cli_payloads_pass_the_referee(tmp_path_factory):
    labfile = tmp_path_factory.mktemp("payloads") / "labels.json"
    printed = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(admissible_command_lines())
    def check(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in DOCUMENTED_CODES, argv
        if code == 0:
            _check_payload(argv, out.getvalue(), labfile)
            printed.append(argv[0])

    check()
    # 76 of the 150 draws print a payload, 30 of them a labeling; a strategy
    # that drifted into refusals would leave these checks nothing to check
    assert len(printed) >= 60 and printed.count("label") >= 20, printed
