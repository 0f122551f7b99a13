"""Command-line interface.

Subcommands: ``index``, ``label``, ``verify``, ``qmr``, ``kotzig``,
``oracle``, ``tables``.  All output is machine-readable (JSON with sorted
keys, or CSV for arrays) and deterministic across runs.

A plain command line (the sub-command, its positionals and exact long
options with their values in separate tokens, each option once) is read
directly into the namespace argparse would build; argparse parses
everything else, so help, error messages and exit codes are its own.

Output writers: ``label`` prints its certified labeling through
``labelings.labels_json``, which writes the label map in sorted-key order
without building a dict; ``verify`` prints ``VerifyReport.to_json``;
``_print_array`` writes CSV arrays row by row, a QMR's straight from its
row progressions; every other JSON payload (``index``, ``oracle``,
``tables``, ``--format json`` arrays and the result of a ``label`` without
a labeling) goes through ``_emit``.  The JSON writers
share one sorted-key encoder, ``labelings.SORTED_JSON``.

Every command that takes a spec reads it once, through
``graphs.parse_spec_ast``, which checks it, reads its ``FILE`` graphs, sorts
K part sizes and writes it in the one flat form ``Spec(base, m, a)``, the
graph ``U(m,LEX(base,E(a)))``, so nested spellings of one graph get one
answer.  ``_plan`` is the one place that maps that spec to its closed form
and its witness; a witness builds its graph before it labels it, so a spec
over a cap is refused before any labeling is made (a blow-up base built for
its closed form is blown up, not built again).  Every oracle run goes
through ``_certified_oracle``: ``index --oracle`` runs it on a spec no
closed form covers, ``label --oracle`` whenever no construction gives a
labeling.  ``_certify``, the one check of a labeling, passes each printed
one once: it must be magic, with top label n + e for e within the result's
bounds.  ``main`` checks the search flags of ``index``, ``label`` and
``oracle`` before routing, so a bad budget or ``--max-excess`` is refused
whether or not a search runs.

Exit codes: 0 success; 1 ``verify`` found the labeling not magic; 2
malformed input (a spec nested too deep included), a missing, unreadable
or malformed file, a domain error, a ``--budget-seconds`` that is not a
finite number (``nan``, ``inf`` or ``abc``), or a size cap exceeded
(vertices, block adjacency, QMR or Kotzig array entries, the oracle's 16
vertices, or a ``--max-excess`` outside 0..16);
3 family not covered by a closed form (rerun with ``--oracle``); 4 no
labeling found; 5 the requested array provably does not exist;
6 an exhaustive search ran out of its time budget; 7 a construction or an
oracle witness failed its check; 141 stdout was closed before everything
was written (as by ``| head``), the status a shell gives a command that
SIGPIPE ends, with nothing written to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import families
from .arrays import _line_sums, kotzig_array, qmr
from .bipartite import label_bipartite, theta_bipartite
from .errors import BudgetExceededError, DomainError, InternalInconsistencyError, MagiclabError
from .graphs import CNode, KNode, Spec, build_from_ast, check_caps, lex_blowup, parse_spec_ast
from .labelings import SORTED_JSON, Labeling, ThetaResult, labels_json, verify_s_magic
from .oracle import BUDGET_SECONDS, MAX_EXCESS, MAX_N, check_search_flags
from .oracle import oracle_theta_general, oracle_theta_multipartite
from .tripartite import label_tripartite, theta_tripartite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_NO_CONSTRUCTION = 4
EXIT_NOT_EXISTS = 5
EXIT_BUDGET = 6
EXIT_CONSTRUCTION = 7
EXIT_PIPE = 141


def _emit(payload) -> None:
    print(SORTED_JSON.encode(payload))


class _Unsupported(Exception):
    pass


def _plan(spec):
    """(result, witness) for a flat ``Spec``: the most specific closed form's
    ``ThetaResult`` and, when a construction applies, a function of no
    arguments that builds the graph and returns a labeling of it (None if
    the construction finds none) and the graph; ``witness`` is None
    otherwise.

    It reads (base, m, a) once, with no recursion.  With a = 1: the K
    closed forms for one copy, ``theta_mK_ab`` for m > 1 copies of a K with
    equal parts, no closed form otherwise.  With a > 1: ``theta_mC_lex`` on
    a cycle base, else ``theta_lex_regular`` on the built G = U(m, base),
    except that a complete multipartite G (only a ``FILE`` of K_n is one)
    blows up to K(a, .., a) and takes the K closed forms."""
    base = None  # the built U(m, base) of a blow-up, once its closed form has built it

    def witnessed(result, label):
        """``result`` with the witness that labels the graph by ``label(graph)``."""
        def witness():
            if base is None:
                graph = build_from_ast(spec)
            else:  # blow up the built base rather than build it again
                check_caps(spec)
                graph = lex_blowup(base, spec.a)
            return label(graph), graph
        return result, witness

    def qmr_columns(result, group):
        """``result`` with the column witness on its index-1 cells."""
        if result.theta != 1:
            return result, None
        return witnessed(result, lambda graph: families.label_by_qmr_columns(graph, group))

    node, m, a = spec.base, spec.m, spec.a
    if a > 1:
        if isinstance(node, CNode):
            return qmr_columns(families.theta_mC_lex(m, a, node.b), a)
        base = build_from_ast(Spec(node, m))
        if not base.is_complete_multipartite:
            if not base.is_regular:
                raise _Unsupported("blow-up base graph is not regular")
            return qmr_columns(families.theta_lex_regular(base, a), a)
        # a FILE of K_n, one vertex per block: the blow-up is K(a, .., a)
        node = KNode((a,) * len(base.sizes))
    if m > 1:
        if isinstance(node, KNode) and len(set(node.sizes)) == 1 and node.sizes[0] >= 2:
            sizes = node.sizes
            return qmr_columns(families.theta_mK_ab(m, sizes[0], len(sizes)), sizes[0])
        raise _Unsupported("no closed form for this disjoint union")
    if not isinstance(node, KNode):
        raise _Unsupported("no closed form for this spec")
    sizes = node.sizes
    r = len(sizes)
    if r == 1:
        result = ThetaResult(lower=0, upper=0, case_tag="edgeless")
        return witnessed(result, lambda _: Labeling.from_parts([range(1, sizes[0] + 1)]))
    if r == 2 and sizes[1] >= 2:
        return witnessed(theta_bipartite(*sizes), lambda _: label_bipartite(*sizes))
    if r == 3 and sizes[0] >= 2:
        # label_tripartite returns None in cases III and V
        return witnessed(theta_tripartite(*sizes), lambda _: label_tripartite(*sizes))
    if r >= 4 and len(set(sizes)) == 1 and sizes[0] >= 2:
        return qmr_columns(families.theta_K_ab(sizes[0], r), sizes[0])
    raise _Unsupported(f"no closed form for parts {sizes}")


def _certified_oracle(args, spec):
    """(result, report): the oracle's result on the graph of ``spec`` up to
    ``--max-excess``, a spec over its vertex cap rejected unbuilt, and
    ``_certify``'s report on its witness, or None without one.  The one
    place the CLI runs an oracle: the multipartite one on a complete
    multipartite graph, however the spec wrote it, the general one on any
    other."""
    graph = build_from_ast(spec, max_vertices=MAX_N)
    oracle = oracle_theta_multipartite if graph.is_complete_multipartite else oracle_theta_general
    result = oracle(graph, args.max_excess, args.budget_seconds)
    report = None if result.witness is None else _certify(graph, result.witness, result)
    return result, report


def cmd_index(args) -> int:
    ast = parse_spec_ast(args.spec)
    try:
        result = _plan(ast)[0]
    except _Unsupported as exc:
        if not args.oracle:
            print(f"error: {exc}; rerun with --oracle", file=sys.stderr)
            return EXIT_UNSUPPORTED
        result, _ = _certified_oracle(args, ast)
    payload = result.to_payload()
    payload.pop("witness", None)
    _emit(payload)
    return EXIT_OK


def cmd_label(args) -> int:
    ast = parse_spec_ast(args.spec)
    try:
        result, witness = _plan(ast)
    except _Unsupported as exc:
        if not args.oracle:
            print(f"error: {exc}; rerun with --oracle", file=sys.stderr)
            return EXIT_UNSUPPORTED
        result = witness = None
    labeling = None
    if witness is not None:
        labeling, graph = witness()
        if labeling is not None:
            report = _certify(graph, labeling, result)
    if labeling is None and args.oracle:
        found, report = _certified_oracle(args, ast)
        labeling = found.witness
        if result is None:  # a closed form's bounds stay what is printed
            result = found
    if labeling is None:
        _emit(result.to_payload())
        return EXIT_NO_CONSTRUCTION
    # the payload ``_emit`` would write, keys in sorted order
    print('{"constant": %d, "eta": %d, "labels": %s}'
          % (report.constant, labeling.eta, labels_json(labeling.labels)))
    return EXIT_OK


def _certify(graph, labeling, result):
    """The verifier's report on ``labeling``, which must be magic on ``graph``
    with top label n + e for an e within ``result``'s bounds: n + theta on
    an exact result.  The one check of a labeling: every labeling, or index
    backed by one, passes here before anything is printed."""
    report = verify_s_magic(graph, labeling)
    if not report.is_magic:
        raise InternalInconsistencyError("labeling failed verification before printing")
    excess = labeling.eta - graph.vertex_count
    upper = math.inf if result.upper is None else result.upper
    if not result.lower <= excess <= upper:
        raise InternalInconsistencyError(
            f"top label {labeling.eta} is n + {excess}, outside [{result.lower}, {upper}]")
    return report


def cmd_verify(args) -> int:
    ast = parse_spec_ast(args.spec)
    try:
        text = Path(args.labeling).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read labeling file {args.labeling}: {exc.strerror}") from None
    labeling = Labeling.from_json(text)
    # the caps refuse an oversized spec unbuilt; verify_s_magic checks the size
    report = verify_s_magic(build_from_ast(ast), labeling)
    print(report.to_json())
    return EXIT_OK if report.is_magic else 1


def _print_array(arr, fmt) -> int:
    """Print ``arr``, which its verifier has passed, so its line sums are
    the constants of its kind and shape."""
    rho, sigma = _line_sums(arr)
    if fmt == "json":
        _emit({"d": arr.hole, "entries": arr.entries, "rho": rho, "sigma": sigma})
        return EXIT_OK
    line = ",".join(["%d"] * arr.cols)
    if arr.kind == "qmr":
        header = f"# d={arr.hole} rho={rho} sigma={sigma}\n"
        # the entries are distinct, so no row repeats: each row is formatted
        # as it is written out of its progression
        lines = arr.written(line.__mod__)
    else:
        header = f"# c={sigma}\n"
        # kotzig_array shares one tuple per direction: one format per tuple
        entries = arr.entries
        distinct = dict(zip(map(id, entries), entries))
        text = {key: line % row for key, row in distinct.items()}
        lines = map(text.__getitem__, map(id, entries))
    # print writes the closing newline on its own: with unbuffered stdout a
    # raw write that comes up short drops the rest silently, and that second
    # write then raises BrokenPipeError instead of exiting 0 on truncated output
    print(header + "\n".join(lines))
    return EXIT_OK


def cmd_qmr(args) -> int:
    arr = qmr(args.a, args.b)
    if arr is None:
        if args.a == 1:
            reason = "single-row rectangles cannot have constant column sums"
        else:
            reason = "no QMR(a,2) exists when a = 1 (mod 4)"
        print(f"QMR({args.a},{args.b}) does not exist: {reason}", file=sys.stderr)
        return EXIT_NOT_EXISTS
    return _print_array(arr, args.format)


def cmd_kotzig(args) -> int:
    arr = kotzig_array(args.a, args.b)
    if arr is None:
        if args.a == 1:
            reason = "a single row cannot have constant column sums"
        else:
            reason = "an odd number of rows requires an odd number of columns"
        print(f"KA({args.a},{args.b}) does not exist: {reason}", file=sys.stderr)
        return EXIT_NOT_EXISTS
    return _print_array(arr, args.format)


def cmd_oracle(args) -> int:
    result, _ = _certified_oracle(args, parse_spec_ast(args.spec))
    _emit(result.to_payload())
    return EXIT_OK


def cmd_tables(args) -> int:
    _emit(list(families.DECISION_TABLES))
    return EXIT_OK


_SEARCH_FLAGS = (
    ("--max-excess", {"type": int, "default": MAX_EXCESS,
                      "help": "largest label excess the oracle scans"}),
    ("--budget-seconds", {"type": float, "default": BUDGET_SECONDS,
                          "help": "search budget in seconds"}),
    ("--jobs", {"type": int, "default": 1,
                "help": "accepted and ignored: the oracle runs in one process, "
                        "since worker processes did not make it faster"}),
)
_ARRAY_ARGS = (
    ("a", {"type": int}),
    ("b", {"type": int}),
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
)

# The one definition of the CLI: sub-command -> (help, arguments), each
# argument an ``add_argument`` name and keywords.  ``build_parser`` and
# ``_plain_table`` both read it.
_COMMANDS = {
    "index": ("compute the distance magic index of a graph spec", (
        ("spec", {}),
        ("--oracle", {"action": "store_true",
                      "help": "fall back to exhaustive search for uncovered families"}),
        *_SEARCH_FLAGS,
    )),
    "label": ("emit a certified S-magic labeling", (
        ("spec", {}),
        ("--oracle", {"action": "store_true",
                      "help": "fall back to exhaustive search when no construction "
                              "gives a labeling"}),
        *_SEARCH_FLAGS,
    )),
    "verify": ("verify a labeling file against a graph spec", (
        ("spec", {}),
        ("labeling", {}),
    )),
    "qmr": ("construct a quasimagic rectangle", _ARRAY_ARGS),
    "kotzig": ("construct a Kotzig array", _ARRAY_ARGS),
    "oracle": ("exhaustive index search on a small graph", (("spec", {}), *_SEARCH_FLAGS)),
    "tables": ("print the distance-magicness decision tables", ()),
}
_SEARCH_COMMANDS = ("index", "label", "oracle")  # the sub-commands with _SEARCH_FLAGS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Distance magic indices and certified labelings of partite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, options in arguments:
            p.add_argument(name, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


@functools.cache
def _plain_table() -> dict:
    """Per sub-command: its positionals as (dest, type), its long options as
    flag -> (dest, type or None for a switch, choices), and the defaults,
    ``command`` included."""
    table = {}
    for command, (_, arguments) in _COMMANDS.items():
        positionals, options, defaults = [], {}, {"command": command}
        for name, keywords in arguments:
            dest = name.lstrip("-").replace("-", "_")
            if not name.startswith("-"):
                positionals.append((dest, keywords.get("type", str)))
            elif keywords.get("action") == "store_true":
                options[name] = (dest, None, None)
                defaults[dest] = False
            else:
                options[name] = (dest, keywords.get("type", str), keywords.get("choices"))
                defaults[dest] = keywords.get("default")
        table[command] = (positionals, options, defaults)
    return table


def _read_plain(argv):
    """The namespace argparse builds from a plain ``argv``, else None.

    A plain argv is a sub-command, then its positionals and exact long
    options in any order, each option once and its value in the next token;
    every value converts by its type, passes its choices and does not start
    with ``-``.  Anything else, help, errors and ``--opt=value`` included,
    is left to argparse, so its messages and exit codes stay its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    positionals, options, defaults = _plain_table()[argv[0]]
    values = dict(defaults)
    given, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in options or token in seen:
            return None
        seen.add(token)
        dest, convert, choices = options[token]
        if convert is None:
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            values[dest] = convert(value)
        except ValueError:
            return None
        if choices is not None and values[dest] not in choices:
            return None
    if len(given) != len(positionals):
        return None
    for (dest, convert), token in zip(positionals, given):
        try:
            values[dest] = convert(token)
        except ValueError:
            return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv) or _parser().parse_args(argv)
    # looked up per call, so a rebinding of a ``cmd_*`` name takes effect
    handler = {
        "index": cmd_index,
        "label": cmd_label,
        "verify": cmd_verify,
        "qmr": cmd_qmr,
        "kotzig": cmd_kotzig,
        "oracle": cmd_oracle,
        "tables": cmd_tables,
    }[args.command]
    try:
        if args.command in _SEARCH_COMMANDS:
            check_search_flags(args.max_excess, args.budget_seconds)
        code = handler(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (MagiclabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
