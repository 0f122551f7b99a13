"""magiclab benchmark runner.

Usage, from the root of a checkout::

    python3 magbench/run.py --workload label-cap --seed 1 --seconds 20 --trace 0
    python3 magbench/run.py --all --seed 1 --seconds 20

One workload runs in-process through ``magiclab.cli.main(argv)``: a closed
loop with one client, commands one after another, stdout captured and
checked by ``checks.py``.  ``--all`` runs every workload in a fresh process
of its own.  The last stdout line is one JSON object; with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import specs
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The speed probe: a fixed pure-Python loop, timed after every 0.25 s of
# command time.  Its median on the 2-core x86 machine the benchmark was tuned
# on (Python 3.11) is PROBE_NOMINAL_S.  That machine's speed drifts by up to
# 40% within minutes; over 10 s windows the probe tracked the CLI's own time
# with correlation 0.92, and dividing by it cut their variation from 8.7% to 3.8%.
PROBE_LOOPS = 100_000
PROBE_NOMINAL_S = 0.008
PROBE_EVERY_S = 0.25


@dataclass
class Outcome:
    seconds: float
    status: str  # exit code, or the name of the exception that escaped main()
    digest: str
    ok: bool
    wrong: bool  # exited as expected but printed a wrong answer
    note: str = ""


class SpeedProbe:
    """Machine speed during a run, sampled between commands (never inside
    a timed window), weighted by the command time since the last sample."""

    def __init__(self):
        self.samples: list[float] = []
        self.owed = PROBE_EVERY_S  # the first command is followed by a sample

    def after(self, seconds: float) -> None:
        self.owed += seconds
        while self.owed >= PROBE_EVERY_S:
            self.owed -= PROBE_EVERY_S
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i * i % 7
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiplier from wall time to reference time (> 1 on a fast machine)."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def to_reference_time(metrics: dict, factor: float) -> dict:
    """Scale every time metric by ``factor``, every rate by its inverse."""
    scale = {"s": factor, "ms": factor, "1/s": 1 / factor}
    return {k: (v * scale.get(u, 1.0), u) for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# Program under test


def import_program():
    """Import ``magiclab.cli`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "magiclab" / "cli.py").is_file():
        raise SystemExit(f"error: {src / 'magiclab'} not found; run from a full checkout")
    for name in [m for m in sys.modules if m == "magiclab" or m.startswith("magiclab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("magiclab.cli")
    if Path(cli.__file__).resolve().parent != (src / "magiclab").resolve():
        raise SystemExit(f"error: imported magiclab from {cli.__file__}, not {src}")
    return cli


def run_argv(main, argv) -> tuple[float, str, str]:
    """(wall seconds, status, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = str(main(list(argv)))
    except (Exception, SystemExit) as exc:  # a crash is an outcome to report
        status = type(exc).__name__
    return time.perf_counter() - start, status, out.getvalue()


def judge(command: specs.Command, seconds, status, stdout, references) -> Outcome:
    digest = hashlib.sha1(stdout.encode()).hexdigest()
    if status not in {str(c) for c in command.expect_codes}:
        return Outcome(seconds, status, digest, ok=False, wrong=False, note=f"exit {status}")
    if status != "0":
        return Outcome(seconds, status, digest, ok=True, wrong=False)
    try:
        checks.check_output(command, stdout, references)
    except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(seconds, status, digest, ok=False, wrong=True, note=f"check: {exc}")
    return Outcome(seconds, status, digest, ok=True, wrong=False)


def run_pass(cli, workload, references, probe, tracer=None) -> list[Outcome]:
    """Run the command list once; the timed window is the CLI call only.

    ``cli.main`` is looked up per call, so a traced pass goes through the
    tracer's wrapper of it."""
    refs = dict(references)
    outcomes = []
    for i, command in enumerate(workload.commands):
        gc.collect()
        if tracer is not None:
            tracer.begin(i)
        seconds, status, stdout = run_argv(cli.main, command.argv)
        if tracer is not None:
            tracer.end()
        probe.after(seconds)
        outcomes.append(judge(command, seconds, status, stdout, refs))
        if command.argv[0] == "index" and status == "0":
            refs[command.argv[1]] = checks.parse_index(stdout)
    return outcomes


def timed_passes(cli, workload, references, seconds, probe) -> list[list[Outcome]]:
    """Whole passes for about ``seconds``: stop before a pass would overrun."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(cli, workload, references, probe))
        walls.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def pass_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


# ---------------------------------------------------------------------------
# Set-up


def setup_once(name: str, seed: int):
    """Import, generate inputs, fetch index references, warm up."""
    cli = import_program()
    workload = specs.WORKLOADS[name](seed)
    specs.write_files(workload, ROOT)
    references = {}
    for spec in workload.reference_specs:
        _, status, stdout = run_argv(cli.main, ("index", spec))
        if status == "0":
            references[spec] = checks.parse_index(stdout)
    for argv in workload.warmup:
        run_argv(cli.main, argv)
    return cli, workload, references


def setup(name: str, seed: int):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli, workload, references = setup_once(name, seed)
        times.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections between commands
    return cli, workload, references, statistics.median(times)


def counterpart_mismatches(cli, workload, passes) -> int:
    """For ``--jobs 2`` commands: stdout must equal the ``--jobs 1`` run's."""
    mismatches = 0
    for i, command in enumerate(workload.commands):
        argv = list(command.argv)
        if "--jobs" not in argv or argv[argv.index("--jobs") + 1] == "1":
            continue
        argv[argv.index("--jobs") + 1] = "1"
        _, _, stdout = run_argv(cli.main, argv)
        digest = hashlib.sha1(stdout.encode()).hexdigest()
        for outcomes in passes:
            if outcomes[i].digest != digest:
                outcomes[i].ok = False
                outcomes[i].wrong = True
                outcomes[i].note = "stdout differs from --jobs 1"
                mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# Metrics


def tail(values):
    """(percentile, value, samples) for the highest ladder percentile with at
    least ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            rank = min(n - 1, max(0, int(-(-p * n // 100)) - 1))
            return p, ordered[rank], n
    return None


def end_to_end(passes, setup_s) -> dict:
    flat = [o for p in passes for o in p]
    busy = sum(o.seconds for o in flat)
    ok = [o for o in flat if o.ok]
    return {
        "pass_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        "ok_cmds_per_s": (len(ok) / busy, "1/s"),
        "cmd_p50_ms": (1000 * statistics.median(o.seconds for o in ok) if ok else 0.0, "ms"),
        "ok_frac": (len(ok) / len(flat), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _sum(table, names) -> float:
    return sum(table.get(n, 0.0) for n in names)


def per_layer(tracer: Tracer, untraced, traced, diffs: int) -> dict:
    """Per-layer figures per traced pass, so they do not depend on the pass count."""
    runs = len(traced)
    own = {k: v / runs for k, v in tracer.self_by_name().items()}
    calls = {k: v / runs for k, v in tracer.calls_by_name().items()}
    counts = {k: v / runs for k, v in tracer.counts.items()}
    layer = {name: sum(v for k, v in own.items() if k.startswith(name + ".")) for name in LAYERS}
    base = statistics.median(pass_seconds(p) for p in untraced)
    with_trace = statistics.median(pass_seconds(p) for p in traced)
    constructors = [k for k in own if k.startswith("graphs.") and k != "graphs.parse_spec_ast"]
    metrics = {
        "cli.self_s": (layer["cli"], "s"),
        "graphs.parse_s": (own.get("graphs.parse_spec_ast", 0.0), "s"),
        "graphs.build_s": (_sum(own, constructors), "s"),
        "graphs.build_calls": (counts.get("graphs.build_calls", 0.0), "count"),
        "graphs.adjacency_entries": (counts.get("graphs.adjacency_entries", 0.0), "count"),
        "labelings.verify_s": (_sum(own, (
            "labelings.verify_s_magic", "labelings.weight",
            "labelings.partite_sums_check", "labelings.part_label_sets")), "s"),
        "labelings.verify_calls": (counts.get("labelings.verify_calls", 0.0), "count"),
        "labelings.verified_vertices": (counts.get("labelings.verified_vertices", 0.0), "count"),
        "bipartite.self_s": (layer["bipartite"], "s"),
        "bipartite.split_s": (own.get("bipartite.split_equal_sums", 0.0), "s"),
        "tripartite.self_s": (layer["tripartite"], "s"),
        "families.self_s": (layer["families"], "s"),
        "arrays.qmr_s": (own.get("arrays.qmr", 0.0), "s"),
        "arrays.qmr_calls": (calls.get("arrays.qmr", 0.0), "count"),
        "arrays.kotzig_s": (own.get("arrays.kotzig_array", 0.0), "s"),
        "arrays.entries_built": (counts.get("arrays.entries_built", 0.0), "count"),
        "oracle.multipartite_s": (own.get("oracle.oracle_theta_multipartite", 0.0), "s"),
        "oracle.general_s": (own.get("oracle.oracle_theta_general", 0.0), "s"),
        "oracle.partition_s": (own.get("oracle.equal_sum_partition", 0.0), "s"),
        "oracle.excess_levels": (counts.get("oracle.excess_levels", 0.0), "count"),
        "oracle.budget_exceeded": (counts.get("oracle.budget_exceeded", 0.0), "count"),
        "trace.overhead_frac": (with_trace / base - 1, "frac"),
        "trace.outcome_diffs": (diffs, "count"),
    }
    for name in ("graphs", "labelings", "arrays", "oracle"):
        metrics[f"{name}.self_s"] = (layer[name], "s")
    metrics["bench.self_s"] = (own.get("bench.command", 0.0), "s")
    metrics["trace.wall_s"] = (sum(pass_seconds(p) for p in traced) / runs, "s")
    return metrics


# ---------------------------------------------------------------------------
# Reporting


def describe(workload, passes, setup_s) -> list[str]:
    lines = [f"workload {workload.name}: {len(workload.commands)} commands per pass, "
             f"{len(passes)} passes, set-up {setup_s:.3f} s (median of {SETUP_REPEATS})"]
    for label, values in (
        ("pass_s", [pass_seconds(p) for p in passes]),
        ("cmd_ms", [1000 * o.seconds for p in passes for o in p if o.ok]),
    ):
        if not values:
            continue
        summary = f"  {label}: median {statistics.median(values):.4f} over {len(values)} samples"
        top = tail(values)
        summary += (f", p{top[0]:g} {top[1]:.4f} ({top[2]} samples)" if top
                    else ", no percentile has 10 samples beyond it")
        lines.append(summary)
    flat = [o for p in passes for o in p]
    failed = [o for o in flat if not o.ok]
    lines.append(f"  fail_frac: {len(failed) / len(flat):.4f} ({len(failed)} of {len(flat)})")
    by_stratum: dict[str, list] = {}
    for outcomes in passes:
        for command, o in zip(workload.commands, outcomes):
            by_stratum.setdefault(command.stratum, []).append(o)
    for stratum, outcomes in by_stratum.items():
        bad = [o for o in outcomes if not o.ok]
        notes = sorted({o.note for o in bad})
        lines.append(f"  {stratum}: {len(outcomes) - len(bad)}/{len(outcomes)} ok, "
                     f"{sum(o.seconds for o in outcomes):.3f} s"
                     + (f"  [{'; '.join(notes)}]" if notes else ""))
    return lines


def speed_lines(probe: SpeedProbe) -> list[str]:
    med = statistics.median(probe.samples)
    return [f"  speed probe: median {1000 * med:.3f} ms over {len(probe.samples)} samples, "
            f"nominal {1000 * PROBE_NOMINAL_S:g} ms; "
            f"JSON times are wall times x {probe.factor():.4f}"]


def result_line(passes, metrics, extra_wrong=0) -> str:
    flat = [o for p in passes for o in p]
    return json.dumps({
        "correct": not any(o.wrong for o in flat) and not extra_wrong,
        "attempted": len(flat),
        "failed": sum(1 for o in flat if not o.ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def traced_pairs(cli, workload, references, seconds, probe, tracer):
    """Alternate untraced and traced passes for about ``seconds``, so that
    drift in machine speed hits both sides of ``trace.overhead_frac`` alike."""
    plain, traced, walls = [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(run_pass(cli, workload, references, probe))
        tracer.install()
        try:
            traced.append(run_pass(cli, workload, references, probe, tracer))
        finally:
            tracer.uninstall()
        walls.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    os.chdir(ROOT)
    cli, workload, references, setup_s = setup(name, seed)
    probe = SpeedProbe()
    if not trace:
        passes = timed_passes(cli, workload, references, seconds, probe)
        mismatches = counterpart_mismatches(cli, workload, passes)
        for line in describe(workload, passes, setup_s) + speed_lines(probe):
            print(line)
        if mismatches:
            print(f"  {mismatches} outputs differ from their --jobs 1 counterparts")
        print(result_line(passes, to_reference_time(end_to_end(passes, setup_s), probe.factor())))
        return
    tracer = Tracer()
    passes, traced = traced_pairs(cli, workload, references, seconds, probe, tracer)
    counterpart_mismatches(cli, workload, passes + traced)
    reference = [(o.status, o.digest) for o in passes[0]]
    diffs = sum(
        1 for p in passes + traced for o, ref in zip(p, reference) if (o.status, o.digest) != ref
    )
    out = BENCH_DIR / "out" / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(out)
    metrics = to_reference_time(per_layer(tracer, passes, traced, diffs), probe.factor())
    wall = metrics["trace.wall_s"][0]
    for line in describe(workload, passes, setup_s) + speed_lines(probe):
        print(line)
    print(f"  traced: {len(traced)} passes, {len(tracer.spans)} spans written to "
          f"{out.relative_to(ROOT)}, {diffs} outcomes differ from the untraced run")
    for layer in LAYERS + ("bench",):
        print(f"  self time {layer:<10} {metrics[layer + '.self_s'][0] / wall:7.2%}")
    print(result_line(passes + traced, metrics, extra_wrong=diffs))


def run_all(seed: int, seconds: float, trace: bool) -> None:
    results = {}
    for name in specs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        for metric, entry in results[name]["metrics"].items():
            print(f"  {metric:<28} {entry['value']:.6g} {entry['unit']}")
        print(f"  correct {results[name]['correct']}, attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}")
    print(json.dumps(results))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(specs.WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
