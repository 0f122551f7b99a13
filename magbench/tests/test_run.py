"""Runner behaviour that does not depend on timing."""

import subprocess
import sys

import run


def test_reference_time_scales_times_and_rates_only():
    metrics = {"pass_s": (2.0, "s"), "cmd_p50_ms": (10.0, "ms"),
               "ok_cmds_per_s": (4.0, "1/s"), "ok_frac": (0.5, "frac"), "calls": (3, "count")}
    scaled = run.to_reference_time(metrics, 0.5)
    assert scaled == {
        "pass_s": (1.0, "s"), "cmd_p50_ms": (5.0, "ms"), "ok_cmds_per_s": (8.0, "1/s"),
        "ok_frac": (0.5, "frac"), "calls": (3, "count"),
    }


def test_speed_probe_samples_by_command_time():
    probe = run.SpeedProbe()
    probe.after(0.001)  # the first command is always followed by a sample
    probe.after(0.1)
    assert len(probe.samples) == 1
    probe.after(0.6)  # 0.701 s owed since the first sample: two more
    assert len(probe.samples) == 3
    assert probe.factor() > 0


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail(list(range(15))) is None
    assert run.tail(list(range(20)))[0] == 50.0
    p, value, n = run.tail(list(range(1000)))
    assert (p, n) == (99.0, 1000) and value == 989


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    bench = tmp_path / "magbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "magbench/run.py", "--workload", "label-cap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
