"""The tracer restores what it wraps, and self times account for the wall time."""

import sys
import types

import run
from spans import Tracer


def function_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "magiclab" or name.startswith("magiclab.")
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    }


def test_tracer_restores_every_wrapped_function():
    run.import_program()
    before = function_bindings()
    tracer = Tracer()
    patched = tracer.install()
    during = function_bindings()
    changed = [key for key in before if during[key] is not before[key]]
    assert patched == len(changed) > 0
    assert sys.modules["magiclab"].verify_s_magic is not before[("magiclab", "verify_s_magic")]
    assert sys.modules["magiclab.cli"].qmr is not before[("magiclab.cli", "qmr")]
    tracer.uninstall()
    after = function_bindings()
    assert all(after[key] is before[key] for key in before)


def test_self_times_sum_to_traced_wall_time():
    cli = run.import_program()
    tracer = Tracer()
    tracer.install()
    try:
        for i, argv in enumerate([("label", "K(3,8,9)"), ("qmr", "3", "10"),
                                  ("oracle", "K(2,3)", "--max-excess", "3")]):
            tracer.begin(i)
            run.run_argv(cli.main, argv)
            tracer.end()
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == 3
    wall = sum(end - start for _, start, end, _, _ in roots)
    own = tracer.self_times()
    assert min(own) > -1e-6
    assert abs(sum(own) - wall) < 1e-6 * max(1.0, wall)
    names = tracer.self_by_name()
    assert names["cli.main"] > 0 and names["arrays.qmr"] > 0
    assert names["oracle.oracle_theta_multipartite"] > 0
    assert tracer.counts["arrays.entries_built"] >= 30
    assert tracer.counts["labelings.verify_calls"] >= 1
