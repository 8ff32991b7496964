"""Every library function the benchmark traces can be found by its name.

The benchmark wraps the functions listed in ``perfbench/layers.py`` by
qualified name; a target that moved or was renamed reads as a missing span
there, and so does one that a solve no longer calls.  This reads
``perfbench/`` and changes nothing in it.
"""

import importlib
import importlib.util
import pkgutil
import random
from collections import Counter
from pathlib import Path

import vcsp
from vcsp import solve_pipeline, solve_stp

from harness import submodular_chain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for info in pkgutil.iter_modules(vcsp.__path__, "vcsp."):
        importlib.import_module(info.name)
    layers = load_perfbench("layers")
    tracer = load_perfbench("tracer")
    names = [name for name, _, _ in layers.targets()]
    assert "decompose_instance" in names and "Instance.evaluate" in names
    assert [name for name in names if tracer._find(name) is None] == []


def test_solves_open_binary_check_spans():
    # perfbench reports operations.binary_check_s as null without these spans
    tracer_module = load_perfbench("tracer")
    instance, system = submodular_chain(random.Random(5), 6)
    for solve in (lambda: solve_stp(instance, system.pair),
                  lambda: solve_pipeline(instance, system)):
        tracer = tracer_module.Tracer()
        tracer.install([("check_binary_multimorphism", "span", None)])
        try:
            solve()
        finally:
            tracer.uninstall()
        assert tracer.missing == []
        assert [span for span in tracer.spans
                if span[0] == "check_binary_multimorphism"]


def test_pipeline_opens_majority_and_decompose_spans():
    # operations.majority_s and consistency.decompose_s read null without
    # these spans; the closure check is one call per solve
    tracer_module = load_perfbench("tracer")
    instance, system = submodular_chain(random.Random(7), 6)
    wanted = ["build_majority", "ternary_polymorphism_closed",
              "decompose_instance"]
    tracer = tracer_module.Tracer()
    tracer.install([(name, "span", None) for name in wanted])
    try:
        solve_pipeline(instance, system)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    opened = Counter(span[0] for span in tracer.spans)
    assert sorted(opened) == sorted(wanted)
    assert opened["ternary_polymorphism_closed"] == 1


def test_mincut_solve_opens_every_stp_large_span():
    # stp-large's per-layer values are null, and perfbench/smoke.py fails,
    # when one of these spans does not open
    tracer_module = load_perfbench("tracer")
    instance, system = submodular_chain(random.Random(6), 6)
    wanted = ["check_binary_multimorphism", "restrict_instance",
              "CutEncoding.__init__", "MaxFlow.max_flow"]
    tracer = tracer_module.Tracer()
    tracer.install([(name, "span", None) for name in wanted])
    try:
        result = solve_stp(instance, system.pair)
    finally:
        tracer.uninstall()
    assert result.stats["path"] == "mincut"
    assert tracer.missing == []
    assert sorted({span[0] for span in tracer.spans}) == sorted(wanted)
