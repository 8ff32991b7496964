"""Every library function the benchmark traces can be found by its name.

The benchmark wraps the functions listed in ``perfbench/layers.py`` by
qualified name; a target that moved or was renamed reads as a missing span
there.  This reads ``perfbench/`` and changes nothing in it.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import vcsp

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
