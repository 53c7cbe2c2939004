"""The names the benchmark harness reaches into the package by.

`perfbench/tracer.py` wraps functions by their dotted names and
`perfbench/probes.py` imports functions to time.  A rename or deletion in
`src/` breaks the benchmark without failing any other fast test, so both
files are loaded here (read, compiled and run in a fresh namespace, never
written) and every name they use is resolved on the package.
"""

import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


tracer = _load("tracer")
probes = _load("probes")


@pytest.mark.parametrize("name", [name for name, _ in tracer.LAYERS])
def test_traced_layer_resolves(name):
    modname, *path = name.split(".")
    owner = importlib.import_module("paraferm." + modname)
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("name, make", probes.PROBES, ids=[name for name, _ in probes.PROBES])
def test_probe_builds(name, make):
    # builds the probe's inputs; the probed call itself is not run
    assert callable(make())
