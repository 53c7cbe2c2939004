"""The package's public surface.

Public functions and methods take no private parameters: a caller-facing
knob whose name starts with an underscore is a hidden option.  And every
public module-level function and class is reached: `src/paraferm` uses it
outside its own definition, the benchmark pins it (`perfbench/tracer.py`
wraps it or `perfbench/probes.py` imports it), or `KEPT` gives the reason
it stays.  Methods are not covered, since their names collide across
classes.
"""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import paraferm

ROOT = Path(__file__).resolve().parents[1]

# public names kept without a caller, each with its reason
KEPT = {
    "characters.w_minimal_central_charge": "the W3 x W3 check compares c(omega_para) with it",
    "fusion_identify.enumerate_w_simples": "the fusion-ring check enumerates the W labels",
}


def _public_objects():
    """(module name without the package, name, object) for each public
    function and class a `paraferm` module defines."""
    for info in pkgutil.iter_modules(paraferm.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"paraferm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield info.name, name, obj


def _public_callables():
    for mod, name, obj in _public_objects():
        if inspect.isfunction(obj):
            yield f"paraferm.{mod}.{name}", obj
            continue
        # methods inherited from a private base of the package count too
        for cls in obj.__mro__:
            if not cls.__module__.startswith("paraferm."):
                continue
            for meth, fn in vars(cls).items():
                fn = getattr(fn, "__func__", fn)
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"paraferm.{mod}.{name}.{meth}", fn


def test_no_public_callable_takes_a_private_parameter():
    found = list(_public_callables())
    assert len(found) > 50
    bad = [
        f"{where}({p})"
        for where, fn in found
        for p in inspect.signature(fn).parameters
        if p.startswith("_")
    ]
    assert bad == []


def _identifiers(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")


def _uses_in_src() -> dict[str, set[tuple[str, str]]]:
    """Per identifier in `src/paraferm`, the (module, enclosing top-level
    definition or "") pairs it occurs in."""
    uses: dict[str, set[tuple[str, str]]] = {}
    for path in (ROOT / "src" / "paraferm").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", "")
            for ident in _identifiers(stmt):
                uses.setdefault(ident, set()).add((path.stem, owner))
    return uses


def _benchmark_pins() -> set[str]:
    """module.name of every function `perfbench/tracer.py` wraps or
    `perfbench/probes.py` imports; both files are read, never written."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    tracer.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    pins = {".".join(name.split(".")[:2]) for name, _ in tracer.LAYERS}
    probes = ast.parse((ROOT / "perfbench" / "probes.py").read_text())
    for node in ast.walk(probes):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("paraferm."):
            mod = node.module.removeprefix("paraferm.")
            pins.update(f"{mod}.{alias.name}" for alias in node.names)
    return pins


def test_every_public_name_is_reached():
    public = [(mod, name) for mod, name, _ in _public_objects()]
    assert len(public) > 50
    assert set(KEPT) <= {f"{mod}.{name}" for mod, name in public}
    uses = _uses_in_src()
    pins = _benchmark_pins()
    unreached = []
    for mod, name in public:
        dotted = f"{mod}.{name}"
        # a use inside the name's own definition (say, recursion) is no caller
        if not (uses.get(name, set()) - {(mod, name)} or dotted in pins or dotted in KEPT):
            unreached.append(dotted)
    assert unreached == []
