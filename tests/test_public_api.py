"""The package's public surface.

Public functions and methods take no private parameters: a caller-facing
knob whose name starts with an underscore is a hidden option.  And every
public module-level function and class is reached: `src/paraferm` uses it
outside its own definition, the benchmark pins it (`perfbench/tracer.py`
wraps it or `perfbench/probes.py` imports it), or `KEPT` gives the reason
it stays.  So is every public method or property of a public class: `src`
reads `.name` outside the member's own definition, `perfbench/tracer.py`
wraps `module.Class.name`, or `KEPT` gives the reason.  Where several
public classes define a member name, a `.name` reaches the member of class
C only from a top-level definition that names C, itself or through the
return annotation of a function it calls; so a use on a `WLabel` does not
reach `ParaLabel.current`: a method's return annotation counts only where
its own class is named.
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
    "fusion_identify.enumerate_simples": "the fusion-ring check enumerates the coset labels "
    "(ROADMAP direction 5)",
    "fusion_identify.enumerate_w_simples": "the fusion-ring check enumerates the W labels",
    "lattice_fock.GradedBasis.charge_dims": "the dual route compares it with the affine "
    "character (ROADMAP direction 4)",
    "fusion_identify.ParaLabel.topweight": "the W3 zero-mode check reads it (ROADMAP direction 2)",
    "fusion_identify.WLabel.topweight": "the W3 zero-mode check reads it (ROADMAP direction 2)",
    "fusion_identify.ParaLabel.twist": "the fusion-ring check applies it (ROADMAP direction 5)",
    "fusion_identify.ParaLabel.current": "the fusion-ring check applies it (ROADMAP direction 5)",
    "fusion_identify.WLabel.twist": "the fusion-ring check applies it (ROADMAP direction 5)",
    "fusion_identify.WLabel.current": "the fusion-ring check applies it (ROADMAP direction 5)",
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


def _public_members():
    """(module, class name, defining class, member name, function) for each
    public method and property getter of a public class, those inherited
    from a private base of the package included."""
    for mod, name, obj in _public_objects():
        if not inspect.isclass(obj):
            continue
        for cls in obj.__mro__:
            if not cls.__module__.startswith("paraferm."):
                continue
            for meth, fn in vars(cls).items():
                fn = fn.fget if isinstance(fn, property) else getattr(fn, "__func__", fn)
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield mod, name, cls.__name__, meth, fn


def _public_callables():
    for mod, name, obj in _public_objects():
        if inspect.isfunction(obj):
            yield f"paraferm.{mod}.{name}", obj
    for mod, name, _, meth, fn in _public_members():
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


def _uses_in_src() -> dict[str, set[tuple[bool, tuple[str, ...]]]]:
    """Per identifier in `src/paraferm`, each place it occurs: whether as an
    attribute (`.name`), and where, as the module followed by the names of
    the enclosing definitions, outermost first."""
    uses: dict[str, set] = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                uses.setdefault(child.id, set()).add((False, where))
            elif isinstance(child, ast.Attribute):
                uses.setdefault(child.attr, set()).add((True, where))
            elif isinstance(child, ast.alias):
                for part in child.name.split("."):
                    uses.setdefault(part, set()).add((False, where))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, where + (child.name,) if defines else where)

    for path in (ROOT / "src" / "paraferm").glob("*.py"):
        visit(ast.parse(path.read_text()), (path.stem,))
    return uses


def _returns_in_src() -> dict[tuple[str | None, str], set[str]]:
    """Per function of `src/paraferm`, keyed by (defining class or None,
    name), the names in its return annotation."""
    returns: dict[tuple[str | None, str], set[str]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.returns:
                    names = {n.id for n in ast.walk(child.returns) if isinstance(n, ast.Name)}
                    returns.setdefault((owner, child.name), set()).update(names)
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for path in (ROOT / "src" / "paraferm").glob("*.py"):
        visit(ast.parse(path.read_text()), None)
    return returns


def _named_in_src() -> dict[tuple[str, ...], set[str]]:
    """Per top-level definition of `src/paraferm` (module, name), the names
    it uses, its own name, and the names in the return annotations of the
    functions it uses: of a function outside a class by any use of its
    name, of a method of class C by a `.name` use only where C is named, so
    a chain of calls names one class after another."""
    returns = _returns_in_src()
    named: dict[tuple[str, ...], set[str]] = {}
    attrs: dict[tuple[str, ...], set[str]] = {}
    for ident, places in _uses_in_src().items():
        for attr, where in places:
            scope = named.setdefault(where[:2], set(where[1:2]))
            scope.add(ident)
            scope.update(returns.get((None, ident), ()))
            if attr:
                attrs.setdefault(where[:2], set()).add(ident)
    grew = True
    while grew:
        grew = False
        for where, idents in attrs.items():
            scope = named[where]
            for (owner, fn), names in returns.items():
                if owner in scope and fn in idents and not names <= scope:
                    scope |= names
                    grew = True
    return named


def _benchmark_pins() -> set[str]:
    """module.name of every function `perfbench/tracer.py` wraps or
    `perfbench/probes.py` imports, and module.Class.name of every method
    the tracer wraps; both files are read, never written."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    tracer.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    pins = {name for name, _ in tracer.LAYERS}
    pins |= {".".join(name.split(".")[:2]) for name in pins}
    probes = ast.parse((ROOT / "perfbench" / "probes.py").read_text())
    for node in ast.walk(probes):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("paraferm."):
            mod = node.module.removeprefix("paraferm.")
            pins.update(f"{mod}.{alias.name}" for alias in node.names)
    return pins


def test_every_public_name_is_reached():
    public = [(mod, name) for mod, name, _ in _public_objects()]
    members = [(mod, name, owner, meth) for mod, name, owner, meth, _ in _public_members()]
    assert len(public) > 50 and len(members) >= 37
    dotted = {f"{mod}.{name}" for mod, name in public}
    dotted |= {f"{mod}.{name}.{meth}" for mod, name, _, meth in members}
    assert set(KEPT) <= dotted
    uses = _uses_in_src()
    named = _named_in_src()
    pins = _benchmark_pins()
    # member name -> the classes that define it
    owners: dict[str, set[str]] = {}
    for _, _, owner, meth in members:
        owners.setdefault(meth, set()).add(owner)
    unreached = []
    for mod, name in public:
        # a use inside the name's own definition (say, recursion) is no caller
        if not (
            any(where[:2] != (mod, name) for _, where in uses.get(name, ()))
            or f"{mod}.{name}" in pins
            or f"{mod}.{name}" in KEPT
        ):
            unreached.append(f"{mod}.{name}")
    for mod, name, owner, meth in members:
        # only `.meth` reaches a method, and not from inside its own body;
        # a name several classes define only from a scope that names this one
        shared = len(owners[meth]) > 1
        if not (
            any(
                attr and where[:3] != (mod, owner, meth)
                and (not shared or name in named[where[:2]])
                for attr, where in uses.get(meth, ())
            )
            or f"{mod}.{name}.{meth}" in pins
            or f"{mod}.{name}.{meth}" in KEPT
        ):
            unreached.append(f"{mod}.{name}.{meth}")
    assert unreached == []
