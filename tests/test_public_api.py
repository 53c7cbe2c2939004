"""Public functions and methods take no private parameters: a caller-facing
knob whose name starts with an underscore is a hidden option."""

import importlib
import inspect
import pkgutil

import paraferm


def _public_callables():
    for info in pkgutil.iter_modules(paraferm.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"paraferm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                # methods inherited from a private base of the package count too
                for cls in obj.__mro__:
                    if not cls.__module__.startswith("paraferm."):
                        continue
                    for meth, fn in vars(cls).items():
                        fn = getattr(fn, "__func__", fn)
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{module.__name__}.{name}.{meth}", fn


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
