"""Every tolerance is read from ``TOL``: no public callable restates one as a default."""

import dataclasses
import importlib
import inspect
import pkgutil

import lindsim
from lindsim.tolerances import TOL

TOL_VALUES = set(dataclasses.astuple(TOL))


def _public_callables():
    """(qualified name, callable) for each callable in a module's ``__all__``, and each
    public method of the classes there, over every lindsim module but ``tolerances``."""
    for info in pkgutil.iter_modules(lindsim.__path__):
        if info.name == "tolerances":
            continue
        module = importlib.import_module(f"lindsim.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                yield from ((f"{info.name}.{name}.{attr}", member) for attr, member in vars(obj).items()
                            if not attr.startswith("_") and inspect.isfunction(member))


def test_no_public_callable_defaults_to_a_tolerance():
    restated = []
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # no signature to read
            continue
        restated += [f"{name}({p.name}={p.default!r})" for p in params
                     if type(p.default) in (int, float) and p.default in TOL_VALUES]
    assert not restated
