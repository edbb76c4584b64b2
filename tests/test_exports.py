"""Each public name lives in one module: the one ``lindsim`` loads it from."""

import ast
import importlib
import inspect


import lindsim

SUBMODULES = sorted(set(lindsim._EXPORTS.values()) | {"cli", "sdp"})


def _top_level_names(module) -> tuple:
    """Names a module binds at top level by definition or assignment, and those it imports."""
    defined, imported = set(), set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return defined, imported


def test_every_export_is_defined_where_it_is_loaded_from():
    misplaced = []
    for name, module in lindsim._EXPORTS.items():
        mod = importlib.import_module(f"lindsim.{module}")
        defined, imported = _top_level_names(mod)
        if name not in getattr(mod, "__all__", ()) or name not in defined or name in imported:
            misplaced.append(f"{module}.{name}")
    assert not misplaced


def test_no_module_re_exports_an_imported_name():
    re_exported = []
    for module in SUBMODULES:
        mod = importlib.import_module(f"lindsim.{module}")
        _, imported = _top_level_names(mod)
        re_exported += [f"{module}.{name}" for name in getattr(mod, "__all__", ()) if name in imported]
    assert not re_exported
