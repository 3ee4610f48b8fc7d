"""The package holds only what it runs: no name kept for the tests alone."""

import ast
from pathlib import Path

import dilationlab

PACKAGE = Path(dilationlab.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def _references(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, name) of every package function or class the module's code
    names, outside the definition of that name itself: bare names defined
    in the module or imported from a package module, and attributes of an
    imported package module."""
    defs = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    refs = set()
    for top in tree.body:
        own = (module, top.name) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                ref = (module, node.id) if node.id in defs else names.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                ref = (modules[node.value.id], node.attr) if node.value.id in modules else None
            else:
                continue
            if ref is not None and ref != own:
                refs.add(ref)
    return refs


def test_every_function_and_class_is_used_by_the_package():
    """Every module-level function and class of the package is named by
    package code outside its own definition and outside __init__.py."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set().union(*(_references(tree, module) for module, tree in trees.items()))
    assert sorted(defined - used) == []


def test_every_method_and_property_is_read_outside_its_definition():
    """Every method and property of a package class, dunder methods aside,
    is read as an attribute by package or benchmark code (bench/*.py)
    outside its own definition, so that no cache or helper outlives its
    last reader. Reads are matched by attribute name."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if not any(node.attr == fn.name and id(node) not in own for node in reads):
                    unread.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert unread == []
