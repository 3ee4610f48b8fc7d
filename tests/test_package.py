"""The package holds only what it runs: no name kept for the tests alone."""

import ast
from pathlib import Path

import dilationlab

PACKAGE = Path(dilationlab.__file__).parent


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
