"""Every name a bellsym module lists in ``__all__`` exists, so a deleted
public name cannot stay listed; and every name a module defines is listed
or used, so a definition nothing calls cannot stay either."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bellsym

MODULES = [f"bellsym.{m.name}" for m in pkgutil.iter_modules(bellsym.__path__)
           if m.name != "__main__"]
SOURCES = sorted(Path(bellsym.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def module_definitions(tree: ast.Module) -> list[str]:
    """Names of the functions, classes and constants a module defines at
    its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def exported_names(tree: ast.Module) -> list[str]:
    """The literal ``__all__`` of a module, empty if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a module reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_exported_or_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    used = set().union(*map(referenced_names, trees.values()))
    dead = [f"{path.stem}.{name}" for path, tree in trees.items()
            for name in module_definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in exported_names(tree) and name not in used]
    assert dead == []
