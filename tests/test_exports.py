"""Every name a bellsym module lists in ``__all__`` exists, so a deleted
public name cannot stay listed; every name a module defines is listed or
used, so a definition nothing calls cannot stay either; and every listed
name has a caller outside the tests, so a helper only tests use cannot stay
public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bellsym

MODULES = [f"bellsym.{m.name}" for m in pkgutil.iter_modules(bellsym.__path__)
           if m.name != "__main__"]
SOURCES = sorted(Path(bellsym.__file__).parent.glob("*.py"))
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Exported names whose only callers are tests other than the acceptance
# suite, each with the reason it stays public.
EXPORT_ALLOWLIST = {
    "kraus.choi_of_kraus":
        "the reference the Choi cross-checks compare kraus_from_choi against",
    "symmetry.minimize":
        "calls scipy; goes when perfbench/spans.py FOREIGN goes",
}


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


def reads_outside(tree: ast.Module, name: str) -> set[str]:
    """Names a module reads outside its top-level definition of ``name``."""
    return referenced_names(ast.Module(
        [node for node in tree.body
         if name not in module_definitions(ast.Module([node], []))], []))


def package_reads(path: Path, tree: ast.Module) -> set[str]:
    """Names a module reads; the package's re-export imports are no reads."""
    if path.name == "__init__.py":
        tree = ast.Module([node for node in tree.body
                           if not isinstance(node, ast.ImportFrom)], [])
    return referenced_names(tree)


def test_every_export_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    reads = {path: package_reads(path, tree) for path, tree in trees.items()}
    acceptance = referenced_names(
        ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    uncalled = [f"{path.stem}.{name}" for path, tree in trees.items()
                for name in exported_names(tree)
                if name not in acceptance
                and name not in reads_outside(tree, name)
                and not any(name in names for other, names in reads.items()
                            if other != path)]
    assert sorted(uncalled) == sorted(EXPORT_ALLOWLIST)
