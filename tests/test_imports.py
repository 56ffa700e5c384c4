"""Every package module parses as the oldest Python that ``pyproject.toml``
allows, every name a package module imports is used in that module, every
private module-level name is referenced somewhere in the package, and every
name README's library layout lists is defined in its module."""

import ast
import importlib
import re
from pathlib import Path

import seppaths

SOURCE = Path(seppaths.__file__).parent


def test_every_module_parses_as_the_oldest_supported_python():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    oldest = (3, int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)[1]))
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 10
    for p in modules:
        ast.parse(p.read_text(), filename=p.name, feature_version=oldest)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_import_in_the_package():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {
        p.name: names
        for p in modules
        if (names := _unused_imports(ast.parse(p.read_text())))
    }
    assert not unused, unused


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_module_name_is_referenced():
    # a name counts as referenced only from a statement other than the one
    # that defines it, so a helper that calls only itself is still caught
    statements = [
        (p.stem, stmt)
        for p in sorted(SOURCE.glob("*.py"))
        for stmt in ast.parse(p.read_text()).body
    ]
    reads = [_referenced_names(stmt) for _, stmt in statements]
    private = [
        (module, name, i)
        for i, (module, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert len(private) >= 50
    orphans = [
        f"{module}.{name}"
        for module, name, i in private
        if not any(name in names for j, names in enumerate(reads) if j != i)
    ]
    assert not orphans, orphans


def test_readme_layout_names_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(seppaths\.\w+)` \| (.*) \|$", layout, re.MULTILINE)
    assert len(rows) >= 8
    missing = [
        f"{module}.{name}"
        for module, contents in rows
        for name in re.findall(r"`(\w+)`", contents)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing
