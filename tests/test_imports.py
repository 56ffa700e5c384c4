"""Every name a package module imports is used in that module, and every
name README's library layout lists is defined in its module."""

import ast
import importlib
import re
from pathlib import Path

import seppaths

SOURCE = Path(seppaths.__file__).parent


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
