"""Each ltgsim module keeps its underscore names to itself.

A private name is free to change with its module; another module that
imports it would silently depend on that detail.  This test reads the
import statements of every module under ``src/ltgsim`` with ``ast``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ltgsim"


def private_imports(path: Path) -> list[str]:
    """``module:line name`` for each underscore name ``path`` imports from ltgsim."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "ltgsim":
            continue
        found += [f"{path.stem}:{node.lineno} {alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [hit for path in modules for hit in private_imports(path)] == []
