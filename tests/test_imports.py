"""Every module-level import in src/tableqa is used by its module, unless
the module re-exports the name on purpose by listing it in `__all__`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tableqa"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_guard_flags_unused_and_allows_reexports():
    source = ("from __future__ import annotations\n"
              "import json, os.path\nfrom re import sub as s, findall\n"
              "from x import y\n__all__ = ['y']\n"
              "def f() -> None:\n    return os.path.join(s('a', 'b', 'c'))\n")
    assert unused_imports(source) == ["findall", "json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
