"""Every module-level import in src/tableqa is used by its module, unless
the module re-exports the name on purpose by listing it in `__all__`;
`import tableqa` loads no submodule; and an offline run starts without
loading an HTTP, TLS or YAML module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import e2e_fixtures

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


def test_package_import_loads_no_submodule():
    child = ("import sys, tableqa\n"
             "loaded = sorted(m for m in sys.modules if m.startswith('tableqa.'))\n"
             "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", child], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr


# `requests` is blocked, so importing it anywhere fails the child.
OFFLINE_CHILD = """
import sys
sys.modules["requests"] = None
import tableqa.cli
loaded = [m for m in ("urllib.request", "http.client", "ssl", "yaml") if m in sys.modules]
assert not loaded, f"tableqa.cli loaded {loaded}"
tableqa.cli.main(sys.argv[1:])
"""


def test_offline_run_loads_no_http_tls_or_yaml_module(tmp_path):
    tables_dir, questions_path, mock_path = e2e_fixtures.write_fixture(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", OFFLINE_CHILD, "bench", questions_path,
         "--tables-dir", tables_dir, "--mock", mock_path, "--repetitions", "2",
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_pipeline_import_loads_no_hashlib_or_statistics():
    """Start-up stays lean: `hashlib` is imported by the profile cache's
    fingerprint on first use, and `mean` needs `math` alone."""
    child = ("import sys, tableqa.pipeline\n"
             "loaded = [m for m in ('hashlib', 'statistics') if m in sys.modules]\n"
             "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", child], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
