"""Every name a package module imports is used in it.

The package re-exports its API from __init__.py, so that file is left
out; every other module imports only what it reads, or what another
program reads from it as a module attribute (READ_ELSEWHERE).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "starqkd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Imports no code of the module reads, kept because another program looks
# them up in it. bench/tracing.py wraps starqkd.engine.relay_key, and
# bench/tests/test_bench.py reads that name.
READ_ELSEWHERE = {"engine.py": ["relay_key"]}


def _unused_imports(source: str) -> list[str]:
    """The names source binds by import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a.
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os, re as regex\nfrom a.b import c, d as e\nimport x.y\nprint(os, e, x.y)\n"
    assert _unused_imports(source) == ["regex", "c"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    # An entry of READ_ELSEWHERE that the module reads or no longer
    # imports fails here too, so the table cannot outlive its reason.
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert unused == READ_ELSEWHERE.get(path.name, [])
