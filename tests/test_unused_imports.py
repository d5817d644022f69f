"""Every name a module imports is used in that module.

Walks the syntax trees of src/minsyn (except the package ``__init__``,
whose imports are its public re-exports), demos/, scripts/ and tests/.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for directory in ("src/minsyn", "demos", "scripts", "tests")
               for path in (ROOT / directory).glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """'name (line N)' for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "import xml.dom\n"
              "from json import dumps, loads as parse\n"
              "def f(s: osp.PathLike) -> None:\n"
              "    return parse(s), xml.dom\n")
    assert unused_imports(source) == ["os (line 2)", "dumps (line 5)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
