"""Every private module-level name of src/minsyn is read somewhere in it.

A name that starts with one underscore (a function, class or constant bound
at module level) serves only the package, so one that no module of
src/minsyn reads is a helper left behind.  Walks the syntax trees with the
standard library's ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "minsyn").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_private_names(tree: ast.Module) -> dict:
    """name -> line of each private name bound by a module-level statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in targets if _private(name)})
    return names


def read_names(tree: ast.Module) -> set:
    """Names read as variables, imported by name, or read as attributes."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict) -> list:
    """'module: name (line N)' for each private module-level name of the
    given {module: source} that none of them reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return [f"{module}: {name} (line {line})"
            for module, tree in trees.items()
            for name, line in defined_private_names(tree).items() if name not in read]


def test_checker_finds_unread_names():
    sources = {
        "a": ("_USED = 1\n_UNUSED, _PAIR = 2, 3\n__version__ = '0'\n"
              "def _helper():\n    return _USED\n"
              "class _Left:\n    pass\n"
              "def public():\n    return _PAIR\n"),
        "b": "from .a import _helper\n",
    }
    assert unread_private_names(sources) == ["a: _UNUSED (line 2)", "a: _Left (line 6)"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_private_names(sources) == []
