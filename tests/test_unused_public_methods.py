"""Every public method of a src/minsyn class is read by the program.

A method that only unit tests call is API kept alive for the tests alone.
The program is the package itself, the demos, the scripts and the
benchmark; the acceptance suite and the test oracles count as well, since
they state what the package promises.  A method counts as read when some
file of the program reads an attribute of its name.  Walks the syntax trees
with the standard library's ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "minsyn").glob("*.py"))
READERS = [*SOURCES, *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "_oracles.py", ROOT / "tests" / "test_acceptance.py"]


def public_methods(tree: ast.Module) -> dict:
    """'Class.method' -> line of each public method of a module-level class."""
    return {f"{cls.name}.{node.name}": node.lineno
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def read_attributes(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_public_methods(sources: dict, readers: list) -> list:
    """'module: Class.method (line N)' for each public method of the given
    {module: source} whose name no reader source reads as an attribute."""
    read = set().union(*(read_attributes(ast.parse(text)) for text in readers))
    return [f"{module}: {name} (line {line})"
            for module, text in sources.items()
            for name, line in public_methods(ast.parse(text)).items()
            if name.split(".")[1] not in read]


def test_checker_finds_unread_methods():
    sources = {"a": ("class Box:\n"
                     "    def __init__(self):\n        self._size = 1\n"
                     "    def used(self):\n        return self._size\n"
                     "    @property\n    def unused(self):\n        return 2\n"
                     "def loose():\n    pass\n")}
    readers = ["Box().used()\n", "loose()\n"]
    assert unread_public_methods(sources, readers) == ["a: Box.unused (line 7)"]


def test_every_public_method_is_read_by_the_program():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_public_methods(sources, [path.read_text() for path in READERS]) == []
