"""Every import of the package sits at module level: no import hides
inside a function, method or class body, so a module's dependencies are
read off its header."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"


def nested_imports(paths):
    """(file name, line) of each import statement that is not a
    statement of its module's body."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                out.append((path.name, node.lineno))
    return sorted(out)


def test_package_imports_only_at_module_level():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert nested_imports(sources) == []


def test_the_guard_sees_every_nested_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import json\n"
        "from . import boolean\n"
        "def f():\n"
        "    from .topology import closure\n"
        "    return closure\n"
        "class K:\n"
        "    import os\n"
        "    def g(self):\n"
        "        if self:\n"
        "            import sys\n"
        "        return sys\n"
        "if json:\n"
        "    import re\n"
    )
    assert nested_imports([sample]) == [
        ("sample.py", 4),
        ("sample.py", 7),
        ("sample.py", 10),
        ("sample.py", 13),
    ]
