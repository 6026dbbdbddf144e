"""Every module-level private function of the package is used: some code
in ``src/`` outside its own definition names it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"


def private_functions(tree):
    """Module-level ``def _name`` nodes, dunders excluded."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def references(node):
    """How often each name is loaded, read as an attribute or imported
    in the subtree."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def dead_helpers(paths):
    """(file name, function name) of each private module-level function
    that nothing outside its own body refers to."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return sorted(
        (name, helper.name)
        for name, tree in trees.items()
        for helper in private_functions(tree)
        if everywhere[helper.name] == references(helper)[helper.name]
    )


def test_package_has_no_dead_private_helpers():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert dead_helpers(sources) == []


def test_the_guard_sees_unused_and_self_recursive_helpers(tmp_path):
    first = tmp_path / "first.py"
    second = tmp_path / "second.py"
    first.write_text(
        "def _used():\n"
        "    return 1\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _unused():\n"
        "    return _used()\n"
        "def _imported():\n"
        "    return 2\n"
        "def _attribute():\n"
        "    return 3\n"
    )
    second.write_text(
        "from first import _imported\n"
        "import first\n"
        "value = first._attribute()\n"
    )
    assert dead_helpers([first, second]) == [
        ("first.py", "_recursive"),
        ("first.py", "_unused"),
    ]
