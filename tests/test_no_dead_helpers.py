"""Every module-level private function of the package is used: some code
in ``src/`` outside its own definition names it.  Every public method of
a package class is used too: some code in ``src/``, ``tests/`` or
``benchmarks/`` outside its own definition names it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactlab"


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


def public_methods(tree):
    """(class name, method node) of each method of a module-level class
    whose name does not start with an underscore."""
    return [
        (node.name, method)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_")
    ]


def dead_methods(package_paths, other_paths):
    """(file name, class name, method name) of each public method of a
    class in ``package_paths`` that nothing in either set of files refers
    to outside the method's own body."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in [*package_paths, *other_paths]
    }
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return sorted(
        (path.name, cls, method.name)
        for path in package_paths
        for cls, method in public_methods(trees[path])
        if everywhere[method.name] == references(method)[method.name]
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


def test_package_has_no_dead_public_methods():
    sources = sorted(PACKAGE.glob("*.py"))
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    assert len(sources) > 10 and len(others) > 10
    assert dead_methods(sources, others) == []


def test_the_guard_sees_unused_public_methods(tmp_path):
    package = tmp_path / "package.py"
    user = tmp_path / "user.py"
    package.write_text(
        "class Shape:\n"
        "    def area(self):\n"
        "        return self.side() ** 2\n"
        "    def side(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return 0\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    def _private(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def stale(self):\n"
        "        return 3\n"
    )
    user.write_text("from package import Shape\nprint(Shape().area())\n")
    assert dead_methods([package], [user]) == [
        ("package.py", "Shape", "recursive"),
        ("package.py", "Shape", "stale"),
        ("package.py", "Shape", "unused"),
    ]
