"""Every module-level private function of the package is used: some code
in ``src/`` outside its own definition names it.  Every public method of
a package class is used too: some code in ``src/``, ``tests/`` or
``benchmarks/`` outside its own definition names it.  So is every public
module-level function, where an import counts only inside the package:
an ``__init__`` re-export makes a function public, but a test or
benchmark must use what it imports.  No module-level function of the
package is only another name for a call of another function on its own
parameters."""

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


def references(node, imports=True):
    """How often each name is loaded, read as an attribute or, unless
    ``imports`` is false, imported in the subtree."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias) and imports:
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


def public_functions(tree):
    """Module-level ``def name`` nodes whose name does not start with an
    underscore."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def dead_public_functions(package_paths, other_paths):
    """(file name, function name) of each public module-level function in
    ``package_paths`` that nothing refers to outside its own body; an
    import in ``other_paths`` is not a reference."""
    def parse(path):
        return ast.parse(path.read_text(), filename=str(path))

    trees = {path: parse(path) for path in package_paths}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    for path in other_paths:
        everywhere += references(parse(path), imports=False)
    return sorted(
        (path.name, function.name)
        for path, tree in trees.items()
        for function in public_functions(tree)
        if everywhere[function.name] == references(function)[function.name]
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


def test_package_has_no_dead_public_functions():
    sources = sorted(PACKAGE.glob("*.py"))
    others = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    assert len(sources) > 10 and len(others) > 10
    assert dead_public_functions(sources, others) == []


def test_the_guard_sees_unused_public_functions(tmp_path):
    module = tmp_path / "module.py"
    package = tmp_path / "__init__.py"
    user = tmp_path / "user.py"
    module.write_text(
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def reexported():\n"
        "    return 2\n"
        "def only_imported():\n"
        "    return 3\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def _private():\n"
        "    return 4\n"
    )
    package.write_text("from .module import reexported\n")
    user.write_text("from module import only_imported, used\nprint(used())\n")
    assert dead_public_functions([module, package], [user]) == [
        ("module.py", "only_imported"),
        ("module.py", "recursive"),
    ]


def alias_functions(paths):
    """(file name, function name) of each module-level function whose
    body, after its docstring, is only ``return g(<its own parameters,
    in order>)``: another name for ``g``."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            if (
                isinstance(call, ast.Call)
                and not call.keywords
                and [a.id if isinstance(a, ast.Name) else None for a in call.args] == params
            ):
                out.append((path.name, node.name))
    return sorted(out)


def test_package_has_no_alias_functions():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert alias_functions(sources) == []


def test_the_guard_sees_alias_functions(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\n"
        "def target(a, b):\n"
        "    return a + b\n"
        "def alias(a, b):\n"
        "    return target(a, b)\n"
        "def documented(x):\n"
        "    '''Another name.'''\n"
        "    return math.floor(x)\n"
        "def swapped(a, b):\n"
        "    return target(b, a)\n"
        "def partial(a):\n"
        "    return target(a, 1)\n"
        "def keyword(a, b):\n"
        "    return target(a, b=b)\n"
        "def attribute(a):\n"
        "    return a.value\n"
        "def two_lines(a, b):\n"
        "    c = a\n"
        "    return target(c, b)\n"
        "class Shape:\n"
        "    def method(self):\n"
        "        return target(self)\n"
    )
    assert alias_functions([module]) == [("module.py", "alias"), ("module.py", "documented")]
