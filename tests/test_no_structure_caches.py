"""Canonical constructions are computed once per object (``memo``,
``cached_property``), never in a module-level cache keyed on hashing the
structures themselves.  The only ``functools`` cache of the package is
``precontact._row_tables``, keyed on an atom count."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"
CACHE_DECORATORS = {"lru_cache", "cache"}
ALLOWED = {("precontact.py", "_row_tables")}


def _decorator_name(node):
    """``lru_cache`` for ``@lru_cache``, ``@lru_cache(maxsize=4)`` and
    ``@functools.lru_cache(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def cached_functions(paths):
    """(file name, function name) of each function with a functools cache
    decorator."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in CACHE_DECORATORS for d in node.decorator_list
            ):
                out.append((path.name, node.name))
    return sorted(out)


def test_package_has_no_structure_keyed_caches():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert set(cached_functions(sources)) == ALLOWED


def test_the_guard_sees_every_decorator_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(space):\n"
        "    return space\n"
        "@functools.lru_cache\n"
        "def b(space):\n"
        "    return space\n"
        "@cache\n"
        "def c(space):\n"
        "    return space\n"
        "class K:\n"
        "    @functools.cache\n"
        "    def d(self):\n"
        "        return self\n"
        "    @cached_property\n"
        "    def e(self):\n"
        "        return self\n"
    )
    assert cached_functions([sample]) == [
        ("sample.py", "a"),
        ("sample.py", "b"),
        ("sample.py", "c"),
        ("sample.py", "d"),
    ]
