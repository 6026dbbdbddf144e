"""Canonical constructions are computed once per object (``memo``),
never in a module-level cache keyed on hashing the structures
themselves.  The package has no ``functools`` cache.

A value is kept on a frozen object one way, through ``memo``: no
``cached_property``, and outside ``memo.py`` no ``.__dict__`` and no
``object.__setattr__`` beyond the field writes of
``FiniteSpace._of_closed_base`` and the weak-reference filter of
``PrecontactAlgebra.__getstate__``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"
CACHE_DECORATORS = {"lru_cache", "cache"}
ALLOWED = set()
RAW_ACCESS_ALLOWED = {
    ("topology.py", "FiniteSpace._of_closed_base", "object.__setattr__", "point_names"),
    ("topology.py", "FiniteSpace._of_closed_base", "object.__setattr__", "point_closures"),
    ("precontact.py", "PrecontactAlgebra.__getstate__", "__dict__", None),
}


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


def cached_property_uses(paths):
    """(file name, line) of each name, attribute or import spelled
    ``cached_property``."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if name == "cached_property":
                out.append((path.name, node.lineno))
    return sorted(out)


def _is_object_setattr(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def raw_accesses(paths):
    """(file name, enclosing qualified name, form, attribute name) of
    each ``.__dict__`` or ``vars`` read and each ``object.__setattr__``
    outside ``memo.py``.  The attribute name is that of an
    ``object.__setattr__`` call whose second argument is a string
    constant, else None."""
    out = []

    def visit(node, scope, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        at = (where, ".".join(scope) or "<module>")
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call) and _is_object_setattr(node.func):
            arg = node.args[1] if len(node.args) > 1 else None
            name = getattr(arg, "value", None)
            out.append((*at, "object.__setattr__", name if isinstance(name, str) else None))
            children.remove(node.func)
        elif _is_object_setattr(node):
            out.append((*at, "object.__setattr__", None))
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            out.append((*at, "__dict__", None))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
            out.append((*at, "__dict__", None))
        for child in children:
            visit(child, scope, where)

    for path in paths:
        if path.name != "memo.py":
            visit(ast.parse(path.read_text(), filename=str(path)), (), path.name)
    return sorted(out, key=repr)


def test_package_has_no_cached_property():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert cached_property_uses(sources) == []


def test_only_memo_writes_kept_values():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert set(raw_accesses(sources)) <= RAW_ACCESS_ALLOWED


def test_the_guard_sees_every_way_round_memo(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\n"
        "from functools import cached_property\n"
        "class K:\n"
        "    @functools.cached_property\n"
        "    def a(self):\n"
        "        return self\n"
        "    def b(self, name):\n"
        "        self.__dict__[name] = 1\n"
        "        object.__setattr__(self, '_kept', 2)\n"
        "        object.__setattr__(self, name, 3)\n"
        "        setter = object.__setattr__\n"
        "        return vars(self), setter\n"
        "def c(obj):\n"
        "    return obj.__dict__.get('_kept')\n"
    )
    assert cached_property_uses([sample]) == [("sample.py", 2), ("sample.py", 4)]
    assert raw_accesses([sample]) == sorted(
        [
            ("sample.py", "K.b", "__dict__", None),
            ("sample.py", "K.b", "__dict__", None),
            ("sample.py", "K.b", "object.__setattr__", "_kept"),
            ("sample.py", "K.b", "object.__setattr__", None),
            ("sample.py", "K.b", "object.__setattr__", None),
            ("sample.py", "c", "__dict__", None),
        ],
        key=repr,
    )
    memo = tmp_path / "memo.py"
    memo.write_text(sample.read_text())
    assert raw_accesses([memo]) == []
