"""Every backticked identifier in ``README.md`` names something that
exists: a ``contactlab`` module, a module-level name of one, a class
attribute (a method, a field, a class variable or an attribute a method
sets on ``self``), or one of ``WORDS``, the names of the text that are
not code.  A dotted identifier resolves part by part: ``contactlab.m``
is a module, ``m.name`` a module-level name of the module ``m`` and
``C.name`` an attribute of the class ``C``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactlab"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
# the environment variables of the budgets, the key of the schema
# version, the schema kinds, and the decorator `memo.once` replaced
WORDS = {
    "CONTACTLAB_ATOM_LIMIT",
    "CONTACTLAB_ENUM_LIMIT",
    "CONTACTLAB_POINT_LIMIT",
    "schema_version",
    "pair",
    "cs",
    "pcs",
    "mereo",
    "morphism",
    "family",
    "cached_property",
    "functools.cached_property",
}


def backticked_identifiers(text):
    """The identifiers written between single backticks, outside fenced
    code blocks, in order of first appearance."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return list(dict.fromkeys(s for s in spans if IDENTIFIER.fullmatch(s)))


def _stored(node):
    """Names a statement of a module or class body binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _class_attributes(cls):
    names = set()
    for node in cls.body:
        names.update(_stored(node))
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def package_names(paths):
    """(modules, module-level names by module, attributes by class)."""
    modules, module_names, class_attributes = set(), {}, {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules.add(path.stem)
        names = module_names.setdefault(path.stem, set())
        for node in tree.body:
            names.update(_stored(node))
            if isinstance(node, ast.ClassDef):
                class_attributes.setdefault(node.name, set()).update(_class_attributes(node))
    return modules, module_names, class_attributes


def unknown_names(identifiers, paths, words):
    """The identifiers that name nothing in the package nor in ``words``."""
    modules, module_names, class_attributes = package_names(paths)
    everywhere = set().union(modules, *module_names.values(), *class_attributes.values())

    def known(identifier):
        if identifier in words:
            return True
        first, *rest = identifier.split(".")
        if not rest:
            return first in everywhere
        if first == "contactlab":
            return rest[0] in modules and (len(rest) == 1 or known(".".join(rest)))
        if len(rest) > 1:
            return False
        return rest[0] in module_names.get(first, ()) or rest[0] in class_attributes.get(first, ())

    return [identifier for identifier in identifiers if not known(identifier)]


def test_readme_names_only_what_exists():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    identifiers = backticked_identifiers((ROOT / "README.md").read_text())
    assert len(identifiers) > 30
    assert unknown_names(identifiers, sources, WORDS) == []


def test_the_lint_resolves_each_form(tmp_path):
    module = tmp_path / "shapes.py"
    module.write_text(
        "import math\n"
        "LIMIT = 3\n"
        "def area(side):\n"
        "    return side * side\n"
        "class Square:\n"
        "    side: int\n"
        "    kind = 'square'\n"
        "    def grow(self):\n"
        "        self.grown = True\n"
    )
    text = (
        "Call `area` or `shapes.area`, read `LIMIT`, `Square.side`, `Square.kind`,\n"
        "`Square.grow`, `grown` and `contactlab.shapes`; `a word` and `--flag`\n"
        "are no identifiers, and a name in a fence is not read:\n"
        "```\n`skipped`\n```\n"
        "Stale: `gone`, `shapes.gone`, `Square.gone`, `contactlab.gone`, `math`,\n"
        "`shapes.area.x` and `listed` unless it is listed.\n"
    )
    identifiers = backticked_identifiers(text)
    assert "skipped" not in identifiers and "a word" not in identifiers
    assert unknown_names(identifiers, [module], {"listed"}) == [
        "gone",
        "shapes.gone",
        "Square.gone",
        "contactlab.gone",
        "math",
        "shapes.area.x",
    ]
