"""Size budgets are read only where a family or a 2**n pass is built.

Every call of a budget reader or guard in the package, outside
``config.py`` which defines them, is collected by AST as (module,
enclosing function) and compared with ``ALLOWED``, whose entries name
what each site bounds.  A predicate or validator that decides in time
polynomial in its input reads no budget, so it decides at any width: a
new guard needs an entry here saying which family it bounds."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"
BUDGET_CALLS = {
    "require_atom_width",
    "require_enum_width",
    "require_point_budget",
    "atom_limit",
    "enum_limit",
    "point_limit",
}
ALLOWED = {
    ("boolean", "FiniteBooleanAlgebra.__post_init__"): "the algebra's n-row atom tables, "
    "and with them input size",
    ("boolean", "principal_ultrafilter"): "the 2**(n-1) members of an ultrafilter",
    ("boolean", "grill_from_support"): "the members of a grill",
    ("boolean", "grills"): "every grill, one per nonempty atom support",
    ("precontact", "PrecontactAlgebra._clan_supports"): "every clan, a point of the dual",
    ("precontact", "normalize_relation"): "the 4**n-pair input of an element-level "
    "relation and its 2**n joins table",
    ("topology", "rc_members"): "every regular closed set",
    ("topology", "clopens_of_subset"): "every clopen of the subspace",
    ("topology", "rc_members_of_subset"): "the closures of every clopen of the subspace",
    ("suite", "instance_suite"): "the suite's gate on the specialization families",
    ("cli", "main"): "every budget read before dispatch, so a malformed one exits 2",
}


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def budget_sites(paths):
    """(module, enclosing function) of each budget call in ``paths``; a
    method is named Class.method, and a call outside any function by
    "<module>"."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _called_name(child) in BUDGET_CALLS:
                sites.add((module, ".".join(scope) or "<module>"))
            visit(child, module, scope)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, ())
    return sites


def test_budgets_are_read_only_where_a_family_is_built():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "config.py"]
    assert len(sources) > 10
    assert budget_sites(sources) == set(ALLOWED)


def test_the_collector_sees_every_call_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import config\n"
        "from .config import enum_limit, require_enum_width\n"
        "LIMIT = enum_limit()\n"
        "def plain(n):\n"
        "    require_enum_width(n)\n"
        "def qualified(n):\n"
        "    return n <= config.point_limit()\n"
        "def outer(n):\n"
        "    def inner():\n"
        "        config.require_atom_width(n)\n"
        "    return inner\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return [config.require_point_budget(k) for k in self.sizes]\n"
        "    def free(self):\n"
        "        return require_enum_width\n"
    )
    assert budget_sites([sample]) == {
        ("sample", "<module>"),
        ("sample", "plain"),
        ("sample", "qualified"),
        ("sample", "outer.inner"),
        ("sample", "Holder.method"),
    }
