"""Every module-level private function of the package is used: some code
in ``src/`` outside its own definition names it.  Every public method of
a package class is used too: some code in ``src/``, ``tests/`` or
``benchmarks/`` outside its own definition reads it as an attribute or
names it in a string, as ``getattr`` does; a bare name or an import of
the same spelling, such as a module function's, is not a use.  Every public
module-level function has a reader: some code in ``src/`` or
``benchmarks/`` outside its own definition uses it, where an import,
the ``__init__`` re-exports included, is not a use, and neither is a
read inside a public function that has no reader.  A public function
that only tests read, or that only such functions read, is listed in
``READ_ONLY_BY_TESTS`` with the reason it stays.  No module-level
function of the package is only another name for a call of another
function on its own parameters, no undecorated
method only forwards its other parameters to a method reached from its
first, and no class body binds a second name to one of its own
methods."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(function):
    """The names a function binds in its own scope: its arguments and
    the names it assigns, less those it declares global or nonlocal.
    The bodies of the functions nested in it are their own scopes."""
    args = function.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    stack = list(function.body) if isinstance(function.body, list) else [function.body]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            bound.add(sub.id)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
        if not isinstance(sub, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(sub))
    return bound - declared


def references(node, imports=True):
    """How often each name is loaded, read as an attribute or, unless
    ``imports`` is false, imported in the subtree.  A name that a
    function around the load binds itself, as an argument or by an
    assignment, is a local, not a reference."""
    out = Counter()

    def visit(sub, local):
        if isinstance(sub, FUNCTIONS):
            local = local | local_names(sub)
        if isinstance(sub, ast.Name):
            if sub.id not in local:
                out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias) and imports:
            out[sub.name] += 1
        for child in ast.iter_child_nodes(sub):
            visit(child, local)

    visit(node, frozenset())
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


def unread_public_functions(package_paths, other_paths):
    """(module, function name) of each public module-level function in
    ``package_paths`` that no code in either set of files uses outside
    its own body; an import is not a use, and neither is a read inside
    a function flagged here: a function that only flagged functions
    read is flagged too, so the set is grown until it stops changing."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in package_paths}
    everywhere = sum((references(tree, imports=False) for tree in trees.values()), Counter())
    for path in other_paths:
        everywhere += references(ast.parse(path.read_text(), filename=str(path)), imports=False)
    bodies = {
        (path.stem, function.name): references(function, imports=False)
        for path, tree in trees.items()
        for function in public_functions(tree)
    }
    flagged = set()
    while True:
        grown = {
            key
            for key in bodies
            if everywhere[key[1]] == sum(bodies[k][key[1]] for k in flagged | {key})
        }
        if grown == flagged:
            return sorted(flagged)
        flagged = grown


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


def attribute_reads(node):
    """How often each name is loaded as an attribute (``x.name``) or
    spelled as a whole string constant (``getattr(x, "name")``) in the
    subtree."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def dead_methods(package_paths, other_paths):
    """(file name, class name, method name) of each public method of a
    class in ``package_paths`` that nothing in either set of files reads
    as an attribute or names in a string outside the method's own
    body."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in [*package_paths, *other_paths]
    }
    everywhere = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    return sorted(
        (path.name, cls, method.name)
        for path in package_paths
        for cls, method in public_methods(trees[path])
        if everywhere[method.name] == attribute_reads(method)[method.name]
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
        "    def shared(self):\n"
        "        return 4\n"
        "    def by_name(self):\n"
        "        return 5\n"
        "def shared():\n"
        "    return 6\n"
    )
    user.write_text(
        "from package import Shape, shared\n"
        "print(Shape().area(), shared(), getattr(Shape(), 'by_name')())\n"
    )
    assert dead_methods([package], [user]) == [
        ("package.py", "Shape", "recursive"),
        ("package.py", "Shape", "shared"),
        ("package.py", "Shape", "stale"),
        ("package.py", "Shape", "unused"),
    ]


# Public functions that only tests read.  Each stays for the statement
# of the paper (or a lemma on its way) that it exposes, checked by the
# named tier-1 test, or until the named ROADMAP item gives it a reader.
READ_ONLY_BY_TESTS = {
    ("adjacency", "r_flat"): "the reflexive symmetric closure of an adjacency gives the "
    "contact closure of its regions; "
    "test_adjacency::test_contact_from_flat_equals_closure_of_contact",
    ("adjacency", "contact_from_adjacency"): "the region algebra of an adjacency space has the "
    "adjacency as its kernel, read only by pcs_from_stone_adjacency; "
    "test_adjacency::test_contact_from_adjacency",
    ("adjacency", "canonical_adjacency"): "the ultrafilter adjacency of a finite algebra is its "
    "kernel; test_adjacency::test_canonical_adjacency_matches_literal_quantifier",
    ("boolean", "stone_map"): "Stone duality: the Stone map is a Boolean isomorphism; "
    "test_boolean::test_stone_map_is_boolean_isomorphism",
    ("boolean", "sandwich_ultrafilter"): "the grill lemma: an ultrafilter between a filter and "
    "a grill above it; test_acceptance::test_criterion_8_grill_lemma",
    ("boolean", "grill_support"): "the atoms a grill holds, read only by sandwich_ultrafilter to "
    "pick its ultrafilter; test_acceptance::test_criterion_8_grill_lemma",
    ("boolean", "identity_hom"): "ROADMAP item 8, the functor law S(id) = id; "
    "test_boolean::test_identity_hom",
    ("boolean", "compose_homs"): "ROADMAP item 8, the functor law on composites; "
    "test_duality::test_functoriality_on_composable_pairs",
    ("duality", "identity_pcs_morphism"): "ROADMAP item 8, the functor law S(id) = id on the "
    "space side; test_duality::test_dual_algebra_map_identity",
    ("duality", "compose_pcs_morphisms"): "ROADMAP item 8, the functor law on composites on the "
    "space side; test_duality::test_gt_functoriality_on_pcs_morphisms",
    ("duality", "dense_part_map"): "a morphism of triples is determined by its dense "
    "restriction (faithfulness); test_acceptance::test_criterion_5_faithfulness",
    ("duality", "pcs_from_stone_adjacency"): "ROADMAP item 9, the unique triple over a Stone "
    "adjacency space as a suite line; test_duality::test_reconstruction_from_stone_adjacency",
    ("duality", "gmcs_hom_check"): "ROADMAP item 8, GG's condition on maps of 2-contact pairs; "
    "test_duality::test_gmcs_lines_that_can_fail_name_their_witness",
    ("precontact", "restrict_relation"): "a partition of the atoms generates a precontact "
    "subalgebra; test_precontact::test_restrict_relation_blocks",
    ("precontact", "restrict_clan_support"): "a clan restricts to a clan of such a subalgebra; "
    "test_precontact::test_clan_traces_restrict_to_clans",
    ("structures", "validate_s2s"): "the Stone 2-spaces of BBSV and GG are the duals of the "
    "total relations; test_correspondences::test_stone_two_space_iff_total_relation_triple",
    ("topology", "discrete_space"): "the finite Stone topology on the cells, read only by "
    "canonical_adjacency; test_topology::test_space_from_closed_base_discrete",
    ("topology", "clopens_of_subset"): "the clopens of the dense part, read only by closure_trace "
    "for the Gamma trace; test_fast_paths::test_clopen_and_rc_atoms_match_the_family_sweeps",
    ("topology", "point_trace"): "the sigma trace of a point is a grill; "
    "test_topology::test_grills_between_nu_and_sigma",
    ("topology", "interior_trace"): "the nu trace of a point is a filter inside its sigma "
    "trace; test_topology::test_interior_trace_is_filter_inside_sigma",
    ("topology", "closure_trace"): "the Gamma trace of a point, the clan it is sent to; "
    "test_topology::test_traces_fixture",
}


def test_every_public_function_has_a_reader_or_a_reason():
    sources = sorted(PACKAGE.glob("*.py"))
    others = sorted((ROOT / "benchmarks").rglob("*.py"))
    assert len(sources) > 10 and len(others) > 3
    assert unread_public_functions(sources, others) == sorted(READ_ONLY_BY_TESTS)
    # each reason ends with the tier-1 test that checks the function
    for reason in READ_ONLY_BY_TESTS.values():
        why, _, test = reason.rpartition("; ")
        module, _, name = test.partition("::")
        assert why and f"def {name}(" in (ROOT / "tests" / f"{module}.py").read_text(), reason


def test_the_rule_sees_public_functions_without_a_reader(tmp_path):
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
        "    return chained()\n"
        "def chained():\n"
        "    return deeper()\n"
        "def deeper():\n"
        "    return 3\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def attribute():\n"
        "    return 4\n"
        "def _private():\n"
        "    return 5\n"
        "def shadowed():\n"
        "    return 6\n"
        "def takes(shadowed):\n"
        "    return shadowed + sum(shadowed for shadowed in range(2))\n"
    )
    package.write_text("from .module import reexported\n")
    user.write_text(
        "import module\n"
        "from module import only_imported, used\n"
        "def local():\n"
        "    shadowed = 1\n"
        "    return (lambda: shadowed)()\n"
        "print(used(), module.attribute(), module.takes(0), local())\n"
    )
    assert unread_public_functions([module, package], [user]) == [
        ("module", "chained"),
        ("module", "deeper"),
        ("module", "only_imported"),
        ("module", "recursive"),
        ("module", "reexported"),
        ("module", "shadowed"),
    ]


def _forwarded_call(function):
    """The call ``g(...)``, with no keywords, when the body of
    ``function`` after its docstring is only ``return g(...)``; else
    None."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) == 1 and isinstance(body[0], ast.Return):
        call = body[0].value
        if isinstance(call, ast.Call) and not call.keywords:
            return call
    return None


def _root(node):
    """The name an attribute chain ``a.b.c`` starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def alias_functions(paths):
    """(file name, function name) of each module-level function whose
    body, after its docstring, is only ``return g(<its own parameters,
    in order>)``: another name for ``g``; and (file name,
    ``Class.method``) of each undecorated method whose body is only
    ``return self.<attributes>.g(<its other parameters, in order>)``:
    another name for a method its first parameter reaches; and (file
    name, ``Class.name``) of each class-body assignment ``name =
    method`` of a method the class defines, such as ``__add__ =
    join``."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = (ast.FunctionDef, ast.AsyncFunctionDef)
        functions = [(None, node) for node in tree.body if isinstance(node, defs)]
        functions += [
            (node.name, method)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for method in node.body
            if isinstance(method, defs) and not method.decorator_list
        ]
        for cls, node in functions:
            call = _forwarded_call(node)
            if call is None:
                continue
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            args = [a.id if isinstance(a, ast.Name) else None for a in call.args]
            if cls is None:
                forwards = args == params
            else:
                forwards = (
                    isinstance(call.func, ast.Attribute)
                    and params[:1] == [_root(call.func)]
                    and args == params[1:]
                )
            if forwards:
                out.append((path.name, node.name if cls is None else f"{cls}.{node.name}"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {m.name for m in node.body if isinstance(m, defs)}
            out += [
                (path.name, f"{node.name}.{target.id}")
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id in methods
                for target in stmt.targets
                if isinstance(target, ast.Name)
            ]
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
        "    def forward(self, a, b):\n"
        "        return self.inner.target(a, b)\n"
        "    def forward_swapped(self, a, b):\n"
        "        return self.inner.target(b, a)\n"
        "    def forward_partial(self, a):\n"
        "        return self.inner.target(a, 1)\n"
        "    def elsewhere(self, a):\n"
        "        return math.floor(a)\n"
        "    @property\n"
        "    def decorated(self):\n"
        "        return self.inner.value()\n"
        "    __call__ = method\n"
        "    rebound = target\n"
        "    constant = 3\n"
    )
    assert alias_functions([module]) == [
        ("module.py", "Shape.__call__"),
        ("module.py", "Shape.forward"),
        ("module.py", "alias"),
        ("module.py", "documented"),
    ]
