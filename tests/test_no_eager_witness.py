"""A passing check formats no witness.

`ReportBuilder.add` drops the witness of a passing check, so any text
built for it is thrown away.  Every ``.add(`` call in the package with a
witness argument, positional or ``witness=``, is collected by AST, and
the argument must be a constant, a name, or a conditional expression
whose test is the check's verdict and whose passing branch is
``None``: ``None if ok else ...``, or ``... if broken else None`` for
the verdict ``not broken``.  Anything else is evaluated before ``add``
sees the verdict."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _same(a, b):
    return ast.dump(a) == ast.dump(b)


def _lazy(verdict, witness):
    """Is ``witness`` built only when ``verdict`` is false?"""
    if isinstance(witness, (ast.Constant, ast.Name)):
        return True
    if not isinstance(witness, ast.IfExp) or verdict is None:
        return False
    if _same(witness.test, verdict):
        return _is_none(witness.body)
    negated = isinstance(verdict, ast.UnaryOp) and isinstance(verdict.op, ast.Not)
    return negated and _same(witness.test, verdict.operand) and _is_none(witness.orelse)


def _argument(call, position, keyword):
    """The argument at ``position`` or named ``keyword``; a starred
    argument at or before the position hides it, and counts as given."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return arg
        if i == position:
            return arg
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def eager_witnesses(paths):
    """(file name, line) of each ``.add(`` call whose witness argument
    may be built when the check passes."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
            ):
                continue
            witness = _argument(node, 2, "witness")
            if witness is None:
                continue
            verdict = _argument(node, 1, "passed")
            if isinstance(verdict, ast.Starred) or not _lazy(verdict, witness):
                out.append((path.name, node.lineno))
    return sorted(out)


def test_no_passing_check_formats_a_witness():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    assert eager_witnesses(sources) == []


def test_the_lint_sees_every_witness_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(report, ok, broken, why, pair):\n"
        "    seen = set()\n"
        "    seen.add(ok)\n"
        "    report.add('a', ok)\n"
        "    report.add('b', ok, 'constant')\n"
        "    report.add('c', ok, why)\n"
        "    report.add('d', ok, None if ok else f'{why}')\n"
        "    report.add('e', not broken, f'{why}' if broken else None)\n"
        "    report.add('f', ok, witness=None if ok else why.upper())\n"
        "    report.add('g', ok, f'map {pair}')\n"
        "    report.add('h', ok, witness=why.failure_summary(' '))\n"
        "    report.add('i', ok, None if broken else why)\n"
        "    report.add('j', ok, why if ok else None)\n"
        "    report.add('k', not broken, None if broken else why)\n"
        "    report.add('l', ok, why.upper() if why is not None else 'x')\n"
        "    report.add('m', *pair)\n"
        "    report.add('n', *pair, why)\n"
        "    report.add(name='o', passed=ok, witness=str(pair))\n"
    )
    assert eager_witnesses([sample]) == [("sample.py", line) for line in range(10, 19)]
