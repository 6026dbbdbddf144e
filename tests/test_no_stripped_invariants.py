"""Internal invariants must not depend on ``assert``, which ``python -O``
strips: the package raises ``InternalError`` instead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactlab"


def stripped_invariants(path):
    """Line numbers of ``assert`` statements and ``raise AssertionError``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "AssertionError":
                out.append(node.lineno)
    return sorted(out)


def test_package_has_no_assert_based_invariants():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    offenders = {
        path.name: lines for path in sources if (lines := stripped_invariants(path))
    }
    assert not offenders


def test_the_guard_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "assert True\n"
        "def f():\n"
        "    raise AssertionError('x')\n"
        "def g():\n"
        "    raise AssertionError\n"
    )
    assert stripped_invariants(sample) == [1, 3, 5]
