"""Validators, the axiom flags, the Stone report and the
C-semiregularity predicates decide past every budget width, under the
default budgets: none of them builds a family of 2**n sets.

The realization checks read the clique walk only up to its first
unrealized clique, at most point count + 1 cliques
(`first_unrealized_support`), so a discrete space of 40 points, whose
overlap algebra has 2**40 - 1 clans under the complete relation, is
decided at once."""

import json
import time
from itertools import islice

import pytest

from contactlab.adjacency import stone_representation_report
from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.cli import main
from contactlab.precontact import (
    axiom_report,
    clique_supports,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
)
from contactlab.randgen import RandomSpec, random_pca
from contactlab.serialize import dumps, encode
from contactlab.structures import mereocompactness_report, validate_cs, validate_pcs
from contactlab.topology import discrete_space, rc_algebra

BUDGET_VARIABLES = ("CONTACTLAB_ATOM_LIMIT", "CONTACTLAB_ENUM_LIMIT", "CONTACTLAB_POINT_LIMIT")


@pytest.fixture(autouse=True)
def default_budgets(monkeypatch):
    for name in BUDGET_VARIABLES:
        monkeypatch.delenv(name, raising=False)


def _discrete(count):
    return discrete_space(f"p{i}" for i in range(count))


def _complete(count):
    return frozenset((x, y) for x in range(count) for y in range(count))


@pytest.mark.parametrize("count", [7, 20, 40])
def test_validate_pcs_decides_wide_discrete_spaces(count):
    """The empty relation is a valid triple.  Under the complete relation
    every pair of clopen atoms is a clan, and only the singletons are
    point supports: (PCS5) alone fails, on the first pair."""
    space = _discrete(count)
    assert validate_pcs(space, space.full_mask, frozenset()).ok
    start = time.perf_counter()
    triple = validate_pcs(space, space.full_mask, _complete(count))
    elapsed = time.perf_counter() - start
    assert [c.name for c in triple.failures] == ["(PCS5)"]
    assert triple.check("(PCS5)").witness == "unrealized clan support {{p0},{p1}}"
    assert elapsed < 0.05, elapsed


def test_pair_predicates_decide_a_40_point_discrete_space():
    space = _discrete(40)
    cs = validate_cs(space, space.full_mask)
    assert cs.ok and cs.check("(CS4)").passed
    report = mereocompactness_report(rc_algebra(space))
    assert report.ok and report.is_t0 and report.is_mereocompact


def _wide_kernels():
    n = 16
    algebra = FiniteBooleanAlgebra(n)
    yield smallest_contact(algebra)
    yield largest_contact(algebra)
    yield pca_from_pairs(n, {(p, p + 1) for p in range(n - 1)})
    yield pca_from_pairs(n, {(p, q) for p in range(n) for q in range(p, n)})
    for i, density in enumerate((0.05, 0.2, 0.5)):
        for constraint in ("none", "contact"):
            yield random_pca(RandomSpec(n, density, seed=90 + i, constraint=constraint))


def test_axiom_flags_and_stone_report_decide_16_atom_kernels():
    """The (Cref), (Csym) and (Ctr) flags against the kernel's own pair
    properties, and the Stone report on the same kernels."""
    for pca in _wide_kernels():
        flags = axiom_report(pca)
        kernel = pca.kernel
        assert flags.cref == kernel.is_reflexive
        assert flags.csym == kernel.is_symmetric
        assert flags.ctr == kernel.is_transitive
        assert stone_representation_report(pca).ok


class _ReadLimitedRows(list):
    """Adjacency rows that fail the test when more than ``limit`` of them
    are read: the walk reads one row per clique it grows."""

    def __init__(self, rows, limit):
        super().__init__(rows)
        self.reads = 0
        self.limit = limit

    def __getitem__(self, index):
        self.reads += 1
        assert self.reads <= self.limit, "the walk grew cliques no reader asked for"
        return super().__getitem__(index)


def test_clique_walk_is_read_lazily():
    """On the complete 40-atom adjacency the walk yields the 40 singletons
    and then the clique {0, 1}, growing no clique past those read."""
    n = 40
    adj = _ReadLimitedRows([(1 << n) - 1] * n, limit=n + 1)
    assert list(islice(clique_supports(adj), n + 1)) == [1 << p for p in range(n)] + [0b11]


def test_cli_validates_wide_instances(tmp_path, capsys):
    pca_path = tmp_path / "pca10.json"
    pca_path.write_text(dumps(encode(random_pca(RandomSpec(10, 0.3, seed=5)))))
    assert main(["validate", str(pca_path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True

    space = _discrete(20)
    pcs_path = tmp_path / "pcs20.json"
    pcs_path.write_text(dumps(encode(validate_pcs(space, space.full_mask, _complete(20)))))
    assert main(["validate", str(pcs_path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    fifth = [c for c in checks if c["name"] == "(PCS5)"][0]
    assert fifth["pass"] is False
    assert fifth["witness"] == "unrealized clan support {{p0},{p1}}"
