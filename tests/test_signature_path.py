"""A space built from a closed base is read through its base and the
signatures of its points, sig(x) = {i : x in B_i}: cl{x} is the meet of
the B_i over sig(x), T0 is the signatures being distinct, and the
maximal points are those of minimal signature.  Each reader is compared
with the same space given by its point closures, the `_meets` of the
base, which takes the closure-table path; and the canonical paths are
run with `_meets` refused, so that they build no table of point
closures."""

import itertools
import random
import sys

import pytest

from contactlab.duality import (
    algebra_roundtrip_iso,
    check_naturality,
    dual_space_map,
    gt_preimage_check,
)
from contactlab.errors import DomainMismatchError
from contactlab.randgen import RandomSpec, child_seed, random_pca, random_pca_morphism
from contactlab.structures import canonical_pcs_of_pca, pcs_algebra
from contactlab.suite import instance_suite
from contactlab.topology import (
    FiniteSpace,
    _meets,
    clopen_atoms,
    closure,
    is_t0,
    pair_atoms,
    rc_atoms,
    space_from_closed_base,
)


def _reference(space, base):
    """The space given by the point closures of ``base``, the meets of
    its members holding each point: the closure-table path."""
    names = tuple(f"p{x}" for x in range(space.point_count))
    return FiniteSpace(names, tuple(_meets(space.point_count, base)))


def _assert_same_topology(space, reference, subsets):
    """Every signature-path reader of ``space`` against ``reference``:
    the closure of every point and of each subset, T0, the maximal
    points, the clopen atoms and the pair table of each subset and the
    atoms of RC(X)."""
    assert space._base is not None and reference._base is None
    n = reference.point_count
    assert space.point_count == n
    for x in range(n):
        assert closure(space, 1 << x) == reference.point_closures[x], x
    for mask in subsets:
        assert closure(space, mask) == closure(reference, mask), mask
        assert clopen_atoms(space, mask) == clopen_atoms(reference, mask), mask
        table, expected = pair_atoms(space, mask), pair_atoms(reference, mask)
        assert table.closures == expected.closures, mask
        assert tuple(table.support) == tuple(expected.support), mask
        assert (table.stone, table.closed_base) == (expected.stone, expected.closed_base), mask
    assert is_t0(space) == space.t0 == is_t0(reference)
    assert space.maximal_points == reference.maximal_points
    assert rc_atoms(space) == rc_atoms(reference)
    for outside in (reference.full_mask + 1, 1 << n, -1):
        with pytest.raises(DomainMismatchError):
            closure(space, outside)
    # the table derived on request is the reference's
    assert space.point_closures == reference.point_closures


def test_every_small_closed_base_reads_its_signatures():
    """Every family of at most 3 members over at most 4 points, the
    empty member, repeated members and members outside the points
    included, and every subset of its points."""
    for n in range(1, 5):
        masks = range(1 << (n + 1))
        for r in range(4):
            for base in itertools.combinations_with_replacement(masks, r):
                space = space_from_closed_base((f"p{x}" for x in range(n)), base)
                reference = _reference(space, base)
                _assert_same_topology(space, reference, range(reference.full_mask + 1))


def test_seeded_canonical_duals_read_their_signatures(monkeypatch):
    """Canonical duals of seeded 4- to 8-atom algebras, with and without
    the contact constraint: every point, the dense part, its complement,
    the whole space and seeded subsets."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    rng = random.Random(20261022)
    for n in range(4, 9):
        for i, density in enumerate((0.15, 0.5, 0.85)):
            for constraint in ("none", "contact"):
                spec = RandomSpec(
                    atoms=n, density=density, seed=child_seed(83, n * 10 + i), constraint=constraint
                )
                triple = canonical_pcs_of_pca(random_pca(spec))
                space = triple.space
                reference = _reference(space, space._base)
                full = reference.full_mask
                subsets = [triple.subset, full ^ triple.subset, full, 0]
                subsets += [rng.randrange(full + 1) for _ in range(6)]
                subsets += [
                    sum(1 << x for x in rng.sample(range(space.point_count), k))
                    for k in (1, 2, 3)
                    if k <= space.point_count
                ]
                _assert_same_topology(space, reference, subsets)


def _refuse(monkeypatch, name, what):
    """Make every `contactlab` module that binds ``name`` raise on a call
    to it."""

    def refuse(*args):
        raise AssertionError(f"{what} on the canonical path")

    for module_name, module in list(sys.modules.items()):
        in_package = module_name == "contactlab" or module_name.startswith("contactlab.")
        if in_package and hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)


def _run_canonical_paths(monkeypatch):
    """The suite of a seeded dense 8-atom contact algebra with the
    specializations on, the algebra round trip of a seeded algebra, both
    naturality squares of a seeded morphism and every preimage check of
    its dual space map."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "100000")
    pca = random_pca(RandomSpec(atoms=8, density=0.85, seed=20261022, constraint="contact"))
    report = instance_suite(pca)
    assert report.ok, report.failures
    assert report.check("specialization suite").passed
    roundtrip = algebra_roundtrip_iso(
        random_pca(RandomSpec(atoms=6, density=0.5, seed=child_seed(20261022, 1)))
    )
    assert roundtrip.report.ok, roundtrip.report.failures
    phi = random_pca_morphism(5, 4, 0.5, child_seed(20261022, 2))
    assert check_naturality(phi).ok
    f = dual_space_map(phi)
    assert check_naturality(f).ok
    assert all(gt_preimage_check(f, m).passed for m in pcs_algebra(f.target).members)


def test_canonical_paths_build_no_point_closures(monkeypatch):
    """The canonical paths with `_meets` refused."""
    _refuse(monkeypatch, "_meets", "a table of point closures")
    _run_canonical_paths(monkeypatch)


def test_canonical_paths_take_no_clopen_atoms(monkeypatch):
    """The canonical paths with `clopen_atoms` refused: every pair they
    read is a dense part whose table is read off the signatures."""
    _refuse(monkeypatch, "clopen_atoms", "a clopen-atom pass")
    _run_canonical_paths(monkeypatch)
