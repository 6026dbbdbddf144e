"""The passing path builds no text.

A canonical dual names its points by their clan supports only when a
caller reads the names (`structures._clan_name`), and a passing check
formats no witness: with `FiniteSpace.name_set` and
`CheckList.failure_summary` made to raise, the round trip, the instance
suite with its specializations and both naturality squares still pass,
and no canonical dual holds its names afterwards.  The derived names
are compared with the prefix recursion of ``oracles.py``, and an unread
dual with a space built eagerly from the same names and closures."""

import copy
import pickle

import pytest

from contactlab.duality import (
    algebra_roundtrip_iso,
    check_naturality,
    dual_space_map,
    gt_preimage_check,
)
from contactlab.precontact import clan_supports, pca_from_pairs
from contactlab.randgen import RandomSpec, child_seed, random_pca, random_pca_morphism
from contactlab.report import CheckList
from contactlab.serialize import encode
from contactlab.structures import canonical_pcs_of_pca, pcs_algebra
from contactlab.suite import instance_suite
from contactlab.topology import FiniteSpace, discrete_space

from conftest import all_kernels
from oracles import oracle_prefix_names, subspace


def _population(seed, counts):
    """Every kernel on at most 3 atoms, then seeded kernels of the given
    atom counts over the densities of `contactlab suite`."""
    out = [pca_from_pairs(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    for n, count in counts.items():
        for i in range(count):
            density = (0.15, 0.3, 0.5, 0.7, 0.85)[i % 5]
            out.append(random_pca(RandomSpec(n, density, child_seed(seed, 100 * n + i))))
    return out


def _holds_names(space):
    return "point_names" in vars(space)


def test_derived_names_match_the_prefix_recursion():
    for pca in _population(31, {4: 10, 5: 6, 6: 4}):
        space = canonical_pcs_of_pca(pca).space
        assert not _holds_names(space)
        names = oracle_prefix_names(clan_supports(pca))
        assert space.point_names == names, sorted(pca.kernel.pairs)
        assert _holds_names(space)
        # a subspace is named, and closed, as on the eagerly named space
        eager = FiniteSpace(names, space.point_closures)
        dense = canonical_pcs_of_pca(pca).subset
        for mask in {dense, space.full_mask, space.full_mask ^ dense, space.full_mask >> 1}:
            assert subspace(space, mask) == subspace(eager, mask), (sorted(pca.kernel.pairs), mask)


def test_existing_name_pins_hold():
    space = canonical_pcs_of_pca(pca_from_pairs(2, {(0, 0), (1, 1)})).space
    assert space == discrete_space(("c0", "c1"))
    assert canonical_pcs_of_pca(pca_from_pairs(2, {(0, 1)})).space.point_names == (
        "c0",
        "c1",
        "c0-1",
    )


@pytest.mark.parametrize("seed", range(6))
def test_an_unread_dual_is_the_eager_space(seed):
    """Equality, hash, repr, pickling, deepcopy and encode of a dual whose
    names were never read match a `FiniteSpace` built eagerly from the
    same names and closures."""
    pca = random_pca(RandomSpec(3 + seed % 3, (0.2, 0.5, 0.8)[seed % 3], child_seed(43, seed)))

    def unread():
        """The dual of a fresh copy of the algebra, so no read is shared."""
        fresh = pca_from_pairs(pca.algebra.atom_count, pca.kernel.pairs)
        space = canonical_pcs_of_pca(fresh).space
        assert not _holds_names(space)
        return space

    names = oracle_prefix_names(clan_supports(pca))
    eager = FiniteSpace(names, unread().point_closures)
    assert unread() == eager and eager == unread()
    assert hash(unread()) == hash(eager)
    assert repr(unread()) == repr(eager)
    assert encode(unread()) == encode(eager)
    for restored in (pickle.loads(pickle.dumps(unread())), copy.deepcopy(unread())):
        assert restored == eager and restored.point_names == names
        assert repr(restored) == repr(eager)


def _spy_on_duals(monkeypatch):
    """The spaces built from now on whose names are derived by a rule."""
    built = []
    make = FiniteSpace._of_closed_base.__func__

    def spy(cls, point_names, *args):
        space = make(cls, point_names, *args)
        if callable(point_names):
            built.append(space)
        return space

    monkeypatch.setattr(FiniteSpace, "_of_closed_base", classmethod(spy))
    return built


def _refuse_text(monkeypatch):
    def refuse(*args):
        raise AssertionError("text built on the passing path")

    monkeypatch.setattr(FiniteSpace, "name_set", refuse)
    monkeypatch.setattr(CheckList, "failure_summary", refuse)


def test_the_round_trip_builds_no_text(monkeypatch):
    population = _population(53, {3: 10, 4: 10, 5: 10})
    built = _spy_on_duals(monkeypatch)
    _refuse_text(monkeypatch)
    kept = [algebra_roundtrip_iso(pca) for pca in population]
    assert all(trip.report.ok for trip in kept)
    assert len(built) == len(population)
    assert not any(_holds_names(space) for space in built)


def test_the_instance_suite_builds_no_text(monkeypatch):
    """Seeded 6-atom kernels, contact ones among them, so that duals of at
    most 12 points run every specialization, complete-contact and
    mereocompact included."""
    cases = [
        random_pca(RandomSpec(6, density, child_seed(67, i), constraint))
        for i, (density, constraint) in enumerate(
            (d, c) for c in ("none", "contact") for d in (0.1, 0.15, 0.3, 0.5, 0.85)
        )
    ]
    built = _spy_on_duals(monkeypatch)
    _refuse_text(monkeypatch)
    reports = [instance_suite(pca) for pca in cases]
    assert all(report.ok for report in reports)
    deep = [
        pca
        for pca, report in zip(cases, reports)
        if "specialization suite" in [c.name for c in report.checks]
    ]
    assert any(pca.axioms.is_contact for pca in deep) and len(deep) < len(cases)
    assert built and not any(_holds_names(space) for space in built)


def test_the_naturality_operation_builds_no_text(monkeypatch):
    morphisms = [
        random_pca_morphism(s, t, 0.3 + 0.05 * (i % 8), child_seed(71, i))
        for i, (s, t) in enumerate(((3, 3), (4, 4), (5, 4), (4, 5), (5, 5)) * 4)
    ]
    built = _spy_on_duals(monkeypatch)
    _refuse_text(monkeypatch)
    for phi in morphisms:
        assert check_naturality(phi).ok
        f = dual_space_map(phi)
        assert check_naturality(f).ok
        assert all(gt_preimage_check(f, m).passed for m in pcs_algebra(f.target).members)
    assert built and not any(_holds_names(space) for space in built)
