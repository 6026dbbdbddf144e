"""Canonical constructions computed once per immutable object.

Each cached construction must hand back the same object on a repeated
call, agree check for check with a recomputation on fresh, equal
objects, and keep the caller's copy of a mutable result apart from the
cache.  The dual triple of an algebra is held weakly: it must not
outlive its last holder, and must not stop an algebra from pickling.
"""

import copy
import gc
import pickle
import weakref

import pytest

from contactlab.boolean import BooleanHom
from contactlab.duality import (
    PcsMorphism,
    algebra_roundtrip_iso,
    check_naturality,
    dual_algebra_map,
    dual_space_map,
    gt_preimage_check,
)
from contactlab.precontact import PcaMorphism, clan_supports, pca_from_pairs
from contactlab.randgen import child_seed, random_pca_morphism
from contactlab.serialize import dumps, encode
from contactlab.structures import canonical_pcs_of_pca, pcs_algebra, validate_pcs
from contactlab.topology import FiniteSpace, pair_atoms

SIZES = ((3, 3), (4, 4), (5, 4), (4, 5), (5, 5))


def seeded_morphisms(count=10):
    return [
        random_pca_morphism(
            *SIZES[i % len(SIZES)], 0.3 + 0.05 * (i % 8), child_seed(20261017, i)
        )
        for i in range(count)
    ]


def fresh_pca(pca):
    return pca_from_pairs(pca.algebra.atom_count, pca.kernel.pairs)


def fresh_pca_morphism(phi):
    source, target = fresh_pca(phi.source), fresh_pca(phi.target)
    hom = BooleanHom(source.algebra, target.algebra, phi.hom.atom_map)
    return PcaMorphism(hom, source, target)


def fresh_pcs(pcs):
    return validate_pcs(pcs.space, pcs.subset, pcs.relation)


def fresh_pcs_morphism(f):
    return PcsMorphism(fresh_pcs(f.source), fresh_pcs(f.target), f.point_map)


def checks(report):
    return [(c.name, c.passed, c.witness) for c in report.checks]


@pytest.fixture
def phi():
    return seeded_morphisms(1)[0]


def test_repeated_calls_return_the_same_object(phi):
    triple = canonical_pcs_of_pca(phi.source)
    assert canonical_pcs_of_pca(phi.source) is triple
    assert pcs_algebra(triple) is pcs_algebra(triple)
    f = dual_space_map(phi)
    assert dual_space_map(phi) is f
    assert dual_algebra_map(f) is dual_algebra_map(f)
    # the dual map is built on the triples the algebras already share
    assert f.target is triple


def test_cached_results_match_a_recomputation_on_fresh_objects():
    for phi in seeded_morphisms():
        first = checks(check_naturality(phi))
        assert checks(check_naturality(phi)) == first
        fresh = fresh_pca_morphism(phi)
        assert fresh == phi and fresh is not phi
        assert checks(check_naturality(fresh)) == first
        assert dual_space_map(fresh).point_map == dual_space_map(phi).point_map

        f = dual_space_map(phi)
        first = checks(check_naturality(f))
        assert checks(check_naturality(f)) == first
        g = fresh_pcs_morphism(f)
        assert checks(check_naturality(g)) == first
        assert dual_algebra_map(g).hom.atom_map == dual_algebra_map(f).hom.atom_map
        members = pcs_algebra(f.target).members
        assert pcs_algebra(g.target).members == members
        for m in members:
            assert gt_preimage_check(g, m) == gt_preimage_check(f, m)


def test_clan_supports_hands_out_a_fresh_list():
    pca = pca_from_pairs(3, {(0, 1), (1, 2)})
    supports = clan_supports(pca)
    assert type(supports) is list
    expected = list(supports)
    supports.append(7)
    supports[0] = 0
    assert clan_supports(pca) == expected
    assert clan_supports(pca) is not clan_supports(pca)


def test_dual_triple_is_not_kept_alive_by_its_algebra(phi):
    pca = fresh_pca(phi.source)
    trip = algebra_roundtrip_iso(pca)
    assert trip.report.ok
    held = weakref.ref(trip.space)
    assert canonical_pcs_of_pca(pca) is trip.space
    del trip
    gc.collect()
    assert held() is None
    # rebuilt on demand, equal to the collected one
    assert canonical_pcs_of_pca(pca) == canonical_pcs_of_pca(fresh_pca(pca))


@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy]
)
def test_algebra_with_a_dual_triple_pickles_and_copies(phi, clone):
    pca = phi.source
    triple = canonical_pcs_of_pca(pca)
    supports = clan_supports(pca)
    twin = clone(pca)
    assert twin == pca and twin is not pca
    assert clan_supports(twin) == supports
    assert canonical_pcs_of_pca(twin) == triple
    assert canonical_pcs_of_pca(twin) is not triple
    # a morphism holding its dual map, and so the dual triples, clones too
    f = dual_space_map(phi)
    phi_twin = clone(phi)
    assert phi_twin == phi
    assert dual_space_map(phi_twin).point_map == f.point_map


@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy]
)
def test_a_space_keeps_its_base_out_of_sight(clone):
    """A canonical dual's space keeps its closed base and signatures as
    attributes, not fields: it equals and hashes like the space of its
    names and closures alone, with the same repr and the same encoded
    bytes, and a clone keeps the `validate_pcs` verdicts."""
    for phi in seeded_morphisms(4):
        for pca in (phi.source, phi.target):
            triple = canonical_pcs_of_pca(pca)
            space = triple.space
            plain = FiniteSpace(space.point_names, space.point_closures)
            assert space._base is pca._atom_clans
            assert space._signatures is pca._clan_supports
            assert space == plain and hash(space) == hash(plain)
            assert repr(space) == repr(plain)
            assert dumps(encode(space)) == dumps(encode(plain))
            plain_triple = validate_pcs(plain, triple.subset, triple.relation)
            assert dumps(encode(triple)) == dumps(encode(plain_triple))
            twin = clone(space)
            assert twin == space and twin._base == space._base
            again = validate_pcs(twin, triple.subset, triple.relation)
            assert checks(again) == checks(triple)
            assert pair_atoms(twin, triple.subset) == pair_atoms(space, triple.subset)
