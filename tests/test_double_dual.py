"""The double dual of a canonical dual is itself.

The canonical algebra of a triple is indexed by the clopen atoms of its
dense part, in the pair table's order (`topology.pair_atoms`).  On the
canonical dual T_A of an algebra A those are the ultrafilter clans, in
atom order, so the canonical algebra of T_A has A's own kernel rows, and
it is A itself: the dual of that algebra is T_A again, the space round
trip of T_A is the identity and the double dual of a morphism is the
morphism.  Checked on every kernel with at most 3 atoms and on seeded
kernels of 4 to 6 atoms, and on seeded morphisms of 1 to 5 atoms."""

import copy
import pickle

from contactlab import duality, structures
from contactlab.duality import (
    check_naturality,
    dual_algebra_map,
    dual_space_map,
    gt_preimage_check,
    space_roundtrip_iso,
)
from contactlab.precontact import pca_from_pairs
from contactlab.randgen import child_seed, random_pca_morphism
from contactlab.structures import canonical_pca_of_pcs, canonical_pcs_of_pca, pcs_algebra

from test_row_kernels import _population


def _algebras():
    """Fresh algebras on the kernels of `test_row_kernels`: every kernel
    on at most 3 atoms, then seeded kernels of 4 to 6 atoms."""
    return [pca_from_pairs(n, pairs) for n, pairs in _population()]


def _morphisms():
    """Seeded morphisms between algebras of 1 to 5 atoms."""
    return [
        random_pca_morphism(source, target, 0.2 + 0.1 * (i % 6), child_seed(97, i))
        for i, (source, target) in enumerate(
            (s, t) for s in range(1, 6) for t in range(1, 6) for _ in range(3)
        )
    ]


def test_the_canonical_algebra_of_a_dual_is_its_algebra():
    for pca in _algebras():
        triple = canonical_pcs_of_pca(pca)
        where = (pca.algebra.atom_count, sorted(pca.kernel.pairs))
        assert pcs_algebra(triple).pca is pca, where
        assert canonical_pcs_of_pca(canonical_pca_of_pcs(triple)) is triple, where
        points = triple.space.point_count
        assert space_roundtrip_iso(triple).point_map == tuple(range(points)), where


def test_the_double_dual_of_a_morphism_is_itself():
    for phi in _morphisms():
        twice = dual_algebra_map(dual_space_map(phi))
        assert twice == phi
        assert twice.source is phi.source and twice.target is phi.target


def test_a_copied_dual_keeps_its_canonical_algebra():
    """A pickled or deep-copied canonical triple, copied before or after
    its canonical algebra is read, equals the original and has an equal
    canonical algebra."""
    for pca in _algebras()[::7]:
        for read_first in (False, True):
            triple = canonical_pcs_of_pca(pca)
            if read_first:
                pcs_algebra(triple)
            for restored in (pickle.loads(pickle.dumps(triple)), copy.deepcopy(triple)):
                assert restored == triple
                assert pcs_algebra(restored) == pcs_algebra(triple)


def test_a_naturality_operation_builds_two_duals(monkeypatch):
    """Both naturality squares of a morphism, its dual space map and the
    preimage checks on every member of the dual's canonical algebra build
    the duals of its source and its target once each."""
    built = []
    build = structures._canonical_pcs

    def counted(pca):
        built.append(pca)
        return build(pca)

    monkeypatch.setattr(structures, "_canonical_pcs", counted)
    for phi in _morphisms()[::4]:
        built.clear()
        assert check_naturality(phi).ok
        f = dual_space_map(phi)
        assert check_naturality(f).ok
        assert all(gt_preimage_check(f, m).passed for m in pcs_algebra(f.target).members)
        assert sorted(map(id, built)) == sorted(map(id, (phi.source, phi.target)))


def test_a_naturality_operation_runs_no_round_trip_check(monkeypatch):
    """The benchmark's naturality operation on a seeded morphism: both
    squares, the dual space map and the preimage checks on every member.
    The squares read the unit maps, so neither round-trip check runs, and
    the morphism check runs twice: once for the dual space map, once for
    the dual of its dual algebra map in the space square."""
    counts = dict.fromkeys(("algebra_roundtrip_iso", "space_roundtrip_iso", "_is_valid_pcs_map"), 0)

    def counted(name):
        original = getattr(duality, name)

        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    for name in counts:
        monkeypatch.setattr(duality, name, counted(name))
    phi = random_pca_morphism(3, 4, 0.45, child_seed(20261020, 0))
    assert check_naturality(phi).ok
    f = dual_space_map(phi)
    assert check_naturality(f).ok
    assert all(gt_preimage_check(f, m).passed for m in pcs_algebra(f.target).members)
    assert counts == {"algebra_roundtrip_iso": 0, "space_roundtrip_iso": 0, "_is_valid_pcs_map": 2}
