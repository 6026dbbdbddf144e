import itertools

import pytest

from contactlab import duality
from contactlab.boolean import FiniteBooleanAlgebra, hom_from_atom_map
from contactlab.adjacency import AdjacencySpace
from contactlab.duality import (
    PcsMorphism,
    algebra_roundtrip_iso,
    canonical_kernel_form,
    check_naturality,
    compose_pcs_morphisms,
    dense_part,
    dense_part_map,
    dual_algebra_map,
    dual_space_map,
    enumerate_pca_morphisms,
    enumerate_pcs_morphisms,
    gmcs_hom_check,
    gt_preimage_check,
    identity_pcs_morphism,
    pca_isomorphic,
    pcs_from_stone_adjacency,
    pcs_iso_report,
    pcs_isomorphic,
    space_roundtrip_iso,
    specialization_report,
)
from contactlab.errors import ClassificationError, PreconditionError
from contactlab.precontact import (
    PcaMorphism,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
)
from contactlab import structures
from contactlab.structures import (
    TwoPrecontactSpace,
    canonical_pca_of_pcs,
    canonical_pcs_of_pca,
    pcs_algebra,
    validate_cs,
)
from contactlab.topology import discrete_space, is_connected

from conftest import all_kernels
from oracles import oracle_pcs_map_failure


def small_algebras():
    out = []
    for n in (1, 2):
        for pairs in all_kernels(n):
            out.append(pca_from_pairs(n, pairs))
    return out


# ---------------------------------------------------------------------------
# functors on objects


def test_dual_space_objects(b4, path_pca):
    assert canonical_pcs_of_pca(smallest_contact(b4)).space == discrete_space(("c0", "c1"))
    assert canonical_pcs_of_pca(largest_contact(b4)).space.point_count == 3
    assert canonical_pcs_of_pca(path_pca).space.point_count == 5


def test_dual_algebra_round_trip_on_path_kernel(path_pca):
    rebuilt = canonical_pca_of_pcs(canonical_pcs_of_pca(path_pca))
    assert pca_isomorphic(path_pca, rebuilt) is not None


# ---------------------------------------------------------------------------
# functors on morphisms


def test_dual_space_map_example(b4, b2):
    phi = PcaMorphism(
        hom_from_atom_map(b4, b2, (0,)), smallest_contact(b4), smallest_contact(b2)
    )
    f = dual_space_map(phi)
    # the one clan of the one-atom algebra pulls back to the c0 clan
    assert f.point_map == (0,)


def test_dual_space_map_identity(b4):
    rho = largest_contact(b4)
    ident = PcaMorphism(hom_from_atom_map(b4, b4, (0, 1)), rho, rho)
    f = dual_space_map(ident)
    assert f.point_map == tuple(range(3))


def test_dual_space_map_collapsing_example(b4, b2):
    phi = PcaMorphism(
        hom_from_atom_map(b4, b2, (0,)), largest_contact(b4), largest_contact(b2)
    )
    f = dual_space_map(phi)
    # the single clan of the one-atom algebra pulls back to the c0 clan
    assert f.source.space.point_count == 1
    assert f.point_map == (0,)


def test_space_roundtrip_on_one_point_triple(b2):
    one = canonical_pcs_of_pca(smallest_contact(b2))
    t = space_roundtrip_iso(one)
    assert t.point_map == (0,)
    assert pcs_iso_report(t).ok


def test_dual_algebra_map_constant_to_point(xl_space):
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    one = canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(1)))
    constant = PcsMorphism(xl, one, (0, 0, 0))
    psi = dual_algebra_map(constant)
    # the terminal map pulls the point back to the whole space
    assert psi.hom.apply_mask(0) == 0
    assert psi.hom.apply_mask(1) == psi.hom.target.full_mask


def test_dual_algebra_map_identity(xl_space):
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    psi = dual_algebra_map(identity_pcs_morphism(xl))
    for m in range(psi.hom.source.size):
        assert psi.hom.apply_mask(m) == m


def test_functoriality_on_composable_pairs():
    algebras = small_algebras()
    checked = 0
    for a in algebras[::3]:
        for b in algebras[::5]:
            for c in algebras[::7]:
                for phi in enumerate_pca_morphisms(a, b):
                    for psi in enumerate_pca_morphisms(b, c):
                        from contactlab.boolean import compose_homs

                        composite = PcaMorphism(
                            compose_homs(psi.hom, phi.hom), a, c
                        )
                        left = dual_space_map(composite)
                        right = compose_pcs_morphisms(
                            dual_space_map(phi), dual_space_map(psi)
                        )
                        assert left.point_map == right.point_map
                        checked += 1
    assert checked > 50


def test_gt_functoriality_on_pcs_morphisms():
    s_small = canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(2)))
    s_large = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    for f in enumerate_pcs_morphisms(s_small, s_large):
        for g in enumerate_pcs_morphisms(s_large, s_small):
            both = compose_pcs_morphisms(g, f)
            left = dual_algebra_map(both)
            right_inner = dual_algebra_map(g)
            right_outer = dual_algebra_map(f)
            from contactlab.boolean import compose_homs

            composed = compose_homs(right_outer.hom, right_inner.hom)
            assert composed.atom_map == left.hom.atom_map


# ---------------------------------------------------------------------------
# round-trip isomorphisms


def test_algebra_roundtrip_exhaustive_small(kernels_upto_2):
    for n, pairs in kernels_upto_2:
        trip = algebra_roundtrip_iso(pca_from_pairs(n, pairs))
        assert trip.report.ok, (n, sorted(pairs), trip.report.failures)


def test_algebra_roundtrip_exhaustive_3_atoms(kernels_3):
    for pairs in kernels_3:
        trip = algebra_roundtrip_iso(pca_from_pairs(3, pairs))
        assert trip.report.ok
        assert pcs_iso_report(space_roundtrip_iso(trip.space)).ok


def test_algebra_roundtrip_images_fixture(b4, path_pca):
    trip = algebra_roundtrip_iso(largest_contact(b4))
    # the first atom lands on the clans containing it: c0 and c0-1
    assert trip.image_of(0b01) == 0b101
    assert trip.image_of(0b11) == 0b111
    path_trip = algebra_roundtrip_iso(path_pca)
    # the last atom lands on the clans c2 and c1-2 (points 2 and 4)
    assert path_trip.image_of(0b100) == 0b10100
    assert path_trip.image_of(0b111) == 0b11111


def test_space_roundtrip_iso_fixture(xl_space):
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    t = space_roundtrip_iso(xl)
    assert pcs_iso_report(t).ok
    # the closed point has the two-atom trace
    assert t.point_map[2] == 2


def test_space_roundtrip_iso_on_canonical_duals(kernels_3):
    for pairs in list(kernels_3)[::13]:
        triple = canonical_pcs_of_pca(pca_from_pairs(3, pairs))
        t = space_roundtrip_iso(triple)
        assert pcs_iso_report(t).ok


# ---------------------------------------------------------------------------
# naturality


def test_naturality_full_hom_sets_small():
    algebras = small_algebras()
    total = 0
    for a in algebras:
        for b in algebras:
            for phi in enumerate_pca_morphisms(a, b):
                assert check_naturality(phi).ok
                total += 1
    assert total == 502


def test_naturality_for_space_morphisms():
    spaces = [
        canonical_pcs_of_pca(pca_from_pairs(2, pairs)) for pairs in all_kernels(2)
    ]
    seen = 0
    for s in spaces[::3]:
        for t in spaces[::5]:
            for f in enumerate_pcs_morphisms(s, t):
                assert check_naturality(f).ok
                seen += 1
    assert seen > 20


def test_gt_acts_as_preimage():
    s = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    t = canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(1)))
    for f in enumerate_pcs_morphisms(s, t):
        alg = pcs_algebra(f.target)
        for member in alg.members:
            assert gt_preimage_check(f, member).passed


# ---------------------------------------------------------------------------
# the adjacency reduct


def test_dense_part_of_xl():
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    reduct = dense_part(xl)
    assert reduct.cells == ("c0", "c1")
    assert reduct.pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert reduct.is_stone_adjacency


def test_dense_part_of_discrete():
    disc = canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(2)))
    reduct = dense_part(disc)
    assert reduct.pairs == {(0, 0), (1, 1)}


def test_restriction_determines_morphism():
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    morphisms = enumerate_pcs_morphisms(xl, xl)
    by_restriction = {}
    for f in morphisms:
        key = dense_part_map(f)
        assert key not in by_restriction, "two morphisms share a restriction"
        by_restriction[key] = f


def test_enumeration_checks_each_candidate_map_once(monkeypatch):
    """One validity check per candidate point map, made as the morphism
    is built: 27 between the 3-point triples of the largest contact on
    two atoms, 4 between the 2-point triples of the smallest, and the
    morphisms are the maps the literal conditions accept."""
    calls = []
    checked = duality._is_valid_pcs_map

    def counted(source, target, point_map):
        calls.append(point_map)
        return checked(source, target, point_map)

    monkeypatch.setattr(duality, "_is_valid_pcs_map", counted)
    b2 = FiniteBooleanAlgebra(2)
    for pca, expected_calls in ((largest_contact(b2), 27), (smallest_contact(b2), 4)):
        triple = canonical_pcs_of_pca(pca)
        calls.clear()
        found = [f.point_map for f in enumerate_pcs_morphisms(triple, triple)]
        assert len(calls) == expected_calls
        side = (triple.space.point_closures, triple.subset, triple.relation)
        n = triple.space.point_count
        literal = [
            pm
            for pm in itertools.product(range(n), repeat=n)
            if oracle_pcs_map_failure(side, side, pm) is None
        ]
        assert found == literal


def test_reconstruction_from_stone_adjacency(xl_space):
    total = AdjacencySpace(("a", "b"), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
                           discrete_space(("a", "b")))
    triple, report = pcs_from_stone_adjacency(total)
    assert report.ok
    assert triple.space.point_closures == xl_space.point_closures

    diag = AdjacencySpace(("a", "b"), frozenset({(0, 0), (1, 1)}),
                          discrete_space(("a", "b")))
    triple2, report2 = pcs_from_stone_adjacency(diag)
    assert report2.ok
    assert triple2.space == discrete_space(("c0", "c1"))

    path = AdjacencySpace(("a", "b", "c"), frozenset({(0, 1), (1, 2)}),
                          discrete_space(("a", "b", "c")))
    triple3, report3 = pcs_from_stone_adjacency(path)
    assert report3.ok
    assert triple3.space.point_count == 5


def test_iso_and_reconstruction_failures_name_witnesses(disc2, sierpinski, monkeypatch):
    """Break each check on purpose: a continuous bijection onto the
    Sierpinski space, a bijection onto a larger relation, and a
    reconstruction whose triple fails (PCS1)."""
    plain = TwoPrecontactSpace(disc2, 0b11, frozenset())
    onto_sierpinski = PcsMorphism(
        plain, TwoPrecontactSpace(sierpinski, 0b11, frozenset()), (0, 1)
    )
    onto_larger = PcsMorphism(
        plain, TwoPrecontactSpace(disc2, 0b11, frozenset({(0, 1)})), (0, 1)
    )
    assert (
        pcs_iso_report(onto_sierpinski).check("homeomorphism").witness
        == "the closure of b does not transfer"
    )
    assert (
        pcs_iso_report(onto_larger).check("relation preserved and reflected").witness
        == "(a,b) is not reflected"
    )

    monkeypatch.setattr(structures, "is_t0", lambda space: False)
    diag = AdjacencySpace(("a", "b"), frozenset({(0, 0), (1, 1)}),
                          discrete_space(("a", "b")))
    _, report = pcs_from_stone_adjacency(diag)
    assert report.check("triple validates").witness == "(PCS1) dense=True, T0=False"


def test_reconstruction_uniqueness_against_candidate():
    total = AdjacencySpace(("a", "b"), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    candidate = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    _, report = pcs_from_stone_adjacency(total, candidate)
    assert report.ok


def test_pcs_isomorphic_detects_mismatch():
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    disc = canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(2)))
    assert pcs_isomorphic(xl, disc) is None
    assert pcs_isomorphic(xl, xl) is not None


def test_pca_isomorphic_up_to_permutation():
    a = pca_from_pairs(3, {(0, 1), (1, 2)})
    b = pca_from_pairs(3, {(2, 1), (1, 0)})
    perm = pca_isomorphic(a, b)
    assert perm is not None
    assert canonical_kernel_form(a) == canonical_kernel_form(b)
    c = pca_from_pairs(3, {(0, 1), (2, 1)})
    assert pca_isomorphic(a, c) is None


def test_every_canonical_dual_is_complete(kernels_upto_2, kernels_3):
    # finite algebras are all complete, so the regular closed sets of the
    # dual must all arise from the pair, for every kernel
    from contactlab.topology import rc_members, rc_members_of_subset

    for n, pairs in list(kernels_upto_2) + [(3, k) for k in kernels_3]:
        triple = canonical_pcs_of_pca(pca_from_pairs(n, pairs))
        assert frozenset(rc_members(triple.space)) == frozenset(
            rc_members_of_subset(triple.space, triple.subset)
        )


# ---------------------------------------------------------------------------
# hom-set bijection


def test_hom_set_bijection_small():
    algebras = small_algebras()
    for a in algebras[::3]:
        for b in algebras[::5]:
            n_pca = len(enumerate_pca_morphisms(a, b))
            n_pcs = len(enumerate_pcs_morphisms(canonical_pcs_of_pca(b), canonical_pcs_of_pca(a)))
            assert n_pca == n_pcs, (a.kernel.pairs, b.kernel.pairs)


# ---------------------------------------------------------------------------
# specializations


def test_specialization_reports(b4, path_pca):
    assert specialization_report(smallest_contact(b4)).ok
    assert specialization_report(largest_contact(b4)).ok
    assert specialization_report(path_pca).ok
    assert specialization_report(largest_contact(b4), which="connected-stone").ok
    assert specialization_report(smallest_contact(b4), which="stone").ok


def test_specialization_membership_errors(b4, path_pca):
    with pytest.raises(ClassificationError):
        specialization_report(largest_contact(b4), which="stone")
    with pytest.raises(ClassificationError):
        specialization_report(path_pca, which="contact")
    with pytest.raises(ClassificationError):
        specialization_report(smallest_contact(b4), which="connected")


def test_connectedness_correspondence(b4):
    assert not smallest_contact(b4).axioms.ccon
    assert not is_connected(canonical_pcs_of_pca(smallest_contact(b4)).space)
    assert largest_contact(b4).axioms.ccon
    assert is_connected(canonical_pcs_of_pca(largest_contact(b4)).space)


def test_gmcs_preimage_hom(b4):
    xl = canonical_pcs_of_pca(largest_contact(b4))
    cs = validate_cs(xl.space, xl.subset)
    one_triple = canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(1)))
    one = validate_cs(one_triple.space, one_triple.subset)
    report = gmcs_hom_check(cs, one, (0, 0, 0))
    assert report.ok


def test_pcs_morphism_constructor_rejects_incoherent_maps():
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    # continuous, dense-preserving, relation-preserving, but moving the
    # closed point independently of the dense restriction
    with pytest.raises(PreconditionError):
        PcsMorphism(xl, xl, (0, 0, 2))
    PcsMorphism(xl, xl, (0, 0, 0))
