import itertools

import pytest

from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.errors import (
    DomainMismatchError,
    PreconditionError,
    ValidationError,
)
from contactlab.precontact import (
    contact_closure,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
)
from contactlab.structures import (
    canonical_cs_of_ca,
    canonical_pca_of_pcs,
    canonical_pcs_of_pca,
    contact_relation_of_pair,
    element_point_mask,
    mereocompactness_report,
    pcs_algebra,
    validate_cs,
    validate_pcs,
    validate_s2s,
)
from contactlab.topology import (
    MereotopologicalPair,
    closed_sets,
    discrete_space,
    rc_members,
)

# ---------------------------------------------------------------------------
# 2-precontact validation


def test_validate_pcs_fixture_passes(xl_space):
    triple = validate_pcs(
        xl_space, 0b011, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    )
    assert triple.ok
    assert [c.name for c in triple.checks] == [
        "(PCS1)", "(PCS2)", "(PCS3)", "(PCS4)", "(PCS5)",
    ]


def test_validate_pcs_diagonal_fails_fourth_axiom(xl_space):
    triple = validate_pcs(xl_space, 0b011, frozenset({(0, 0), (1, 1)}))
    assert not triple.ok
    failed = triple.failures
    assert [c.name for c in failed] == ["(PCS4)"]
    assert failed[0].witness == "({g1},{g2})"


def test_validate_pcs_discrete_diagonal_passes(disc2):
    triple = validate_pcs(disc2, 0b11, frozenset({(0, 0), (1, 1)}))
    assert triple.ok


def test_validate_pcs_rejects_relation_outside_subset(xl_space):
    with pytest.raises(DomainMismatchError):
        validate_pcs(xl_space, 0b011, frozenset({(0, 2)}))


def test_validate_pcs_reports_density_failure(disc2):
    triple = validate_pcs(disc2, 0b01, frozenset({(0, 0)}))
    verdicts = {c.name: c.passed for c in triple.checks}
    assert not verdicts["(PCS1)"]


def test_empty_relation_on_one_point_is_valid():
    one = discrete_space(("u",))
    triple = validate_pcs(one, 0b1, frozenset())
    assert triple.ok


# ---------------------------------------------------------------------------
# canonical constructions


def test_canonical_triple_of_smallest_contact(b4):
    triple = canonical_pcs_of_pca(smallest_contact(b4))
    assert triple.space == discrete_space(("c0", "c1"))
    assert triple.subset == triple.space.full_mask
    assert triple.relation == {(0, 0), (1, 1)}
    assert triple.ok


def test_canonical_triple_of_largest_contact(b4, xl_space):
    triple = canonical_pcs_of_pca(largest_contact(b4))
    assert triple.space.point_closures == xl_space.point_closures
    assert triple.subset == 0b011
    assert triple.relation == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert triple.ok


def test_canonical_triple_of_path_kernel(path_pca):
    triple = canonical_pcs_of_pca(path_pca)
    assert triple.space.point_count == 5
    assert triple.subset.bit_count() == 3
    assert triple.ok


def test_canonical_triple_rejects_degenerate():
    with pytest.raises(PreconditionError):
        canonical_pcs_of_pca(pca_from_pairs(0, frozenset()))


def test_canonical_triple_validates_exhaustively(kernels_upto_2, kernels_3):
    for n, pairs in list(kernels_upto_2) + [(3, k) for k in kernels_3]:
        triple = canonical_pcs_of_pca(pca_from_pairs(n, pairs))
        assert triple.ok, (n, sorted(pairs), triple.failures)


def test_element_point_mask_additivity(kernels_3):
    # the clan-set map turns joins into unions and reaches the whole
    # space at the top
    for pairs in list(kernels_3)[::11]:
        pca = pca_from_pairs(3, pairs)
        size = pca.algebra.size
        for a in range(size):
            for b in range(size):
                assert element_point_mask(pca, a | b) == (
                    element_point_mask(pca, a) | element_point_mask(pca, b)
                )
        assert element_point_mask(pca, 0) == 0


def test_canonical_algebra_of_xl_triple(xl_space):
    triple = validate_pcs(
        xl_space, 0b011, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    )
    alg = pcs_algebra(triple)
    assert alg.pca.algebra.atom_count == 2
    assert alg.pca.kernel.pairs == largest_contact(alg.pca.algebra).kernel.pairs
    assert alg.members == (0, 0b101, 0b110, 0b111)


def test_canonical_algebra_of_discrete_diagonal(disc2):
    triple = validate_pcs(disc2, 0b11, frozenset({(0, 0), (1, 1)}))
    alg = pcs_algebra(triple)
    assert alg.pca.kernel.pairs == smallest_contact(alg.pca.algebra).kernel.pairs


def test_canonical_algebra_requires_valid_triple(xl_space):
    bad = validate_pcs(xl_space, 0b011, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(ValidationError):
        canonical_pca_of_pcs(bad)


def test_proximities_coincide_on_canonical_algebra(kernels_3):
    # the closed canonical relation equals the pair's proximity kernel
    for pairs in list(kernels_3)[::7]:
        triple = canonical_pcs_of_pca(pca_from_pairs(3, pairs))
        alg = pcs_algebra(triple)
        sharp = contact_closure(alg.pca).kernel.pairs
        overlap = frozenset(
            (i, j)
            for i in range(len(alg.atom_masks))
            for j in range(len(alg.atom_masks))
            if alg.atom_masks[i] & alg.atom_masks[j]
        )
        assert sharp == overlap


# ---------------------------------------------------------------------------
# 2-contact spaces and Stone 2-spaces


def test_validate_cs_fixture(xl_space):
    cs = validate_cs(xl_space, 0b011)
    assert cs.ok
    s2s = validate_s2s(xl_space, 0b011)
    assert s2s.ok


def test_discrete_pair_is_cs_but_not_s2s(disc2):
    assert validate_cs(disc2, 0b11).ok
    s2s = validate_s2s(disc2, 0b11)
    assert not s2s.ok
    assert s2s.failures[0].name == "(S2S4)"


def test_cs_density_precondition_reported(disc2):
    cs = validate_cs(disc2, 0b01)
    names = [c.name for c in cs.failures]
    assert "(CS-precondition)" in names


def test_canonical_cs_of_contact_algebra(b4, xl_space):
    cs = canonical_cs_of_ca(largest_contact(b4))
    assert cs.ok
    assert cs.space.point_closures == xl_space.point_closures
    disc = canonical_cs_of_ca(smallest_contact(b4))
    assert disc.space == discrete_space(("c0", "c1"))


def test_canonical_cs_requires_contact(path_pca):
    with pytest.raises(PreconditionError):
        canonical_cs_of_ca(path_pca)


def test_contact_relation_of_pair_examples(xl_space, disc2):
    cs = validate_cs(xl_space, 0b011)
    assert contact_relation_of_pair(cs) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    disc = validate_cs(disc2, 0b11)
    assert contact_relation_of_pair(disc) == {(0, 0), (1, 1)}
    one = validate_cs(discrete_space(("u",)), 0b1)
    assert contact_relation_of_pair(one) == {(0, 0)}


def test_contact_relation_is_unique_pcs_completion(xl_space, disc2):
    # exhaustive search over reflexive-symmetric candidates: exactly one
    # relation makes the pair a 2-precontact triple
    for space, subset in ((xl_space, 0b011), (disc2, 0b11)):
        cs = validate_cs(space, subset)
        expected = contact_relation_of_pair(cs)
        points = [x for x in range(space.point_count) if subset >> x & 1]
        offdiag = [
            (x, y) for i, x in enumerate(points) for y in points[i + 1 :]
        ]
        winners = []
        for r in range(len(offdiag) + 1):
            for chosen in itertools.combinations(offdiag, r):
                rel = {(x, x) for x in points}
                for x, y in chosen:
                    rel.add((x, y))
                    rel.add((y, x))
                if validate_pcs(space, subset, frozenset(rel)).ok:
                    winners.append(frozenset(rel))
        assert winners == [expected]


# ---------------------------------------------------------------------------
# mereotopology


def test_mereo_report_on_xl(xl_space):
    mereo = MereotopologicalPair.from_members(xl_space, rc_members(xl_space))
    report = mereocompactness_report(mereo)
    assert report.is_space and report.is_t0 and report.is_mereocompact
    assert report.u_set == 0b011
    assert report.uniqueness_witness is None
    assert report.ok


def test_mereo_trivial_subalgebra_is_not_a_space(xl_space):
    mereo = MereotopologicalPair.from_members(xl_space, (0, xl_space.full_mask))
    report = mereocompactness_report(mereo)
    assert not report.is_space


def test_mereo_discrete_powerset(disc2):
    mereo = MereotopologicalPair.from_members(disc2, closed_sets(disc2))
    report = mereocompactness_report(mereo)
    assert report.is_mereocompact
    assert report.u_set == disc2.full_mask
    assert report.ok


def test_mereo_repeated_member_counts_once():
    """A repeated minimal member is one atom: each point of the discrete
    space {a,b} lies in exactly one distinct atom of (0, 1, 1, 2, 3)."""
    space = discrete_space(("a", "b"))
    mereo = MereotopologicalPair.from_members(space, (0, 1, 1, 2, 3))
    report = mereocompactness_report(mereo)
    line = next(
        c for c in report.checks if c.name == "u-points are exactly the ultrafilter traces"
    )
    assert (line.passed, line.witness) == (True, None)
    assert report.u_set == space.full_mask
    assert report.ok


def test_mereo_pair_validates_subalgebra(xl_space):
    with pytest.raises(PreconditionError):
        MereotopologicalPair.from_members(xl_space, (0, 0b101, 0b111))  # no complement
