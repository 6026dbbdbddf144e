import pytest

from contactlab.adjacency import (
    AdjacencySpace,
    adjacency_correspondence_report,
    canonical_adjacency,
    contact_from_adjacency,
    is_closed_relation,
    product_space,
    r_flat,
    stone_representation_report,
)
from contactlab.errors import PreconditionError
from contactlab.precontact import largest_contact, pca_from_pairs, smallest_contact
from contactlab.topology import closed_sets

from conftest import all_kernels
from oracles import expand_relation, oracle_product_family, oracle_ultrafilter_adjacency


def adj(n, pairs, topology=None):
    return AdjacencySpace(tuple(f"w{i}" for i in range(n)), frozenset(pairs), topology)


def test_cells_must_be_nonempty():
    with pytest.raises(PreconditionError):
        AdjacencySpace((), frozenset())


def test_r_flat_examples():
    two = adj(2, {(0, 1)})
    assert r_flat(two).pairs == {(0, 1), (1, 0), (0, 0), (1, 1)}
    fixed = r_flat(two)
    assert r_flat(fixed).pairs == fixed.pairs
    three = adj(3, {(0, 1), (1, 2)})
    assert len(r_flat(three).pairs) == 7


def test_r_flat_idempotent_exhaustive():
    for pairs in all_kernels(3):
        space = adj(3, pairs)
        once = r_flat(space)
        assert r_flat(once).pairs == once.pairs
        assert once.pairs >= {(x, x) for x in range(3)}
        assert all((y, x) in once.pairs for x, y in once.pairs)


def test_contact_from_adjacency(b8):
    two = adj(2, {(0, 1)})
    assert contact_from_adjacency(two).kernel.pairs == {(0, 1)}
    refl = adj(2, {(0, 0), (1, 1), (0, 1), (1, 0)})
    assert contact_from_adjacency(refl).axioms.is_contact
    three = adj(3, {(0, 1), (1, 2)})
    assert not contact_from_adjacency(three).axioms.ctr


def test_contact_from_flat_equals_closure_of_contact():
    # the region algebra of the reflexive-symmetric closure is the
    # contact closure of the region algebra
    from contactlab.precontact import contact_closure

    for pairs in all_kernels(3):
        space = adj(3, pairs)
        flat = contact_from_adjacency(r_flat(space))
        closed = contact_closure(contact_from_adjacency(space))
        assert flat.kernel.pairs == closed.kernel.pairs


def test_correspondence_report_examples():
    one = adjacency_correspondence_report(adj(2, {(0, 1)}))
    assert one.ctr_iff and one.ccon_iff and one.is_contact_iff
    assert one.relation_connected
    empty = adjacency_correspondence_report(adj(2, set()))
    assert not empty.relation_connected
    assert not empty.axioms.ccon
    assert empty.ccon_iff


def test_correspondence_biconditionals_exhaustive():
    for n in (1, 2, 3):
        for pairs in all_kernels(n):
            report = adjacency_correspondence_report(adj(n, pairs))
            assert report.all_agree, (n, sorted(pairs))


def test_canonical_adjacency(b4, path_pca):
    can = canonical_adjacency(path_pca)
    assert can.space.pairs == {(0, 1), (1, 2)}
    assert canonical_adjacency(smallest_contact(b4)).space.pairs == {(0, 0), (1, 1)}
    assert canonical_adjacency(largest_contact(b4)).space.pairs == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }


def test_canonical_adjacency_rejects_degenerate():
    with pytest.raises(PreconditionError):
        canonical_adjacency(
            pca_from_pairs(0, frozenset())
        )


def test_canonical_adjacency_matches_literal_quantifier(kernels_3):
    for pairs in kernels_3:
        pca = pca_from_pairs(3, pairs)
        expected = oracle_ultrafilter_adjacency(3, expand_relation(3, pairs))
        assert canonical_adjacency(pca).space.pairs == expected == pairs


def test_adjacency_roundtrip_through_regions():
    # regions of an adjacency space, then ultrafilter cells, recover the
    # relation up to the cell bijection
    for n in (1, 2, 3):
        for pairs in all_kernels(n):
            space = adj(n, pairs)
            rebuilt = canonical_adjacency(contact_from_adjacency(space))
            assert rebuilt.space.pairs == pairs


def test_is_closed_relation(xl_space, disc2):
    assert is_closed_relation(frozenset({(0, 1)}), disc2)
    assert is_closed_relation(frozenset(), xl_space)
    # a single pair through open points is not closed: its closure picks
    # up the pairs through the bottom point
    assert not is_closed_relation(frozenset({(0, 1)}), xl_space)
    assert is_closed_relation(
        frozenset({(0, 1), (2, 1), (0, 2), (2, 2)}), xl_space
    )


def test_product_space_matches_rectangle_family(xl_space, disc2, sierpinski):
    for space in (xl_space, disc2, sierpinski):
        prod = product_space(space)
        family = set(closed_sets(prod))
        expected = oracle_product_family(
            space.point_count, set(closed_sets(space))
        )
        assert family == expected


def test_representation_report_fixtures(b4, path_pca):
    assert stone_representation_report(path_pca).ok
    assert stone_representation_report(smallest_contact(b4)).ok
    assert stone_representation_report(largest_contact(b4)).ok


def test_representation_report_exhaustive(kernels_upto_2):
    for n, pairs in kernels_upto_2:
        assert stone_representation_report(pca_from_pairs(n, pairs)).ok


def test_stone_adjacency_flag(disc2, xl_space):
    stone = AdjacencySpace(("a", "b"), frozenset({(0, 1)}), disc2)
    assert stone.is_stone_adjacency
    untopologized = AdjacencySpace(("a", "b"), frozenset({(0, 1)}))
    assert not untopologized.is_stone_adjacency
