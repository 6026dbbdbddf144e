import random

import pytest

from contactlab.adjacency import (
    AdjacencySpace,
    adjacency_correspondence_report,
    canonical_adjacency,
    contact_from_adjacency,
    is_closed_relation,
    is_connected_relation,
    r_flat,
    stone_representation_report,
)
from contactlab.errors import DomainMismatchError, PreconditionError
from contactlab.precontact import largest_contact, pca_from_pairs, smallest_contact
from contactlab.topology import space_from_closed_base

from conftest import all_kernels
from oracles import (
    bits,
    expand_relation,
    oracle_closed_family,
    oracle_closed_in_product,
    oracle_is_connected_relation,
    oracle_product_family,
    oracle_ultrafilter_adjacency,
)
from test_topology import all_small_spaces


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
    assert can.pairs == {(0, 1), (1, 2)}
    assert canonical_adjacency(smallest_contact(b4)).pairs == {(0, 0), (1, 1)}
    assert canonical_adjacency(largest_contact(b4)).pairs == {
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
        assert canonical_adjacency(pca).pairs == expected == pairs


def test_adjacency_roundtrip_through_regions():
    # regions of an adjacency space, then ultrafilter cells, recover the
    # relation up to the cell bijection
    for n in (1, 2, 3):
        for pairs in all_kernels(n):
            space = adj(n, pairs)
            rebuilt = canonical_adjacency(contact_from_adjacency(space))
            assert rebuilt.pairs == pairs


def test_is_closed_relation(xl_space, disc2):
    assert is_closed_relation(frozenset({(0, 1)}), disc2)
    assert is_closed_relation(frozenset(), xl_space)
    # a single pair through open points is not closed: its closure picks
    # up the pairs through the bottom point
    assert not is_closed_relation(frozenset({(0, 1)}), xl_space)
    assert is_closed_relation(
        frozenset({(0, 1), (2, 1), (0, 2), (2, 2)}), xl_space
    )


def test_is_closed_relation_checks_the_range_first(disc2):
    with pytest.raises(DomainMismatchError, match=r"pair \(0, 2\) outside the space"):
        is_closed_relation(frozenset({(0, 2)}), disc2)


def all_relations(n):
    """(mask, relation) for every relation on n points; the pair (x, y)
    is the bit x * n + y of the mask, its point in the product."""
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for mask in range(1 << len(pairs)):
        yield mask, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def product_mask(n, pairs):
    return sum(1 << (x * n + y) for x, y in pairs)


def test_is_closed_relation_matches_the_product_family():
    """Every relation on every space of at most 3 points is closed iff
    its mask is a member of the product's closed family, generated by
    the closed rectangles."""
    cases = 0
    for n in (1, 2, 3):
        for space in all_small_spaces(n):
            closed = oracle_closed_family(space.point_closures)
            family = oracle_product_family(n, closed)
            for mask, pairs in all_relations(n):
                got = is_closed_relation(pairs, space)
                assert got == (mask in family), (space.point_closures, sorted(pairs))
                cases += 1
    assert cases == 14914


def test_product_oracles_agree(xl_space):
    """The open-rectangle oracle and the generated closed family agree on
    every set of pair points of the spaces of at most 2 points and of
    the three-point space xl."""
    for space in [s for n in (1, 2) for s in all_small_spaces(n)] + [xl_space]:
        n = space.point_count
        family = oracle_product_family(n, oracle_closed_family(space.point_closures))
        for mask in range(1 << (n * n)):
            assert oracle_closed_in_product(space.point_closures, mask) == (mask in family)


def test_is_closed_relation_on_seeded_spaces():
    """Seeded spaces of 4 and 5 points, against the open-rectangle
    definition of the product topology: unions of closed rectangles,
    each also with one pair toggled, and random relations."""
    rng = random.Random(20261019)
    outcomes = set()
    for n in (4, 5):
        names = tuple(f"p{x}" for x in range(n))
        for _ in range(15):
            base = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
            space = space_from_closed_base(names, base)
            closed = sorted(oracle_closed_family(space.point_closures))
            for _ in range(5):
                rectangles = set()
                for _ in range(rng.randint(1, 3)):
                    c, d = rng.choice(closed), rng.choice(closed)
                    rectangles |= {(x, y) for x in bits(c) for y in bits(d)}
                toggled = rectangles ^ {(rng.randrange(n), rng.randrange(n))}
                noise = {(x, y) for x in range(n) for y in range(n) if rng.random() < 0.5}
                for pairs in (rectangles, toggled, noise):
                    got = is_closed_relation(frozenset(pairs), space)
                    expected = oracle_closed_in_product(
                        space.point_closures, product_mask(n, pairs)
                    )
                    assert got == expected, (space.point_closures, sorted(pairs))
                    outcomes.add(got)
    assert outcomes == {True, False}


def test_is_connected_relation_matches_pairwise_paths():
    """Every relation on at most 3 cells, and seeded relations on 4 to 7
    cells, against one path search per ordered pair of cells."""
    rng = random.Random(20261020)
    cases = [(n, pairs) for n in (0, 1, 2, 3) for pairs in all_kernels(n)]
    for n in range(4, 8):
        for density in (0.05, 0.1, 0.2, 0.3):
            for _ in range(15):
                pairs = {(x, y) for x in range(n) for y in range(n) if rng.random() < density}
                cases.append((n, frozenset(pairs)))
    outcomes = set()
    for n, pairs in cases:
        got = is_connected_relation(pairs, n)
        assert got == oracle_is_connected_relation(pairs, n), (n, sorted(pairs))
        outcomes.add((n >= 4, got))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


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
