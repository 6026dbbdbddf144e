"""Cross-module correspondences on exhaustively enumerated small spaces:
the bridges between C-semiregularity, u-points, 2-contact pairs, Stone
2-spaces and total-relation triples."""

import itertools

import pytest

from contactlab.precontact import largest_contact, pca_from_pairs
from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.structures import (
    canonical_pcs_of_pca,
    mereocompactness_report,
    validate_cs,
    validate_pcs,
)
from contactlab.topology import (
    FiniteSpace,
    closure,
    is_extremally_disconnected,
    is_t1,
    rc_algebra,
    rc_members,
    rc_members_of_subset,
)

from conftest import c_semiregular
from oracles import bits, oracle_cs4_s2s4, oracle_pcs2_pcs3, subspace
from test_topology import all_small_spaces


def dense_subsets(space):
    full = space.full_mask
    for sub in range(1, full + 1):
        if closure(space, sub) == full:
            yield sub


def test_c_semiregular_spaces_pair_with_their_u_points():
    # the u-point set of a C-semiregular space forms a 2-contact pair and
    # is the unique dense discrete subspace
    found = 0
    for space in all_small_spaces(3):
        if not c_semiregular(space):
            continue
        found += 1
        u_set = mereocompactness_report(rc_algebra(space)).u_set
        assert u_set, space
        assert closure(space, u_set) == space.full_mask
        assert is_t1(subspace(space, u_set))
        assert validate_cs(space, u_set).ok
        others = [
            sub
            for sub in dense_subsets(space)
            if sub != u_set and is_t1(subspace(space, sub))
            and frozenset(rc_members_of_subset(space, sub))
            == frozenset(rc_members(space))
        ]
        assert others == []
    assert found > 3


def test_extremally_disconnected_dense_part_forces_c_semiregular():
    # valid 2-contact pairs whose dense part is extremally disconnected
    # sit over C-semiregular spaces; at finite scale the dense part of a
    # valid pair is discrete, so this covers every valid pair
    checked = 0
    for space in all_small_spaces(3):
        for sub in dense_subsets(space):
            cs = validate_cs(space, sub)
            if not cs.ok:
                continue
            assert is_extremally_disconnected(subspace(space, sub))
            assert c_semiregular(space), (space, bin(sub))
            checked += 1
    assert checked >= 4


def test_rc_pair_equals_rc_iff_dense_part_extremally_disconnected():
    for space in all_small_spaces(3):
        whole = frozenset(rc_members(space))
        for sub in dense_subsets(space):
            agree = frozenset(rc_members_of_subset(space, sub)) == whole
            assert agree == is_extremally_disconnected(subspace(space, sub))


def test_stone_two_space_iff_total_relation_triple():
    """A pair is a Stone 2-space exactly when adding the total relation
    on the dense part gives a valid triple: on every dense pair of at
    most 4 points, `validate_pcs` of that triple passes iff the literal
    conditions hold.  They are T0 (distinct points have distinct
    closures), a Stone dense part, a closed base of the pair's regular
    closed sets, and (S2S4): every grill of the dense part's clopens is
    the closure trace of a point."""
    seen = set()
    for n in range(1, 5):
        for space in all_small_spaces(n):
            closures = space.point_closures
            t0 = len(set(closures)) == n
            for sub in dense_subsets(space):
                total = frozenset(itertools.product(bits(sub), repeat=2))
                stone, _, closed_base = oracle_pcs2_pcs3(closures, sub, total)
                _, s2s4 = oracle_cs4_s2s4(closures, sub)
                literal = t0 and stone and closed_base and s2s4 is None
                assert validate_pcs(space, sub, total).ok == literal, (closures, bin(sub))
                seen.add(literal)
    assert seen == {True, False}


def test_canonical_duals_of_total_contacts_are_stone_two_spaces():
    # the dual of the largest contact is a valid triple whose relation is
    # total on its dense part: the triple of a Stone 2-space
    for n in (1, 2, 3):
        triple = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(n)))
        assert triple.relation == frozenset(itertools.product(bits(triple.subset), repeat=2))
        assert triple.ok


def test_diagonal_triple_iff_discrete_stone_space():
    # triples with the diagonal relation on the whole point set are valid
    # exactly over discrete spaces
    for space in all_small_spaces(3):
        full = space.full_mask
        diagonal = frozenset((x, x) for x in range(space.point_count))
        triple = validate_pcs(space, full, diagonal)
        assert triple.ok == is_t1(space)
