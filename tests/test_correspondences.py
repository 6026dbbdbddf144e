"""Cross-module correspondences on exhaustively enumerated small spaces:
the bridges between C-semiregularity, u-points, 2-contact pairs, Stone
2-spaces and total-relation triples."""

import pytest

from contactlab.precontact import largest_contact, pca_from_pairs
from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.structures import (
    canonical_pcs_of_pca,
    mereocompactness_report,
    validate_cs,
    validate_pcs,
    validate_s2s,
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
from oracles import subspace
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
    # a pair is a Stone 2-space exactly when adding the total relation on
    # the dense part gives a valid triple
    for space in all_small_spaces(3):
        for sub in dense_subsets(space):
            x0 = [x for x in range(space.point_count) if sub >> x & 1]
            total = frozenset((x, y) for x in x0 for y in x0)
            s2s = validate_s2s(space, sub)
            triple = validate_pcs(space, sub, total)
            assert s2s.ok == triple.ok, (space, bin(sub))


def test_canonical_duals_of_total_contacts_are_stone_two_spaces():
    for n in (1, 2, 3):
        triple = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(n)))
        assert validate_s2s(triple.space, triple.subset).ok


def test_diagonal_triple_iff_discrete_stone_space():
    # triples with the diagonal relation on the whole point set are valid
    # exactly over discrete spaces
    for space in all_small_spaces(3):
        full = space.full_mask
        diagonal = frozenset((x, x) for x in range(space.point_count))
        triple = validate_pcs(space, full, diagonal)
        assert triple.ok == is_t1(space)
