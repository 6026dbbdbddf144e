import itertools

import pytest

from contactlab.errors import CapacityError, DomainMismatchError, PreconditionError
from contactlab.precontact import pca_from_pairs
from contactlab.structures import canonical_pcs_of_pca, validate_cs, validate_s2s
from contactlab.topology import (
    FiniteSpace,
    MereotopologicalPair,
    TopologicalPair,
    closed_sets,
    closure,
    closure_trace,
    clopen_sets,
    clopens_of_subset,
    delta_contact,
    discrete_space,
    extend_regular_closed,
    indiscrete_space,
    interior,
    interior_trace,
    is_c_semiregular,
    is_closed,
    is_closed_base,
    is_connected,
    is_extremally_disconnected,
    is_semiregular,
    is_stone,
    is_t0,
    is_u_point,
    open_sets,
    point_trace,
    rc_algebra,
    rc_members,
    rc_members_of_subset,
    rc_pair_algebra,
    restrict_regular_closed,
    space_from_closed_base,
    space_predicates,
    subspace,
    u_point_of_pair,
)

from oracles import (
    family_from_base,
    oracle_closure,
    oracle_interior,
    oracle_rc,
    oracle_u_point,
)


def all_small_spaces(n):
    """Every topology on n named points, by filtering closure tuples."""
    out = []
    for closures in itertools.product(range(1 << n), repeat=n):
        if any(not closures[x] >> x & 1 for x in range(n)):
            continue
        ok = True
        for x in range(n):
            for y in range(n):
                if closures[x] >> y & 1 and closures[y] | closures[x] != closures[x]:
                    ok = False
        if ok:
            out.append(FiniteSpace(tuple(f"p{i}" for i in range(n)), closures))
    return out


# ---------------------------------------------------------------------------
# construction


def test_space_from_closed_base_fixture(xl_space):
    assert set(closed_sets(xl_space)) == {0, 0b100, 0b101, 0b110, 0b111}
    assert xl_space.point_closures == (0b101, 0b110, 0b100)


def test_space_from_closed_base_discrete():
    space = space_from_closed_base(("a", "b"), [0, 0b01, 0b10, 0b11])
    assert space == discrete_space(("a", "b"))


def test_space_from_closed_base_drops_bits_outside_the_points():
    """Only the points exist: a member's higher bits, or the infinite
    high bits of a negative mask, are ignored."""
    space = space_from_closed_base(("a", "b"), [0b1101, -2])
    assert space == discrete_space(("a", "b"))


def test_space_from_closed_base_indiscrete():
    space = space_from_closed_base(("a", "b"), [0b11])
    assert space == indiscrete_space(("a", "b"))


def test_closed_base_with_a_huge_union_closure():
    """20 singletons have 2**20 finite unions; the space and the base
    check come from the meet of the members holding each point instead."""
    names = tuple(f"p{i}" for i in range(20))
    singletons = [1 << i for i in range(20)]
    space = space_from_closed_base(names, singletons)
    assert space == discrete_space(names)
    assert is_closed_base(space, singletons)
    assert not is_closed_base(space, singletons[1:])


def test_generated_family_matches_oracle():
    cases = [
        (3, [0b101, 0b110]),
        (3, [0b001, 0b011]),
        (4, [0b0011, 0b0110, 0b1100]),
        (4, [0b1010, 0b0101, 0b1111]),
    ]
    for n, base in cases:
        space = space_from_closed_base(tuple(f"p{i}" for i in range(n)), base)
        assert set(closed_sets(space)) == family_from_base(n, base)


def test_space_validates_closure_tuples():
    with pytest.raises(PreconditionError):
        FiniteSpace(("a", "b"), (0b10, 0b10))  # a missing from its closure
    with pytest.raises(PreconditionError):
        FiniteSpace(("a", "b", "c"), (0b011, 0b110, 0b100))  # not transitive


# ---------------------------------------------------------------------------
# closure and interior


def test_closure_interior_fixture(xl_space):
    assert closure(xl_space, 0b001) == 0b101
    assert interior(xl_space, 0b101) == 0b001
    assert closure(xl_space, 0) == 0
    assert interior(xl_space, 0b111) == 0b111


def test_closure_interior_match_oracle():
    for space in all_small_spaces(3):
        family = set(closed_sets(space))
        full = space.full_mask
        for mask in range(space.full_mask + 1):
            assert closure(space, mask) == oracle_closure(family, full, mask)
            assert interior(space, mask) == oracle_interior(family, full, mask)


def test_kuratowski_laws():
    for space in all_small_spaces(3):
        for a in range(space.full_mask + 1):
            ca = closure(space, a)
            assert a | ca == ca
            assert closure(space, ca) == ca
            for b in range(space.full_mask + 1):
                assert closure(space, a | b) == ca | closure(space, b)
        assert closure(space, 0) == 0


# ---------------------------------------------------------------------------
# predicates


def test_predicates_fixture(xl_space, disc2, sierpinski):
    xl = space_predicates(xl_space)
    assert xl.is_t0 and xl.is_semiregular and xl.is_connected and not xl.is_stone
    d = space_predicates(disc2)
    assert d.is_stone and not d.is_connected
    ind = space_predicates(indiscrete_space(("a", "b")))
    assert not ind.is_t0
    assert space_predicates(sierpinski).is_t0


def test_connectedness_equals_no_proper_clopen():
    for space in all_small_spaces(3):
        proper = [
            m for m in clopen_sets(space) if m not in (0, space.full_mask)
        ]
        assert is_connected(space) == (not proper)


def test_extremally_disconnected(xl_space, disc2):
    assert is_extremally_disconnected(disc2)
    assert not is_extremally_disconnected(xl_space)


# ---------------------------------------------------------------------------
# regular closed algebra


def test_rc_fixture(xl_space):
    assert rc_members(xl_space) == (0, 0b101, 0b110, 0b111)
    rc = rc_algebra(xl_space)
    assert rc.contact(0b101, 0b110)
    assert rc.meet(0b101, 0b110) == 0
    assert rc.complement(0b101) == 0b110


def test_rc_discrete_is_powerset(disc2):
    assert rc_members(disc2) == (0, 1, 2, 3)


def test_rc_matches_oracle():
    for space in all_small_spaces(3):
        family = set(closed_sets(space))
        assert list(rc_members(space)) == oracle_rc(family, space.full_mask)


def test_rc_closed_under_join():
    for space in all_small_spaces(3):
        members = set(rc_members(space))
        for f in members:
            for g in members:
                assert (f | g) in members


def test_rc_algebra_is_held_by_its_atoms(xl_space):
    rc = rc_algebra(xl_space)
    assert rc.atoms == (0b101, 0b110)
    assert rc.members == rc_members(xl_space)


@pytest.mark.parametrize(
    "atoms, error, message",
    [
        ((0b110, 0b101), PreconditionError, "the atoms must be distinct and ascending"),
        ((0b101, 0b101, 0b110), PreconditionError, "the atoms must be distinct and ascending"),
        ((0, 0b101, 0b110), DomainMismatchError, "atom mask 0 is zero or out of range"),
        ((0b101, 0b1010), DomainMismatchError, "atom mask 10 is zero or out of range"),
        ((0b100, 0b101), DomainMismatchError, "{g3} is not regular closed"),
        ((0b101,), PreconditionError, "the atoms do not cover the space"),
        (
            (0b101, 0b111),
            PreconditionError,
            "the atoms {g1,g3} and {g1,g2,g3} share an interior point",
        ),
    ],
)
def test_pair_rejects_each_broken_atom_condition(xl_space, atoms, error, message):
    with pytest.raises(error) as caught:
        MereotopologicalPair(xl_space, atoms)
    assert str(caught.value) == message


def test_semiregular(xl_space, sierpinski):
    assert is_semiregular(xl_space)
    assert not is_semiregular(sierpinski)


# ---------------------------------------------------------------------------
# pairs, traces, restriction maps


def test_pair_requires_density(xl_space):
    with pytest.raises(PreconditionError):
        TopologicalPair(xl_space, 0b100)  # {g3} is closed, not dense
    TopologicalPair(xl_space, 0b011)


def test_pair_clopens_and_rc(xl_space):
    pair = TopologicalPair(xl_space, 0b011)
    assert clopens_of_subset(xl_space, 0b011) == (0, 0b01, 0b10, 0b11)
    assert rc_members_of_subset(xl_space, 0b011) == (0, 0b101, 0b110, 0b111)
    assert rc_pair_algebra(pair).members == rc_algebra(xl_space).members


def test_rc_pair_on_whole_discrete(disc2):
    pair = TopologicalPair(disc2, 0b11)
    assert rc_members_of_subset(disc2, 0b11) == (0, 1, 2, 3)


def test_rc_pair_equality_iff_extremally_disconnected(xl_space, disc2):
    # dense-part discrete (hence extremally disconnected): members agree
    assert frozenset(rc_members_of_subset(xl_space, 0b011)) == frozenset(
        rc_members(xl_space)
    )
    # the whole space as its own dense part: not extremally disconnected,
    # and the pair algebra degenerates to {0, X}
    assert not is_extremally_disconnected(xl_space)
    assert rc_members_of_subset(xl_space, 0b111) == (0, 0b111)
    assert frozenset(rc_members_of_subset(xl_space, 0b111)) != frozenset(
        rc_members(xl_space)
    )


def test_delta_contact(xl_space):
    pair = TopologicalPair(xl_space, 0b011)
    assert delta_contact(pair, 0b001, 0b010)
    assert not delta_contact(pair, 0b001, 0)


def test_restriction_extension_maps(xl_space):
    pair = TopologicalPair(xl_space, 0b011)
    assert extend_regular_closed(pair, 0b001) == 0b101
    assert restrict_regular_closed(pair, 0b101) == 0b001
    for g in (0, 0b01, 0b10, 0b11):
        assert restrict_regular_closed(pair, extend_regular_closed(pair, g)) == g
    for f in rc_members(xl_space):
        assert extend_regular_closed(pair, restrict_regular_closed(pair, f)) == f


def test_restriction_rejects_non_regular(xl_space):
    pair = TopologicalPair(xl_space, 0b011)
    with pytest.raises(DomainMismatchError):
        restrict_regular_closed(pair, 0b100)


def test_restriction_extension_inverse_on_small_pairs():
    for space in all_small_spaces(3):
        full = space.full_mask
        for sub in range(1, full + 1):
            if closure(space, sub) != full:
                continue
            pair = TopologicalPair(space, sub)
            inner = subspace(space, sub)
            inner_rc_local = rc_members(inner)
            for g_local in inner_rc_local:
                g = 0
                for i, x in enumerate(
                    [p for p in range(space.point_count) if sub >> p & 1]
                ):
                    if g_local >> i & 1:
                        g |= 1 << x
                assert restrict_regular_closed(
                    pair, extend_regular_closed(pair, g)
                ) == g
            for f in rc_members(space):
                assert extend_regular_closed(
                    pair, restrict_regular_closed(pair, f)
                ) == f


def test_traces_fixture(xl_space):
    members = rc_members(xl_space)
    assert point_trace(members, 2) == {0b101, 0b110, 0b111}
    assert interior_trace(xl_space, members, 2) == {0b111}
    pair = TopologicalPair(xl_space, 0b011)
    assert closure_trace(pair, 2) == {0b01, 0b10, 0b11}


def test_interior_trace_is_filter_inside_sigma():
    for space in all_small_spaces(3):
        members = rc_members(space)
        for x in range(space.point_count):
            nu = interior_trace(space, members, x)
            sigma = point_trace(members, x)
            assert nu <= sigma
            assert space.full_mask in nu


def test_grills_between_nu_and_sigma():
    # a grill of the regular closed algebra inside a point trace always
    # contains the interior trace
    for space in all_small_spaces(3):
        members = rc_members(space)
        member_list = list(members)
        nonzero = [m for m in member_list if m]
        for x in range(space.point_count):
            sigma = point_trace(members, x)
            nu = interior_trace(space, members, x)
            for r in range(1, len(nonzero) + 1):
                for chosen in itertools.combinations(nonzero, r):
                    masks = set(chosen)
                    if not masks <= sigma:
                        continue
                    # grill in the member family: upward closed within the
                    # family, join-prime
                    if not all(
                        g in masks
                        for m in masks
                        for g in member_list
                        if m | g == g
                    ):
                        continue
                    if not all(
                        a in masks or b in masks
                        for a in member_list
                        for b in member_list
                        if (a | b) in masks
                    ):
                        continue
                    assert nu <= masks


# ---------------------------------------------------------------------------
# u-points and C-semiregularity


def test_u_points_fixture(xl_space):
    assert is_u_point(xl_space, 0)
    assert is_u_point(xl_space, 1)
    assert not is_u_point(xl_space, 2)


def test_u_points_match_oracle():
    for space in all_small_spaces(3):
        family = set(closed_sets(space))
        for x in range(space.point_count):
            assert is_u_point(space, x) == oracle_u_point(
                family, space.full_mask, x
            )


def test_u_point_of_pair_agrees_with_space(xl_space):
    mereo = MereotopologicalPair.from_members(xl_space, rc_members(xl_space))
    for x in range(3):
        assert u_point_of_pair(mereo, x) == is_u_point(xl_space, x)


def test_u_point_of_clopen_pair_always(xl_space):
    clopens = clopen_sets(xl_space)
    mereo = MereotopologicalPair.from_members(xl_space, tuple(clopens))
    assert all(u_point_of_pair(mereo, x) for x in range(3))


def test_u_points_restrict_to_dense_subspaces():
    for space in all_small_spaces(3):
        members = rc_members(space)
        try:
            mereo = MereotopologicalPair.from_members(space, members)
        except PreconditionError:
            continue
        full = space.full_mask
        for sub in range(1, full + 1):
            if closure(space, sub) != full:
                continue
            inner = subspace(space, sub)
            positions = [p for p in range(space.point_count) if sub >> p & 1]
            traced = []
            for m in members:
                local = 0
                for i, x in enumerate(positions):
                    if m >> x & 1:
                        local |= 1 << i
                traced.append(local)
            try:
                inner_pair = MereotopologicalPair.from_members(inner, tuple(sorted(set(traced))))
            except (PreconditionError, DomainMismatchError):
                continue
            for i, x in enumerate(positions):
                assert u_point_of_pair(mereo, x) == u_point_of_pair(inner_pair, i)


def test_sigma_ultrafilter_characterizes_u_points():
    for space in all_small_spaces(3):
        members = rc_members(space)
        mereo = MereotopologicalPair.from_members(space, members)
        atoms = rc_algebra(space).atoms
        for x in range(space.point_count):
            support = [a for a in atoms if a >> x & 1]
            assert u_point_of_pair(mereo, x) == (len(support) == 1)


def test_c_semiregular(xl_space, disc2, sierpinski):
    assert is_c_semiregular(xl_space)
    assert is_c_semiregular(disc2)
    assert not is_c_semiregular(sierpinski)


# ---------------------------------------------------------------------------
# budget enforcement


def test_point_budget(monkeypatch):
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "3")
    big = discrete_space(tuple(f"x{i}" for i in range(4)))
    with pytest.raises(CapacityError):
        closed_sets(big)


def test_point_budget_bounds_only_whole_families(monkeypatch):
    """Above the point budget, validators and predicates still decide
    (here on the 5-point dual of the path contact on three atoms, whose
    dense part has 3 points), and only the functions that return a whole
    family refuse."""
    kernel = {(p, p) for p in range(3)} | {(0, 1), (1, 0), (1, 2), (2, 1)}
    triple = canonical_pcs_of_pca(pca_from_pairs(3, kernel))
    space, subset = triple.space, triple.subset
    assert space.point_count == 5

    def verdicts():
        return (
            [(c.name, c.passed, c.witness) for c in validate_cs(space, subset).checks],
            [(c.name, c.passed, c.witness) for c in validate_s2s(space, subset).checks],
            is_extremally_disconnected(space),
            [is_u_point(space, x) for x in range(space.point_count)],
            is_c_semiregular(space),
        )

    expected = verdicts()
    assert not all(passed for _, passed, _ in expected[1])
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "3")
    assert verdicts() == expected
    for family in (
        lambda: closed_sets(space),
        lambda: rc_members(space),
        lambda: clopens_of_subset(space, space.full_mask),
    ):
        with pytest.raises(CapacityError):
            family()
