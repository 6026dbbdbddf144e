import functools
import itertools
import operator

import pytest

from contactlab.boolean import bit_indices, join_at
from contactlab.errors import CapacityError, DomainMismatchError, PreconditionError
from contactlab.precontact import pca_from_pairs
from contactlab.structures import (
    canonical_pcs_of_pca,
    mereocompactness_report,
    validate_cs,
    validate_s2s,
)
from contactlab.topology import (
    FiniteSpace,
    MereotopologicalPair,
    TopologicalPair,
    _is_base_of_closed,
    closure,
    closure_trace,
    clopens_of_subset,
    discrete_space,
    interior,
    interior_trace,
    is_closed,
    is_connected,
    is_extremally_disconnected,
    is_semiregular,
    is_t0,
    is_t1,
    pair_atoms,
    point_trace,
    rc_algebra,
    rc_members,
    rc_members_of_subset,
    rc_pair_algebra,
    minimal_open,
    space_from_closed_base,
    space_predicates,
)

from conftest import c_semiregular, indiscrete_space
from oracles import (
    extend_regular_closed,
    family_from_base,
    oracle_closed_family,
    oracle_closure,
    oracle_interior,
    oracle_open_family,
    oracle_rc,
    oracle_u_point,
    restrict_regular_closed,
    subspace,
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
    assert oracle_closed_family(xl_space.point_closures) == {0, 0b100, 0b101, 0b110, 0b111}
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
    assert _is_base_of_closed(space, singletons)
    assert not _is_base_of_closed(space, singletons[1:])


def test_generated_family_matches_oracle():
    cases = [
        (3, [0b101, 0b110]),
        (3, [0b001, 0b011]),
        (4, [0b0011, 0b0110, 0b1100]),
        (4, [0b1010, 0b0101, 0b1111]),
    ]
    for n, base in cases:
        space = space_from_closed_base(tuple(f"p{i}" for i in range(n)), base)
        assert oracle_closed_family(space.point_closures) == family_from_base(n, base)


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
        family = oracle_closed_family(space.point_closures)
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
    assert xl["is_T0"] and xl["is_semiregular"] and xl["is_connected"] and not xl["is_stone"]
    d = space_predicates(disc2)
    assert d["is_stone"] and not d["is_connected"]
    ind = space_predicates(indiscrete_space(("a", "b")))
    assert not ind["is_T0"]
    assert space_predicates(sierpinski)["is_T0"]
    # every finite space is compact
    assert all(space_predicates(s)["is_compact"] for s in (xl_space, disc2, sierpinski))


def test_stone_is_t1_at_finite_scale():
    """Stone, read off `is_t1` alone, against the literal conjunction on
    every space of at most 4 points: Hausdorff (distinct points have
    disjoint open neighbourhoods) and zero-dimensional (every open set is
    a union of clopens); a finite space is compact."""
    for space in (s for n in range(1, 5) for s in all_small_spaces(n)):
        opens = oracle_open_family(space.point_closures)
        clopens = [u for u in opens if space.full_mask ^ u in opens]
        hausdorff = all(
            any(u >> x & 1 and v >> y & 1 and not u & v for u in opens for v in opens)
            for x in range(space.point_count)
            for y in range(space.point_count)
            if x != y
        )
        zero_dimensional = all(
            u == functools.reduce(operator.or_, (c for c in clopens if not c & ~u), 0)
            for u in opens
        )
        literal = hausdorff and zero_dimensional
        assert is_t1(space) == literal, space.point_closures
        predicates = space_predicates(space)
        assert predicates["is_stone"] == predicates["is_hausdorff"] == literal


def test_connectedness_equals_no_proper_clopen():
    for space in all_small_spaces(3):
        proper = [
            m for m in clopens_of_subset(space, space.full_mask) if m not in (0, space.full_mask)
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
        family = oracle_closed_family(space.point_closures)
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
    with pytest.raises(ValueError):
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


def test_pair_atom_closures_extend_their_clopen_atoms():
    """Each closure in the pair table is the regular closed set of X that
    its clopen atom of X0 extends to, on every dense subset of every
    space on at most 3 points."""
    for space in all_small_spaces(3):
        full = space.full_mask
        for sub in range(1, full + 1):
            if closure(space, sub) != full:
                continue
            table = pair_atoms(space, sub)
            pair = TopologicalPair(space, sub)
            assert table.closures == tuple(
                extend_regular_closed(pair, atom) for atom in table.atoms
            ), (space.point_closures, sub)


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


def u_points(mereo):
    """The u-points of a pair, as a mask: the report's `u_set`."""
    return mereocompactness_report(mereo).u_set


def test_u_points_fixture(xl_space):
    assert u_points(rc_algebra(xl_space)) == 0b011


def test_u_points_match_oracle():
    for space in all_small_spaces(3):
        family = oracle_closed_family(space.point_closures)
        u_set = u_points(rc_algebra(space))
        for x in range(space.point_count):
            assert bool(u_set >> x & 1) == oracle_u_point(family, space.full_mask, x)


def test_u_points_of_rc_members_agree_with_space(xl_space):
    mereo = MereotopologicalPair.from_members(xl_space, rc_members(xl_space))
    assert u_points(mereo) == u_points(rc_algebra(xl_space))


def test_u_point_of_clopen_pair_always(xl_space):
    clopens = clopens_of_subset(xl_space, xl_space.full_mask)
    mereo = MereotopologicalPair.from_members(xl_space, tuple(clopens))
    assert u_points(mereo) == xl_space.full_mask


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
            outer, inner_set = u_points(mereo), u_points(inner_pair)
            for i, x in enumerate(positions):
                assert outer >> x & 1 == inner_set >> i & 1


def test_sigma_ultrafilter_characterizes_u_points():
    for space in all_small_spaces(3):
        members = rc_members(space)
        mereo = MereotopologicalPair.from_members(space, members)
        atoms = rc_algebra(space).atoms
        u_set = u_points(mereo)
        for x in range(space.point_count):
            support = [a for a in atoms if a >> x & 1]
            assert bool(u_set >> x & 1) == (len(support) == 1)


def test_c_semiregular(xl_space, disc2, sierpinski):
    assert c_semiregular(xl_space)
    assert c_semiregular(disc2)
    assert not c_semiregular(sierpinski)


# ---------------------------------------------------------------------------
# budget enforcement


def test_point_budget(monkeypatch):
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "3")
    big = discrete_space(tuple(f"x{i}" for i in range(4)))
    with pytest.raises(CapacityError):
        rc_members(big)


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
            u_points(rc_algebra(space)),
            c_semiregular(space),
        )

    expected = verdicts()
    assert not all(passed for _, passed, _ in expected[1])
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "3")
    assert verdicts() == expected
    for family in (
        lambda: rc_members(space),
        lambda: clopens_of_subset(space, space.full_mask),
    ):
        with pytest.raises(CapacityError):
            family()


def test_a_negative_mask_is_refused_not_walked():
    """A negative mask has no finite set of bits: walking it raises
    DomainMismatchError at once instead of looping or running off the
    point names."""
    with pytest.raises(DomainMismatchError, match="negative mask"):
        list(bit_indices(-1))
    with pytest.raises(DomainMismatchError, match="negative mask"):
        discrete_space("abc").name_set(-1)
    assert list(bit_indices(0b1010)) == [1, 3]
    assert discrete_space("abc").name_set(0b101) == "{a,c}"


@pytest.mark.parametrize(
    "walk",
    [
        lambda: closure(discrete_space("abc"), -1),
        lambda: closure(discrete_space("abc"), 1 << 5),
        lambda: join_at([1, 2], -1),
        lambda: discrete_space("abc").name_set(1 << 5),
    ],
    ids=["closure-negative", "closure-past-the-points", "join_at-negative", "name_set-past"],
)
def test_a_mask_walk_off_its_table_raises_a_typed_error(walk):
    """A bit walk that reaches an index past its table, as every
    negative mask does, raises DomainMismatchError, not IndexError."""
    with pytest.raises(DomainMismatchError):
        walk()



@pytest.mark.parametrize("x", [-1, 3, 5])
@pytest.mark.parametrize(
    "call",
    [
        lambda space, x: interior_trace(space, rc_members(space), x),
        lambda space, x: closure_trace(TopologicalPair(space, space.full_mask), x),
        minimal_open,
    ],
    ids=["interior_trace", "closure_trace", "minimal_open"],
)
def test_a_point_outside_the_space_is_refused(call, x):
    """A point index outside the space raises DomainMismatchError, where
    a negative one raised a bare ValueError from the shift and one past
    the points gave an empty trace or open set."""
    with pytest.raises(DomainMismatchError, match=f"^point {x} outside space with 3 points$"):
        call(discrete_space("abc"), x)


def test_point_trace_refuses_a_negative_point():
    """`point_trace` is given members of no space, so it refuses a
    negative index only: no member holds a point past their bits."""
    members = rc_members(discrete_space("abc"))
    with pytest.raises(DomainMismatchError, match="^point -1 is negative$"):
        point_trace(members, -1)
    assert point_trace(members, 5) == frozenset()
