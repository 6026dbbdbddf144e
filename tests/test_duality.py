import itertools
import random

import pytest

from contactlab import duality
from contactlab.boolean import BooleanHom, FiniteBooleanAlgebra, bit_indices, mask_of
from contactlab.adjacency import AdjacencySpace
from contactlab.duality import (
    PcsMorphism,
    algebra_roundtrip_iso,
    check_naturality,
    compose_pcs_morphisms,
    dense_part_map,
    dual_algebra_map,
    dual_space_map,
    gmcs_hom_check,
    gt_preimage_check,
    identity_pcs_morphism,
    pcs_from_stone_adjacency,
    pcs_iso_report,
    space_roundtrip_iso,
    specialization_report,
)
from contactlab.errors import DomainMismatchError, PreconditionError
from contactlab.precontact import (
    PcaMorphism,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
)
from contactlab import precontact, structures
from contactlab.randgen import RandomSpec, random_pca, random_pca_morphism
from contactlab.suite import instance_suite
from contactlab.structures import (
    canonical_pca_of_pcs,
    canonical_pcs_of_pca,
    mereocompactness_report,
    pcs_algebra,
    validate_cs,
    validate_pcs,
)
from contactlab import topology
from contactlab.topology import (
    FiniteSpace,
    discrete_space,
    is_connected,
    rc_atoms,
    rc_atoms_of_subset,
    rc_pair_algebra,
)

from conftest import all_kernels, enumerate_pca_morphisms, enumerate_pcs_morphisms
from test_topology import all_small_spaces
from oracles import (
    canonical_kernel_form,
    oracle_pcs_map_failure,
    pca_isomorphic,
    pcs_isomorphic,
    subspace,
)


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
        BooleanHom(b4, b2, (0,)), smallest_contact(b4), smallest_contact(b2)
    )
    f = dual_space_map(phi)
    # the one clan of the one-atom algebra pulls back to the c0 clan
    assert f.point_map == (0,)


def test_dual_space_map_identity(b4):
    rho = largest_contact(b4)
    ident = PcaMorphism(BooleanHom(b4, b4, (0, 1)), rho, rho)
    f = dual_space_map(ident)
    assert f.point_map == tuple(range(3))


def test_dual_space_map_collapsing_example(b4, b2):
    phi = PcaMorphism(
        BooleanHom(b4, b2, (0,)), largest_contact(b4), largest_contact(b2)
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


@pytest.mark.parametrize("constraint", ["none", "contact"])
def test_an_invalid_dual_is_reported_not_raised(monkeypatch, constraint):
    """When the canonical triple fails (PCS1)..(PCS5), the round trip
    records that line failing and stops there, as the canonical algebra
    of an invalid triple is refused; the instance suite reports it and
    still runs the specializations on that triple."""
    monkeypatch.setattr(topology, "is_t0", lambda space: False)
    expected = ("canonical triple validates", False, "(PCS1) dense=True, T0=False")
    trip = algebra_roundtrip_iso(pca_from_pairs(2, {(0, 1)}))
    assert trip.report.checks == (expected,)
    for seed in range(3):
        report = instance_suite(random_pca(RandomSpec(3, 0.4, seed, constraint)))
        assert report.check("algebra round trip").witness == ": ".join(expected[::2])
        assert [c.name for c in report.checks][-1] == "specialization suite"


def test_algebra_roundtrip_images_fixture(b4, path_pca):
    trip = algebra_roundtrip_iso(largest_contact(b4))
    # the first atom lands on the clans containing it: c0 and c0-1
    assert trip.images[0b01] == 0b101
    assert trip.images[0b11] == 0b111
    path_trip = algebra_roundtrip_iso(path_pca)
    # the last atom lands on the clans c2 and c1-2 (points 2 and 4)
    assert path_trip.images[0b100] == 0b10100
    assert path_trip.images[0b111] == 0b11111


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


def _reversed_points(triple):
    """The triple with its points listed in reverse order: a valid triple
    that is no canonical dual, so its space round trip moves points."""
    space, last = triple.space, triple.space.point_count - 1

    def moved(mask):
        return mask_of(last - x for x in bit_indices(mask))

    return validate_pcs(
        FiniteSpace(space.point_names[::-1], tuple(map(moved, space.point_closures[::-1]))),
        moved(triple.subset),
        frozenset((last - x, last - y) for x, y in triple.relation),
    )


def test_naturality_for_space_morphisms():
    """Every morphism between sampled canonical duals of 2 atoms and
    their point reversals, whose unit maps are not the identity."""
    spaces = [
        canonical_pcs_of_pca(pca_from_pairs(2, pairs)) for pairs in all_kernels(2)
    ]
    spaces += [_reversed_points(s) for s in spaces]
    assert any(
        duality._unit_points(s) != tuple(range(s.space.point_count)) for s in spaces[::3]
    )
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


def test_gt_rejects_a_point_set_that_is_not_a_member():
    """A point mask that is no member of the target pair's regular
    closed sets, in range or not, raises DomainMismatchError naming it."""
    f = dual_space_map(random_pca_morphism(3, 3, 0.5, 7))
    members = set(pcs_algebra(f.target).members)
    full = f.target.space.full_mask
    inside = next(m for m in range(full + 1) if m not in members)
    assert inside == 1
    for mask in (inside, full + 1, 1 << 40, -1):
        with pytest.raises(DomainMismatchError, match=f"point mask {mask} is not a member"):
            gt_preimage_check(f, mask)


# ---------------------------------------------------------------------------
# the adjacency reduct


def test_reconstruction_keeps_the_input_on_the_dense_part():
    """The triple over a Stone adjacency space holds the input on its
    dense part, on every relation on at most 3 cells: the first n points,
    discrete as a subspace (`oracles.subspace`), related by the input's
    pairs.  So `pcs_from_stone_adjacency` reports one line, and none
    compares the dense part with the input (the proof is beside it)."""
    for n in range(1, 4):
        cells = "abc"[:n]
        for pairs in all_kernels(n):
            adjacency = AdjacencySpace(tuple(cells), pairs, discrete_space(cells))
            triple, report = pcs_from_stone_adjacency(adjacency)
            assert [c.name for c in report.checks] == ["triple validates"]
            assert report.ok
            assert triple.subset == (1 << n) - 1
            assert triple.relation == adjacency.pairs
            dense = subspace(triple.space, triple.subset)
            assert dense == discrete_space([f"c{p}" for p in range(n)])


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


def labelled_valid_triples(max_points):
    """Every valid triple on at most ``max_points`` points: each space of
    `all_small_spaces`, each subset, each relation on the subset.  A
    subset whose triple fails (PCS1), (PCS2) or (PCS3) with no relation
    fails them with every relation, and is skipped."""
    out = []
    for space in (s for n in range(1, max_points + 1) for s in all_small_spaces(n)):
        for subset in range(1, space.full_mask + 1):
            empty = validate_pcs(space, subset, frozenset())
            if not all(empty.check(name).passed for name in ("(PCS1)", "(PCS2)", "(PCS3)")):
                continue
            points = list(bit_indices(subset))
            square = [(x, y) for x in points for y in points]
            for pairs in itertools.product((False, True), repeat=len(square)):
                relation = frozenset(p for p, keep in zip(square, pairs) if keep)
                triple = validate_pcs(space, subset, relation)
                if triple.ok:
                    out.append(triple)
    return out


def test_bijective_morphisms_are_homeomorphisms_matching_the_dense_parts():
    """Every bijective morphism between the valid triples on at most 3
    points maps each point closure onto the closure of the point's
    image, and the dense part onto the target's: `pcs_iso_report` need
    not check either (the proof is beside it)."""
    triples = labelled_valid_triples(3)
    bijective = 0
    for source in triples:
        closures = source.space.point_closures
        for target in triples:
            if target.space.point_count != source.space.point_count:
                continue
            for pm in itertools.permutations(range(source.space.point_count)):
                try:
                    PcsMorphism(source, target, pm)
                except PreconditionError:
                    continue
                bijective += 1
                for x, closure in enumerate(closures):
                    image = mask_of(pm[y] for y in bit_indices(closure))
                    assert image == target.space.point_closures[pm[x]], (source, target, pm)
                dense = mask_of(pm[x] for x in bit_indices(source.subset))
                assert dense == target.subset, (source, target, pm)
    assert (len(triples), bijective) == (50, 993)


def test_iso_and_reconstruction_failures_name_witnesses(disc2, monkeypatch):
    """Break each check on purpose: a bijection onto a larger relation,
    and a reconstruction whose triple fails (PCS1)."""
    onto_larger = PcsMorphism(
        validate_pcs(disc2, 0b11, frozenset()),
        validate_pcs(disc2, 0b11, frozenset({(0, 0)})),
        (0, 1),
    )
    assert (
        pcs_iso_report(onto_larger).check("relation preserved and reflected").witness
        == "(a,a) is not reflected"
    )

    monkeypatch.setattr(topology, "is_t0", lambda space: False)
    diag = AdjacencySpace(("a", "b"), frozenset({(0, 0), (1, 1)}),
                          discrete_space(("a", "b")))
    _, report = pcs_from_stone_adjacency(diag)
    assert report.check("triple validates").witness == "(PCS1) dense=True, T0=False"


def test_reconstruction_uniqueness_against_candidate():
    total = AdjacencySpace(("a", "b"), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
                           discrete_space(("a", "b")))
    candidate = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    triple, report = pcs_from_stone_adjacency(total)
    assert report.ok
    assert pcs_isomorphic(triple, candidate) is not None


def test_reconstruction_refuses_what_is_not_a_stone_adjacency(sierpinski):
    """An adjacency space with no topology, or a topology that is not
    Stone, reads False on `is_stone_adjacency` and is refused."""
    untopologized = AdjacencySpace(("a", "b"), frozenset({(0, 1)}))
    not_stone = AdjacencySpace(("s0", "s1"), frozenset({(0, 1)}), sierpinski)
    for adjacency in (untopologized, not_stone):
        assert not adjacency.is_stone_adjacency
        with pytest.raises(PreconditionError, match="not a Stone adjacency space"):
            pcs_from_stone_adjacency(adjacency)


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


def test_the_isomorphism_search_agrees_with_the_canonical_form():
    """The permutation search finds a map exactly when the atom counts
    and the canonical kernel forms agree, and the map it finds carries
    one kernel onto the other: on every pair of kernels on 1 and 2
    atoms, and on seeded 3- and 4-atom kernels, each paired with a
    permuted copy of itself and with another seeded kernel.  The atom
    count matters, as the empty kernels on 1 and 2 atoms have the same
    form."""

    def isomorphic(a, b):
        found = pca_isomorphic(a, b)
        same = a.algebra.atom_count == b.algebra.atom_count and (
            canonical_kernel_form(a) == canonical_kernel_form(b)
        )
        assert (found is not None) == same, (a.kernel.pairs, b.kernel.pairs)
        if found is not None:
            assert frozenset((found[p], found[q]) for p, q in a.kernel.pairs) == b.kernel.pairs
        return same

    empty1, empty2 = pca_from_pairs(1, ()), pca_from_pairs(2, ())
    assert canonical_kernel_form(empty1) == canonical_kernel_form(empty2)
    algebras = small_algebras()
    assert {isomorphic(a, b) for a in algebras for b in algebras} == {True, False}
    rng = random.Random(20261019)

    def seeded(n):
        return frozenset((p, q) for p in range(n) for q in range(n) if rng.random() < 0.4)

    for n in (3, 4):
        for _ in range(20):
            pairs = seeded(n)
            pm = rng.sample(range(n), n)
            a = pca_from_pairs(n, pairs)
            assert isomorphic(a, pca_from_pairs(n, {(pm[p], pm[q]) for p, q in pairs}))
            isomorphic(a, pca_from_pairs(n, seeded(n)))


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
    # the path is in no subcategory: its connected case is the suite's
    # line "(Ccon) iff connected dual space"
    assert specialization_report(path_pca).checks == ()


def _first_pair_names(triple):
    x, y = min(triple.relation)
    return f"point pair ({triple.space.point_names[x]}, {triple.space.point_names[y]})"


# Three-atom algebras in the stone and connected-stone subcategories;
# the other lines are broken on the contact algebra CONTACT3.  A line of
# the first two is made to fail by reading the clans of the other.
DIAGONAL3 = smallest_contact(FiniteBooleanAlgebra(3))
TOTAL3 = largest_contact(FiniteBooleanAlgebra(3))
PATH3 = pca_from_pairs(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)})
CONTACT3 = pca_from_pairs(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})
SPECIALIZATION_ALGEBRAS = {"stone": DIAGONAL3, "connected-stone": TOTAL3}


def expected_specialization_lines(pca):
    """The line names of `specialization_report` on an algebra whose
    lines all pass, in order, from its memberships: the diagonal kernel
    (stone), all n**2 pairs (connected-stone) and the contact axioms.  An
    algebra in none of them has no line: its connected case is the
    suite's line."""
    n = pca.algebra.atom_count
    pairs = pca.kernel.pairs
    lines = []
    if pairs == {(p, p) for p in range(n)}:
        lines.append("clans are exactly the ultrafilters")
    if pairs == {(p, q) for p in range(n) for q in range(n)}:
        lines.append("clans are exactly the grills")
    if pca.axioms.is_contact:
        lines += [
            "dual pair is a 2-contact space",
            "the pair determines the relation",
            "regular closed sets of the dual all come from the pair",
            "dual space is C-semiregular",
            "u-points recover the dense part",
        ]
    return lines


def test_specialization_line_order():
    algebras = [pca_from_pairs(n, pairs) for n in (1, 2) for pairs in all_kernels(n)]
    algebras += [DIAGONAL3, TOTAL3, PATH3, CONTACT3]
    for pca in algebras:
        report = specialization_report(pca)
        assert not report.failures, report.failure_summary(" ")
        names = [c.name for c in report.checks]
        assert names == expected_specialization_lines(pca), sorted(pca.kernel.pairs)


def test_specialization_lines_are_added_once():
    """Above the widths `test_specialization_line_order` walks, each line
    is added once, in the order the memberships give: the smallest and
    largest contact and seeded contact kernels on 4 to 6 atoms.  The
    largest contact is both connected-stone and contact, and has the
    lines of both."""
    algebras = [
        make(FiniteBooleanAlgebra(n)) for n in (4, 5, 6) for make in (smallest_contact, largest_contact)
    ]
    algebras += [
        random_pca(RandomSpec(n, 0.4, seed, "contact")) for n in (4, 5, 6) for seed in range(3)
    ]
    for pca in algebras:
        report = specialization_report(pca)
        assert report.ok, report.failure_summary(" ")
        names = [c.name for c in report.checks]
        assert len(set(names)) == len(names), sorted(pca.kernel.pairs)
        assert names == expected_specialization_lines(pca), sorted(pca.kernel.pairs)


def _clans_of(pca):
    return (duality, "clan_supports", lambda _: precontact.clan_supports(pca))


# (specialization, line, module and function made to fail, expected
# witness on the dual triple)
BROKEN_SPECIALIZATION_LINES = [
    (
        "stone",
        "clans are exactly the ultrafilters",
        _clans_of(TOTAL3),
        lambda t: "clan support {0,1}",
    ),
    (
        "connected-stone",
        "clans are exactly the grills",
        _clans_of(DIAGONAL3),
        lambda t: "grill {0,1} is not a clan",
    ),
    (
        "contact",
        "the pair determines the relation",
        (duality, "contact_relation_of_pair", lambda cs: frozenset()),
        _first_pair_names,
    ),
    (
        "complete-contact",
        "regular closed sets of the dual all come from the pair",
        (duality, "rc_atoms", lambda space: ()),
        lambda t: "atom " + t.space.name_set(min(rc_atoms_of_subset(t.space, t.subset))),
    ),
    (
        "complete-contact",
        "dual space is C-semiregular",
        (topology, "clique_supports", lambda adjacency: [(1 << len(adjacency)) - 1]),
        lambda t: "every clan is a point trace unrealized clan support {"
        + ",".join(t.space.name_set(a) for a in rc_atoms(t.space))
        + "}",
    ),
]


@pytest.mark.parametrize(
    "which, line, broken, expected",
    BROKEN_SPECIALIZATION_LINES,
    # the lines of the stone and connected-stone algebras are named with
    # their specialization
    ids=[
        f"{which}: {line}" if which in SPECIALIZATION_ALGEBRAS else line
        for which, line, _, _ in BROKEN_SPECIALIZATION_LINES
    ],
)
def test_specialization_failures_name_witnesses(monkeypatch, which, line, broken, expected):
    """A line of each specialization, made to fail by patching one
    function it reads, names a concrete witness, never "no witness
    recorded"."""
    pca = SPECIALIZATION_ALGEBRAS.get(which, CONTACT3)
    triple = canonical_pcs_of_pca(pca)  # built before the patch, and held
    assert specialization_report(pca).check(line).passed
    monkeypatch.setattr(*broken)
    # the verdicts the space computed once are computed again under the patch
    for name in ("t0", "base_unrealized"):
        monkeypatch.delitem(triple.space.__dict__, name, raising=False)
    check = specialization_report(pca).check(line)
    assert not check.passed
    assert check.witness == expected(triple), check.witness


def test_the_mereocompact_line_reads_the_u_point_lines(monkeypatch):
    """"u-points recover the dense part" fails, naming the failing lines
    of the pair's mereocompactness report, when a u-point line of that
    report fails and the u-points are still the dense part."""
    pca = random_pca(RandomSpec(4, 0.4, 3, "contact"))
    assert specialization_report(pca).ok
    monkeypatch.setattr(structures, "rc_atoms_of_subset", lambda space, subset: ())
    triple = canonical_pcs_of_pca(pca)
    assert mereocompactness_report(rc_pair_algebra(triple)).u_set == triple.subset
    report = specialization_report(pca)
    assert [(c.name, c.witness) for c in report.failures] == [
        (
            "u-points recover the dense part",
            "closures of u-point clopens reproduce the members "
            + triple.space.name_set(triple.subset),
        )
    ]


def test_connectedness_correspondence(b4):
    assert not smallest_contact(b4).axioms.ccon
    assert not is_connected(canonical_pcs_of_pca(smallest_contact(b4)).space)
    assert largest_contact(b4).axioms.ccon
    assert is_connected(canonical_pcs_of_pca(largest_contact(b4)).space)


def _dual_pair(pca):
    triple = canonical_pcs_of_pca(pca)
    return validate_cs(triple.space, triple.subset)


def test_gmcs_preimage_hom(b4, b2):
    xl, point = _dual_pair(largest_contact(b4)), _dual_pair(smallest_contact(b2))
    assert gmcs_hom_check(xl, point, (0, 0, 0)).ok


def test_gmcs_rejects_a_point_map_that_is_not_total_into_the_target(b4, b2):
    two = _dual_pair(smallest_contact(b4))
    one = _dual_pair(smallest_contact(b2))
    for point_map in ((0,), (0, 0, 0), (0, -1), (0, 1)):
        with pytest.raises(DomainMismatchError, match="each source point to a target point"):
            gmcs_hom_check(two, one, point_map)


def test_gmcs_lines_that_can_fail_name_their_witness(b4, b2):
    """Two continuous maps into the 3-point dual of the largest contact
    on two atoms: the one point sent to the closed point c0-1, which lies
    in both target atoms, so both preimages hold the one source atom;
    and a self-map moving the closed point alone, whose preimage of the
    atom {c1,c0-1} is {c0-1}, no union of source atoms."""
    xl = _dual_pair(largest_contact(b4))
    point = _dual_pair(smallest_contact(b2))
    assert [tuple(c) for c in gmcs_hom_check(point, xl, (2,)).checks] == [
        ("preimages stay inside the source pair's regular closed sets", True, None),
        (
            "preimages of distinct target atoms share no source atom",
            False,
            "atoms {c0,c0-1} and {c1,c0-1} share {c0}",
        ),
    ]
    assert [tuple(c) for c in gmcs_hom_check(xl, xl, (0, 0, 2)).checks] == [
        (
            "preimages stay inside the source pair's regular closed sets",
            False,
            "preimage {c0-1} of atom {c1,c0-1}",
        ),
        ("preimages of distinct target atoms share no source atom", True, None),
    ]


def test_pcs_morphism_constructor_rejects_incoherent_maps():
    xl = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    # continuous, dense-preserving, relation-preserving, but moving the
    # closed point independently of the dense restriction
    with pytest.raises(PreconditionError):
        PcsMorphism(xl, xl, (0, 0, 2))
    PcsMorphism(xl, xl, (0, 0, 0))
