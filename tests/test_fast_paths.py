"""Differential tests: each reduced decision procedure against the literal
quantifier it replaces.

The reductions in ``precontact`` (the row form of (C+), the well-inside
axioms read off the rows and the packed matrix, the smallest interpolant
for (Ctr), (Csym) and (C6) at the atoms, the clique pass of
``clique_supports``, the grill and clan conditions of ``is_clan``), in
``adjacency`` (the ultrafilter adjacency read off the forward table at
the atoms, the Stone relation check at the atom pairs), in ``topology``
(closed bases by the meet of the members holding each point, clopens of
a subspace by its components, RC(X) by the closures of the maximal
points and the predicates read off them, pairs held by their atoms,
u-points of a pair at its atoms), in ``structures`` ((PCS2) by the
Stone trace, (PCS3) to (PCS5), (CS2) to (CS4) and (S2S4) at the atoms
of the clopen algebra, the pair's algebra and contact relation from
the closures of the clopen atoms, the closed base of the canonical
space from the atom clan sets,
the mereocompactness checks at the member atoms and the maximal points)
and in ``duality`` (the round-trip relation checks at the atom rows,
complements and meets from bijectivity, trace coherence at the clopen
atoms, the algebra naturality square and the invariants of the dual
algebra map at the atoms) are proved in their docstrings or comments; here they must agree
with the sweeps of ``oracles.py`` on every kernel with at most 3 atoms,
on seeded kernels with 4 to 6 atoms, on every space with at most 4
points or seeded spaces of up to 8 points, and on perturbations that
break the axioms.  The row form is also run on seeded 7- and 8-atom
kernels, and the suite is run with the element pair sets made
unavailable.
"""

import dataclasses
import itertools
import random
import sys

import pytest

from contactlab import adjacency, duality, structures, suite
from contactlab.adjacency import canonical_adjacency_literal_pairs
from contactlab.boolean import (
    BooleanHom,
    FiniteBooleanAlgebra,
    _first_map_mismatch,
    _first_pair_mismatch,
    bit_indices,
)
from contactlab.duality import (
    algebra_roundtrip_iso,
    enumerate_pca_morphisms,
    specialization_report,
)
from contactlab.errors import AxiomViolationError, DomainMismatchError, InternalError
from contactlab.precontact import (
    RawRelation,
    RelationKernel,
    _well_inside_flags,
    axiom_report,
    clan_supports,
    clique_supports,
    contact_from_well_inside_atoms,
    contact_from_well_inside_rows,
    expand_kernel,
    is_clan,
    normalize_relation,
    pca_from_pairs,
    well_inside_atom_flags,
    well_inside_atoms,
    well_inside_axiom_report,
    well_inside_pairs,
    well_inside_rows,
)
from contactlab.randgen import RandomSpec, child_seed, random_pca, random_pca_morphism
from contactlab.structures import (
    TwoPrecontactSpace,
    canonical_pcs_of_pca,
    contact_relation_of_pair,
    mereocompactness_report,
    pcs_algebra,
    triple_is_connected,
    validate_cs,
    validate_pcs,
    validate_s2s,
)
from contactlab.errors import PreconditionError
from contactlab.suite import instance_suite
from contactlab.topology import (
    FiniteSpace,
    MereotopologicalPair,
    clopen_sets,
    clopens_of_subset,
    closure,
    is_c_semiregular,
    is_closed_base,
    is_connected,
    is_extremally_disconnected,
    is_semiregular,
    is_u_point,
    rc_atoms,
    rc_atoms_of_subset,
    rc_members,
    rc_members_of_subset,
    space_from_closed_base,
    u_point_of_pair,
    unions,
)

from conftest import all_kernels
from oracles import (
    _closure_of as oracle_closure_of,
    expand_relation,
    family_from_base,
    oracle_axioms,
    oracle_c_semiregular,
    oracle_clan_supports,
    oracle_closed_family,
    oracle_contact_relation,
    oracle_cs4_s2s4,
    oracle_extremally_disconnected,
    oracle_algebra_square_witnesses,
    oracle_dual_map_failure,
    oracle_first_map_mismatch,
    oracle_first_mismatch,
    oracle_hom_image,
    oracle_preimage,
    oracle_is_clan,
    oracle_is_grill,
    oracle_is_closed_base,
    oracle_is_u_point,
    oracle_mereo_closure_failure,
    oracle_normalize,
    oracle_pcs2_pcs3,
    oracle_pcs4_pcs5,
    oracle_pcs_algebra,
    oracle_pcs_map_failure,
    oracle_rc_family,
    oracle_sigma_unrealized,
    oracle_subspace_clopens,
    oracle_u_point,
    oracle_u_point_of_pair,
    oracle_ultrafilter_adjacency,
    oracle_uniqueness_witness,
    oracle_well_inside_axioms,
)
from test_topology import all_small_spaces

WELL_INSIDE_FLAGS = (
    "ax1", "ax2", "ax2_prime", "ax3", "ax4", "ax4_prime", "ax5", "ax6", "ax7",
)
AXIOM_FLAGS = ("cref", "csym", "ctr", "ctr_sharp", "ccon", "c6")


def random_kernel(n, rng):
    density = rng.choice((0.1, 0.25, 0.5, 0.75, 0.9))
    return frozenset(
        (p, q) for p in range(n) for q in range(n) if rng.random() < density
    )


def transitive_closure(pairs):
    closed = set(pairs)
    while True:
        extra = {(p, r) for p, q in closed for q2, r in closed if q == q2} - closed
        if not extra:
            return frozenset(closed)
        closed |= extra


def seeded_kernels(seed, counts):
    """Random kernels, and their transitive closures, for each atom count."""
    rng = random.Random(seed)
    out = []
    for n, count in counts.items():
        for _ in range(count):
            pairs = random_kernel(n, rng)
            out.append((n, pairs))
            out.append((n, transitive_closure(pairs)))
    return out


def one_pair_perturbations(n, rel, rng, count):
    """``rel`` with one pair toggled: a pair with a zero side added, and
    ``count`` random nonzero pairs added or removed."""
    size = 1 << n
    out = [rel | {(0, rng.randrange(size))}, rel | {(rng.randrange(size), 0)}]
    for _ in range(count):
        pair = (rng.randrange(1, size), rng.randrange(1, size))
        out.append(rel ^ {pair})
    return [frozenset(r) for r in out]


# ---------------------------------------------------------------------------
# normalize_relation: verdict, axiom tag and exact witness


def normalize_verdict(n, rel):
    try:
        kernel = normalize_relation(RawRelation(FiniteBooleanAlgebra(n), rel))
    except AxiomViolationError as err:
        return err.axiom, err.witness
    return "ok", kernel.pairs


def normalize_population():
    """Expanded kernels on at most 3 atoms (every one-pair perturbation
    on at most 2 atoms, seeded ones on 3), then seeded 4-6 atom kernels
    with seeded perturbations."""
    rng = random.Random(20260901)
    out = []
    for n in (1, 2, 3):
        size = 1 << n
        for pairs in all_kernels(n):
            rel = expand_kernel(RelationKernel(FiniteBooleanAlgebra(n), pairs)).pairs
            out.append((n, rel))
            if n <= 2:
                out.extend(
                    (n, rel ^ {(a, b)}) for a in range(size) for b in range(size)
                )
            else:
                out.extend((n, r) for r in one_pair_perturbations(n, rel, rng, 2))
    for n, pairs in seeded_kernels(7, {4: 12, 5: 4, 6: 2}):
        rel = expand_kernel(RelationKernel(FiniteBooleanAlgebra(n), pairs)).pairs
        out.append((n, rel))
        out.extend((n, r) for r in one_pair_perturbations(n, rel, rng, 2))
    return out


def test_normalize_relation_matches_the_literal_sweep():
    tags = {}
    for n, rel in normalize_population():
        got = normalize_verdict(n, rel)
        assert got == oracle_normalize(n, rel), (n, sorted(rel))
        tags[got[0]] = tags.get(got[0], 0) + 1
    # the population exercises every outcome
    assert set(tags) == {"ok", "(C0)", "(C+)"}, tags


def test_normalize_rows_of_the_row_form_with_a_non_additive_s():
    """Every 2-atom relation whose rows are rows[a] = {b : b & S_a != 0}
    with S_0 = 0 but S_3 != S_1 | S_2: each row is additive, so only the
    column half of (C+) fails, and the witness must be the literal one."""
    rows_seen = 0
    for s1, s2, s3 in itertools.product(range(4), repeat=3):
        if s3 == s1 | s2:
            continue
        support = (0, s1, s2, s3)
        rel = frozenset(
            (a, b) for a in range(4) for b in range(4) if b & support[a]
        )
        got = normalize_verdict(2, rel)
        assert got[0] == "(C+)", support
        assert got == oracle_normalize(2, rel), support
        rows_seen += 1
    assert rows_seen == 48


@pytest.mark.parametrize("pair", [(1, 4), (4, 1), (-1, 1), (1, -2)])
def test_normalize_rejects_pairs_outside_the_algebra(b4, pair):
    with pytest.raises(DomainMismatchError):
        normalize_relation(RawRelation(b4, frozenset({(1, 1), pair})))


def test_normalize_reports_zero_pairs_before_range(b4):
    with pytest.raises(AxiomViolationError) as err:
        normalize_relation(RawRelation(b4, frozenset({(0, 9)})))
    assert err.value.axiom == "(C0)"


# ---------------------------------------------------------------------------
# well_inside_axiom_report: all nine flags


def well_inside_flags(n, rel):
    report = well_inside_axiom_report(FiniteBooleanAlgebra(n), rel)
    return {name: getattr(report, name) for name in WELL_INSIDE_FLAGS}


def well_inside_population():
    """Every relation on 1 atom; the well-inside relations of every kernel
    on at most 3 atoms and of seeded 4-5 atom kernels, with seeded
    one-pair perturbations; seeded arbitrary relations on 2-3 atoms."""
    rng = random.Random(20260902)
    out = []
    pairs_1 = [(a, b) for a in range(2) for b in range(2)]
    for chosen in range(1 << len(pairs_1)):
        out.append((1, frozenset(p for i, p in enumerate(pairs_1) if chosen >> i & 1)))
    kernels = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    kernels += seeded_kernels(11, {4: 6, 5: 3})
    for n, pairs in kernels:
        rel = well_inside_pairs(pca_from_pairs(n, pairs))
        out.append((n, rel))
        out.extend((n, r) for r in one_pair_perturbations(n, rel, rng, 1))
    for n, count in ((2, 300), (3, 100)):
        size = 1 << n
        for _ in range(count):
            density = rng.choice((0.2, 0.5, 0.8))
            out.append((n, frozenset(
                (a, b) for a in range(size) for b in range(size) if rng.random() < density
            )))
    return out


def test_well_inside_axiom_report_matches_the_literal_quantifiers():
    seen = {name: set() for name in WELL_INSIDE_FLAGS}
    ax3_false_ax4_values = set()
    for n, rel in well_inside_population():
        got = well_inside_flags(n, rel)
        assert got == oracle_well_inside_axioms(n, rel), (n, sorted(rel))
        for name, value in got.items():
            seen[name].add(value)
        if not got["ax3"]:
            ax3_false_ax4_values.add((got["ax4"], got["ax4_prime"]))
    # every flag is seen both ways, and (<<4)/(<<4') both ways off the
    # up-set path that (<<3) enables
    assert all(values == {True, False} for values in seen.values()), seen
    assert {v for pair in ax3_false_ax4_values for v in pair} == {True, False}


def test_well_inside_rejects_pairs_outside_the_algebra(b4):
    with pytest.raises(DomainMismatchError):
        well_inside_axiom_report(b4, frozenset({(0, 0), (0, 4)}))


def moves_closure(n, generators):
    """The smallest relation holding the generator pairs and closed
    under (<<3): every smaller left side and larger right side."""
    size = 1 << n
    return frozenset(
        (x, y)
        for a, b in generators
        for x in range(size)
        if x | a == a
        for y in range(size)
        if y | b == y
    )


def test_well_inside_flags_on_relations_closed_under_moves():
    """Relations that satisfy (<<3) without coming from a kernel: the
    (<<4), (<<4'), (<<5) and (<<7) reductions that (<<3) enables."""
    rng = random.Random(20261005)
    seen = {name: set() for name in WELL_INSIDE_FLAGS}
    ax4_ax5 = set()
    for _ in range(3000):
        n = rng.randint(1, 3)
        size = 1 << n
        generators = [
            (rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 4))
        ]
        rel = moves_closure(n, generators)
        got = well_inside_flags(n, rel)
        assert got == oracle_well_inside_axioms(n, rel), (n, generators)
        for name, value in got.items():
            seen[name].add(value)
        ax4_ax5.add((got["ax4"], got["ax5"]))
    assert seen.pop("ax3") == {True}
    assert all(values == {True, False} for values in seen.values()), seen
    # (<<5) both ways on the path where (<<4) holds and on the one where it fails
    assert len(ax4_ax5) == 4, ax4_ax5


# ---------------------------------------------------------------------------
# axiom_report: (Ctr) and (Ctr#) by the smallest interpolant


def test_axiom_report_matches_the_literal_quantifiers():
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(13, {4: 20, 5: 8, 6: 4})
    seen = {name: set() for name in AXIOM_FLAGS}
    for n, pairs in population:
        flags = axiom_report(pca_from_pairs(n, pairs))
        got = {name: getattr(flags, name) for name in AXIOM_FLAGS}
        assert got == oracle_axioms(n, expand_relation(n, pairs)), (n, sorted(pairs))
        for name, value in got.items():
            seen[name].add(value)
    assert all(values == {True, False} for values in seen.values()), seen


# ---------------------------------------------------------------------------
# canonical_adjacency_literal_pairs: the forward table at the atoms


def test_ultrafilter_adjacency_matches_the_literal_quantifier():
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(17, {4: 12, 5: 4, 6: 2})
    for n, pairs in population:
        got = canonical_adjacency_literal_pairs(pca_from_pairs(n, pairs))
        expected = oracle_ultrafilter_adjacency(n, expand_relation(n, pairs))
        assert got == expected, (n, sorted(pairs))


# ---------------------------------------------------------------------------
# clan_supports: the clique pass


def test_clan_supports_match_the_literal_clans():
    """``clan_supports``, and the clique pass on the contact closure's
    adjacency read off the kernel pairs, give the literal clan supports
    in (size, atoms) order."""
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(19, {4: 10, 5: 4, 6: 2})
    for n, pairs in population:
        expected = oracle_clan_supports(n, pairs)
        assert clan_supports(pca_from_pairs(n, pairs)) == expected, (n, sorted(pairs))
        adj = [1 << p for p in range(n)]
        for p, q in pairs:
            adj[p] |= 1 << q
            adj[q] |= 1 << p
        assert list(clique_supports(adj)) == expected, (n, sorted(pairs))


def test_is_clan_matches_the_literal_conditions():
    """Every element set on at most 3 atoms, under every kernel on at most
    2 atoms and seeded 3-atom kernels: the grill condition by the join of
    the non-members, the clan condition on the atom support."""
    population = [(n, k) for n in (1, 2) for k in all_kernels(n)]
    population += seeded_kernels(47, {3: 3})
    outcomes = set()
    for n, pairs in population:
        pca = pca_from_pairs(n, pairs)
        rel = expand_relation(n, pairs)
        size = 1 << n
        for chosen in range(1 << size):
            masks = frozenset(m for m in range(size) if chosen >> m & 1)
            got = is_clan(pca, masks)
            assert got == oracle_is_clan(n, masks, rel), (n, sorted(pairs), sorted(masks))
            outcomes.add((oracle_is_grill(n, masks), got))
    assert outcomes == {(False, False), (True, False), (True, True)}, outcomes


# ---------------------------------------------------------------------------
# closed bases: the meet of the members holding each point


def random_space(n, rng):
    """Singleton closures from the reflexive transitive closure of
    random arrows."""
    density = rng.choice((0.05, 0.15, 0.3, 0.5))
    closures = [
        (1 << x) | sum(1 << y for y in range(n) if rng.random() < density)
        for x in range(n)
    ]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            grown = closures[x]
            for y in bit_indices(closures[x]):
                grown |= closures[y]
            if grown != closures[x]:
                closures[x], changed = grown, True
    return FiniteSpace(tuple(f"p{x}" for x in range(n)), tuple(closures))


def with_edge_members(members, full, rng, kind):
    """Nonempty ``members`` with the empty set, the full mask or a
    repeated member added, or no members at all, by ``kind``."""
    if kind == "none":
        return []
    if kind == "zero":
        return members + [0]
    if kind == "full":
        return members + [full]
    return members + [rng.choice(members)]


EDGE_KINDS = ("none", "zero", "full", "repeated")


def test_space_from_closed_base_matches_the_generated_family():
    """Random bases on 1 to 6 points, and on seeded 7- and 8-point spaces
    with the empty set, the full mask, a repeated member or no member."""
    rng = random.Random(20261001)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 6)
        cases.append((n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]))
    for k in range(24):
        n = rng.randint(7, 8)
        base = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        cases.append((n, with_edge_members(base, (1 << n) - 1, rng, EDGE_KINDS[k % 4])))
    for n, base in cases:
        space = space_from_closed_base(tuple(f"p{x}" for x in range(n)), base)
        assert oracle_closed_family(space.point_closures) == family_from_base(
            n, base
        ), (n, base)


def test_is_closed_base_matches_the_union_closure_hull():
    """Member families of random spaces on 1 to 6 points, and of seeded
    7- and 8-point spaces with the empty set, the full mask, a repeated
    member or no member."""
    rng = random.Random(20261002)
    seen = set()
    cases = []
    for _ in range(300):
        space = random_space(rng.randint(1, 6), rng)
        closed = sorted(oracle_closed_family(space.point_closures))
        cases += [
            (space, rc_members(space)),
            (space, space.point_closures),
            (space, rng.sample(closed, rng.randint(0, len(closed)))),
            (
                space,
                rng.sample(closed, rng.randint(0, len(closed)))
                + [rng.randrange(space.full_mask + 1)],
            ),
        ]
    for k in range(24):
        space = random_space(rng.randint(7, 8), rng)
        closed = sorted(oracle_closed_family(space.point_closures))
        kind = EDGE_KINDS[k % 4]
        for members in (
            list(space.point_closures),
            list(rc_atoms(space)),
            rng.sample(closed, min(len(closed), rng.randint(1, 6))),
            [rng.randrange(space.full_mask + 1) for _ in range(rng.randint(1, 4))],
        ):
            cases.append((space, with_edge_members(members, space.full_mask, rng, kind)))
    for space, members in cases:
        got = is_closed_base(space, members)
        assert got == oracle_is_closed_base(space.point_closures, members), (
            space.point_closures,
            members,
        )
        seen.add((got, space.point_count > 6))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}, seen


# ---------------------------------------------------------------------------
# validate_pcs: (PCS2)..(PCS5) at the atoms of the clopen algebra


def random_relation(subset, rng):
    density = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
    points = list(bit_indices(subset))
    return frozenset(
        (x, y) for x in points for y in points if rng.random() < density
    )


def pcs_population():
    """Seeded triples on spaces of 1 to 7 points with subsets of at most
    6 points, dense or not, Stone or not; and the canonical triples of
    every kernel on at most 2 atoms and of seeded 3-atom kernels, with a
    relation pair dropped or added and a point dropped from the subset."""
    rng = random.Random(20261003)
    out = []
    for _ in range(800):
        space = random_space(rng.randint(1, 7), rng)
        points = rng.sample(range(space.point_count), min(6, space.point_count))
        subset = sum(1 << x for x in points[: rng.randint(1, len(points))])
        out.append((space, subset, random_relation(subset, rng)))
    kernels = [(n, k) for n in (1, 2) for k in all_kernels(n)]
    kernels += seeded_kernels(23, {3: 20})
    for n, pairs in kernels:
        triple = canonical_pcs_of_pca(pca_from_pairs(n, pairs))
        space, subset, relation = triple.space, triple.subset, triple.relation
        out.append((space, subset, relation))
        points = list(bit_indices(subset))
        if relation:
            out.append((space, subset, relation - {rng.choice(sorted(relation))}))
        out.append((space, subset, relation | {(rng.choice(points), rng.choice(points))}))
        if len(points) > 1:
            dropped = subset ^ (1 << rng.choice(points))
            kept = frozenset((x, y) for x, y in relation if dropped >> x & dropped >> y & 1)
            out.append((space, dropped, kept))
    return out


def test_validate_pcs_matches_the_literal_pcs4_pcs5_sweeps():
    seen = {"(PCS4)": set(), "(PCS5)": set()}
    for space, subset, relation in pcs_population():
        checks = {c.name: c for c in validate_pcs(space, subset, relation).checks}
        pcs4, pcs5 = oracle_pcs4_pcs5(space.point_closures, subset, relation)
        expected = {
            "(PCS4)": None
            if pcs4 is None
            else f"({space.name_set(pcs4[0])},{space.name_set(pcs4[1])})",
            "(PCS5)": None
            if pcs5 is None
            else "unrealized clan {" + ",".join(space.name_set(f) for f in pcs5) + "}",
        }
        for name, witness in expected.items():
            got = checks[name]
            assert (got.passed, got.witness) == (witness is None, witness), (
                name,
                space.point_closures,
                subset,
                sorted(relation),
            )
            seen[name].add(got.passed)
    assert seen == {"(PCS4)": {True, False}, "(PCS5)": {True, False}}, seen


def test_validate_pcs_matches_the_literal_pcs2_pcs3_definitions():
    """(PCS2) by the Stone trace and the discreteness of a Stone square,
    (PCS3) on the closures of the clopen atoms; (CS2) and (CS3) of the
    2-contact validator share both reductions."""
    seen = {"(PCS2)": set(), "(PCS3)": set(), "(CS2)": set(), "(CS3)": set()}
    for space, subset, relation in pcs_population():
        stone, closed_rel, base_ok = oracle_pcs2_pcs3(
            space.point_closures, subset, relation
        )
        pcs2 = stone and closed_rel
        expected = {
            "(PCS2)": None if pcs2 else f"stone={stone}, closed relation={closed_rel}",
            "(PCS3)": None
            if base_ok
            else "the pair's regular closed sets are not a closed base",
            "(CS2)": None if stone else "dense part is not a Stone space",
            "(CS3)": None
            if base_ok
            else "the pair's regular closed sets are not a closed base",
        }
        checks = {c.name: c for c in validate_pcs(space, subset, relation).checks}
        checks.update((c.name, c) for c in validate_cs(space, subset).checks)
        for name, witness in expected.items():
            got = checks[name]
            assert (got.passed, got.witness) == (witness is None, witness), (
                name,
                space.point_closures,
                subset,
                sorted(relation),
            )
            seen[name].add(witness)
    assert seen["(PCS2)"] == {
        None,
        "stone=False, closed relation=True",
        "stone=False, closed relation=False",
    }, seen["(PCS2)"]
    for name in ("(PCS3)", "(CS2)", "(CS3)"):
        assert len(seen[name]) == 2, (name, seen[name])


def test_canonical_space_matches_the_element_clan_set_base():
    """The atom clan sets generate the closed base of all element clan
    sets."""
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(37, {4: 10, 5: 5, 6: 3})
    for n, pairs in population:
        pca = pca_from_pairs(n, pairs)
        supports = clan_supports(pca)
        base = [
            sum(1 << i for i, s in enumerate(supports) if s & a) for a in range(1 << n)
        ]
        space = canonical_pcs_of_pca(pca).space
        assert space == space_from_closed_base(space.point_names, base), (
            n,
            sorted(pairs),
        )


# ---------------------------------------------------------------------------
# clopen and regular closed families at their atoms


@pytest.fixture(scope="module")
def spaces_with_subsets():
    """Every space with at most 4 points with each of its dense subsets,
    and seeded spaces of 5 to 8 points with a random subset of at most 6
    points, dense or not."""
    out = [
        (space, sub)
        for n in range(1, 5)
        for space in all_small_spaces(n)
        for sub in range(1, space.full_mask + 1)
        if closure(space, sub) == space.full_mask
    ]
    rng = random.Random(20261008)
    for _ in range(80):
        space = random_space(rng.randint(5, 8), rng)
        points = rng.sample(range(space.point_count), rng.randint(1, min(6, space.point_count)))
        out.append((space, sum(1 << x for x in points)))
    return out


def test_clopen_and_rc_atoms_match_the_family_sweeps(spaces_with_subsets):
    """The clopens of a subspace are the unions of its components, RC(X)
    the unions of the closures of the maximal points, and the pair's
    regular closed sets those of the closures of the clopen atoms."""
    seen = {"semiregular": set(), "connected": set(), "complete": set()}
    rc_of = {}
    for space, sub in spaces_with_subsets:
        closures = space.point_closures
        clopens = oracle_subspace_clopens(closures, sub)
        pair_rc = sorted({oracle_closure_of(closures, f) for f in clopens})
        assert list(clopens_of_subset(space, sub)) == clopens, (closures, sub)
        assert list(rc_members_of_subset(space, sub)) == pair_rc, (closures, sub)
        if sub == space.full_mask or sub.bit_count() < 4:
            rc = oracle_rc_family(closures)
            assert list(rc_members(space)) == rc, closures
            semiregular = oracle_is_closed_base(closures, rc)
            connected = len(oracle_subspace_clopens(closures, space.full_mask)) <= 2
            assert is_semiregular(space) == semiregular, closures
            assert is_connected(space) == connected, closures
            seen["semiregular"].add(semiregular)
            seen["connected"].add(connected)
        if closures not in rc_of:
            rc_of[closures] = set(oracle_rc_family(closures))
        complete = rc_of[closures] == set(pair_rc)
        assert (rc_atoms(space) == rc_atoms_of_subset(space, sub)) == complete
        seen["complete"].add(complete)
    assert all(v == {True, False} for v in seen.values()), seen


def test_space_predicates_match_the_open_set_sweeps():
    """Extremal disconnectedness by the smallest open sets, u-points by
    the atoms of RC(X) above them, C-semiregularity by the atom supports
    of the points."""
    seen = {"ed": set(), "u": set(), "csr": set()}
    spaces = [space for n in range(5) for space in all_small_spaces(n)]
    rng = random.Random(20261009)
    spaces += [random_space(rng.randint(5, 8), rng) for _ in range(30)]
    for space in spaces:
        closures = space.point_closures
        ed = oracle_extremally_disconnected(closures)
        assert is_extremally_disconnected(space) == ed, closures
        for x in range(space.point_count):
            u = oracle_is_u_point(closures, x)
            assert is_u_point(space, x) == u, (closures, x)
            seen["u"].add(u)
        if len(rc_atoms(space)) <= 5:
            csr = oracle_c_semiregular(closures)
            assert is_c_semiregular(space) == csr, closures
            seen["csr"].add(csr)
        seen["ed"].add(ed)
    assert all(v == {True, False} for v in seen.values()), seen


def test_closure_trace_checks_match_the_all_clopens_sweeps(spaces_with_subsets):
    """(CS4) and (S2S4) by the closure supports of the points, with the
    witness of the literal sweep, and the pair's contact relation by the
    closures of the clopen atoms."""
    seen = {"(CS4)": set(), "(S2S4)": set(), "related": set()}
    for space, sub in spaces_with_subsets:
        closures = space.point_closures
        cs4, s2s4 = oracle_cs4_s2s4(closures, sub)
        cs = validate_cs(space, sub)
        checks = {c.name: c for c in cs.checks + validate_s2s(space, sub).checks}
        for name, unrealized in (("(CS4)", cs4), ("(S2S4)", s2s4)):
            witness = (
                None
                if unrealized is None
                else "unrealized {" + ",".join(space.name_set(f) for f in unrealized) + "}"
            )
            got = checks[name]
            assert (got.passed, got.witness) == (witness is None, witness), (
                name,
                closures,
                sub,
            )
            seen[name].add(got.passed)
        if cs.ok:
            relation = oracle_contact_relation(closures, sub)
            assert contact_relation_of_pair(cs) == relation, (closures, sub)
            seen["related"].update(
                (x, y) in relation for x in bit_indices(sub) for y in bit_indices(sub)
            )
    assert all(v == {True, False} for v in seen.values()), seen


def test_pcs_algebra_matches_the_pair_family():
    """The canonical algebra of a valid triple: atoms, members and kernel
    of the closures of all clopens of the dense part, whether the triple
    comes from ``validate_pcs`` or is constructed directly."""
    seen = set()
    for space, subset, relation in pcs_population():
        triple = validate_pcs(space, subset, relation)
        if not triple.ok:
            continue
        atoms, members, kernel = oracle_pcs_algebra(space.point_closures, subset, relation)
        # the atom table handed over by validate_pcs, and rebuilt on a
        # triple constructed directly
        rebuilt = TwoPrecontactSpace(space, subset, relation, triple.checks)
        for algebra in (pcs_algebra(triple), pcs_algebra(rebuilt)):
            assert list(algebra.atom_masks) == atoms
            assert list(algebra.members) == members
            assert algebra.pca.kernel.pairs == kernel
        seen.update(
            (i, j) in kernel for i in range(len(atoms)) for j in range(len(atoms))
        )
    assert seen == {True, False}


def test_pcs_map_check_matches_the_all_clopens_trace_coherence():
    """Trace coherence on the clopen atoms of the target's dense part
    against the sweep over all its clopens, on seeded point maps between
    triples on at most 3 points; every failing condition is seen."""
    rng = random.Random(20261010)
    triples = []
    for space in (s for n in range(1, 4) for s in all_small_spaces(n)):
        for sub in range(1, space.full_mask + 1):
            if closure(space, sub) == space.full_mask:
                triples.append(TwoPrecontactSpace(space, sub, random_relation(sub, rng)))
    seen = set()
    for _ in range(4000):
        source, target = rng.choice(triples), rng.choice(triples)
        point_map = tuple(
            rng.randrange(target.space.point_count) for _ in range(source.space.point_count)
        )
        failure = oracle_pcs_map_failure(
            (source.space.point_closures, source.subset, source.relation),
            (target.space.point_closures, target.subset, target.relation),
            point_map,
        )
        assert duality._is_valid_pcs_map(source, target, point_map) == (failure is None)
        seen.add(failure)
    assert seen == {None, "continuity", "dense part", "relation", "trace coherence"}, seen


def test_mereocompactness_matches_the_clan_and_candidate_sweeps(monkeypatch):
    """The clan check by the atom supports of the points, the
    reproduction check by atom lists, and the uniqueness check by the
    maximal points, against the sweeps over all member sets and all
    2**points candidate subsets.  On mereocompact T0 pairs the u-points
    always reproduce the members and are the maximal points, so the last
    two checks are also run with every subset posing as the u-point set
    of the pairs on at most 4 points."""
    seen = {"clan": set(), "reproduced": set(), "unique": set()}
    families = []
    rng = random.Random(20261011)
    spaces = [space for n in range(1, 5) for space in all_small_spaces(n)]
    spaces += [random_space(rng.randint(5, 6), rng) for _ in range(12)]
    for space in spaces:
        rc = rc_members(space)
        families += [(space, rc), (space, clopen_sets(space))]
        if space.point_count != 4:
            families.append((space, rc + rc[1:2]))
    reached = []
    for space, members in families:
        try:
            mereo = MereotopologicalPair.from_members(space, members)
        except (PreconditionError, DomainMismatchError):
            continue
        report = mereocompactness_report(mereo)
        unrealized = oracle_sigma_unrealized(space.point_closures, members)
        clan = next(c for c in report.checks if c.name == "every clan is a point trace")
        witness = None
        if unrealized is not None:
            witness = "unrealized clan {" + ",".join(space.name_set(f) for f in unrealized) + "}"
        assert (clan.passed, clan.witness) == (unrealized is None, witness), (
            space.point_closures,
            members,
        )
        seen["clan"].add(clan.passed)
        if report.is_space and report.is_t0 and report.is_mereocompact:
            posed = range(space.full_mask + 1) if space.point_count <= 4 else [None]
            reached += [(mereo, u_set) for u_set in posed]
    for mereo, u_set in reached:
        space, members = mereo.space, mereo.members
        if u_set is not None:
            monkeypatch.setattr(structures, "held_once", lambda sets, u=u_set: u)
        report = mereocompactness_report(mereo)
        closures, u_set = space.point_closures, report.u_set
        pair_rc = {
            oracle_closure_of(closures, f) for f in oracle_subspace_clopens(closures, u_set)
        }
        reproduced = closure(space, u_set) == space.full_mask and pair_rc == set(members)
        check = next(c for c in report.checks if c.name.startswith("closures of u-point"))
        assert check.passed == reproduced, (closures, members, u_set)
        witness = oracle_uniqueness_witness(closures, u_set, members)
        assert report.uniqueness_witness == witness, (closures, members, u_set)
        seen["reproduced"].add(reproduced)
        seen["unique"].add(witness is None)
    assert all(v == {True, False} for v in seen.values()), seen


def boolean_subalgebras(atoms):
    """Every Boolean subalgebra of the unions of ``atoms``: the unions of
    the blocks of each partition of the atoms."""
    partitions = [[]]
    for a in atoms:
        partitions = [
            blocks[:i] + [blocks[i] | a] + blocks[i + 1 :]
            for blocks in partitions
            for i in range(len(blocks))
        ] + [blocks + [a] for blocks in partitions]
    return [unions(blocks) for blocks in partitions]


def mereo_verdict(space, members):
    """The message ``MereotopologicalPair.from_members`` raises, or None
    when the pair it returns has exactly the given members."""
    try:
        pair = MereotopologicalPair.from_members(space, members)
    except PreconditionError as exc:
        return str(exc)
    assert set(pair.members) == set(members), (space.point_closures, members)
    return None


def test_mereotopological_pair_matches_the_member_pair_loop():
    """Closure under complement, join and meet decided at the distinct
    minimal members, against the loop over all member pairs: on every
    family of regular closed sets holding 0 and X, ascending and
    reversed, of every space with at most 3 points, and on seeded
    Boolean subalgebras of RC(X) of spaces with 4 to 8 points, each
    with one member dropped, one regular closed set added, or one
    member swapped for a regular closed set outside it."""
    families = []
    for space in (s for n in range(1, 4) for s in all_small_spaces(n)):
        rc = rc_members(space)
        inner = [m for m in rc if m not in (0, space.full_mask)]
        for r in range(len(inner) + 1):
            for chosen in itertools.combinations(inner, r):
                members = tuple(sorted({0, space.full_mask, *chosen}))
                families += [(space, members, False), (space, members[::-1], False)]
    rng = random.Random(20261018)
    swap_rng = random.Random(20261020)
    for _ in range(40):
        space = random_space(rng.randint(4, 8), rng)
        atoms = rc_atoms(space)
        blocks = {}
        for a in atoms:
            label = rng.randrange(len(atoms))
            blocks[label] = blocks.get(label, 0) | a
        members = list(unions(blocks.values()))
        families.append((space, tuple(members), True))
        inner = [m for m in members if m not in (0, space.full_mask)]
        if inner:
            dropped = rng.choice(inner)
            families.append((space, tuple(m for m in members if m != dropped), True))
        outside = [m for m in rc_members(space) if m not in members]
        if outside:
            added = members + [rng.choice(outside)]
            rng.shuffle(added)
            families.append((space, tuple(added), True))
        if inner and outside:
            kept = [m for m in members if m != swap_rng.choice(inner)]
            families.append((space, tuple(kept + [swap_rng.choice(outside)]), True))
    seen = set()
    for space, members, seeded in families:
        expected = oracle_mereo_closure_failure(space.point_closures, members)
        assert mereo_verdict(space, members) == expected, (space.point_closures, members)
        seen.add((expected, seeded))
    messages = {
        None,
        "subalgebra not closed under complement",
        "subalgebra not closed under join/meet",
    }
    assert seen == {(m, seeded) for m in messages for seeded in (False, True)}, seen


def literal_minimal_members(family):
    """The nonzero members with no other nonzero member inside them,
    ascending."""
    return sorted(
        m for m in family if m and not any(o and o != m and o | m == m for o in family)
    )


def test_pair_atoms_match_the_member_pair_loop():
    """A pair held by its atoms is accepted iff the unions of the atoms
    are closed under complement, join and meet (the member-pair loop)
    and the atoms are their minimal members: on every ascending list of
    distinct nonzero regular closed sets of every space with at most 3
    points, and on seeded lists for spaces of 4 to 8 points: the blocks
    of a partition of the atoms of RC(X), those blocks with one dropped
    or with the union of two added, the atoms with a block added, and a
    random choice of regular closed sets."""
    lists = []
    for space in (s for n in range(1, 4) for s in all_small_spaces(n)):
        nonzero = rc_members(space)[1:]
        for r in range(len(nonzero) + 1):
            lists += [(space, atoms, False) for atoms in itertools.combinations(nonzero, r)]
    rng = random.Random(20261019)
    for _ in range(60):
        space = random_space(rng.randint(4, 8), rng)
        atoms = rc_atoms(space)
        blocks = {}
        for a in atoms:
            label = rng.randrange(len(atoms))
            blocks[label] = blocks.get(label, 0) | a
        blocks = sorted(blocks.values())
        candidates = [blocks, blocks[1:], blocks + [blocks[0] | blocks[-1]]]
        candidates.append(list(atoms) + [blocks[-1]])
        nonzero = rc_members(space)[1:]
        candidates.append(rng.sample(nonzero, min(len(nonzero), rng.randint(1, 4))))
        lists += [(space, tuple(sorted(set(c))), True) for c in candidates]
    seen = set()
    for space, atoms, seeded in lists:
        closures = space.point_closures
        family = {0}
        for a in atoms:
            family |= {m | a for m in family}
        members = sorted(family)
        expected = (
            oracle_mereo_closure_failure(closures, members) is None
            and literal_minimal_members(family) == list(atoms)
        )
        try:
            MereotopologicalPair(space, atoms)
            accepted = True
        except PreconditionError:
            accepted = False
        assert accepted == expected, (closures, atoms)
        seen.add((expected, seeded))
    assert seen == {(v, seeded) for v in (True, False) for seeded in (False, True)}, seen


def test_pair_reports_build_no_member_family(monkeypatch):
    """`specialization_report` and `mereocompactness_report` read a pair
    at its atoms: on 30 seeded contact algebras of 1 to 6 atoms, with
    the member view made to raise, both pass with the checks they give
    when it is there."""
    population = [
        random_pca(RandomSpec(atoms=n, density=d, seed=child_seed(53, i), constraint="contact"))
        for n in range(1, 7)
        for i, d in enumerate((0.15, 0.3, 0.5, 0.7, 0.85))
    ]

    def reports(pca):
        triple = canonical_pcs_of_pca(pca)
        pair = MereotopologicalPair(triple.space, rc_atoms_of_subset(triple.space, triple.subset))
        return specialization_report(pca), mereocompactness_report(pair)

    expected = [reports(pca) for pca in population]

    def refuse(pair):
        raise AssertionError("the member family of a pair was built")

    monkeypatch.setattr(MereotopologicalPair, "members", property(refuse))
    for pca, (special, mereo) in zip(population, expected):
        got_special, got_mereo = reports(pca)
        assert special.ok and mereo.ok, (pca.kernel.pairs, special.failures, mereo.failures)
        assert "dual pair's member algebra is mereocompact" in [c.name for c in special.checks]
        assert got_special.checks == special.checks
        assert got_mereo.checks == mereo.checks


def test_u_point_of_pair_matches_the_member_pair_sweep():
    """u-points of a pair by the distinct atoms holding the point,
    against the sweep over all member pairs: on every Boolean subalgebra
    of RC(X) for every space with at most 4 points, and on seeded
    subalgebras of spaces with 5 to 8 points.  On RC(X) itself, for at
    most 4 points, the pair's u-points are the space's (``oracle_u_point``)."""
    rng = random.Random(20261012)
    pairs = []
    for space in (s for n in range(1, 5) for s in all_small_spaces(n)):
        pairs += [(space, members) for members in boolean_subalgebras(rc_atoms(space))]
    for _ in range(30):
        space = random_space(rng.randint(5, 8), rng)
        atoms = rc_atoms(space)
        labels = [rng.randrange(len(atoms)) for _ in atoms]
        blocks = {}
        for label, a in zip(labels, atoms):
            blocks[label] = blocks.get(label, 0) | a
        pairs.append((space, unions(blocks.values())))
        pairs.append((space, rc_members(space)))
    seen = set()
    for space, members in pairs:
        mereo = MereotopologicalPair.from_members(space, members)
        closures = space.point_closures
        whole = space.point_count <= 4 and members == rc_members(space)
        family = oracle_closed_family(closures) if whole else None
        for x in range(space.point_count):
            expected = oracle_u_point_of_pair(closures, members, x)
            assert u_point_of_pair(mereo, x) == expected, (closures, members, x)
            if whole:
                assert expected == oracle_u_point(family, space.full_mask, x)
            seen.add((expected, space.point_count > 4))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}, seen


# ---------------------------------------------------------------------------
# algebra_roundtrip_iso: relation checks at the atom pairs


def test_first_pair_mismatch_matches_the_literal_sweep():
    """Two kernels, one with one atom pair toggled: the comparison of
    their atom rows must see the mismatch and name the first differing
    element pair of the expanded relations."""
    rng = random.Random(20261004)
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(29, {4: 6, 5: 3, 6: 2})
    for n, pairs in population:
        toggled = pairs ^ {(rng.randrange(n), rng.randrange(n))}
        for other in (pairs, toggled):
            got = _first_pair_mismatch(
                pca_from_pairs(n, pairs).kernel._succ, pca_from_pairs(n, other).kernel._succ
            )
            expected = oracle_first_mismatch(
                n, expand_relation(n, pairs), expand_relation(n, other)
            )
            assert got == expected, (n, sorted(pairs), sorted(other))


def test_valid_round_trips_take_no_closure(monkeypatch):
    """A bijective round trip decides complements and meets without a
    closure: on every kernel with at most 3 atoms and on 30 seeded 4- and
    5-atom kernels (15 random ones and their transitive closures), a
    valid round trip passes with the closure refused."""

    def refuse(space, mask):
        raise AssertionError("a closure was taken on a bijective round trip")

    monkeypatch.setattr(duality, "closure", refuse)
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(53, {4: 10, 5: 5})
    for n, pairs in population:
        report = algebra_roundtrip_iso(pca_from_pairs(n, pairs)).report
        assert report.ok, (n, sorted(pairs), report.failures)


def test_roundtrip_images_preserve_joins():
    """The literal join sweep that the round trip records from the
    construction of its images; every check of these round trips,
    including the ones decided at the atom pairs, passes."""
    population = [(n, k) for n in (1, 2) for k in all_kernels(n)]
    population += seeded_kernels(31, {3: 6, 4: 3})
    for n, pairs in population:
        round_trip = algebra_roundtrip_iso(pca_from_pairs(n, pairs))
        images, size = round_trip.images, 1 << n
        assert all(
            images[a | b] == images[a] | images[b]
            for a in range(size)
            for b in range(size)
        )
        assert round_trip.report.ok, round_trip.report.failures


def test_roundtrip_failures_name_witnesses(path_pca, monkeypatch):
    """Break bijectivity, the closure and the contact closure inside the
    round trip: bijectivity, complements, meets, proximity and the closed
    canonical relation fail, each naming its first witness.  Bijectivity
    is broken by dropping the top member, since the complement and meet
    sweeps run only when it fails."""
    real_pcs_algebra = duality.pcs_algebra

    def without_top(triple):
        alg = real_pcs_algebra(triple)
        return dataclasses.replace(alg, members=alg.members[:-1])

    monkeypatch.setattr(duality, "pcs_algebra", without_top)
    monkeypatch.setattr(duality, "closure", lambda space, mask: mask)
    monkeypatch.setattr(duality, "_closure_succ", lambda kernel: kernel._succ)
    round_trip = algebra_roundtrip_iso(path_pca)
    assert not round_trip.report.check(
        "bijective onto the pair's regular closed sets"
    ).passed
    images, size, full = round_trip.images, 8, 7
    points = round_trip.space.space.full_mask
    report = round_trip.report

    comp = next(a for a in range(size) if images[full ^ a] != points ^ images[a])
    meet = next(
        (a, b)
        for a in range(size)
        for b in range(size)
        if images[a & b] != images[a] & images[b]
    )
    rel = expand_relation(3, path_pca.kernel.pairs)
    overlap = {(a, b) for a in range(size) for b in range(size) if images[a] & images[b]}
    atoms = round_trip.canonical.atom_masks
    kernel = round_trip.canonical.pca.kernel.pairs
    proximity = {
        (i, j) for i in range(len(atoms)) for j in range(len(atoms)) if atoms[i] & atoms[j]
    }
    assert report.check("preserves complements").witness == f"a = {comp}"
    assert report.check("preserves meets").witness == f"(a, b) = {meet}"
    assert (
        report.check("contact closure matches the pair's proximity").witness
        == f"(a, b) = {oracle_first_mismatch(3, rel, overlap)}"
    )
    assert (
        report.check("closed canonical relation coincides with the pair's proximity").witness
        == f"atom pair {sorted(kernel ^ proximity)[0]}"
    )


# ---------------------------------------------------------------------------
# join-preserving maps at their atoms: the naturality square and the dual
# algebra map


def hom_population():
    """Every hom between algebras of 1 to 3 atoms, and 24 seeded homs
    between algebras of 4 to 6 atoms."""
    homs = [
        hom
        for s, t in itertools.product((1, 2, 3), repeat=2)
        for hom in duality.enumerate_boolean_homs(FiniteBooleanAlgebra(s), FiniteBooleanAlgebra(t))
    ]
    rng = random.Random(20261018)
    for _ in range(24):
        source = FiniteBooleanAlgebra(rng.randint(4, 6))
        target = FiniteBooleanAlgebra(rng.randint(4, 6))
        atom_map = tuple(rng.randrange(source.atom_count) for _ in range(target.atom_count))
        homs.append(BooleanHom(source, target, atom_map))
    return homs


def test_first_map_mismatch_matches_the_literal_sweep():
    """Each hom against every hom with the same algebras (a seeded few,
    and the hom with one atom moved, above 3 atoms): the comparison at
    the atoms names the first element of the sweep over all elements."""
    homs = hom_population()
    by_algebras = {}
    for hom in homs:
        by_algebras.setdefault((hom.source, hom.target), []).append(hom)
    rng = random.Random(20261019)
    seen = set()
    for hom in homs:
        n = hom.source.atom_count
        others = by_algebras[(hom.source, hom.target)]
        if n > 3:
            moved = list(hom.atom_map)
            moved[rng.randrange(len(moved))] = rng.randrange(n)
            others = others[:3] + [BooleanHom(hom.source, hom.target, tuple(moved))]
        for other in others:
            got = _first_map_mismatch(
                [hom.apply_mask(1 << p) for p in range(n)],
                [other.apply_mask(1 << p) for p in range(n)],
            )
            expected = oracle_first_map_mismatch(
                1 << n,
                lambda a: oracle_hom_image(hom.atom_map, a),
                lambda a: oracle_hom_image(other.atom_map, a),
            )
            assert got == expected, (hom.atom_map, other.atom_map)
            seen.add((expected is None, n > 3))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}, seen


def morphism_population():
    """Seeded PCA-morphisms between algebras of 1 to 4 atoms."""
    sizes = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
    return [
        random_pca_morphism(s, t, 0.3 + 0.1 * (i % 4), child_seed(20261020, i))
        for i, (s, t) in enumerate(sizes * 2)
    ]


SQUARE_CHECKS = (
    "preimages of basic closed sets match the hom images",
    "the square commutes",
)


def test_algebra_square_witnesses_match_the_literal_sweeps(monkeypatch):
    """Break the algebra naturality square on purpose: the dual space map
    of phi, or only the dual algebra map, is replaced by the one of
    another morphism between the same algebras.  Each check names the
    first element mask of the sweep over all elements."""
    real_space_map, real_algebra_map = duality.dual_space_map, duality.dual_algebra_map
    seen = {name: set() for name in SQUARE_CHECKS}
    for phi in morphism_population():
        others = [
            g for g in enumerate_pca_morphisms(phi.source, phi.target) if g.hom != phi.hom
        ]
        a_trip = algebra_roundtrip_iso(phi.source)
        b_trip = algebra_roundtrip_iso(phi.target)
        atoms = (
            pcs_algebra(a_trip.space).atom_masks,
            pcs_algebra(b_trip.space).atom_masks,
        )
        for g in [phi] + others[:3]:
            for broken in ("space map", "algebra map"):
                f = real_space_map(g if broken == "space map" else phi)
                psi = real_algebra_map(real_space_map(g))
                monkeypatch.setattr(duality, "dual_space_map", lambda m, f=f: f)
                monkeypatch.setattr(duality, "dual_algebra_map", lambda m, psi=psi: psi)
                report = duality.check_naturality(phi)
                expected = oracle_algebra_square_witnesses(
                    phi.source.algebra.size,
                    (phi.hom.atom_map, f.point_map, psi.hom.atom_map),
                    (a_trip.images, b_trip.images),
                    atoms,
                )
                for name, first in zip(SQUARE_CHECKS, expected):
                    check = report.check(name)
                    assert check.passed == (first is None), (phi, g.hom, broken, name)
                    assert check.witness == (None if first is None else f"element mask {first}")
                    seen[name].add(first is None)
    assert all(v == {True, False} for v in seen.values()), seen


def test_dual_algebra_map_invariants_match_the_literal_sweeps(monkeypatch):
    """Break the dual algebra map on purpose: add a point set to the
    image of every target member that holds the first target atom (the
    action still preserves unions), or rotate the atom map before it is
    checked.  The map fails with the message of the first invariant that
    the sweeps over all target elements break, or is built when they
    pass; each message is seen."""
    real_action = duality._pointwise_dual_hom
    seen = set()
    for phi in morphism_population():
        f = duality.dual_space_map(phi)
        source, target = f.source, f.target
        source_atoms = pcs_algebra(source).atom_masks
        target_atoms = pcs_algebra(target).atom_masks
        first_dense = target_atoms[0] & target.subset
        extras = [0] + [1 << x for x in range(source.space.point_count)] + list(source_atoms)
        for extra, rotated in [(e, False) for e in extras] + [(0, True)]:

            def reorder(atom_map, rotated=rotated):
                return atom_map[1:] + atom_map[:1] if rotated else atom_map

            def literal_action(member, extra=extra):
                pre = oracle_preimage(f.point_map, member & target.subset) & source.subset
                image = oracle_closure_of(source.space.point_closures, pre)
                return image | (extra if member & first_dense else 0)

            def broken_action(morphism, extra=extra):
                action = real_action(morphism)
                return lambda member: action(member) | (extra if member & first_dense else 0)

            monkeypatch.setattr(duality, "_pointwise_dual_hom", broken_action)
            monkeypatch.setattr(
                duality,
                "BooleanHom",
                lambda s, t, atom_map, reorder=reorder: BooleanHom(s, t, reorder(atom_map)),
            )
            expected = oracle_dual_map_failure(source_atoms, target_atoms, literal_action, reorder)
            try:
                duality.dual_algebra_map(duality.PcsMorphism(source, target, f.point_map))
                got = None
            except InternalError as error:
                got = str(error)
            except PreconditionError:
                got = "not a PCA-morphism"
            assert got == expected, (phi, extra, rotated)
            seen.add(got)
    assert seen >= {
        None,
        "image leaves the pair's regular closed sets",
        "the dual map is not a Boolean homomorphism",
        "atom map does not reproduce the dual action",
    }, seen


def test_naturality_evaluates_maps_at_the_atoms_only(monkeypatch):
    """On a valid 6-atom morphism, the algebra naturality square and the
    dual algebra map take preimages and hom images at the atoms only:
    no more than one preimage per atom for each of them, and each hom
    image of an atom, where the sweeps took 2**6 of each."""
    phi = random_pca_morphism(6, 6, 0.4, child_seed(20261021, 0))
    n = 6
    preimages, hom_arguments = [], []
    real_preimage, real_apply = duality.PcsMorphism.preimage_mask, BooleanHom.apply_mask

    def counted_preimage(self, mask):
        preimages.append(mask)
        return real_preimage(self, mask)

    def recorded_apply(self, mask):
        hom_arguments.append(mask)
        return real_apply(self, mask)

    monkeypatch.setattr(duality.PcsMorphism, "preimage_mask", counted_preimage)
    monkeypatch.setattr(BooleanHom, "apply_mask", recorded_apply)
    assert duality.check_naturality(phi).ok
    # the square: n preimages; the dual algebra map inside it: n more
    assert len(preimages) <= 2 * n, len(preimages)
    assert len(hom_arguments) <= 3 * n, len(hom_arguments)
    assert all(m.bit_count() == 1 for m in hom_arguments), hom_arguments

    f = duality.dual_space_map(phi)
    preimages.clear()
    hom_arguments.clear()
    duality.dual_algebra_map(duality.PcsMorphism(f.source, f.target, f.point_map))
    assert len(preimages) <= n, len(preimages)
    assert len(hom_arguments) <= n, len(hom_arguments)
    assert all(m.bit_count() == 1 for m in hom_arguments), hom_arguments


# ---------------------------------------------------------------------------
# the row form above the default enumeration width


def test_row_form_round_trips_on_seven_and_eight_atoms(monkeypatch):
    """The interdefinability round trip through the well-inside rows and
    the kernel expansion both give back the kernel."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    for n, pairs in seeded_kernels(41, {7: 2, 8: 1}):
        pca = pca_from_pairs(n, pairs)
        rebuilt = contact_from_well_inside_rows(pca.algebra, well_inside_rows(pca))
        assert rebuilt.pairs == pairs, (n, sorted(pairs))
        assert normalize_relation(expand_kernel(pca.kernel)).pairs == pairs


# ---------------------------------------------------------------------------
# the unary well-inside form: m at the atoms


def test_unary_well_inside_form_matches_the_literal_quantifiers(monkeypatch):
    """The unary flags against the literal quantifiers on every kernel of
    at most 3 atoms and seeded 4-atom kernels, and against the matrix
    path on seeded 5- to 8-atom kernels; the unary inverse against the
    row inverse on all of them.  Every flag not fixed by construction is
    seen both ways."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    small = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    small += seeded_kernels(47, {4: 8})
    large = seeded_kernels(53, {5: 4, 6: 3, 7: 2, 8: 1})
    seen = {name: set() for name in WELL_INSIDE_FLAGS}
    for n, pairs in small + large:
        pca = pca_from_pairs(n, pairs)
        m = well_inside_atoms(pca)
        flags = well_inside_atom_flags(m)
        got = {name: getattr(flags, name) for name in WELL_INSIDE_FLAGS}
        rows = well_inside_rows(pca)
        if n <= 4:
            want = oracle_well_inside_axioms(n, well_inside_pairs(pca))
        else:
            matrix = _well_inside_flags(n, rows)
            want = {name: getattr(matrix, name) for name in WELL_INSIDE_FLAGS}
        assert got == want, (n, sorted(pairs))
        for name, value in got.items():
            seen[name].add(value)
        rebuilt = contact_from_well_inside_atoms(pca.algebra, m)
        assert rebuilt == contact_from_well_inside_rows(pca.algebra, rows), (n, sorted(pairs))
        assert rebuilt.pairs == pairs
    fixed = ("ax2", "ax2_prime", "ax3", "ax4", "ax4_prime")
    assert all(seen[name] == {True} for name in fixed), seen
    assert all(seen[name] == {True, False} for name in WELL_INSIDE_FLAGS if name not in fixed), seen


@pytest.mark.parametrize("m", [(0b01,), (0b01, 0b10, 0b11), (0b01, 0b100), (-1, 0b10)])
def test_unary_inverse_rejects_a_malformed_form(m):
    with pytest.raises(DomainMismatchError, match="expected 2 atom masks of 2 bits"):
        contact_from_well_inside_atoms(FiniteBooleanAlgebra(2), m)


# ---------------------------------------------------------------------------
# the dual space: trusted construction and connectedness at the dense part


def seeded_duals():
    """Canonical triples of seeded 1- to 9-atom algebras: four densities,
    three constraints, five seeds each."""
    for n in range(1, 10):
        for density in (0.05, 0.15, 0.3, 0.5):
            for constraint in ("none", "contact", "connected"):
                for seed in range(5):
                    spec = RandomSpec(n, density, 1000 * n + seed, constraint)
                    yield canonical_pcs_of_pca(random_pca(spec))


def test_triple_connectivity_matches_the_whole_space_pass(monkeypatch):
    """On 540 seeded duals: connectedness read at the dense clopen atoms
    agrees with the whole-space pass, both verdicts seen, and the space
    built without the closure checks equals the checked one."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "9")
    verdicts = []
    for triple in seeded_duals():
        space = triple.space
        assert triple.ok
        verdicts.append(triple_is_connected(triple))
        assert verdicts[-1] == is_connected(space), space.point_names
        checked = FiniteSpace(space.point_names, space.point_closures)
        assert checked == space
        assert checked.maximal_points == space.maximal_points
    assert len(verdicts) == 540
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("validated", [True, False], ids=["validated", "direct"])
def test_triple_connectivity_falls_back_off_a_dense_subset(validated):
    """A Sierpinski space is connected, but its closed point is not
    dense: the triple fails (PCS1), and the closure of that point alone
    would read the space as disconnected.  A triple built without
    validation, whose check list is empty, takes the same pass."""
    space = FiniteSpace(("a", "b"), (0b01, 0b11))
    if validated:
        triple = validate_pcs(space, 0b01, frozenset())
        assert not triple.check("(PCS1)").passed
    else:
        triple = TwoPrecontactSpace(space, 0b01, frozenset())
        assert triple.ok
    assert is_connected(space)
    assert triple_is_connected(triple)


def test_trusted_construction_keeps_the_name_checks():
    with pytest.raises(PreconditionError, match="point names must be distinct"):
        space_from_closed_base(("a", "a"), [0b01])
    assert space_from_closed_base((), []) == FiniteSpace((), ())


# ---------------------------------------------------------------------------
# stone_representation_report: the relation check at the atom pairs


def test_stone_relation_check_names_the_literal_first_witness(monkeypatch):
    """A literal adjacency with one atom pair toggled: the relation check
    fails and names the first element pair on which the two relations
    differ, the pair a sweep over all element pairs finds first."""
    rng = random.Random(20261006)
    population = [(n, k) for n in (1, 2) for k in all_kernels(n)]
    population += seeded_kernels(43, {3: 4, 4: 2})
    for n, pairs in population:
        toggled = frozenset(pairs ^ {(rng.randrange(n), rng.randrange(n))})
        monkeypatch.setattr(
            adjacency, "canonical_adjacency_literal_pairs", lambda pca: toggled
        )
        report = adjacency.stone_representation_report(pca_from_pairs(n, pairs))
        first = oracle_first_mismatch(
            n, expand_relation(n, pairs), expand_relation(n, toggled)
        )
        check = report.check("stone map preserves and reflects the relation")
        assert check.passed == (first is None), (n, sorted(pairs))
        assert check.witness == (None if first is None else f"(a, b) = {first}")


# ---------------------------------------------------------------------------
# the suite path builds no element pair sets


def test_instance_suite_builds_no_pair_sets(monkeypatch):
    """Nor a 4**n well-inside matrix, nor a whole-space pass on the dual
    for its connectedness."""

    def refuse(*args):
        raise AssertionError("an element relation or a whole-dual pass on the suite path")

    for name, module in list(sys.modules.items()):
        if name == "contactlab" or name.startswith("contactlab."):
            for attr in (
                "well_inside_pairs",
                "expand_kernel",
                "well_inside_rows",
                "_well_inside_flags",
                "is_connected",
            ):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    pca = random_pca(RandomSpec(atoms=6, density=0.5, seed=20261007))
    report = instance_suite(pca)
    assert report.ok, report.failures
    assert report.check("interdefinability round trip").passed


def test_interdefinability_line_fails_on_a_foreign_relation(monkeypatch):
    """The suite line compares the kernel with the one read back from the
    unary well-inside form: the form of another kernel makes it fail."""
    other = pca_from_pairs(3, {(0, 1)})
    monkeypatch.setattr(suite, "well_inside_atoms", lambda pca: well_inside_atoms(other))
    report = instance_suite(pca_from_pairs(3, {(1, 2)}))
    assert not report.check("interdefinability round trip").passed
