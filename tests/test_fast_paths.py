"""Differential tests: each reduced decision procedure against the literal
quantifier it replaces.

The reductions in ``precontact`` (the row form of (C+), the well-inside
axioms read off the rows and the packed matrix, the smallest
interpolant for (Ctr), (Csym) and (C6) at the atoms, the clique pass of
``clan_supports``, the grill and clan conditions of ``is_clan``), in
``adjacency`` (the ultrafilter adjacency read off the forward table at
the atoms, the Stone relation check at the atom pairs), in ``topology``
(closed bases by the largest union avoiding each point), in
``structures`` ((PCS2) by the Stone trace, (PCS3) to (PCS5) and (CS2),
(CS3) at the atoms of the clopen algebra, the closed base of the
canonical space from the atom clan sets) and in ``duality`` (the
round-trip relation checks at the atom pairs) are proved in their
docstrings or comments; here they must agree with the sweeps of
``oracles.py`` on every kernel with at most 3 atoms, on seeded kernels
with 4 to 6 atoms or seeded spaces of up to 7 points, and on
perturbations that break the axioms.  The row form is also run on
seeded 7- and 8-atom kernels, and the suite is run with the element
pair sets made unavailable.
"""

import itertools
import random
import sys

import pytest

from contactlab import adjacency, duality, suite
from contactlab.adjacency import canonical_adjacency_literal_pairs
from contactlab.boolean import FiniteBooleanAlgebra, _first_pair_mismatch, bit_indices
from contactlab.duality import algebra_roundtrip_iso
from contactlab.errors import AxiomViolationError, DomainMismatchError
from contactlab.precontact import (
    RawRelation,
    RelationKernel,
    axiom_report,
    clan_supports,
    contact_from_well_inside_rows,
    expand_kernel,
    is_clan,
    normalize_relation,
    pca_from_pairs,
    well_inside_axiom_report,
    well_inside_pairs,
    well_inside_rows,
)
from contactlab.randgen import RandomSpec, random_pca
from contactlab.structures import canonical_pcs_of_pca, validate_cs, validate_pcs
from contactlab.suite import instance_suite
from contactlab.topology import (
    FiniteSpace,
    is_closed_base,
    rc_members,
    space_from_closed_base,
)

from conftest import all_kernels
from oracles import (
    expand_relation,
    family_from_base,
    oracle_axioms,
    oracle_clan_supports,
    oracle_closed_family,
    oracle_first_mismatch,
    oracle_is_clan,
    oracle_is_grill,
    oracle_is_closed_base,
    oracle_normalize,
    oracle_pcs2_pcs3,
    oracle_pcs4_pcs5,
    oracle_ultrafilter_adjacency,
    oracle_well_inside_axioms,
)

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
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(19, {4: 10, 5: 4, 6: 2})
    for n, pairs in population:
        got = clan_supports(pca_from_pairs(n, pairs))
        assert got == oracle_clan_supports(n, pairs), (n, sorted(pairs))


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
# closed bases: the largest union of members avoiding each point


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


def test_space_from_closed_base_matches_the_generated_family():
    rng = random.Random(20261001)
    for _ in range(300):
        n = rng.randint(1, 6)
        base = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
        space = space_from_closed_base(tuple(f"p{x}" for x in range(n)), base)
        assert oracle_closed_family(space.point_closures) == family_from_base(
            n, base
        ), (n, base)


def test_is_closed_base_matches_the_union_closure_hull():
    rng = random.Random(20261002)
    seen = set()
    for _ in range(300):
        space = random_space(rng.randint(1, 6), rng)
        closed = sorted(oracle_closed_family(space.point_closures))
        families = [
            rc_members(space),
            space.point_closures,
            rng.sample(closed, rng.randint(0, len(closed))),
            rng.sample(closed, rng.randint(0, len(closed)))
            + [rng.randrange(space.full_mask + 1)],
        ]
        for members in families:
            got = is_closed_base(space, members)
            assert got == oracle_is_closed_base(space.point_closures, members), (
                space.point_closures,
                members,
            )
            seen.add(got)
    assert seen == {True, False}


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
# algebra_roundtrip_iso: relation checks at the atom pairs


def test_first_pair_mismatch_matches_the_literal_sweep():
    """Two forward tables, one of a kernel with one atom pair toggled:
    the atom-pair comparison must see the mismatch and the fallback
    sweep must name the first differing element pair."""
    rng = random.Random(20261004)
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(29, {4: 6, 5: 3, 6: 2})
    for n, pairs in population:
        toggled = pairs ^ {(rng.randrange(n), rng.randrange(n))}
        for other in (pairs, toggled):
            table = pca_from_pairs(n, pairs).kernel.forward_table()
            other_table = pca_from_pairs(n, other).kernel.forward_table()
            got = _first_pair_mismatch(
                1 << n,
                lambda a, b: bool(table[a] & b),
                lambda a, b: bool(other_table[a] & b),
            )
            expected = oracle_first_mismatch(
                n, expand_relation(n, pairs), expand_relation(n, other)
            )
            assert got == expected, (n, sorted(pairs), sorted(other))


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
    """Break the closure and the contact closure inside the round trip:
    complements, meets, proximity and the closed canonical relation fail,
    each naming its first witness."""
    monkeypatch.setattr(duality, "closure", lambda space, mask: mask)
    monkeypatch.setattr(duality, "contact_closure", lambda pca: pca)
    round_trip = algebra_roundtrip_iso(path_pca)
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
# the row form above the default enumeration width


def test_row_form_round_trips_on_seven_and_eight_atoms(monkeypatch):
    """The interdefinability round trip of the suite and the kernel
    expansion both give back the kernel."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    for n, pairs in seeded_kernels(41, {7: 2, 8: 1}):
        pca = pca_from_pairs(n, pairs)
        rebuilt = contact_from_well_inside_rows(pca.algebra, well_inside_rows(pca))
        assert rebuilt.pairs == pairs, (n, sorted(pairs))
        assert normalize_relation(expand_kernel(pca.kernel)).pairs == pairs


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
    def refuse(*args):
        raise AssertionError("an element pair set was built on the suite path")

    for name, module in list(sys.modules.items()):
        if name == "contactlab" or name.startswith("contactlab."):
            for attr in ("well_inside_pairs", "expand_kernel"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    pca = random_pca(RandomSpec(atoms=6, density=0.5, seed=20261007))
    report = instance_suite(pca)
    assert report.ok, report.failures
    assert report.check("interdefinability round trip").passed


def test_interdefinability_line_fails_on_a_foreign_relation(monkeypatch):
    """The suite line compares the kernel with the one read back from the
    rows: rows of another kernel make it fail."""
    other = pca_from_pairs(3, {(0, 1)})
    monkeypatch.setattr(suite, "well_inside_rows", lambda pca: well_inside_rows(other))
    report = instance_suite(pca_from_pairs(3, {(1, 2)}))
    assert not report.check("interdefinability round trip").passed
