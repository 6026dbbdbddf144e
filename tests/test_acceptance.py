"""The acceptance gate: one test per criterion, each printing a verdict
line.  Expected values come from independent brute-force recomputation
(see oracles.py) or from exhaustive quantification, never from the code
paths under test.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

import pytest

from contactlab.boolean import ElementFamily, FiniteBooleanAlgebra
from contactlab.duality import (
    algebra_roundtrip_iso,
    check_naturality,
    dense_part_map,
    dual_space_map,
    gt_preimage_check,
    specialization_report,
)
from contactlab.precontact import (
    contact_from_well_inside_atoms,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
    well_inside_atoms,
)
from contactlab.randgen import RandomSpec, child_seed, random_pca, random_pca_morphism
from contactlab.structures import (
    canonical_pcs_of_pca,
    mereocompactness_report,
    pcs_algebra,
    validate_cs,
)
from contactlab.topology import (
    MereotopologicalPair,
    closure,
    discrete_space,
    is_connected,
    is_t1,
    rc_members_of_subset,
    space_from_closed_base,
)
from contactlab.boolean import grills, sandwich_ultrafilter

from conftest import all_kernels, enumerate_pca_morphisms, enumerate_pcs_morphisms
from oracles import (
    expand_relation,
    family_from_base,
    oracle_clan_supports,
    oracle_clans,
    oracle_closed_family,
    oracle_closure,
    oracle_grills,
    oracle_interior,
    oracle_contact_from_well_inside,
    oracle_rc,
    oracle_unary_relation,
    oracle_well_inside,
    oracle_well_inside_axioms,
    satisfies_c0_cplus,
    subspace,
)

BASE_SEED = 20260810
SEEDED_PER_SIZE = 500
_population_cache = []


def verdict(number, description):
    print(f"[acceptance] criterion {number}: PASS - {description}")


def representation_population():
    """All kernels on 1-2 atoms plus 500 seeded kernels each on 3, 4 and
    5 atoms, with their verified round trips."""
    if _population_cache:
        return _population_cache
    instances = []
    for n in (1, 2):
        for pairs in all_kernels(n):
            instances.append(pca_from_pairs(n, pairs))
    densities = (0.1, 0.25, 0.4, 0.55, 0.7, 0.9)
    for n in (3, 4, 5):
        for k in range(SEEDED_PER_SIZE):
            spec = RandomSpec(
                atoms=n,
                density=densities[k % len(densities)],
                seed=child_seed(BASE_SEED + n, k),
            )
            instances.append(random_pca(spec))
    for pca in instances:
        _population_cache.append((pca, algebra_roundtrip_iso(pca)))
    return _population_cache


def test_criterion_1_representation():
    started = time.perf_counter()
    population = representation_population()
    assert len(population) >= 18 + 3 * SEEDED_PER_SIZE
    for pca, trip in population:
        assert trip.report.ok, (
            pca.algebra.atom_count,
            sorted(pca.kernel.pairs),
            [(c.name, c.witness) for c in trip.report.failures],
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"representation sweep took {elapsed:.1f}s"
    verdict(
        1,
        f"clan-set map is a relation isomorphism and a proximity isomorphism "
        f"on {len(population)} instances in {elapsed:.1f}s",
    )


def seven_and_eight_atom_specs(shapes, constraint="none"):
    """Seeded specs above the default enumeration width, one per (atoms,
    density) shape."""
    return [
        RandomSpec(
            atoms=n, density=density, seed=child_seed(BASE_SEED + n, k), constraint=constraint
        )
        for k, (n, density) in enumerate(shapes)
    ]


def test_criterion_1_slice_on_seven_and_eight_atoms(monkeypatch):
    """Seeded round trips above the default enumeration width: each
    report passes and sends an element to the clans that contain it, by
    the literal clans of ``oracle_clan_supports``."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    specs = seven_and_eight_atom_specs(((7, 0.15), (7, 0.5), (8, 0.15)))
    for spec in specs:
        pca = random_pca(spec)
        trip = algebra_roundtrip_iso(pca)
        assert trip.report.ok, (spec, [(c.name, c.witness) for c in trip.report.failures])
        supports = oracle_clan_supports(spec.atoms, pca.kernel.pairs)
        expected = tuple(
            sum(1 << i for i, s in enumerate(supports) if s & a)
            for a in range(1 << spec.atoms)
        )
        assert tuple(trip.images) == expected, spec
    verdict(1, f"clan-set map checked on {len(specs)} seeded 7- and 8-atom round trips")


def test_criterion_2_and_specializations_on_seven_and_eight_atoms(monkeypatch):
    """Criterion 2's correspondences on seeded 7- and 8-atom algebras,
    plain and with the contact constraint, and `specialization_report`
    on the contact algebras: every line passes, and the contact,
    complete-contact and mereocompact lines are there."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    contact_lines = {
        "the pair determines the relation",
        "regular closed sets of the dual all come from the pair",
        "u-points recover the dense part",
    }
    shapes = ((7, 0.15), (7, 0.3), (7, 0.5), (8, 0.15), (8, 0.3), (8, 0.5))
    specs = seven_and_eight_atom_specs(shapes) + seven_and_eight_atom_specs(shapes, "contact")
    for spec in specs:
        pca = random_pca(spec)
        flags, kernel = pca.axioms, pca.kernel
        assert (flags.cref, flags.csym, flags.ctr, flags.ccon) == (
            kernel.is_reflexive,
            kernel.is_symmetric,
            kernel.is_transitive,
            is_connected(algebra_roundtrip_iso(pca).space.space),
        ), spec
        if spec.constraint == "contact":
            report = specialization_report(pca)
            assert report.ok, (spec, [(c.name, c.witness) for c in report.failures])
            assert contact_lines <= {c.name for c in report.checks}, spec
    verdict(
        2,
        f"axiom flags match the kernel and dual-space shape, and the contact "
        f"specializations pass, on {len(specs)} seeded 7- and 8-atom instances",
    )


def test_criterion_2_axiom_correspondence():
    mismatches = []
    for pca, trip in representation_population():
        kernel = pca.kernel
        flags = pca.axioms
        if flags.cref != kernel.is_reflexive:
            mismatches.append(("Cref", pca))
        if flags.csym != kernel.is_symmetric:
            mismatches.append(("Csym", pca))
        if flags.ctr != kernel.is_transitive:
            mismatches.append(("Ctr", pca))
        if flags.ccon != is_connected(trip.space.space):
            mismatches.append(("Ccon", pca))
    assert mismatches == []
    verdict(
        2,
        f"axiom flags match the canonical adjacency and dual-space shape on "
        f"{len(representation_population())} instances, zero mismatches",
    )


def test_criterion_3_extremal_specializations():
    for n in (1, 2, 3, 4, 5):
        algebra = FiniteBooleanAlgebra(n)

        overlap = smallest_contact(algebra)
        from contactlab.precontact import clan_supports

        assert clan_supports(overlap) == [1 << p for p in range(n)]
        triple = canonical_pcs_of_pca(overlap)
        assert triple.ok
        assert triple.subset == triple.space.full_mask
        assert triple.relation == frozenset((i, i) for i in range(n))
        assert is_t1(triple.space)

        everything = largest_contact(algebra)
        assert clan_supports(everything) == sorted(
            range(1, algebra.size),
            key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]),
        )
        assert len(clan_supports(everything)) == algebra.size - 1
        triple = canonical_pcs_of_pca(everything)
        assert triple.ok
        x0 = [i for i in range(triple.space.point_count) if triple.subset >> i & 1]
        assert triple.relation == frozenset(
            (x, y) for x in x0 for y in x0
        )
        assert len(x0) == n
        if n >= 2:
            assert is_connected(triple.space)
    verdict(3, "extremal contacts dualize to the discrete and the total "
               "triples with clans = ultrafilters resp. grills, n <= 5")


def test_criterion_4_naturality():
    small = [
        pca_from_pairs(n, pairs) for n in (1, 2) for pairs in all_kernels(n)
    ]
    g_squares = 0
    for a in small:
        for b in small:
            for phi in enumerate_pca_morphisms(a, b):
                assert check_naturality(phi).ok
                g_squares += 1
    t_squares = 0
    preimage_checks = 0
    duals = [canonical_pcs_of_pca(a) for a in small]
    for s in duals:
        for t in duals:
            for f in enumerate_pcs_morphisms(s, t):
                assert check_naturality(f).ok
                t_squares += 1
                alg = pcs_algebra(f.target)
                for member in alg.members:
                    assert gt_preimage_check(f, member).passed
                    preimage_checks += 1

    seeded = 0
    attempts = 0
    while seeded < 100:
        phi = random_pca_morphism(3, 3, 0.3 + 0.05 * (attempts % 8),
                                  child_seed(BASE_SEED, 7000 + attempts))
        attempts += 1
        assert check_naturality(phi).ok
        f = dual_space_map(phi)
        assert check_naturality(f).ok
        alg = pcs_algebra(f.target)
        for member in alg.members:
            assert gt_preimage_check(f, member).passed
        seeded += 1
    verdict(
        4,
        f"both naturality squares commute: {g_squares} algebra squares, "
        f"{t_squares} space squares, {seeded} seeded 3-atom morphisms; "
        f"the dual hom acts as preimage in {preimage_checks}+ checks",
    )


def test_criterion_5_faithfulness():
    fixtures = [
        canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(1))),
        canonical_pcs_of_pca(smallest_contact(FiniteBooleanAlgebra(2))),
        canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2))),
        canonical_pcs_of_pca(pca_from_pairs(3, {(0, 1), (1, 2)})),
    ]
    assert max(f.space.point_count for f in fixtures) <= 6
    pairs_checked = 0
    for s in fixtures:
        for t in fixtures:
            morphisms = enumerate_pcs_morphisms(s, t)
            for f in morphisms:
                for g in morphisms:
                    pairs_checked += 1
                    if dense_part_map(f) == dense_part_map(g):
                        assert f.point_map == g.point_map
    verdict(
        5,
        f"morphisms agreeing on the dense part are equal, "
        f"{pairs_checked} enumerated pairs on fixtures up to 6 points",
    )


def contact_kernels(n):
    diagonal = frozenset((p, p) for p in range(n))
    offdiag = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for r in range(len(offdiag) + 1):
        for chosen in itertools.combinations(offdiag, r):
            extra = frozenset(
                pair for p, q in chosen for pair in ((p, q), (q, p))
            )
            yield diagonal | extra


def test_criterion_6_mereocompact_machinery(monkeypatch):
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "16")
    count = 0
    for n in (1, 2, 3, 4):
        for pairs in contact_kernels(n):
            pca = pca_from_pairs(n, pairs)
            assert pca.axioms.is_contact
            triple = canonical_pcs_of_pca(pca)
            members = tuple(rc_members_of_subset(triple.space, triple.subset))
            mereo = MereotopologicalPair.from_members(triple.space, members)

            u_set = mereocompactness_report(mereo).u_set
            assert u_set == triple.subset

            atoms = [m for m in members if m and not any(
                o and o != m and o | m == m for o in members
            )]
            sigma_ultra = 0
            for x in range(triple.space.point_count):
                if sum(1 for a in atoms if a >> x & 1) == 1:
                    sigma_ultra |= 1 << x
            assert u_set == sigma_ultra

            member_set = frozenset(members)
            space = triple.space
            matches = []
            for candidate in range(1, space.full_mask + 1):
                if closure(space, candidate) != space.full_mask:
                    continue
                if not is_t1(subspace(space, candidate)):
                    continue
                if frozenset(rc_members_of_subset(space, candidate)) == member_set:
                    matches.append(candidate)
            assert matches == [u_set]

            assert validate_cs(space, u_set).ok
            count += 1
    assert count == 1 + 2 + 8 + 64
    verdict(
        6,
        f"u-points recover the dense part, equal the ultrafilter traces, "
        f"and are the unique dense Stone subspace reproducing the member "
        f"algebra, on all {count} contact kernels with up to 4 atoms",
    )


def test_criterion_7_interdefinability():
    # the unary form against the literal well-inside relation, and the
    # round trip through both inverses, on every kernel with up to 3
    # atoms and on seeded 4-atom kernels
    kernels = [(n, pairs) for n in (1, 2, 3) for pairs in all_kernels(n)]
    rng = random.Random(BASE_SEED + 7)
    for _ in range(200):
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        kernels.append(
            (4, frozenset((p, q) for p in range(4) for q in range(4) if rng.random() < density))
        )
    for n, pairs in kernels:
        pca = pca_from_pairs(n, pairs)
        contact = expand_relation(n, pairs)
        ll = oracle_well_inside(n, contact)
        m = well_inside_atoms(pca)
        assert oracle_unary_relation(n, m) == ll, (n, sorted(pairs))
        assert oracle_contact_from_well_inside(n, ll) == contact, (n, sorted(pairs))
        assert contact_from_well_inside_atoms(pca.algebra, m).pairs == pairs
    trips = len(kernels)
    assert trips == 530 + 200

    # the defining axiom set holds exactly when the induced relation is a
    # precontact relation: exhaustive on one atom, seeded beyond
    defining = ("ax2", "ax2_prime", "ax3", "ax4", "ax4_prime")
    outcomes = set()

    def check_iff(n, ll):
        flags = oracle_well_inside_axioms(n, ll)
        defines = all(flags[name] for name in defining)
        assert defines == satisfies_c0_cplus(
            n, oracle_contact_from_well_inside(n, ll)
        ), (n, sorted(ll))
        outcomes.add(defines)

    checked = 0
    size1 = 1 << 1
    all_pairs_1 = [(a, b) for a in range(size1) for b in range(size1)]
    for r in range(len(all_pairs_1) + 1):
        for chosen in itertools.combinations(all_pairs_1, r):
            check_iff(1, frozenset(chosen))
            checked += 1

    rng = random.Random(BASE_SEED)
    for n, rounds in ((2, 2000), (3, 600)):
        size = 1 << n
        candidates = [(a, b) for a in range(size) for b in range(size)]
        for k in range(rounds):
            style = k % 3
            if style == 0:
                ll = frozenset(
                    p for p in candidates if rng.random() < rng.choice((0.2, 0.5, 0.8))
                )
            else:
                pairs = rng.choice(
                    [frozenset()]
                    + [
                        frozenset({(rng.randrange(n), rng.randrange(n))})
                        for _ in range(3)
                    ]
                )
                ll = oracle_well_inside(n, expand_relation(n, pairs))
                if style == 2:
                    for _ in range(rng.randrange(1, 3)):
                        flip = rng.choice(candidates)
                        ll.symmetric_difference_update({flip})
                ll = frozenset(ll)
            check_iff(n, ll)
            checked += 1
    assert outcomes == {True, False}
    verdict(
        7,
        f"the unary well-inside form is the literal relation and the "
        f"interdefinability round trip is the identity on {trips} kernels; "
        f"the axiom set characterises precontact on {checked} relations",
    )


def test_criterion_8_grill_lemma():
    checked = 0
    for n in (1, 2, 3):
        algebra = FiniteBooleanAlgebra(n)
        filters = []
        for stem in range(1, algebra.size):
            members = frozenset(m for m in range(algebra.size) if m | stem == m)
            filters.append(ElementFamily(algebra, members, "filter"))
        for f in filters:
            for g in grills(algebra):
                if not f.members <= g.members:
                    continue
                u = sandwich_ultrafilter(f, g)
                assert f.members <= u.members <= g.members
                # deterministic tie-break: smallest eligible atom
                stem = 0
                for m in f.members:
                    stem = m if stem == 0 else stem & m
                eligible = [p for p in range(n) if stem >> p & 1 and 1 << p in g.members]
                assert u.members == {
                    m for m in range(algebra.size) if m >> eligible[0] & 1
                }
                checked += 1
    verdict(8, f"sandwich ultrafilter found for all {checked} filter-grill "
               f"inclusions on up to 3 atoms, smallest-atom tie-break")


def test_criterion_9_fixture_regression():
    # X_L: family, closure, interior recomputed from the base by fixpoint
    base = [0b101, 0b110]
    family = family_from_base(3, base)
    assert family == {0, 0b100, 0b101, 0b110, 0b111}
    assert oracle_closure(family, 0b111, 0b001) == 0b101
    assert oracle_interior(family, 0b111, 0b101) == 0b001
    xl = space_from_closed_base(("g1", "g2", "g3"), base)
    assert oracle_closed_family(xl.point_closures) == family

    # RC(X_L) by literal regular-closedness over all candidates
    assert oracle_rc(family, 0b111) == [0, 0b101, 0b110, 0b111]
    # and its contact is total on nonzero members (a two-atom largest
    # contact): every nonzero pair meets at g3
    for f in (0b101, 0b110, 0b111):
        for g in (0b101, 0b110, 0b111):
            assert f & g

    # clans recomputed by filtering upward-closed candidate subsets
    b4 = FiniteBooleanAlgebra(2)
    diag = frozenset({(0, 0), (1, 1)})
    assert sorted(oracle_clans(2, diag)) == sorted(
        frozenset(m for m in range(4) if m >> p & 1) for p in range(2)
    )
    total = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert sorted(oracle_clans(2, total)) == sorted(oracle_grills(2))

    path = frozenset({(0, 1), (1, 2)})
    expected_supports = [0b001, 0b010, 0b100, 0b011, 0b110]
    expected_clans = sorted(
        frozenset(m for m in range(8) if m & s) for s in expected_supports
    )
    assert sorted(oracle_clans(3, path)) == expected_clans

    # canonical spaces against the library: the overlap dual is discrete
    # on two points, the total dual reproduces X_L, the path kernel's
    # dual has five points with a three-point dense part
    disc = canonical_pcs_of_pca(smallest_contact(b4))
    assert disc.space == discrete_space(("c0", "c1"))
    assert disc.subset == 0b11 and disc.relation == diag

    xl_dual = canonical_pcs_of_pca(largest_contact(b4))
    assert xl_dual.space.point_closures == xl.point_closures
    assert xl_dual.subset == 0b011 and xl_dual.relation == total

    path_dual = canonical_pcs_of_pca(pca_from_pairs(3, path))
    assert path_dual.space.point_count == 5
    assert path_dual.subset == 0b00111
    assert path_dual.relation == {(0, 1), (1, 2)}
    # topology recomputed independently: base of clan sets of elements,
    # then the generated family, compared against the library closures
    supports = expected_supports
    g_base = []
    for a in range(8):
        g_base.append(
            sum(1 << i for i, s in enumerate(supports) if s & a)
        )
    independent_family = family_from_base(5, g_base)
    lib_family = {
        m
        for m in range(1 << 5)
        if oracle_closure(independent_family, 31, m) == m
    }
    from contactlab.topology import is_closed

    assert lib_family == {
        m for m in range(1 << 5) if is_closed(path_dual.space, m)
    }
    verdict(9, "worked fixtures reproduce the stated structures after "
               "independent brute-force recomputation")
