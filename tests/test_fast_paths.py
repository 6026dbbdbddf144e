"""Differential tests: each reduced decision procedure against the literal
quantifier it replaces.

The reductions in ``precontact`` ((C+) by counting against the
kernel read off the singleton pairs, the six axiom
flags at the kernel's atom rows, the clique pass of ``clique_supports``, the
contact-closure rows of a kernel), in
``adjacency`` (the ultrafilter adjacency read off the kernel's pairs), in ``topology``
(closed bases by the meet of the members holding each point, clopens of
a subspace by its components, the pair table with its Stone and
closed-base verdicts, read off the closed base a space was built from
when the closures of the clopen atoms are that base, maximal points as
the points held by one
distinct closure, RC(X) by the closures of the maximal points and the
predicates read off them, pairs held by their atoms with one interior
per atom, or none when the atoms are a closed base read at its
signatures, the C-semiregularity tests read off such a base, u-points
of a pair at its atoms), in ``structures`` ((PCS2) by the
Stone trace, (PCS3) to (PCS5), (CS2) to (CS4) and (S2S4) at the atoms
of the clopen algebra, the pair's algebra and contact relation from
the closures of the clopen atoms, the closed base of the canonical
space from the atom clan sets, its point names by support, its dense
subset and relation without a position map,
the mereocompactness checks at the member atoms and the maximal points)
in ``boolean`` (``transpose``) and in ``duality`` (the round-trip relation checks at the atom rows,
bijectivity at the atom images, complements and meets from
bijectivity, trace coherence at the clopen
atoms, the algebra naturality square, the invariants of the dual
algebra map at the atoms and the preimage homomorphism of a map of
2-contact pairs at the atoms of both pairs) are proved in their
docstrings or comments; here they must agree with the sweeps of
``oracles.py`` on every kernel with at most 3 atoms, on seeded kernels
with 4 to 6 atoms, on every space with at most 4
points or seeded spaces of up to 8 points, and on perturbations that
break the axioms.  Normalization is also run on seeded 7- and 8-atom
kernels, and the suite is run with normalization made unavailable.
"""

import dataclasses
import functools
import itertools
import operator
import random
import sys
import time
import types
from functools import reduce
from operator import or_

import pytest

from contactlab import adjacency, boolean, duality, precontact, structures, suite, topology
from contactlab.adjacency import canonical_adjacency
from contactlab.boolean import (
    BooleanHom,
    FiniteBooleanAlgebra,
    _first_map_mismatch,
    _first_pair_mismatch,
    bit_indices,
    join_at,
    mask_of,
    meeting_rows,
    transpose,
)
from contactlab.duality import (
    algebra_roundtrip_iso,
    gmcs_hom_check,
    gt_preimage_check,
    identity_pcs_morphism,
    specialization_report,
)
from contactlab.errors import (
    AxiomViolationError,
    DomainMismatchError,
    InternalError,
    ValidationError,
)
from contactlab.precontact import (
    RelationKernel,
    axiom_report,
    clan_supports,
    clique_supports,
    contact_from_well_inside_atoms,
    normalize_relation,
    pca_from_pairs,
    well_inside_atoms,
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
)
from contactlab.errors import PreconditionError
from contactlab.memo import once
from contactlab.suite import instance_suite
from contactlab.topology import (
    FiniteSpace,
    MereotopologicalPair,
    _is_base_of_closed,
    clopens_of_subset,
    closure,
    interior,
    is_connected,
    is_extremally_disconnected,
    is_semiregular,
    is_t0,
    is_t1,
    is_zero_dimensional,
    minimal_members,
    pair_atoms,
    rc_algebra,
    rc_atoms,
    rc_atoms_of_subset,
    rc_members,
    rc_members_of_subset,
    space_from_closed_base,
    unions,
)

from conftest import all_kernels, c_semiregular, enumerate_boolean_homs, enumerate_pca_morphisms
from oracles import (
    _closure_of as oracle_closure_of,
    expand_relation,
    family_from_base,
    oracle_axioms,
    oracle_c_semiregular,
    oracle_clan_supports,
    oracle_clique_supports,
    oracle_closed_family,
    oracle_closed_unions,
    oracle_contact_from_well_inside,
    oracle_contact_relation,
    oracle_cs4_s2s4,
    oracle_extremally_disconnected,
    oracle_algebra_square_witnesses,
    oracle_atom_supports,
    oracle_bijective_onto_unions,
    oracle_dual_images,
    oracle_first_map_mismatch,
    oracle_first_mismatch,
    oracle_gmcs_hom,
    oracle_hom_image,
    oracle_interior_at,
    oracle_is_closed_base,
    oracle_is_symmetric,
    oracle_is_transitive,
    oracle_is_u_point,
    oracle_maximal_points,
    oracle_mereo_closure_failure,
    oracle_normalize,
    oracle_pcs2_pcs3,
    oracle_pcs4_pcs5,
    oracle_pcs_algebra,
    oracle_pcs_map_failure,
    oracle_point_mask,
    oracle_preimage,
    oracle_rc_family,
    oracle_sigma_unrealized,
    oracle_subspace_clopens,
    oracle_support_join_rows,
    oracle_support_of,
    oracle_u_point,
    oracle_u_point_of_pair,
    oracle_ultrafilter_adjacency,
    oracle_ultrafilter_points,
    oracle_uniqueness_witness,
    oracle_unary_relation,
    oracle_well_inside,
    oracle_well_inside_axioms,
    subspace,
)
from test_topology import all_small_spaces

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
        kernel = normalize_relation(FiniteBooleanAlgebra(n), rel)
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
            rel = frozenset(expand_relation(n, pairs))
            out.append((n, rel))
            if n <= 2:
                out.extend(
                    (n, rel ^ {(a, b)}) for a in range(size) for b in range(size)
                )
            else:
                out.extend((n, r) for r in one_pair_perturbations(n, rel, rng, 2))
    for n, pairs in seeded_kernels(7, {4: 12, 5: 4, 6: 2}):
        rel = frozenset(expand_relation(n, pairs))
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
        normalize_relation(b4, frozenset({(1, 1), pair}))


def test_normalize_reports_zero_pairs_before_range(b4):
    with pytest.raises(AxiomViolationError) as err:
        normalize_relation(b4, frozenset({(0, 9)}))
    assert err.value.axiom == "(C0)"


# ---------------------------------------------------------------------------
# axiom_report: the six flags at the kernel's atom rows


def test_axiom_report_matches_the_literal_quantifiers():
    population = [(n, k) for n in (0, 1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(13, {4: 20, 5: 8, 6: 4})
    seen = {name: set() for name in AXIOM_FLAGS}
    for n, pairs in population:
        flags = axiom_report(pca_from_pairs(n, pairs))
        got = {name: getattr(flags, name) for name in AXIOM_FLAGS}
        assert got == oracle_axioms(n, expand_relation(n, pairs)), (n, sorted(pairs))
        for name, value in got.items():
            seen[name].add(value)
    assert all(values == {True, False} for values in seen.values()), seen


def component_count(n, pairs):
    """The classes of the atoms under the symmetric closure of the pairs."""
    label = list(range(n))
    for p, q in pairs:
        old, new = label[p], label[q]
        label = [new if x == old else x for x in label]
    return len(set(label))


def test_axiom_report_builds_no_table(monkeypatch):
    """The six flags come from the kernel's atom rows: with the 2**n
    tables refused, seeded 1- to 6-atom kernels and their contact
    closures, and 20-atom kernels past the default width, answer in
    milliseconds.  (Cref), (Csym) and (Ctr) are the kernel's own
    properties, and (Ccon) says the kernel has one component."""

    def refuse(*args):
        raise AssertionError("axiom_report built a 2**n table")

    monkeypatch.setattr(precontact, "joins_table", refuse)
    seeded = seeded_kernels(41, {n: 4 for n in range(1, 7)})
    population = [pca_from_pairs(n, pairs) for n, pairs in seeded]
    population += [precontact.contact_closure(pca) for pca in population]
    monkeypatch.setenv("CONTACTLAB_ATOM_LIMIT", "20")
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "20")
    path = pca_from_pairs(20, {(p, p + 1) for p in range(19)})
    blocks = pca_from_pairs(
        20, {(p, q) for p in range(20) for q in range(20) if (p < 10) == (q < 10)}
    )
    population += [path, precontact.contact_closure(path), blocks]
    seen = set()
    for pca in population:
        kernel, n = pca.kernel, pca.algebra.atom_count
        start = time.perf_counter()
        flags = axiom_report(pca)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, (n, sorted(kernel.pairs), elapsed)
        assert (flags.cref, flags.csym, flags.ctr) == (
            kernel.is_reflexive,
            kernel.is_symmetric,
            kernel.is_transitive,
        ), (n, sorted(kernel.pairs))
        assert flags.ccon == (component_count(n, kernel.pairs) <= 1), (n, sorted(kernel.pairs))
        seen.add((n, flags.ccon))
    assert {(20, True), (20, False)} <= seen
    assert component_count(20, blocks.kernel.pairs) == 2


# ---------------------------------------------------------------------------
# canonical_adjacency: the ultrafilter quantifier holds exactly on the
# kernel's pairs


def test_ultrafilter_adjacency_matches_the_literal_quantifier():
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(17, {4: 12, 5: 4, 6: 2})
    for n, pairs in population:
        got = canonical_adjacency(pca_from_pairs(n, pairs)).pairs
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


def test_clique_pass_matches_the_literal_cliques():
    """The clique pass on seeded reflexive and symmetric adjacencies of 0
    to 10 atoms, at densities 0 to 1, against every pairwise adjacent
    atom set in (size, atoms) order."""
    rng = random.Random(20261019)
    for n in range(11):
        for density in (0, 0.2, 0.5, 0.9, 1):
            for _ in range(3):
                adj = [1 << p for p in range(n)]
                for p, q in itertools.combinations(range(n), 2):
                    if rng.random() < density:
                        adj[p] |= 1 << q
                        adj[q] |= 1 << p
                assert list(clique_supports(adj)) == oracle_clique_supports(adj), adj


def test_clique_pass_on_wide_sparse_adjacencies():
    """On 24 atoms, the diagonal has its 24 singletons as cliques, and the
    path i ~ i + 1 its singletons and then its 23 edges in order."""
    n = 24
    singletons = tuple(1 << p for p in range(n))
    assert tuple(clique_supports(singletons)) == singletons
    path = [mask_of(q for q in (p - 1, p, p + 1) if 0 <= q < n) for p in range(n)]
    edges = tuple(3 << p for p in range(n - 1))
    assert tuple(clique_supports(path)) == singletons + edges


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
    """The closed-base verdict on closed members, the meets of the
    members holding each point against the literal hull: closed member
    families of random spaces on 1 to 6 points, and of seeded 7- and
    8-point spaces with the empty set, the full mask, a repeated member
    or no member."""
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
                + [closure(space, rng.randrange(space.full_mask + 1))],
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
            [closure(space, rng.randrange(space.full_mask + 1)) for _ in range(rng.randint(1, 4))],
        ):
            cases.append((space, with_edge_members(members, space.full_mask, rng, kind)))
    for space, members in cases:
        got = _is_base_of_closed(space, members)
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
    every kernel on at most 2 atoms and of seeded 3-, 4- and 5-atom
    kernels, with a relation pair dropped or added and a point dropped
    from the subset.  The 4- and 5-atom duals have 4 to 31 points."""
    rng = random.Random(20261003)
    out = []
    for _ in range(800):
        space = random_space(rng.randint(1, 7), rng)
        points = rng.sample(range(space.point_count), min(6, space.point_count))
        subset = sum(1 << x for x in points[: rng.randint(1, len(points))])
        out.append((space, subset, random_relation(subset, rng)))
    kernels = [(n, k) for n in (1, 2) for k in all_kernels(n)]
    kernels += seeded_kernels(23, {3: 20})
    kernels += seeded_kernels(43, {4: 5, 5: 5})
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


def support_witness(space, element_set):
    """The witness a realization line gives for an unrealized element
    set of an oracle sweep: the atoms of its support."""
    return "support {" + ",".join(space.name_set(a) for a in oracle_support_of(element_set)) + "}"


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
            else "unrealized clan " + support_witness(space, pcs5),
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
    2-contact validator share both reductions.  The literal closed base
    test enumerates all 2**points point sets, so it runs on the triples
    of at most 12 points, canonical 4- and 5-atom duals among them."""
    seen = {"(PCS2)": set(), "(PCS3)": set(), "(CS2)": set(), "(CS3)": set()}
    largest = 0
    for space, subset, relation in pcs_population():
        if space.point_count > 12:
            continue
        largest = max(largest, space.point_count)
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
    assert largest > 8, largest


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


def test_canonical_names_subset_and_relation_match_the_literal_forms(monkeypatch):
    """Point names, derived on their first read, against "c" and the
    support's atoms joined by "-"; the dense subset and the relation against the
    position of each ultrafilter clan among the supports."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "7")
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(59, {4: 6, 5: 4, 6: 3, 7: 2})
    for n, pairs in population:
        pca = pca_from_pairs(n, pairs)
        supports = clan_supports(pca)
        triple = canonical_pcs_of_pca(pca)
        names = tuple("c" + "-".join(str(p) for p in bit_indices(s)) for s in supports)
        position = {s: i for i, s in enumerate(supports)}
        subset = sum(1 << position[1 << p] for p in range(n))
        relation = {(position[1 << p], position[1 << q]) for p, q in pairs}
        assert triple.space.point_names == names, (n, sorted(pairs))
        assert (triple.subset, triple.relation) == (subset, relation), (n, sorted(pairs))


def test_transpose_matches_the_literal_double_loop():
    """Seeded rows of widths 0 to 9, empty row lists and zero rows
    among them."""
    rng = random.Random(20261018)
    cases = [([], 0), ([0, 0], 0), ([], 3), ([0, 5, 0], 3)]
    for _ in range(400):
        width = rng.randint(0, 9)
        rows = [rng.randrange(1 << width) for _ in range(rng.randint(0, 12))]
        cases.append((rows, width))
    for rows, width in cases:
        literal = [
            sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(width)
        ]
        assert transpose(rows, width) == literal, (rows, width)


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
        u_set = mereocompactness_report(rc_algebra(space)).u_set
        for x in range(space.point_count):
            u = oracle_is_u_point(closures, x)
            assert bool(u_set >> x & 1) == u, (closures, x)
            seen["u"].add(u)
        if len(rc_atoms(space)) <= 5:
            csr = oracle_c_semiregular(closures)
            assert c_semiregular(space) == csr, closures
            seen["csr"].add(csr)
        seen["ed"].add(ed)
    assert all(v == {True, False} for v in seen.values()), seen


def test_maximal_points_match_the_literal_definition():
    """Maximal points as the points held by one distinct closure, against
    the literal definition, on every space with at most 4 points and on
    seeded 5- to 9-point spaces, T0 and not."""
    spaces = [space for n in range(5) for space in all_small_spaces(n)]
    rng = random.Random(20261021)
    spaces += [random_space(rng.randint(5, 9), rng) for _ in range(200)]
    seen = set()
    for space in spaces:
        closures = space.point_closures
        assert space.maximal_points == oracle_maximal_points(closures), closures
        seen.add(is_t0(space))
    assert seen == {True, False}, seen


def test_closure_trace_checks_match_the_all_clopens_sweeps(spaces_with_subsets):
    """(CS4) by the closure supports of the points, with the witness of
    the literal sweep; (S2S4), every grill a closure trace, as (PCS5) of
    the total relation on the subset, whose clans are the grills; and
    the pair's contact relation by the closures of the clopen atoms."""
    seen = {"(CS4)": set(), "(S2S4)": set(), "related": set()}
    for space, sub in spaces_with_subsets:
        closures = space.point_closures
        cs4, s2s4 = oracle_cs4_s2s4(closures, sub)
        cs = validate_cs(space, sub)
        witness = None if cs4 is None else "unrealized " + support_witness(space, cs4)
        got = cs.check("(CS4)")
        assert (got.passed, got.witness) == (witness is None, witness), (closures, sub)
        seen["(CS4)"].add(got.passed)
        total = frozenset(itertools.product(bit_indices(sub), repeat=2))
        pcs5 = validate_pcs(space, sub, total).check("(PCS5)").passed
        assert pcs5 == (s2s4 is None), (closures, sub)
        seen["(S2S4)"].add(pcs5)
        if cs.ok:
            relation = oracle_contact_relation(closures, sub)
            assert contact_relation_of_pair(cs) == relation, (closures, sub)
            seen["related"].update(
                (x, y) in relation for x in bit_indices(sub) for y in bit_indices(sub)
            )
    assert all(v == {True, False} for v in seen.values()), seen


def meeting_pairs():
    """Every pair of at most 4 points, every subset of every space, empty
    and not dense included, and seeded 5-point spaces with 8 random
    subsets each."""
    out = [
        (space, sub)
        for n in range(5)
        for space in all_small_spaces(n)
        for sub in range(space.full_mask + 1)
    ]
    rng = random.Random(20261022)
    for _ in range(40):
        space = random_space(5, rng)
        out += [(space, rng.randrange(1 << 5)) for _ in range(8)]
    return out


def test_validate_cs_is_the_triple_of_the_meeting_relation():
    """The meeting relation M of a pair relates two points of the subset
    when every clopen holding one and every clopen holding the other
    have meeting closures (`oracle_contact_relation`).  (PCS4) holds for
    M, by `validate_pcs` and by the literal sweep; `validate_cs` has the
    verdict of the M-triple; and each of its lines equals the literal
    one: the closure of the subset, distinct point closures (T0), the
    Stone dense part and the closed base (`oracle_pcs2_pcs3`), and
    (CS4) with the witness of the clan sweep (`oracle_cs4_s2s4`)."""
    seen = {name: set() for name in ("(CS-precondition)", "(CS1)", "(CS2)", "(CS3)", "(CS4)")}
    for space, sub in meeting_pairs():
        closures = space.point_closures
        meeting = oracle_contact_relation(closures, sub)
        triple = validate_pcs(space, sub, meeting)
        assert triple.check("(PCS4)").passed, (closures, sub)
        assert oracle_pcs4_pcs5(closures, sub, meeting)[0] is None, (closures, sub)
        cs = validate_cs(space, sub)
        assert cs.ok == triple.ok, (closures, sub)

        cl = functools.reduce(operator.or_, (closures[x] for x in bit_indices(sub)), 0)
        t0 = len(set(closures)) == len(closures)
        stone, _, closed_base = oracle_pcs2_pcs3(closures, sub, meeting)
        cs4, _ = oracle_cs4_s2s4(closures, sub)
        expected = [
            (
                "(CS-precondition)",
                cl == space.full_mask,
                None if cl == space.full_mask else f"closure of the subset is {space.name_set(cl)}",
            ),
            ("(CS1)", t0, None if t0 else "space is not T0"),
            ("(CS2)", stone, None if stone else "dense part is not a Stone space"),
            (
                "(CS3)",
                closed_base,
                None if closed_base else "the pair's regular closed sets are not a closed base",
            ),
            (
                "(CS4)",
                cs4 is None,
                None if cs4 is None else "unrealized " + support_witness(space, cs4),
            ),
        ]
        assert list(cs.checks) == expected, (closures, sub)
        for name, passed, _ in expected:
            seen[name].add(passed)
    assert all(v == {True, False} for v in seen.values()), seen


def test_pcs5_and_cs4_read_one_realization_walk(monkeypatch):
    """(CS4) is the (PCS5) walk of the meeting relation: when the clique
    walk that `structures` reads yields one more support, which no point
    realizes, both (PCS5) of the canonical triple and (CS4) of its pair
    fail on it, on a seeded contact dual."""
    pca = random_pca(RandomSpec(atoms=5, density=0.3, seed=child_seed(42, 1), constraint="contact"))
    triple = canonical_pcs_of_pca(pca)
    space, subset = triple.space, triple.subset
    table = pair_atoms(space, subset)
    extra = next(s for s in range(1, 1 << len(table.closures)) if s not in set(table.support))
    walk = structures.clique_supports

    def one_more(adj):
        yield from walk(adj)
        yield extra

    monkeypatch.setattr(structures, "clique_supports", one_more)
    named = ",".join(space.name_set(table.atoms[i]) for i in bit_indices(extra))
    support = "support {" + named + "}"
    pcs = validate_pcs(space, subset, triple.relation)
    assert [(c.name, c.witness) for c in pcs.failures] == [("(PCS5)", "unrealized clan " + support)]
    cs = validate_cs(space, subset)
    assert [(c.name, c.witness) for c in cs.failures] == [("(CS4)", "unrealized " + support)]


def test_pcs_algebra_matches_the_pair_family():
    """The canonical algebra of a valid triple: atoms, members and kernel
    of the closures of all clopens of the dense part, whether the triple
    comes from ``validate_pcs`` or is constructed directly.  Its atoms
    are the closures of the dense part's clopen atoms in the pair table's
    order (`pair_atoms`), and the oracle's atoms and kernel, ascending,
    are read in that order; both orders are seen."""
    seen, reordered = set(), set()
    for space, subset, relation in pcs_population():
        triple = validate_pcs(space, subset, relation)
        if not triple.ok:
            continue
        atoms, members, kernel = oracle_pcs_algebra(space.point_closures, subset, relation)
        closures = pair_atoms(space, subset).closures
        position = [closures.index(a) for a in atoms]
        reindexed = {(position[i], position[j]) for i, j in kernel}
        # the atom table handed over by validate_pcs, and rebuilt on a
        # triple constructed directly
        rebuilt = TwoPrecontactSpace(space, subset, relation, triple.checks)
        for algebra in (pcs_algebra(triple), pcs_algebra(rebuilt)):
            assert algebra.atom_masks == closures
            assert sorted(algebra.atom_masks) == atoms
            assert list(algebra.members) == members
            assert algebra.pca.kernel.pairs == reindexed
        seen.update(
            (i, j) in kernel for i in range(len(atoms)) for j in range(len(atoms))
        )
        reordered.add(list(closures) != atoms)
    assert seen == {True, False}
    assert reordered == {True, False}


def test_gmcs_hom_check_matches_the_member_sweep():
    """On every continuous map between the valid canonical 2-contact
    pairs of at most 3 atoms and 5 points: the first line against "each
    preimage of a target member is a source member", and the verdict
    against that and the preservation of meets and complements, by the
    sweeps over every member; each verdict of both lines is seen."""
    pairs = {}
    for n in (1, 2, 3):
        for kernel in all_kernels(n):
            pca = pca_from_pairs(n, kernel)
            if pca.axioms.is_contact:
                triple = canonical_pcs_of_pca(pca)
                cs = validate_cs(triple.space, triple.subset)
                if cs.ok and triple.space.point_count <= 5:
                    pairs.setdefault((triple.space.point_closures, triple.subset), cs)
    assert len(pairs) == 10
    seen, count = set(), 0
    for source, target in itertools.product(pairs.values(), repeat=2):
        s_cl, t_cl = source.space.point_closures, target.space.point_closures
        for point_map in itertools.product(range(len(t_cl)), repeat=len(s_cl)):
            # continuous: z in cl{x} forces f(z) in cl{f(x)}
            if not all(
                t_cl[point_map[x]] >> point_map[z] & 1
                for x, cl in enumerate(s_cl)
                for z in bit_indices(cl)
            ):
                continue
            count += 1
            lines = [c.passed for c in gmcs_hom_check(source, target, point_map).checks]
            inside, meets, complements = oracle_gmcs_hom(
                (s_cl, source.subset), (t_cl, target.subset), point_map
            )
            assert (lines[0], all(lines)) == (inside, inside and meets and complements), (
                s_cl,
                t_cl,
                point_map,
            )
            seen.add(tuple(lines))
    assert count == 3856
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen


def perturbed_dual_space_maps(rng, count):
    """Seeded dual space maps between canonical duals of 3 to 5 atoms,
    each with the image of one point moved to another target point."""
    out = []
    for i in range(count):
        sizes = (rng.randint(3, 5), rng.randint(3, 5))
        phi = random_pca_morphism(*sizes, rng.choice((0.3, 0.45, 0.6)), child_seed(20261030, i))
        f = duality.dual_space_map(phi)
        point_map = list(f.point_map)
        x = rng.randrange(len(point_map))
        point_map[x] = rng.choice(
            [y for y in range(f.target.space.point_count) if y != point_map[x]]
        )
        out.append((f.source, f.target, tuple(point_map)))
    return out


def test_pcs_map_check_matches_the_all_clopens_trace_coherence():
    """The morphism conditions, decided at the clopen atoms of the target's
    dense part, against the literal sweeps over all closed sets and all
    clopens (`oracle_pcs_map_failure`): on seeded point maps between
    triples on at most 3 points and between triples on 4 points, into
    targets whose atom closures are a closed base, as (PCS3) makes them
    for every valid target, and on one-point perturbations of dual space
    maps between canonical duals of 3 to 5 atoms.  Every failing
    condition is seen.  A morphism refuses a source or a target that is
    not a valid triple before it looks at the point map."""
    rng = random.Random(20261010)

    def dense_triples(spaces):
        return [
            TwoPrecontactSpace(space, sub, random_relation(sub, rng))
            for space in spaces
            for sub in range(1, space.full_mask + 1)
            if closure(space, sub) == space.full_mask
        ]

    small = dense_triples(s for n in range(1, 4) for s in all_small_spaces(n))
    four = dense_triples(all_small_spaces(4))
    cases = []
    for triples, count in ((small, 4000), (four, 1500)):
        targets = [t for t in triples if pair_atoms(t.space, t.subset).closed_base]
        for _ in range(count):
            source, target = rng.choice(triples), rng.choice(targets)
            point_map = tuple(
                rng.randrange(target.space.point_count) for _ in range(source.space.point_count)
            )
            cases.append((source, target, point_map))
    cases += perturbed_dual_space_maps(rng, 120)
    seen = set()
    for source, target, point_map in cases:
        failure = oracle_pcs_map_failure(
            (source.space.point_closures, source.subset, source.relation),
            (target.space.point_closures, target.subset, target.relation),
            point_map,
        )
        valid = duality._is_valid_pcs_map(source, target, point_map) is not None
        assert valid == (failure is None), (source, target, point_map)
        seen.add(failure)
    assert seen == {None, "continuity", "dense part", "relation", "trace coherence"}, seen

    # the indiscrete two-point space is not T0, so this triple fails (PCS1)
    invalid = validate_pcs(space_from_closed_base(("a", "b"), []), 0b01, frozenset())
    valid = validate_pcs(space_from_closed_base(("a", "b"), [0b01, 0b10]), 0b11, frozenset())
    assert not invalid.ok and valid.ok
    for end, ends in (("source", (invalid, valid)), ("target", (valid, invalid))):
        with pytest.raises(
            ValidationError, match=rf"^the {end} is not a 2-precontact space: \(PCS1\) "
        ):
            duality.PcsMorphism(*ends, (0, 1))


def test_closed_unions_are_the_closed_family():
    """The map oracle grows the target's closed sets as unions of point
    closures: the literal closed family on every space with at most 4
    points."""
    for space in (s for n in range(1, 5) for s in all_small_spaces(n)):
        closures = space.point_closures
        assert oracle_closed_unions(closures) == oracle_closed_family(closures)


def test_mereocompactness_matches_the_clan_and_candidate_sweeps(monkeypatch):
    """The clan check by the atom supports of the points, the
    reproduction check by atom lists, and the uniqueness check by the
    maximal points, against the sweeps over all member sets and all
    2**points candidate subsets; the u-points against the points whose
    trace is an ultrafilter, on every pair of at most 4 points.  On
    mereocompact T0 pairs the u-points always reproduce the members and
    are the maximal points, so the last three checks are also run with
    every subset posing as the u-point set of the pairs on at most 4
    points: whenever the Stone and reproduction lines then pass,
    `validate_cs` of the pair holds, which is why no line records it."""
    seen = {"clan": set(), "ultra": set(), "reproduced": set(), "unique": set(), "cs": set()}
    families = []
    rng = random.Random(20261011)
    spaces = [space for n in range(1, 5) for space in all_small_spaces(n)]
    spaces += [random_space(rng.randint(5, 6), rng) for _ in range(12)]
    for space in spaces:
        rc = rc_members(space)
        families += [(space, rc), (space, clopens_of_subset(space, space.full_mask))]
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
            witness = "unrealized clan " + support_witness(space, unrealized)
        assert (clan.passed, clan.witness) == (unrealized is None, witness), (
            space.point_closures,
            members,
        )
        seen["clan"].add(clan.passed)
        if space.point_count <= 4:
            ultra = oracle_ultrafilter_points(space.point_closures, members)
            assert report.u_set == ultra, (space.point_closures, members)
            seen["ultra"].add(ultra == space.full_mask)
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
        stone = report.check("u-point set is a Stone subspace").passed
        if stone and reproduced:
            assert validate_cs(space, u_set).ok, (closures, members, u_set)
        assert not any(c.name.endswith("is a 2-contact space") for c in report.checks)
        seen["reproduced"].add(reproduced)
        seen["unique"].add(witness is None)
        seen["cs"].add(stone and reproduced)
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


def literal_pair_message(space, atoms):
    """The message the pair constructor raises on distinct, ascending,
    nonzero regular closed ``atoms``, with the interior of the meet of
    each pair of atoms taken by itself: the cover check, then the first
    pair in `itertools.combinations` order whose meet has an interior
    point; None when neither fails."""
    covered = 0
    for a in atoms:
        covered |= a
    if covered != space.full_mask:
        return "the atoms do not cover the space"
    for a, b in itertools.combinations(atoms, 2):
        if interior(space, a & b):
            return f"the atoms {space.name_set(a)} and {space.name_set(b)} share an interior point"
    return None


def test_pair_atoms_match_the_member_pair_loop():
    """A pair held by its atoms is accepted iff the unions of the atoms
    are closed under complement, join and meet (the member-pair loop)
    and the atoms are their minimal members: on every ascending list of
    distinct nonzero regular closed sets of every space with at most 3
    points, and on seeded lists for spaces of 4 to 8 points: the blocks
    of a partition of the atoms of RC(X), those blocks with one dropped
    or with the union of two added, the atoms with a block added, and a
    random choice of regular closed sets.  The message also equals the
    one of the pairwise interior loop (`literal_pair_message`)."""
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
    seen, messages = set(), set()
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
            message = None
        except PreconditionError as exc:
            message = str(exc)
        assert (message is None) == expected, (closures, atoms)
        assert message == literal_pair_message(space, atoms), (closures, atoms)
        seen.add((expected, seeded))
        messages.add(message and message.split()[-1])
    assert seen == {(v, seeded) for v in (True, False) for seeded in (False, True)}, seen
    assert messages == {None, "space", "point"}, messages


def test_pair_constructor_takes_one_interior_per_atom(monkeypatch):
    """`MereotopologicalPair(space, atoms)` takes the interior of each
    atom once, in order, and of no meet of two atoms, on RC(X) of seeded
    spaces; on the pair algebras of seeded contact duals, whose atoms
    are the closed base with a point of each singleton signature, it
    takes none (`_signature_interiors`)."""
    rng = random.Random(20261022)
    cases = [(space, rc_atoms(space), True) for space in (random_space(rng.randint(3, 8), rng) for _ in range(20))]
    for n in (3, 4, 5):
        spec = RandomSpec(atoms=n, density=0.3, seed=child_seed(59, n), constraint="contact")
        triple = canonical_pcs_of_pca(random_pca(spec))
        cases.append((triple.space, rc_atoms_of_subset(triple.space, triple.subset), False))
    calls = []
    interior_of = topology.interior

    def counted(space, mask):
        calls.append(mask)
        return interior_of(space, mask)

    monkeypatch.setattr(topology, "interior", counted)
    for space, atoms, plain in cases:
        calls.clear()
        MereotopologicalPair(space, atoms)
        assert calls == (list(atoms) if plain else []), (space.point_closures, atoms, calls)
    assert max(len(atoms) for _, atoms, _ in cases) >= 3


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
        assert "u-points recover the dense part" in [c.name for c in special.checks]
        assert got_special.checks == special.checks
        assert got_mereo.checks == mereo.checks


def _counted(monkeypatch, name, home=topology):
    """Count the calls of the function ``name`` of the module ``home``
    from every module of the package that reads it."""
    original = getattr(home, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (topology, structures, duality, suite, adjacency, precontact):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


# Per fresh `specialization_report` of a contact algebra, its canonical
# build included: one `validate_cs` of the dual pair (the contact
# line's); one T0 test of the dual space (`FiniteSpace.t0`), read by
# (PCS1), that validation and the pair's mereocompactness report; one
# overlap-clan pass and realization sweep of the dual's closed base
# (`FiniteSpace.base_unrealized`), read by the report's clan line; and
# the realization sweeps of (PCS5), one in the canonical build and one
# in `validate_cs`, whose (CS4) is the (PCS5) of the meeting relation.
DUAL_PAIR_READS = {
    "validate_cs": 1,
    "overlap_clans": 1,
    "first_unrealized_support": 3,
    "is_t0": 1,
}


def test_each_dual_pair_is_read_at_its_atoms_once(monkeypatch):
    """The canonical build and `specialization_report` of a contact dual
    derive its pair table once (`pair_atoms`), off the signatures of its
    dense points: no `clopen_atoms` and no `_meets` call per dual, which
    builds no point closures, on seeded 3-
    to 6-atom contact algebras, and validate the pair and sweep its
    clans as often as `DUAL_PAIR_READS` says; the C-semiregularity of the
    dual, read off the mereocompactness report of RC(X), takes `rc_atoms`
    once."""
    clopen_calls = _counted(monkeypatch, "clopen_atoms")
    meet_calls = _counted(monkeypatch, "_meets")
    rc_calls = _counted(monkeypatch, "rc_atoms")
    counted = {
        name: _counted(monkeypatch, name, topology if hasattr(topology, name) else structures)
        for name in DUAL_PAIR_READS
    }
    for n in range(3, 7):
        for i, density in enumerate((0.15, 0.3, 0.5, 0.7, 0.85)):
            seed = child_seed(61, n * 10 + i)
            pca = random_pca(RandomSpec(atoms=n, density=density, seed=seed, constraint="contact"))
            for calls in (clopen_calls, meet_calls, *counted.values()):
                calls.clear()
            report = specialization_report(pca)
            assert report.ok, report.failures
            assert "u-points recover the dense part" in [c.name for c in report.checks]
            assert not clopen_calls, (n, density, len(clopen_calls))
            assert not meet_calls, (n, density, len(meet_calls))
            counts = {name: len(calls) for name, calls in counted.items()}
            assert counts == DUAL_PAIR_READS, (n, density, counts)
            space = canonical_pcs_of_pca(pca).space
            rc_calls.clear()
            assert c_semiregular(space)
            assert len(rc_calls) == 1


def test_round_trip_reads_the_rows_of_the_canonical_build(monkeypatch):
    """After the canonical build, `algebra_roundtrip_iso` reads the
    triple only through its canonical algebra, whose kernel rows
    `validate_pcs` kept on it (`_rows`), on seeded 1- to 6-atom
    algebras: no `_relation_out_masks` call, and one `meeting_rows`
    call, the pair's proximity, shared by its two proximity lines."""
    out_mask_calls = _counted(monkeypatch, "_relation_out_masks", structures)
    meeting_calls = _counted(monkeypatch, "meeting_rows", boolean)
    for n in range(1, 7):
        for i, density in enumerate((0.15, 0.5, 0.85)):
            pca = random_pca(RandomSpec(atoms=n, density=density, seed=child_seed(71, n * 10 + i)))
            triple = canonical_pcs_of_pca(pca)  # built, and held
            out_mask_calls.clear()
            meeting_calls.clear()
            roundtrip = algebra_roundtrip_iso(pca)
            assert roundtrip.report.ok and roundtrip.space is triple
            counts = (len(out_mask_calls), len(meeting_calls))
            assert counts == (0, 1), (n, density, counts)


def test_a_triple_built_directly_derives_the_rows_validate_pcs_kept():
    """The kernel rows a triple constructed directly derives on first
    read (`TwoPrecontactSpace._rows`) are the ones `validate_pcs` kept
    on its validated twin, on every triple of the population, valid or
    not; on a canonical dual they are its algebra's kernel rows."""
    for space, subset, relation in pcs_population():
        triple = validate_pcs(space, subset, relation)
        copy = TwoPrecontactSpace(space, subset, triple.relation, triple.checks)
        assert "_rows" not in vars(copy)
        assert copy._rows == vars(triple)["_rows"], (space, subset, sorted(relation))
    for n, pairs in seeded_kernels(47, {3: 10, 4: 10, 5: 5}):
        pca = pca_from_pairs(n, pairs)
        triple = canonical_pcs_of_pca(pca)
        copy = TwoPrecontactSpace(triple.space, triple.subset, triple.relation, triple.checks)
        assert copy._rows == vars(triple)["_rows"] == pca.kernel.succ


def test_round_trip_derives_each_table_once(monkeypatch):
    """One `algebra_roundtrip_iso` of a fresh algebra, its canonical
    build included, derives each table once, on seeded 1- to 6-atom
    algebras: no `_meets`, as the dual is read through its closed base
    and signatures and builds no point closures, two `transpose` calls (the atom clan sets and the reaching rows of
    (PCS4)), one pass of contact-closure rows, the algebra's: the
    canonical algebra of its dual is the algebra itself; and two
    `meeting_rows` calls, the meeting atom closures of (PCS4) and the
    pair's proximity of the round trip."""
    meet_calls = _counted(monkeypatch, "_meets")
    transpose_calls = _counted(monkeypatch, "transpose", boolean)
    meeting_calls = _counted(monkeypatch, "meeting_rows", boolean)
    rows_of = RelationKernel._closure_rows.func
    row_calls = []

    def counted_rows(kernel):
        row_calls.append(kernel)
        return rows_of(kernel)

    rows = functools.cached_property(counted_rows)
    rows.__set_name__(RelationKernel, "_closure_rows")
    monkeypatch.setattr(RelationKernel, "_closure_rows", rows)
    for n in range(1, 7):
        for i, density in enumerate((0.15, 0.5, 0.85)):
            pca = random_pca(RandomSpec(atoms=n, density=density, seed=child_seed(73, n * 10 + i)))
            for calls in (meet_calls, transpose_calls, row_calls, meeting_calls):
                calls.clear()
            roundtrip = algebra_roundtrip_iso(pca)
            assert roundtrip.report.ok, roundtrip.report.failures
            counts = tuple(map(len, (meet_calls, transpose_calls, row_calls, meeting_calls)))
            assert counts == (0, 2, 1, 2), (n, density, counts)
            assert row_calls[0] is pca.kernel
            assert pcs_algebra(roundtrip.space).pca is pca


def test_pair_table_matches_the_subspace_and_closed_base_sweeps():
    """`pair_atoms` on every space with at most 4 points and every subset:
    its atoms and their closures against the clopens of the subspace
    (`oracle_subspace_clopens`), its Stone verdict against the literal
    conjunction on the subspace (T1 and zero-dimensional; every finite
    space is compact), its closed-base verdict against `oracle_is_closed_base`
    on the closures of the clopens, and its point supports against the
    atom closures.  The subsets are asked for in a sequence that
    alternates between two of them on one space object, and each answer
    must be that of the subset asked for."""
    seen = set()
    for space in (s for n in range(1, 5) for s in all_small_spaces(n)):
        closures = space.point_closures
        subsets = range(space.full_mask + 1)
        expected = {}
        for sub in subsets:
            clopens = oracle_subspace_clopens(closures, sub)
            atoms = tuple(minimal_members(clopens))
            part = subspace(space, sub)
            expected[sub] = (
                atoms,
                tuple(oracle_closure_of(closures, a) for a in atoms),
                is_t1(part) and is_zero_dimensional(part),
                oracle_is_closed_base(closures, {oracle_closure_of(closures, f) for f in clopens}),
            )
        order = [s for pair in zip(subsets, reversed(subsets)) for s in pair]
        for sub in order:
            table = pair_atoms(space, sub)
            atoms, atom_closures, stone, base = expected[sub]
            assert table.subset == sub
            assert (table.atoms, table.closures, table.stone, table.closed_base) == expected[sub], (
                closures,
                sub,
            )
            assert table.support == [
                mask_of(i for i, c in enumerate(atom_closures) if c >> x & 1)
                for x in range(space.point_count)
            ]
            seen.add((stone, base))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen


def test_pcs4_missing_rows_are_the_meeting_rows():
    """(PCS4) of `validate_pcs` reads the atoms whose closures meet each
    atom closure off `meeting_rows`, not off the join of the point
    supports over the closure: the two agree on the clopen atom closures
    of every subset of every space with at most 4 points, against
    `oracle_support_join_rows`."""
    for space in (s for n in range(1, 5) for s in all_small_spaces(n)):
        for sub in range(space.full_mask + 1):
            closures = pair_atoms(space, sub).closures
            expected = oracle_support_join_rows(space.point_count, closures)
            assert meeting_rows(closures, closures) == expected, (space.point_closures, sub)


def copy_of(space):
    return FiniteSpace(space.point_names, space.point_closures)


def _check_table_read_off_the_base(space, sub, oracle_memo):
    """`pair_atoms` of a space built from a closed base against the
    transpose and `_is_base_of_closed` path it replaces, taken on a copy
    of the space that keeps no base, and against the literal point
    supports; its closed-base verdict against `oracle_is_closed_base`
    on the closures of the clopens, for spaces of at most 10 points.
    Returns whether the table was read off the base."""
    table = pair_atoms(space, sub)
    plain = pair_atoms(copy_of(space), sub)
    assert table._replace(support=list(table.support)) == plain, (space, sub)
    assert list(table.support) == [
        mask_of(i for i, c in enumerate(table.closures) if c >> x & 1)
        for x in range(space.point_count)
    ]
    closures = space.point_closures
    if len(closures) <= 10:
        key = (closures, sub)
        if key not in oracle_memo:
            oracle_memo[key] = oracle_is_closed_base(
                closures,
                {oracle_closure_of(closures, f) for f in oracle_subspace_clopens(closures, sub)},
            )
        assert table.closed_base == oracle_memo[key], (space, sub)
    return table.closures == space._base


def _base_names(n):
    return tuple(f"p{x}" for x in range(n))


def test_pair_table_is_read_off_every_small_closed_base():
    """Every family of masks over at most 3 points, ascending, also with
    a repeated member and with a member outside the points, and every
    family of at most 4 nonempty masks over 4 points, ascending: the
    space from each and every subset.  A base with a repeated, empty or
    out-of-range member never equals the closures of clopen atoms, which
    are distinct, nonzero and in range, so it takes the plain path.  The
    signatures are the transpose of the members cut to the points."""
    bases = []
    for n in (1, 2, 3):
        for r in range((1 << n) + 1):
            for base in itertools.combinations(range(1 << n), r):
                bases += [(n, base), (n, base + (1 << n,))]
                if base:
                    bases.append((n, base + base[:1]))
    for r in range(5):
        bases += [(4, base) for base in itertools.combinations(range(1, 16), r)]
    memo, branches = {}, set()
    for n, base in bases:
        space = space_from_closed_base(_base_names(n), base)
        full = space.full_mask
        assert space._base == base
        assert list(space._signatures) == transpose([m & full for m in base], n)
        for sub in range(full + 1):
            read_off = _check_table_read_off_the_base(space, sub, memo)
            plain_only = 0 in base or len(set(base)) < len(base) or max(base, default=0) > full
            assert not (read_off and plain_only), (base, sub)
            branches.add(read_off)
    assert branches == {True, False}


def test_pair_table_is_read_off_seeded_closed_bases():
    """Seeded spaces of 5 to 9 points from random bases, from the point
    closures of a random space, and from the clopen atom closures of a
    subset of at most 5 points of a random space, whose space reads that
    subset off its base when they form a closed base; each at that
    subset, the whole space and subsets of at most 5 points."""
    rng = random.Random(20261019)
    memo, branches = {}, set()
    for n in range(5, 10):
        for _ in range(4):
            shape = random_space(n, rng)
            chosen = sum(1 << x for x in rng.sample(range(n), rng.randint(1, 5)))
            generated = pair_atoms(shape, chosen).closures
            bases = [
                tuple(rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))),
                shape.point_closures,
                generated,
            ]
            for base in bases:
                space = space_from_closed_base(_base_names(n), base)
                assert list(space._signatures) == transpose(base, n)
                subsets = [chosen, space.full_mask] + [
                    sum(1 << x for x in rng.sample(range(n), rng.randint(0, 5))) for _ in range(3)
                ]
                for sub in subsets:
                    read_off = _check_table_read_off_the_base(space, sub, memo)
                    branches.add(read_off)
                    if base is generated and sub == chosen and pair_atoms(shape, sub).closed_base:
                        assert read_off, (shape, sub)
    assert branches == {True, False}


def test_pair_table_of_canonical_duals_is_read_off_the_base(monkeypatch):
    """Canonical duals of every kernel on at most 2 atoms and of seeded
    3- to 8-atom kernels: the dense part reads its table off the base,
    and a subset other than the dense part takes the plain path; both
    equal the plain path.  The signatures are the clan supports, the
    transpose of the base."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    memo = {}
    pcas = [pca_from_pairs(n, pairs) for n in (1, 2) for pairs in all_kernels(n)]
    for n in range(3, 9):
        for i, density in enumerate((0.15, 0.5, 0.85)):
            for constraint in ("none", "contact"):
                spec = RandomSpec(
                    atoms=n, density=density, seed=child_seed(79, n * 10 + i), constraint=constraint
                )
                pcas.append(random_pca(spec))
    for pca in pcas:
        n = pca.algebra.atom_count
        triple = canonical_pcs_of_pca(pca)
        space = triple.space
        assert space._signatures == tuple(clan_supports(pca))
        assert list(space._signatures) == transpose(space._base, space.point_count)
        assert _check_table_read_off_the_base(space, triple.subset, memo)
        others = {triple.subset ^ 1, space.full_mask, space.full_mask ^ triple.subset}
        for sub in others - {0, triple.subset}:
            assert not _check_table_read_off_the_base(space, sub, memo), (pca, sub)
        # the table of the dense part is read again after the others
        assert _check_table_read_off_the_base(space, triple.subset, memo)


def closed_base_population():
    """Spaces built from a closed base, with the base: the canonical
    duals of every kernel with at most 3 atoms and of seeded 4- to
    6-atom kernels, and the spaces of every family of distinct nonzero
    masks over at most 3 points, of at most 4 such masks over 4 points
    and of seeded families over 5 to 8 points; some have a point of each
    singleton signature and cover the space, some do not."""
    out = []
    kernels = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    kernels += seeded_kernels(101, {4: 4, 5: 2, 6: 1})
    for n, pairs in kernels:
        space = canonical_pcs_of_pca(pca_from_pairs(n, pairs)).space
        out.append((space, space._base))
    bases = [
        base
        for n in (1, 2, 3)
        for r in range(1, min(1 << n, 7))
        for base in itertools.combinations(range(1, 1 << n), r)
    ]
    bases += [base for r in range(1, 5) for base in itertools.combinations(range(1, 16), r)]
    rng = random.Random(20261024)
    for n in range(5, 9):
        for _ in range(12):
            bases.append(tuple({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))}))
    for base in bases:
        n = max(base).bit_length()
        out.append((space_from_closed_base(_base_names(n), base), base))
    return out


def test_signature_interiors_match_the_literal_interiors():
    """`_signature_interiors` on the closed-base population, with the base
    ascending as the atoms: when the base covers the space and each
    member B_j has a point of signature {j} (literally, over the point
    supports), the interiors are those of `oracle_interior_at` and of
    `interior`; otherwise it declines.  The pair constructor then agrees
    with the one on a copy of the space that keeps no base: both build,
    or both raise the same message.  Every canonical dual takes the
    signature path."""
    seen = set()
    for space, base in closed_base_population():
        atoms = tuple(sorted(base))
        count, full = space.point_count, space.full_mask
        supports = oracle_atom_supports(count, base)
        applies = reduce(or_, base) == full and all(1 << j in supports for j in range(len(base)))
        got = topology._signature_interiors(space, atoms)
        if applies:
            closures = space.point_closures
            assert got == [oracle_interior_at(closures, b) for b in base], (base, got)
            assert got == [interior(space, b) for b in base]
        else:
            assert got is None, (base, got)
        seen.add(applies)
        if space.point_names[0] == "c0":
            assert applies, base
        outcomes = []
        for on in (space, copy_of(space)):
            try:
                MereotopologicalPair(on, atoms)
                outcomes.append(None)
            except (DomainMismatchError, PreconditionError) as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1], (base, outcomes)
        if applies:
            assert outcomes[0] is None
    assert seen == {True, False}


def test_c_semiregular_tests_read_off_the_base_match_the_plain_path(monkeypatch):
    """`_c_semiregular_tests` of the closed-base population, at the base
    ascending as the atoms, against `_is_base_of_closed`, `is_t0` and the
    first overlap clan unrealized over the `transpose` of the atoms,
    which is the literal atom supports; with at most 4 points the
    closed-base verdict also against `oracle_is_closed_base` of the
    unions.  The base is always a closed base of its space; when every
    clan is realized the read-off takes no `_meets` and no `transpose`,
    and a failing clan is named on the plain path.  Both verdicts of T0
    and of the clan test are seen, failing clan witnesses included."""
    expected, seen = [], set()
    for space, base in closed_base_population():
        atoms = tuple(sorted(base))
        count = space.point_count
        supports = transpose(atoms, count)
        assert supports == oracle_atom_supports(count, atoms)
        plain = [
            topology._is_base_of_closed(space, atoms),
            is_t0(space),
            topology.first_unrealized_support(supports, topology.overlap_clans(atoms)),
        ]
        assert plain[0], atoms
        if count <= 4:
            unions_of_atoms = {oracle_point_mask(atoms, t) for t in range(1 << len(atoms))}
            assert oracle_is_closed_base(space.point_closures, unions_of_atoms), atoms
        expected.append((space, atoms, plain))
        seen.add((plain[1], plain[2] is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen

    def refuse(*args):
        raise AssertionError("the base was derived again")

    for space, atoms, plain in expected:
        if plain[2] is not None:
            assert list(topology._c_semiregular_tests(space, atoms)) == plain, (atoms, plain)
    monkeypatch.setattr(topology, "_meets", refuse)
    monkeypatch.setattr(topology, "transpose", refuse)
    for space, atoms, plain in expected:
        if plain[2] is None:
            assert list(topology._c_semiregular_tests(space, atoms)) == plain, (atoms, plain)


def test_closure_rows_are_the_literal_contact_closure():
    """`RelationKernel._closure_rows` against the symmetric-reflexive
    closure of the kernel pairs, on every kernel with at most 3 atoms
    and on seeded 4- to 6-atom kernels."""
    kernels = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    kernels += seeded_kernels(83, {4: 20, 5: 20, 6: 20})
    for n, pairs in kernels:
        closed = set(pairs) | {(q, p) for p, q in pairs} | {(p, p) for p in range(n)}
        rows = pca_from_pairs(n, pairs).kernel._closure_rows
        assert rows == tuple(mask_of(q for q in range(n) if (p, q) in closed) for p in range(n))


def test_triples_on_one_space_keep_their_own_pair_reading():
    """Triples on one space object with different subsets, read in
    alternation, give the checks, connectedness, pair relation and
    canonical algebra of the same triple on a fresh copy of the space:
    two triples on each space with at most 4 points and two dense
    subsets, and canonical duals of seeded 2- to 4-atom algebras read
    after the whole space's table has replaced their own."""
    rng = random.Random(20261101)
    for space in (s for n in range(2, 5) for s in all_small_spaces(n)):
        dense = [
            sub for sub in range(1, space.full_mask + 1)
            if closure(space, sub) == space.full_mask
        ]
        if len(dense) < 2:
            continue
        subsets = rng.sample(dense, 2)
        triples = [validate_pcs(space, sub, random_relation(sub, rng)) for sub in subsets]
        # each triple alone, on a copy of the space of its own
        fresh = [validate_pcs(copy_of(space), t.subset, t.relation) for t in triples]
        for _ in range(2):
            for triple, alone in zip(triples, fresh):
                assert triple.checks == alone.checks
                assert triple_is_connected(triple) == triple_is_connected(alone)
                cs = validate_cs(space, triple.subset)
                twin = validate_cs(alone.space, alone.subset)
                assert cs.checks == twin.checks
                if cs.ok:
                    assert contact_relation_of_pair(cs) == contact_relation_of_pair(twin)
    for n in (2, 3, 4):
        for i, density in enumerate((0.2, 0.5, 0.8)):
            pca = random_pca(RandomSpec(atoms=n, density=density, seed=child_seed(67, n * 10 + i)))
            triple = canonical_pcs_of_pca(pca)
            space = triple.space
            alone = validate_pcs(copy_of(space), triple.subset, triple.relation)
            pair_atoms(space, space.full_mask)
            assert pcs_algebra(triple).pca == pcs_algebra(alone).pca
            assert pcs_algebra(triple).atom_masks == pcs_algebra(alone).atom_masks
            pair_atoms(space, space.full_mask)
            assert triple_is_connected(triple) == triple_is_connected(alone)
            pair_atoms(space, space.full_mask)
            assert identity_pcs_morphism(triple).point_map == tuple(range(space.point_count))


def test_u_points_match_the_member_pair_sweep():
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
        u_set = mereocompactness_report(mereo).u_set
        closures = space.point_closures
        whole = space.point_count <= 4 and members == rc_members(space)
        family = oracle_closed_family(closures) if whole else None
        for x in range(space.point_count):
            expected = oracle_u_point_of_pair(closures, members, x)
            assert bool(u_set >> x & 1) == expected, (closures, members, x)
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
                pca_from_pairs(n, pairs).kernel.succ, pca_from_pairs(n, other).kernel.succ
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
    is broken by cutting the top pair atom down to its trace on the
    dense part, since the complement and meet sweeps run only when it
    fails: the unions of the pair atoms stay distinct, and the atom whose
    image was the top pair atom is named."""
    real_pcs_algebra = duality.pcs_algebra

    def cut_top(triple):
        alg = real_pcs_algebra(triple)
        top = alg.atom_masks[-1]
        return dataclasses.replace(alg, atom_masks=alg.atom_masks[:-1] + (top & triple.subset,))

    monkeypatch.setattr(duality, "pcs_algebra", cut_top)
    monkeypatch.setattr(duality, "closure", lambda space, mask: mask)
    # The clans read the real contact closure before the round trip's
    # reads of it are broken.
    clan_supports(path_pca)
    monkeypatch.setattr(RelationKernel, "_closure_rows", property(lambda kernel: kernel.succ))
    round_trip = algebra_roundtrip_iso(path_pca)
    top = real_pcs_algebra(round_trip.space).atom_masks[-1]
    moved = path_pca._atom_clans.index(top)
    assert round_trip.report.check("bijective onto the pair's regular closed sets").witness == (
        f"atom {moved} goes to {round_trip.space.space.name_set(top)}, not a pair atom"
    )
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
    canonical = cut_top(round_trip.space)
    atoms = canonical.atom_masks
    kernel = canonical.pca.kernel.pairs
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


def _replaced(values, p, value):
    return values[:p] + (value,) + values[p + 1 :]


def test_round_trip_bijectivity_at_the_atoms_matches_the_literal_sweep():
    """`_bijectivity_witness` against the literal comparison of the 2**n
    images with the unions of the pair atoms, on every kernel with at
    most 3 atoms and on seeded 4- to 6-atom kernels, as built and
    patched: an atom image with one point toggled, joined with another
    or replaced by another, and the pair atoms with the top one dropped
    or one cut to its trace on the dense part (the unions of the pair
    atoms stay distinct).  A failure names the first atom whose image
    is not a pair atom or repeats an earlier image, else the first pair
    atom left over."""
    rng = random.Random(20261023)
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(89, {4: 6, 5: 3, 6: 2})
    seen = set()
    for n, pairs in population:
        pca = pca_from_pairs(n, pairs)
        triple = canonical_pcs_of_pca(pca)
        space, images = triple.space, pca._atom_clans
        atoms = pcs_algebra(triple).atom_masks
        p, q = rng.randrange(n), rng.randrange(n)
        cases = [
            (images, atoms),
            (_replaced(images, p, images[p] ^ 1 << rng.randrange(space.point_count)), atoms),
            (_replaced(images, p, images[p] | images[q]), atoms),
            (_replaced(images, p, images[q]), atoms),
            (images, atoms[:-1]),
            (images, _replaced(atoms, p, atoms[p] & triple.subset)),
        ]
        for atom_images, pair in cases:
            expected = oracle_bijective_onto_unions(atom_images, pair)
            got = duality._bijectivity_witness(space, atom_images, pair)
            assert (got is None) == expected, (n, sorted(pairs), atom_images, pair)
            seen.add(expected)
            stray = next(
                (
                    r
                    for r, image in enumerate(atom_images)
                    if image not in pair or image in atom_images[:r]
                ),
                None,
            )
            if stray is not None:
                assert got.startswith(f"atom {stray} goes to "), got
            elif not expected:
                assert got.startswith("pair atom "), got
    assert seen == {True, False}


def test_instance_suite_round_trip_builds_no_list_of_all_elements(monkeypatch):
    """On passing instances, `instance_suite` decides the round trip at
    the atoms: no `joins_table` and no `unions` call, on seeded 1- to
    6-atom kernels, contact and not."""
    joins_calls = _counted(monkeypatch, "joins_table", boolean)
    union_calls = _counted(monkeypatch, "unions")
    for n in range(1, 7):
        for i, density in enumerate((0.15, 0.5, 0.85)):
            for constraint in ("none", "contact"):
                spec = RandomSpec(
                    atoms=n, density=density, seed=child_seed(97, n * 10 + i), constraint=constraint
                )
                report = instance_suite(random_pca(spec))
                assert report.ok, report.failures
    assert not joins_calls and not union_calls, (len(joins_calls), len(union_calls))


# ---------------------------------------------------------------------------
# join-preserving maps at their atoms: the naturality square and the dual
# algebra map


def hom_population():
    """Every hom between algebras of 1 to 3 atoms, and 24 seeded homs
    between algebras of 4 to 6 atoms."""
    homs = [
        hom
        for s, t in itertools.product((1, 2, 3), repeat=2)
        for hom in enumerate_boolean_homs(FiniteBooleanAlgebra(s), FiniteBooleanAlgebra(t))
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


def valid_triples(max_points):
    """The distinct valid triples of `pcs_population` on at most
    ``max_points`` points, canonical duals and their perturbations
    among them."""
    out = {}
    for space, subset, relation in pcs_population():
        if space.point_count <= max_points:
            triple = validate_pcs(space, subset, relation)
            if triple.ok:
                out.setdefault((space.point_closures, subset, relation), triple)
    return list(out.values())


def pcs_morphisms(source, target):
    """Every PCS-morphism, in lexicographic order of the point maps.  The
    maps are grown point by point, and a prefix is dropped once it
    breaks a morphism condition: a dense point sent outside the target's
    dense part, or two placed points x, z with z in cl{x} but f(z)
    outside cl{f(x)}.  So no morphism is left out."""
    source_cl, target_cl = source.space.point_closures, target.space.point_closures
    points = range(len(target_cl))
    dense = [y for y in points if target.subset >> y & 1]
    out = []

    def grow(pm):
        x = len(pm)
        if x == len(source_cl):
            try:
                out.append(duality.PcsMorphism(source, target, tuple(pm)))
            except PreconditionError:
                pass
            return
        for y in dense if source.subset >> x & 1 else points:
            if all(
                (not source_cl[x] >> z & 1 or target_cl[y] >> pm[z] & 1)
                and (not source_cl[z] >> x & 1 or target_cl[pm[z]] >> y & 1)
                for z in range(x)
            ):
                grow(pm + [y])

    grow([])
    return out


def member_elements(triple):
    """{point set: element} over the members of the canonical algebra,
    its atoms the pair's regular closed atoms of the oracle in the
    algebra's order."""
    atoms = pcs_algebra(triple).atom_masks
    oracle_atoms, _, _ = oracle_pcs_algebra(
        triple.space.point_closures, triple.subset, triple.relation
    )
    assert sorted(atoms) == oracle_atoms
    return {oracle_point_mask(atoms, m): m for m in range(1 << len(atoms))}


def test_dual_algebra_map_matches_the_literal_action():
    """The dual algebra map of a space morphism against the literal
    action: a target member F' goes to cl(f^-1(F' n X0') n X0), read
    back as a source element.  On every morphism between the valid
    triples of `pcs_population` on at most 5 points and on the duals of
    `morphism_population`."""
    triples = valid_triples(5)
    morphisms = [f for s in triples for t in triples for f in pcs_morphisms(s, t)]
    morphisms += [duality.dual_space_map(phi) for phi in morphism_population()]
    elements = {}
    moved = set()
    for f in morphisms:
        source, target = f.source, f.target
        for triple in (source, target):
            if id(triple) not in elements:
                elements[id(triple)] = member_elements(triple)
        s_elements, t_elements = elements[id(source)], elements[id(target)]
        hom = duality.dual_algebra_map(f).hom
        images = oracle_dual_images(
            (source.space.point_closures, source.subset),
            (target.space.point_closures, target.subset),
            f.point_map,
            t_elements,
        )
        for image, (member, m) in zip(images, t_elements.items()):
            assert image in s_elements, (f, member)
            assert hom.apply_mask(m) == s_elements[image], (f, member)
        moved.add(len(set(hom.atom_map)) < len(hom.atom_map))
    assert moved == {True, False}


def test_point_masks_match_the_members():
    """`to_point_mask` and `from_point_mask` against the oracle's members
    on every point mask of the valid triples of at most 5 points: a
    member goes to its element and back, and a non-member raises."""
    seen = set()
    for triple in valid_triples(5):
        alg = pcs_algebra(triple)
        members = member_elements(triple)
        for m in range(1 << len(alg.atom_masks)):
            assert members[alg.to_point_mask(m)] == m
        for mask in range(triple.space.full_mask + 1):
            if mask in members:
                assert alg.from_point_mask(mask) == members[mask]
            else:
                with pytest.raises(DomainMismatchError, match=f"point mask {mask} is not a member"):
                    alg.from_point_mask(mask)
            seen.add(mask in members)
    assert seen == {True, False}


def seeded_space_morphisms():
    """The dual space maps of `morphism_population` and of seeded 5-atom
    morphisms, and the space round trips of their sources."""
    phis = morphism_population() + [
        random_pca_morphism(s, t, 0.4, child_seed(20261032, i))
        for i, (s, t) in enumerate([(5, 4), (4, 5), (5, 5)])
    ]
    maps = [duality.dual_space_map(phi) for phi in phis]
    return maps + [duality.space_roundtrip_iso(f.source) for f in maps]


def test_preimage_checks_match_the_literal_preimages():
    """On seeded space morphisms, every member of the target pair against
    the oracles: `from_point_mask` gives the element whose atoms' union
    is the member, the kept atom preimages join to the literal preimage
    of the member, and `gt_preimage_check` passes.  Non-members, in
    range, above it or negative, raise DomainMismatchError in both."""
    seen = set()
    for f in seeded_space_morphisms():
        alg = pcs_algebra(f.target)
        members = member_elements(f.target)
        full = f.target.space.full_mask
        for member, element in members.items():
            assert alg.from_point_mask(member) == element
            assert oracle_point_mask(alg.atom_masks, element) == member
            plain = oracle_preimage(f.point_map, member)
            assert join_at(f._atom_preimages, element) == plain
            assert gt_preimage_check(f, member).passed
        others = [m for m in range(min(full, 255) + 1) if m not in members]
        others += [full + 1, -1, -2, ~full, -(1 << 40)] + [~m for m in list(members)[:4]]
        for mask in others:
            with pytest.raises(DomainMismatchError, match=f"point mask {mask} is not a member"):
                alg.from_point_mask(mask)
            with pytest.raises(DomainMismatchError, match=f"point mask {mask} is not a member"):
                gt_preimage_check(f, mask)
        seen.add(f.source.space.point_count == f.target.space.point_count)
    assert seen == {True, False}


def test_preimage_check_names_the_members_of_a_moved_atom():
    """"algebra map acts as preimage", decided at the atoms once per
    morphism, against the literal per-member comparison on seeded space
    morphisms: with the dual algebra map every member passes.  With a
    morphism whose kept dual algebra map has one atom moved to another
    target atom, the check fails at exactly the members whose element
    holds one of the two atoms, and names each of them."""
    checked = 0
    for f in seeded_space_morphisms():
        target_alg, source_alg = pcs_algebra(f.target), pcs_algebra(f.source)
        real = duality.dual_algebra_map(f).hom
        members = member_elements(f.target)

        def literal(atom_map, member, element):
            through = oracle_point_mask(source_alg.atom_masks, oracle_hom_image(atom_map, element))
            return through == oracle_preimage(f.point_map, member)

        for member, element in members.items():
            check = gt_preimage_check(f, member)
            assert check.name == "algebra map acts as preimage"
            assert check.passed is literal(real.atom_map, member, element) is True
        if len(target_alg.atom_masks) < 2:
            continue
        amap = list(real.atom_map)
        q = amap[0]
        amap[0] = (q + 1) % len(target_alg.atom_masks)
        broken = types.SimpleNamespace(hom=BooleanHom(real.source, real.target, tuple(amap)))
        fresh = duality.PcsMorphism(f.source, f.target, f.point_map)
        once.keep(fresh, "_dual_algebra_map", broken)
        for member, element in members.items():
            moved = not literal(amap, member, element)
            assert moved == (bool(element >> q & 1) != bool(element >> amap[0] & 1))
            check = gt_preimage_check(fresh, member)
            assert check.name == "algebra map acts as preimage"
            assert check.passed is not moved, (f, member)
            if moved:
                assert check.witness == f"member {f.target.space.name_set(member)}"
        checked += 1
    assert checked > 20


def test_space_round_trip_is_the_literal_trace_map():
    """On every valid triple of `pcs_population`, canonical or not, the
    space round trip sends a point x to the clan of the atoms whose
    closures hold x, looked up among the oracle's clan supports, and is
    an isomorphism of triples."""
    count = 0
    for space, subset, relation in pcs_population():
        triple = validate_pcs(space, subset, relation)
        if not triple.ok:
            continue
        count += 1
        alg = pcs_algebra(triple)
        supports = oracle_clan_supports(len(alg.atom_masks), alg.pca.kernel.pairs)
        expected = tuple(
            supports.index(sum(1 << i for i, a in enumerate(alg.atom_masks) if a >> x & 1))
            for x in range(space.point_count)
        )
        iso = duality.space_roundtrip_iso(triple)
        assert iso.point_map == expected, (space.point_closures, subset, sorted(relation))
        assert duality.pcs_iso_report(iso).ok
    assert count == 301


def test_naturality_evaluates_maps_at_the_atoms_only(monkeypatch):
    """On a valid 6-atom morphism, the algebra naturality square takes
    preimages and hom images at the atoms only: no more than one
    preimage per atom, and each hom image of an atom, where the sweeps
    took 2**6 of each.  The dual algebra map inside it takes none: it
    reads where the point map sends one point of each atom."""
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
    # the square: n preimages and 2n hom images; the dual algebra map
    # inside it: none
    assert len(preimages) <= n, len(preimages)
    assert len(hom_arguments) <= 2 * n, len(hom_arguments)
    assert all(m.bit_count() == 1 for m in hom_arguments), hom_arguments

    f = duality.dual_space_map(phi)
    preimages.clear()
    hom_arguments.clear()
    duality.dual_algebra_map(duality.PcsMorphism(f.source, f.target, f.point_map))
    assert preimages == [] and hom_arguments == [], (preimages, hom_arguments)


def test_morphism_check_into_a_closed_base_is_one_pass_over_the_atoms(monkeypatch):
    """Validating a space morphism into a target whose atom closures are
    a closed base takes 1 + 2k unions of fibres for the k atoms of the
    target's dense part: one for the dense part and two per atom, with
    no per-point continuity pass, whatever the source's point count."""
    calls = []
    real_join = duality.join_at

    def counted_join(values, mask):
        calls.append(mask)
        return real_join(values, mask)

    phi = random_pca_morphism(4, 5, 0.5, child_seed(20261033, 0))
    f = duality.dual_space_map(phi)
    target = f.target
    table = pair_atoms(target.space, target.subset)
    assert table.closed_base
    k = len(table.closures)
    sources = [
        (f.source, f.point_map),
        (target, tuple(range(target.space.point_count))),
    ]
    assert f.source.space.point_count != target.space.point_count
    monkeypatch.setattr(duality, "join_at", counted_join)
    for source, point_map in sources:
        calls.clear()
        duality.PcsMorphism(source, target, point_map)
        assert len(calls) == 1 + 2 * k, (source.space.point_count, len(calls))


def test_clan_points_refuse_a_support_that_is_not_a_clan():
    """A support that is no clique under the contact closure is no point
    of the dual: `_clan_points` raises InternalError."""
    pca = pca_from_pairs(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})
    assert duality._clan_points(pca, [0b011, 0b100]) == (
        clan_supports(pca).index(0b011),
        clan_supports(pca).index(0b100),
    )
    for support in (0b101, 0b111, 0, 1 << 3):
        with pytest.raises(InternalError, match="a support must be a clan of the algebra"):
            duality._clan_points(pca, [0b001, support])


# ---------------------------------------------------------------------------
# normalization above the default enumeration width


def test_row_form_round_trips_on_seven_and_eight_atoms(monkeypatch):
    """Normalizing the kernel's expansion gives back the kernel."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "8")
    for n, pairs in seeded_kernels(41, {7: 2, 8: 1}):
        expanded = frozenset(expand_relation(n, pairs))
        assert normalize_relation(FiniteBooleanAlgebra(n), expanded).pairs == pairs


# ---------------------------------------------------------------------------
# the unary well-inside form: m at the atoms


@pytest.mark.parametrize("m", [(0b01,), (0b01, 0b10, 0b11), (0b01, 0b100), (-1, 0b10)])
def test_unary_inverse_rejects_a_malformed_form(m):
    with pytest.raises(DomainMismatchError, match="expected 2 atom masks of 2 bits"):
        contact_from_well_inside_atoms(FiniteBooleanAlgebra(2), m)


def test_well_inside_rejects_pairs_outside_the_algebra():
    """A form whose mask at atom p holds a bit q past the atoms, the
    kernel pair (p, q) outside the algebra, is refused at every atom of
    algebras of 1 to 4 atoms."""
    for n in range(1, 5):
        algebra = FiniteBooleanAlgebra(n)
        for p in range(n):
            m = [algebra.full_mask] * n
            m[p] |= 1 << n
            with pytest.raises(DomainMismatchError, match=f"expected {n} atom masks of {n} bits"):
                contact_from_well_inside_atoms(algebra, m)


def test_unary_well_inside_form_matches_the_literal_quantifiers():
    """The unary form induces the literal well-inside relation of the
    kernel's expansion, and the atom inverse gives back the kernel, on
    seeded 5- and 6-atom kernels; criterion 7 covers every kernel of at
    most 3 atoms and seeded 4-atom ones."""
    for n, pairs in seeded_kernels(47, {5: 4, 6: 3}):
        pca = pca_from_pairs(n, pairs)
        m = well_inside_atoms(pca)
        literal = oracle_well_inside(n, expand_relation(n, pairs))
        assert oracle_unary_relation(n, m) == literal, (n, sorted(pairs))
        assert contact_from_well_inside_atoms(pca.algebra, m).pairs == pairs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_unary_form_defines_a_precontact_relation(n):
    """Every n atom masks m, as `contact_from_well_inside_atoms` takes
    them: a << b iff m(a) <= b satisfies (<<2), (<<2'), (<<3), (<<4)
    and (<<4') under the literal quantifiers, the atom inverse is the
    literal inverse of that relation, and `well_inside_atoms` reads m
    back from it.  Exhaustive over the 2**(n*n) forms."""
    algebra = FiniteBooleanAlgebra(n)
    defining = ("ax2", "ax2_prime", "ax3", "ax4", "ax4_prime")
    for m in itertools.product(range(1 << n), repeat=n):
        relation = oracle_unary_relation(n, m)
        flags = oracle_well_inside_axioms(n, relation)
        assert all(flags[name] for name in defining), (m, flags)
        kernel = contact_from_well_inside_atoms(algebra, m)
        assert expand_relation(n, kernel.pairs) == oracle_contact_from_well_inside(n, relation)
        assert well_inside_atoms(pca_from_pairs(n, kernel.pairs)) == m


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
    validation, whose check list is empty, is not valid either, and
    takes the same pass."""
    space = FiniteSpace(("a", "b"), (0b01, 0b11))
    if validated:
        triple = validate_pcs(space, 0b01, frozenset())
        assert not triple.check("(PCS1)").passed
    else:
        triple = TwoPrecontactSpace(space, 0b01, frozenset())
        assert not triple.ok
    assert is_connected(space)
    assert triple_is_connected(triple)


def test_trusted_construction_keeps_the_name_checks():
    with pytest.raises(PreconditionError, match="point names must be distinct"):
        space_from_closed_base(("a", "a"), [0b01])
    assert space_from_closed_base((), []) == FiniteSpace((), ())


# ---------------------------------------------------------------------------
# the suite path builds no element pair sets


def test_instance_suite_builds_no_pair_sets(monkeypatch):
    """Nor normalizes an element-level relation, nor makes a whole-space
    pass on the dual for its connectedness."""

    def refuse(*args):
        raise AssertionError("an element relation or a whole-dual pass on the suite path")

    for name, module in list(sys.modules.items()):
        if name == "contactlab" or name.startswith("contactlab."):
            for attr in ("normalize_relation", "is_connected"):
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


SUITE_OWN_LINES = (
    "(Cref) iff reflexive kernel",
    "(Csym) iff symmetric kernel",
    "(Ctr) iff transitive kernel",
    "(Ccon) iff connected dual space",
    "interdefinability round trip",
    "contact closure is a contact relation",
    "contact closure is idempotent",
    "clans agree with the closure's clans",
    "closure sits between the extremal contacts",
    "serialization round trip",
)


def test_every_failing_suite_line_names_a_witness(monkeypatch):
    """Each line the suite decides itself, made to fail by patching what
    it reads, names a concrete witness, never "no witness recorded"."""
    pca = pca_from_pairs(3, {(0, 0), (1, 1), (2, 2), (0, 1)})
    flags = pca.axioms
    flipped = dataclasses.replace(
        flags, cref=not flags.cref, csym=not flags.csym, ctr=not flags.ctr, ccon=not flags.ccon
    )
    monkeypatch.setitem(pca.__dict__, "axioms", flipped)
    other = pca_from_pairs(3, {(1, 2)})
    monkeypatch.setattr(suite, "well_inside_atoms", lambda p: well_inside_atoms(other))
    # the closure drops (0, 0), and applied twice puts it back
    monkeypatch.setattr(
        suite, "contact_closure", lambda p: pca_from_pairs(3, p.kernel.pairs ^ {(0, 0)})
    )
    monkeypatch.setattr(
        suite, "clan_supports", lambda p: clan_supports(p) if p is pca else clan_supports(p)[1:]
    )
    monkeypatch.setattr(suite, "decode", lambda payload: pca_from_pairs(3, {(0, 0)}))
    report = instance_suite(pca)
    assert {c.name: c.witness for c in report.failures if c.name in SUITE_OWN_LINES} == {
        "(Cref) iff reflexive kernel": "Cref=False, reflexive kernel=True",
        "(Csym) iff symmetric kernel": "Csym=True, symmetric kernel=False",
        "(Ctr) iff transitive kernel": "Ctr=False, transitive kernel=True",
        "(Ccon) iff connected dual space": "Ccon=True, connected dual=False",
        "interdefinability round trip": "first differing kernel pair (0, 0)",
        "contact closure is a contact relation": "Cref=False, Csym=False",
        "contact closure is idempotent": "first differing kernel pair (0, 0)",
        "clans agree with the closure's clans": "first differing clan support 1",
        "closure sits between the extremal contacts": "diagonal pair (0, 0) missing",
        "serialization round trip": "first differing kernel pair (0, 1)",
    }
    # the flipped flags break exactly the four lines of the Stone report
    assert report.check("stone representation").witness == "; ".join(
        (
            "(Cref) iff the canonical adjacency is reflexive: Cref=False, reflexive=True",
            "(Csym) iff the canonical adjacency is symmetric: Csym=True, symmetric=False",
            "(Ctr) iff the canonical adjacency is transitive: Ctr=False, transitive=True",
            "(Ccon) iff the canonical adjacency is connected: Ccon=True, connected=False",
        )
    )
    assert all(c.witness != "no witness recorded" for c in report.failures), report.failures


def test_is_transitive_matches_the_pair_of_pairs_form():
    """`RelationKernel.is_transitive`, read off the pairs grouped by
    source, against the loop over every pair of pairs, on every kernel
    of at most 3 atoms and seeded kernels of 4 to 8 atoms."""
    population = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    population += seeded_kernels(83, {4: 12, 5: 8, 6: 6, 7: 4, 8: 4})
    verdicts = set()
    for n, pairs in population:
        kernel = pca_from_pairs(n, pairs).kernel
        verdicts.add(kernel.is_transitive)
        assert kernel.is_transitive == oracle_is_transitive(pairs), (n, sorted(pairs))
    assert verdicts == {True, False}


@pytest.mark.parametrize("pairs", [{(0, 1)}, {(0, 1), (1, 0), (2, 2)}])
def test_csym_lines_compare_two_computations(monkeypatch, pairs):
    """(Csym) is read off the kernel's atom rows and the relation property
    off its pairs: when `RelationKernel.is_symmetric` lies, the suite's
    line and the Stone report's line both fail, naming the two values."""
    monkeypatch.setattr(
        RelationKernel, "is_symmetric", property(lambda k: not oracle_is_symmetric(k.pairs))
    )
    pca = pca_from_pairs(3, pairs)
    truth = oracle_is_symmetric(pairs)
    report = instance_suite(pca)
    assert report.check("(Csym) iff symmetric kernel").witness == (
        f"Csym={truth}, symmetric kernel={not truth}"
    )
    assert report.check("stone representation").witness == (
        "(Csym) iff the canonical adjacency is symmetric: "
        f"Csym={truth}, symmetric={not truth}"
    )
