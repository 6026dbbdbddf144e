import functools
import itertools
import json
import operator
import random

import pytest

from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.cli import main
from contactlab.duality import algebra_roundtrip_iso
from contactlab.errors import (
    DomainMismatchError,
    PreconditionError,
    ValidationError,
)
from contactlab.precontact import (
    contact_closure,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
)
from contactlab.serialize import dumps, encode
from contactlab.structures import (
    TwoContactSpace,
    TwoPrecontactSpace,
    canonical_cs_of_ca,
    canonical_pca_of_pcs,
    canonical_pcs_of_pca,
    contact_relation_of_pair,
    mereocompactness_report,
    pcs_algebra,
    triple_is_connected,
    validate_cs,
    validate_pcs,
)
from contactlab.topology import (
    FiniteSpace,
    MereotopologicalPair,
    closure,
    discrete_space,
    held_once,
    interior,
    pair_atoms,
    rc_atoms,
    rc_atoms_of_subset,
    rc_members,
    rc_pair_algebra,
    space_from_closed_base,
)

from conftest import c_semiregular, indiscrete_space
from oracles import (
    bits,
    oracle_closed_family,
    oracle_closed_in_product,
    oracle_product_family,
)
from test_topology import all_small_spaces

# ---------------------------------------------------------------------------
# 2-precontact validation


def test_overlap_clans_decide_past_the_enumeration_width(monkeypatch, tmp_path, capsys):
    """The overlap clans are grown clique by clique, with no 2**n pass,
    so C-semiregularity and (CS4) decide on 7 points under the default
    budgets, and `contactlab validate` of such a 2-contact space exits 0."""
    for name in ("CONTACTLAB_ATOM_LIMIT", "CONTACTLAB_ENUM_LIMIT", "CONTACTLAB_POINT_LIMIT"):
        monkeypatch.delenv(name, raising=False)
    space = discrete_space("abcdefg")
    assert c_semiregular(space)
    cs = validate_cs(space, space.full_mask)
    assert cs.ok and cs.check("(CS4)").passed
    path = tmp_path / "cs7.json"
    path.write_text(dumps(encode(cs)))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_validate_pcs_fixture_passes(xl_space):
    triple = validate_pcs(
        xl_space, 0b011, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    )
    assert triple.ok
    assert [c.name for c in triple.checks] == [
        "(PCS1)", "(PCS2)", "(PCS3)", "(PCS4)", "(PCS5)",
    ]


def test_validate_pcs_diagonal_fails_fourth_axiom(xl_space):
    triple = validate_pcs(xl_space, 0b011, frozenset({(0, 0), (1, 1)}))
    assert not triple.ok
    failed = triple.failures
    assert [c.name for c in failed] == ["(PCS4)"]
    assert failed[0].witness == "({g1},{g2})"


def test_validate_pcs_discrete_diagonal_passes(disc2):
    triple = validate_pcs(disc2, 0b11, frozenset({(0, 0), (1, 1)}))
    assert triple.ok


def test_validate_pcs_rejects_relation_outside_subset(xl_space):
    with pytest.raises(DomainMismatchError):
        validate_pcs(xl_space, 0b011, frozenset({(0, 2)}))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((3, 0), "relation pair (3, 0) out of range"),
        ((0, 3), "relation pair (0, 3) out of range"),
        ((-1, 0), "relation pair (-1, 0) out of range"),
        ((0, -1), "relation pair (0, -1) out of range"),
        ((2, 0), "relation pair (2, 0) leaves the chosen subset"),
        ((1, 2), "relation pair (1, 2) leaves the chosen subset"),
    ],
)
def test_validate_pcs_names_the_pair_that_leaves_its_span(xl_space, bad, message):
    """One bad pair among good ones: out of range, a negative index
    included, is refused before it indexes a point; a pair in range
    that leaves the subset is refused too."""
    relation = {(0, 0), (0, 1), (1, 0), (1, 1), bad}
    with pytest.raises(DomainMismatchError) as caught:
        validate_pcs(xl_space, 0b011, relation)
    assert str(caught.value) == message


@pytest.mark.parametrize("mask", [1 << 5, -1, -2])
@pytest.mark.parametrize(
    "call",
    [
        interior,
        lambda space, mask: validate_pcs(space, mask, frozenset()),
        # A Stone 2-space is the triple of the total relation on its dense
        # part: the mask is refused with a nonempty relation too.
        lambda space, mask: validate_pcs(
            space,
            mask,
            frozenset(
                (x, y)
                for x in range(space.point_count)
                for y in range(space.point_count)
                if mask >> x & mask >> y & 1
            ),
        ),
        lambda space, mask: validate_cs(space, mask),
        pair_atoms,
        rc_atoms_of_subset,
        lambda space, mask: triple_is_connected(TwoPrecontactSpace(space, mask, frozenset())),
        lambda space, mask: rc_pair_algebra(TwoContactSpace(space, mask)),
    ],
    ids=[
        "interior",
        "validate_pcs",
        "validate_pcs_total",
        "validate_cs",
        "pair_atoms",
        "rc_atoms_of_subset",
        "triple_is_connected",
        "rc_pair_algebra",
    ],
)
def test_a_subset_outside_the_space_is_refused(call, mask):
    with pytest.raises(DomainMismatchError, match="^subset mask out of range$"):
        call(discrete_space("abc"), mask)


def test_validate_pcs_reports_density_failure(disc2):
    triple = validate_pcs(disc2, 0b01, frozenset({(0, 0)}))
    verdicts = {c.name: c.passed for c in triple.checks}
    assert not verdicts["(PCS1)"]


def test_empty_relation_on_one_point_is_valid():
    one = discrete_space(("u",))
    triple = validate_pcs(one, 0b1, frozenset())
    assert triple.ok


# ---------------------------------------------------------------------------
# (PCS2): is the relation closed in the square of the dense part?


def pcs2_reading(space, subset, pairs):
    """(stone, closed relation) as `validate_pcs` reports them: a passing
    (PCS2) has a Stone dense part, whose square is discrete, so every
    relation on it is closed; a failing one names both in its witness."""
    check = validate_pcs(space, subset, frozenset(pairs)).check("(PCS2)")
    if check.passed:
        return True, True
    readings = {
        f"stone={stone}, closed relation={closed}": (stone, closed)
        for stone in (True, False)
        for closed in (True, False)
    }
    return readings[check.witness]


def local_closures(space, subset):
    """The point closures of the subspace on ``subset``, cut to it and
    indexed by its points in ascending order."""
    points = bits(subset)
    return [
        sum(1 << i for i, y in enumerate(points) if space.point_closures[x] >> y & 1)
        for x in points
    ]


def all_relations(points):
    """(mask, relation) for every relation on the given points; the pair
    of the i-th and j-th points is the bit i * k + j of the mask, its
    point in the square of the k points."""
    pairs = [(x, y) for x in points for y in points]
    for mask in range(1 << len(pairs)):
        yield mask, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def product_mask(points, pairs):
    position = {x: i for i, x in enumerate(points)}
    return sum(1 << (position[x] * len(points) + position[y]) for x, y in pairs)


def test_pcs2_names_whether_the_relation_is_closed(xl_space, disc2):
    assert pcs2_reading(disc2, 0b11, {(0, 1)}) == (True, True)
    assert pcs2_reading(xl_space, 0b111, set()) == (False, True)
    # a single pair through open points is not closed: its closure picks
    # up the pairs through the bottom point
    assert pcs2_reading(xl_space, 0b111, {(0, 1)}) == (False, False)
    assert pcs2_reading(xl_space, 0b111, {(0, 1), (2, 1), (0, 2), (2, 2)}) == (False, True)


def test_pcs2_closed_relation_matches_the_product_family():
    """Every relation on every dense part of every space of at most 3
    points is closed iff its mask is a member of the closed family of
    the square of the dense part, generated by the closed rectangles.
    Both outcomes are seen on dense parts that are not Stone."""
    cases, seen = 0, set()
    for n in (1, 2, 3):
        for space in all_small_spaces(n):
            for subset in range(1, space.full_mask + 1):
                if closure(space, subset) != space.full_mask:
                    continue
                points = bits(subset)
                closed = oracle_closed_family(local_closures(space, subset))
                family = oracle_product_family(len(points), closed)
                for mask, pairs in all_relations(points):
                    stone, got = pcs2_reading(space, subset, pairs)
                    assert got == (mask in family), (space.point_closures, subset, sorted(pairs))
                    seen.add((stone, got))
                    cases += 1
    assert cases == 15780
    assert seen == {(True, True), (False, True), (False, False)}


def test_product_oracles_agree(xl_space):
    """The open-rectangle oracle and the generated closed family agree on
    every set of pair points of the spaces of at most 2 points and of
    the three-point space xl."""
    for space in [s for n in (1, 2) for s in all_small_spaces(n)] + [xl_space]:
        n = space.point_count
        family = oracle_product_family(n, oracle_closed_family(space.point_closures))
        for mask in range(1 << (n * n)):
            assert oracle_closed_in_product(space.point_closures, mask) == (mask in family)


def test_pcs2_closed_relation_on_seeded_spaces():
    """Seeded spaces of 4 and 5 points and dense parts of them, the whole
    space or not, against the open-rectangle definition of the product
    topology on the dense part: unions of its closed rectangles, each
    also with one pair toggled, and random relations.  Both outcomes are
    seen on dense parts that are not Stone."""
    rng = random.Random(20261019)
    seen = set()
    for n in (4, 5):
        names = tuple(f"p{x}" for x in range(n))
        for _ in range(15):
            base = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
            space = space_from_closed_base(names, base)
            dense = [
                sub for sub in range(1, space.full_mask + 1)
                if closure(space, sub) == space.full_mask
            ]
            subset = space.full_mask if rng.random() < 0.3 else rng.choice(dense)
            points = bits(subset)
            local = local_closures(space, subset)
            closed = sorted(oracle_closed_family(local))
            for _ in range(5):
                rectangles = set()
                for _ in range(rng.randint(1, 3)):
                    c, d = rng.choice(closed), rng.choice(closed)
                    rectangles |= {(points[i], points[j]) for i in bits(c) for j in bits(d)}
                toggled = rectangles ^ {(rng.choice(points), rng.choice(points))}
                noise = {(x, y) for x in points for y in points if rng.random() < 0.5}
                for pairs in (rectangles, toggled, noise):
                    stone, got = pcs2_reading(space, subset, pairs)
                    expected = oracle_closed_in_product(local, product_mask(points, pairs))
                    assert got == expected, (space.point_closures, subset, sorted(pairs))
                    seen.add((stone, got, subset == space.full_mask))
    assert {(False, True), (False, False)} <= {(s, g) for s, g, _ in seen}
    assert {(False, full) for full in (True, False)} <= {(s, f) for s, _, f in seen}


def test_failing_pcs4_names_its_witness_past_the_point_budget(monkeypatch, tmp_path, capsys):
    """A failed axiom never raises: (PCS4) is decided and named at the
    clopen atoms, so a dense part wider than the point budget still
    gets its witness.  Seven discrete dense points p0..p6, where cl{p0}
    and cl{p1} share the point q outside, with the empty relation."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "7")
    monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", "6")
    names = tuple(f"p{i}" for i in range(7)) + ("q",)
    q = 1 << 7
    closures = (0b1 | q, 0b10 | q) + tuple(1 << i for i in range(2, 7)) + (q,)
    space = FiniteSpace(names, closures)
    triple = validate_pcs(space, 0b1111111, frozenset())
    assert [(c.name, c.witness) for c in triple.failures] == [("(PCS4)", "({p0},{p1})")]

    path = tmp_path / "wide.json"
    path.write_text(dumps(encode(triple)))
    assert main(["validate", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["witness"]) for c in checks if not c["pass"]] == [
        ("(PCS4)", "({p0},{p1})")
    ]


def test_failing_closure_trace_checks_name_their_support_past_the_point_budget(
    monkeypatch, tmp_path, capsys
):
    """A failed axiom never raises: an unrealized element set of (PCS5)
    or (CS4) is named by the atoms of its support, within the point
    budget and past it alike.  (PCS5): the total relation on the
    discrete space on seven points, the triple of a Stone 2-space,
    whose clan {a,b} no point realizes.  (CS4): seven discrete
    dense points p0..p6, where the closures of p0, p1 and p2 meet pairwise
    in the points q01, q12 and q02 outside, so the clan {p0,p1,p2} of
    the overlap has no point."""
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", "7")
    discrete = discrete_space("abcdefg")
    total = frozenset(itertools.product(range(7), repeat=2))
    names = tuple(f"p{i}" for i in range(7)) + ("q01", "q12", "q02")
    q01, q12, q02 = 1 << 7, 1 << 8, 1 << 9
    closures = (1 | q01 | q02, 2 | q01 | q12, 4 | q12 | q02) + tuple(
        1 << i for i in range(3, 10)
    )
    triangle = FiniteSpace(names, closures)
    path = tmp_path / "wide.json"
    for budget in ("7", "6"):
        monkeypatch.setenv("CONTACTLAB_POINT_LIMIT", budget)
        triple = validate_pcs(discrete, 0b1111111, total)
        expected = [("(PCS5)", "unrealized clan support {{a},{b}}")]
        assert [(c.name, c.witness) for c in triple.failures] == expected

        cs = validate_cs(triangle, 0b1111111)
        expected = [("(CS4)", "unrealized support {{p0},{p1},{p2}}")]
        assert [(c.name, c.witness) for c in cs.failures] == expected

        path.write_text(dumps(encode(cs)))
        assert main(["validate", str(path)]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["witness"]) for c in checks if not c["pass"]] == expected


# ---------------------------------------------------------------------------
# canonical constructions


def test_canonical_triple_of_smallest_contact(b4):
    triple = canonical_pcs_of_pca(smallest_contact(b4))
    assert triple.space == discrete_space(("c0", "c1"))
    assert triple.subset == triple.space.full_mask
    assert triple.relation == {(0, 0), (1, 1)}
    assert triple.ok


def test_canonical_triple_of_largest_contact(b4, xl_space):
    triple = canonical_pcs_of_pca(largest_contact(b4))
    assert triple.space.point_closures == xl_space.point_closures
    assert triple.subset == 0b011
    assert triple.relation == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert triple.ok


def test_canonical_triple_of_path_kernel(path_pca):
    triple = canonical_pcs_of_pca(path_pca)
    assert triple.space.point_count == 5
    assert triple.subset.bit_count() == 3
    assert triple.ok


def test_canonical_triple_rejects_degenerate():
    with pytest.raises(PreconditionError):
        canonical_pcs_of_pca(pca_from_pairs(0, frozenset()))


def test_canonical_triple_validates_exhaustively(kernels_upto_2, kernels_3):
    for n, pairs in list(kernels_upto_2) + [(3, k) for k in kernels_3]:
        triple = canonical_pcs_of_pca(pca_from_pairs(n, pairs))
        assert triple.ok, (n, sorted(pairs), triple.failures)


def test_round_trip_images_are_additive(kernels_3):
    # the clan-set map turns joins into unions and sends 0 to the empty
    # set
    for pairs in list(kernels_3)[::11]:
        pca = pca_from_pairs(3, pairs)
        images = algebra_roundtrip_iso(pca).images
        size = pca.algebra.size
        for a in range(size):
            for b in range(size):
                assert images[a | b] == images[a] | images[b]
        assert images[0] == 0


def test_canonical_algebra_of_xl_triple(xl_space):
    triple = validate_pcs(
        xl_space, 0b011, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    )
    alg = pcs_algebra(triple)
    assert alg.pca.algebra.atom_count == 2
    assert alg.pca.kernel.pairs == largest_contact(alg.pca.algebra).kernel.pairs
    assert alg.members == (0, 0b101, 0b110, 0b111)


def test_canonical_algebra_of_discrete_diagonal(disc2):
    triple = validate_pcs(disc2, 0b11, frozenset({(0, 0), (1, 1)}))
    alg = pcs_algebra(triple)
    assert alg.pca.kernel.pairs == smallest_contact(alg.pca.algebra).kernel.pairs


def test_canonical_algebra_requires_valid_triple(xl_space):
    bad = validate_pcs(xl_space, 0b011, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(ValidationError):
        canonical_pca_of_pcs(bad)


def test_structures_built_without_their_checks_are_not_valid():
    """A triple or a pair built directly carries no checks, so it is not
    ok, and what needs a valid one refuses it: on the indiscrete space
    both fail (PCS1) and (CS1)."""
    space = indiscrete_space(("a", "b"))
    assert not validate_pcs(space, 0b01, frozenset()).check("(PCS1)").passed
    triple = TwoPrecontactSpace(space, 0b01, frozenset())
    pair = TwoContactSpace(space, 0b01)
    assert not triple.ok and not pair.ok
    with pytest.raises(ValidationError, match="no checks"):
        pcs_algebra(triple)
    with pytest.raises(ValidationError):
        contact_relation_of_pair(pair)


def test_proximities_coincide_on_canonical_algebra(kernels_3):
    # the closed canonical relation equals the pair's proximity kernel
    for pairs in list(kernels_3)[::7]:
        triple = canonical_pcs_of_pca(pca_from_pairs(3, pairs))
        alg = pcs_algebra(triple)
        sharp = contact_closure(alg.pca).kernel.pairs
        overlap = frozenset(
            (i, j)
            for i in range(len(alg.atom_masks))
            for j in range(len(alg.atom_masks))
            if alg.atom_masks[i] & alg.atom_masks[j]
        )
        assert sharp == overlap


# ---------------------------------------------------------------------------
# 2-contact spaces and Stone 2-spaces


def test_validate_cs_fixture(xl_space):
    cs = validate_cs(xl_space, 0b011)
    assert cs.ok


def test_discrete_pair_is_cs_but_not_s2s(disc2):
    """The discrete pair is a 2-contact space, and not a Stone 2-space:
    the triple of the total relation on it fails (PCS5) only."""
    assert validate_cs(disc2, 0b11).ok
    triple = validate_pcs(disc2, 0b11, itertools.product(range(2), repeat=2))
    assert [c.name for c in triple.failures] == ["(PCS5)"]


def test_cs_density_precondition_reported(disc2):
    cs = validate_cs(disc2, 0b01)
    names = [c.name for c in cs.failures]
    assert "(CS-precondition)" in names


def test_canonical_cs_of_contact_algebra(b4, xl_space):
    cs = canonical_cs_of_ca(largest_contact(b4))
    assert cs.ok
    assert cs.space.point_closures == xl_space.point_closures
    disc = canonical_cs_of_ca(smallest_contact(b4))
    assert disc.space == discrete_space(("c0", "c1"))


def test_canonical_cs_requires_contact(path_pca):
    with pytest.raises(PreconditionError):
        canonical_cs_of_ca(path_pca)


def test_contact_relation_of_pair_examples(xl_space, disc2):
    cs = validate_cs(xl_space, 0b011)
    assert contact_relation_of_pair(cs) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    disc = validate_cs(disc2, 0b11)
    assert contact_relation_of_pair(disc) == {(0, 0), (1, 1)}
    one = validate_cs(discrete_space(("u",)), 0b1)
    assert contact_relation_of_pair(one) == {(0, 0)}


def test_contact_relation_is_unique_pcs_completion(xl_space, disc2):
    # exhaustive search over reflexive-symmetric candidates: exactly one
    # relation makes the pair a 2-precontact triple
    for space, subset in ((xl_space, 0b011), (disc2, 0b11)):
        cs = validate_cs(space, subset)
        expected = contact_relation_of_pair(cs)
        points = [x for x in range(space.point_count) if subset >> x & 1]
        offdiag = [
            (x, y) for i, x in enumerate(points) for y in points[i + 1 :]
        ]
        winners = []
        for r in range(len(offdiag) + 1):
            for chosen in itertools.combinations(offdiag, r):
                rel = {(x, x) for x in points}
                for x, y in chosen:
                    rel.add((x, y))
                    rel.add((y, x))
                if validate_pcs(space, subset, frozenset(rel)).ok:
                    winners.append(frozenset(rel))
        assert winners == [expected]


# ---------------------------------------------------------------------------
# mereotopology


def test_mereo_report_on_xl(xl_space):
    mereo = MereotopologicalPair.from_members(xl_space, rc_members(xl_space))
    report = mereocompactness_report(mereo)
    assert report.is_space and report.is_t0 and report.is_mereocompact
    assert report.u_set == 0b011
    assert report.uniqueness_witness is None
    assert report.ok


def _partitions(items):
    """Every partition of the list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        yield [[first], *partition]
        for i in range(len(partition)):
            yield partition[:i] + [[first, *partition[i]]] + partition[i + 1 :]


def test_u_points_are_dense_on_every_pair():
    """The u-points of a mereotopological pair, the points held by
    exactly one atom, are dense: on every space of at most 4 points,
    with every Boolean subalgebra of RC(X), each the unions of the
    blocks of a partition of the atoms of RC(X)."""
    pairs = 0
    for space in (s for n in range(1, 5) for s in all_small_spaces(n)):
        for partition in _partitions(list(rc_atoms(space))):
            atoms = sorted(functools.reduce(operator.or_, block) for block in partition)
            pair = MereotopologicalPair(space, tuple(atoms))
            u_points = held_once(pair.atoms)
            dense = 0
            for x in range(space.point_count):
                if u_points >> x & 1:
                    dense |= space.point_closures[x]
            assert dense == space.full_mask, (space.point_closures, atoms)
            pairs += 1
    assert pairs == 731


def test_mereo_trivial_subalgebra_is_not_a_space(xl_space):
    mereo = MereotopologicalPair.from_members(xl_space, (0, xl_space.full_mask))
    report = mereocompactness_report(mereo)
    assert not report.is_space


def test_mereo_discrete_powerset(disc2):
    mereo = MereotopologicalPair.from_members(disc2, rc_members(disc2))
    report = mereocompactness_report(mereo)
    assert report.is_mereocompact
    assert report.u_set == disc2.full_mask
    assert report.ok


def test_mereo_repeated_member_counts_once():
    """A repeated minimal member is one atom: each point of the discrete
    space {a,b} lies in exactly one distinct atom of (0, 1, 1, 2, 3)."""
    space = discrete_space(("a", "b"))
    mereo = MereotopologicalPair.from_members(space, (0, 1, 1, 2, 3))
    report = mereocompactness_report(mereo)
    assert report.u_set == space.full_mask
    assert report.ok


def test_mereo_pair_validates_subalgebra(xl_space):
    with pytest.raises(PreconditionError):
        MereotopologicalPair.from_members(xl_space, (0, 0b101, 0b111))  # no complement
