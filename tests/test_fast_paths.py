"""Differential tests: each reduced decision procedure against the literal
quantifier it replaces.

The reductions in ``precontact`` (row/column forms for (C+), one-atom
moves and extremal members for the well-inside axioms, the smallest
interpolant for (Ctr)) and in ``adjacency`` (the ultrafilter adjacency
read off the forward table at the atoms) are proved in their
docstrings; here they must agree with the sweeps of ``oracles.py`` on
every kernel with at most 3 atoms, on seeded kernels with 4 to 6 atoms,
and on one-pair perturbations that break the axioms.
"""

import random

import pytest

from contactlab.adjacency import canonical_adjacency_literal_pairs
from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.errors import AxiomViolationError, DomainMismatchError
from contactlab.precontact import (
    RawRelation,
    RelationKernel,
    axiom_report,
    expand_kernel,
    normalize_relation,
    pca_from_pairs,
    well_inside_axiom_report,
    well_inside_pairs,
)

from conftest import all_kernels
from oracles import (
    expand_relation,
    oracle_axioms,
    oracle_normalize,
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
