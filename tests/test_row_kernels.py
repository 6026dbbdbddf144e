"""Kernels built from atom rows (`RelationKernel(algebra, succ)`).

A kernel is its atom rows, and its pair set is derived on the first
read unless it was built from pairs (`RelationKernel.of_pairs`).  The
canonical algebra of a triple that holds no source algebra, the contact
closure, the extremal contacts and the inverse of interdefinability
build their kernels from rows; the canonical algebra of a canonical dual
is the algebra it was built from.  Each must be the kernel of the
literal pair set, under equality, hashing, repr, pickling, deepcopy and
`encode`, on every kernel with at most 3 atoms and on seeded kernels of
4 to 6 atoms.  The round trip derives no pair set and the instance suite
exactly one, and the suite lines and specialization gates that compare
rows name the witnesses they named when they compared pair sets."""

import copy
import pickle

import pytest

from contactlab import duality, precontact, suite
from contactlab.adjacency import stone_representation_report
from contactlab.duality import algebra_roundtrip_iso, specialization_report
from contactlab.precontact import (
    PrecontactAlgebra,
    contact_closure,
    contact_from_well_inside_atoms,
    largest_contact,
    pca_from_pairs,
    smallest_contact,
    well_inside_atoms,
)
from contactlab.randgen import RandomSpec, child_seed, random_pca
from contactlab.serialize import encode
from contactlab.structures import TwoPrecontactSpace, canonical_pcs_of_pca, pcs_algebra
from contactlab.suite import instance_suite

from conftest import all_kernels
from oracles import oracle_pcs_algebra


def _population():
    """(atom count, pairs): every kernel on at most 3 atoms, then seeded
    kernels of 4 to 6 atoms over the densities of `contactlab suite`."""
    out = [(n, k) for n in (1, 2, 3) for k in all_kernels(n)]
    for n, count in ((4, 8), (5, 6), (6, 4)):
        for i in range(count):
            density = (0.15, 0.3, 0.5, 0.7, 0.85)[i % 5]
            pca = random_pca(RandomSpec(n, density, child_seed(71, 100 * n + i)))
            out.append((n, pca.kernel.pairs))
    return out


def _canonical_algebra(n, pairs):
    """The canonical algebra of a triple constructed directly on the dual
    of a fresh algebra: it holds no source algebra, so its kernel is
    built from rows, and no read of its pairs is shared."""
    dual = canonical_pcs_of_pca(pca_from_pairs(n, pairs))
    return pcs_algebra(TwoPrecontactSpace(dual.space, dual.subset, dual.relation, dual.checks))


def _literal_canonical_pairs(n, pairs):
    """The oracle's kernel of the canonical algebra, its atoms ascending,
    read over the algebra's atoms."""
    alg = _canonical_algebra(n, pairs)
    triple = alg.source
    atoms, _, kernel = oracle_pcs_algebra(
        triple.space.point_closures, triple.subset, triple.relation
    )
    assert sorted(alg.atom_masks) == atoms
    position = [alg.atom_masks.index(a) for a in atoms]
    return {(position[i], position[j]) for i, j in kernel}


def _constructions(n, pairs):
    """(name, build, literal pairs) for each row-built construction on the
    kernel; each build returns a fresh algebra whose pairs are unread."""
    algebra = pca_from_pairs(n, pairs).algebra
    closed = set(pairs) | {(q, p) for p, q in pairs} | {(p, p) for p in range(n)}
    m = well_inside_atoms(pca_from_pairs(n, pairs))
    return (
        (
            "pcs_algebra",
            lambda: _canonical_algebra(n, pairs).pca,
            _literal_canonical_pairs(n, pairs),
        ),
        ("contact_closure", lambda: contact_closure(pca_from_pairs(n, pairs)), closed),
        ("smallest_contact", lambda: smallest_contact(algebra), {(p, p) for p in range(n)}),
        (
            "largest_contact",
            lambda: largest_contact(algebra),
            {(p, q) for p in range(n) for q in range(n)},
        ),
        (
            "contact_from_well_inside_atoms",
            lambda: PrecontactAlgebra(algebra, contact_from_well_inside_atoms(algebra, m)),
            {(p, q) for p in range(n) for q in range(n) if m[p] >> q & 1},
        ),
    )


def test_row_built_kernels_are_the_literal_kernels():
    for n, pairs in _population():
        pca = pca_from_pairs(n, pairs)
        assert pcs_algebra(canonical_pcs_of_pca(pca)).pca is pca
        for name, build, literal_pairs in _constructions(n, pairs):
            literal = pca_from_pairs(n, sorted(literal_pairs))
            where = (name, n, sorted(pairs))
            assert "pairs" not in vars(build().kernel), where
            assert build() == literal and literal == build(), where
            assert build().kernel == literal.kernel, where
            assert hash(build()) == hash(literal), where
            assert hash(build().kernel) == hash(literal.kernel), where
            assert repr(build()) == repr(literal), where
            assert encode(build()) == encode(literal), where
            for restored in (pickle.loads(pickle.dumps(build())), copy.deepcopy(build())):
                assert restored == literal, where
                assert restored.kernel.pairs == literal.kernel.pairs, where
                assert restored.kernel.succ == literal.kernel.succ, where


def _count_pair_derivations(monkeypatch):
    """The rows each pair set derived from now on was derived from."""
    derived = []
    derive = precontact._pairs_of_rows

    def counted(rows):
        derived.append(tuple(rows))
        return derive(rows)

    monkeypatch.setattr(precontact, "_pairs_of_rows", counted)
    return derived


def _guard_instances():
    """The seeded 6-atom instance of the suite guard, and 6-atom contact
    instances whose duals are small enough for the specializations."""
    diagonal = {(p, p) for p in range(6)}
    return [
        random_pca(RandomSpec(atoms=6, density=0.5, seed=20261007)),
        pca_from_pairs(6, diagonal),
        pca_from_pairs(6, diagonal | {(0, 1), (1, 0)}),
        pca_from_pairs(6, diagonal | {(0, 1), (1, 0), (2, 3), (3, 2)}),
    ]


def test_the_round_trip_derives_no_pair_set(monkeypatch):
    derived = _count_pair_derivations(monkeypatch)
    for pca in _guard_instances():
        assert algebra_roundtrip_iso(pca).report.ok
    assert derived == []


def test_the_suite_derives_one_pair_set(monkeypatch):
    """The one derivation is the interdefinability line's: the kernel read
    back from the unary well-inside form has the instance's own rows."""
    derived = _count_pair_derivations(monkeypatch)
    specialized = 0
    for pca in _guard_instances():
        derived.clear()
        report = instance_suite(pca)
        assert report.ok, report.failures
        assert derived == [pca.kernel.succ]
        specialized += any(name == "specialization suite" for name, _, _ in report.checks)
    assert specialized == 3


def _failures(report):
    return [(name, witness) for name, passed, witness in report.checks if not passed]


PATH = pca_from_pairs(3, {(0, 1)})


def test_idempotence_line_names_the_first_differing_pair(monkeypatch):
    """A second closure that returns another kernel."""
    real = suite.contact_closure
    monkeypatch.setattr(
        suite,
        "contact_closure",
        lambda pca: real(pca) if pca is PATH else largest_contact(pca.algebra),
    )
    assert _failures(instance_suite(PATH)) == [
        ("contact closure is idempotent", "first differing kernel pair (0, 2)")
    ]


def test_between_line_names_a_missing_diagonal_pair(monkeypatch):
    """A closure that returns the algebra itself, off the diagonal."""
    monkeypatch.setattr(suite, "contact_closure", lambda pca: pca)
    assert _failures(instance_suite(PATH)) == [
        ("contact closure is a contact relation", "Cref=False, Csym=False"),
        ("closure sits between the extremal contacts", "diagonal pair (0, 0) missing"),
    ]


def test_between_line_names_a_pair_outside_the_largest_contact(monkeypatch):
    monkeypatch.setattr(suite, "largest_contact", smallest_contact)
    assert _failures(instance_suite(PATH)) == [
        ("closure sits between the extremal contacts", "pair (0, 1) outside the largest contact")
    ]


def _names(report):
    return [name for name, _, _ in report.checks]


def test_stone_gate_reads_the_kernel(monkeypatch):
    """The gate opens on a kernel equal to the foreign diagonal, and then
    names the wider clan."""
    monkeypatch.setattr(duality, "smallest_contact", lambda algebra: PATH)
    assert _failures(specialization_report(PATH)) == [
        ("clans are exactly the ultrafilters", "clan support {0,1}"),
    ]
    algebra = PATH.algebra
    monkeypatch.setattr(duality, "smallest_contact", largest_contact)
    assert "clans are exactly the ultrafilters" not in _names(
        specialization_report(smallest_contact(algebra))
    )


def test_connected_stone_gate_reads_the_kernel(monkeypatch):
    contact = pca_from_pairs(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})
    monkeypatch.setattr(duality, "largest_contact", lambda algebra: contact)
    assert _failures(specialization_report(contact)) == [
        ("clans are exactly the grills", "grill {0,2} is not a clan"),
    ]
    algebra = contact.algebra
    monkeypatch.setattr(duality, "largest_contact", smallest_contact)
    assert "clans are exactly the grills" not in _names(
        specialization_report(largest_contact(algebra))
    )


@pytest.mark.parametrize("pairs", [{(0, 1), (1, 2)}, {(0, 0), (1, 1), (0, 1), (1, 0)}])
def test_kernel_properties_are_kept_on_the_kernel(pairs):
    """The Stone report's reads are the ones the suite reads again."""
    kernel = pca_from_pairs(3, pairs).kernel
    stone_representation_report(PrecontactAlgebra(kernel.algebra, kernel))
    kept = {name: vars(kernel)[name] for name in ("is_reflexive", "is_symmetric", "is_transitive")}
    assert kept == {
        "is_reflexive": all((p, p) in pairs for p in range(3)),
        "is_symmetric": all((q, p) in pairs for p, q in pairs),
        "is_transitive": all((p, r) in pairs for p, q in pairs for q2, r in pairs if q == q2),
    }
