import random

import pytest

from contactlab import adjacency
from contactlab.adjacency import (
    AdjacencySpace,
    canonical_adjacency,
    contact_from_adjacency,
    is_connected_relation,
    r_flat,
    stone_representation_report,
)
from contactlab.errors import PreconditionError
from contactlab.precontact import largest_contact, pca_from_pairs, smallest_contact

from conftest import all_kernels
from oracles import (
    expand_relation,
    oracle_is_connected_relation,
    oracle_is_symmetric,
    oracle_is_transitive,
    oracle_ultrafilter_adjacency,
)


def adj(n, pairs, topology=None):
    return AdjacencySpace(tuple(f"w{i}" for i in range(n)), frozenset(pairs), topology)


def test_cells_must_be_nonempty():
    with pytest.raises(PreconditionError):
        AdjacencySpace((), frozenset())


def test_r_flat_examples():
    two = adj(2, {(0, 1)})
    assert r_flat(two).pairs == {(0, 1), (1, 0), (0, 0), (1, 1)}
    fixed = r_flat(two)
    assert r_flat(fixed).pairs == fixed.pairs
    three = adj(3, {(0, 1), (1, 2)})
    assert len(r_flat(three).pairs) == 7


def test_r_flat_idempotent_exhaustive():
    for pairs in all_kernels(3):
        space = adj(3, pairs)
        once = r_flat(space)
        assert r_flat(once).pairs == once.pairs
        assert once.pairs >= {(x, x) for x in range(3)}
        assert all((y, x) in once.pairs for x, y in once.pairs)


def test_contact_from_adjacency(b8):
    two = adj(2, {(0, 1)})
    assert contact_from_adjacency(two).kernel.pairs == {(0, 1)}
    refl = adj(2, {(0, 0), (1, 1), (0, 1), (1, 0)})
    assert contact_from_adjacency(refl).axioms.is_contact
    three = adj(3, {(0, 1), (1, 2)})
    assert not contact_from_adjacency(three).axioms.ctr


def test_contact_from_flat_equals_closure_of_contact():
    # the region algebra of the reflexive-symmetric closure is the
    # contact closure of the region algebra
    from contactlab.precontact import contact_closure

    for pairs in all_kernels(3):
        space = adj(3, pairs)
        flat = contact_from_adjacency(r_flat(space))
        closed = contact_closure(contact_from_adjacency(space))
        assert flat.kernel.pairs == closed.kernel.pairs


STONE_LINES = (
    "(Cref) iff the canonical adjacency is reflexive",
    "(Csym) iff the canonical adjacency is symmetric",
    "(Ctr) iff the canonical adjacency is transitive",
    "(Ccon) iff the canonical adjacency is connected",
)


def test_correspondence_report_examples(monkeypatch):
    one = stone_representation_report(contact_from_adjacency(adj(2, {(0, 1)})))
    assert [c.name for c in one.checks] == list(STONE_LINES)
    assert one.ok
    empty = contact_from_adjacency(adj(2, set()))
    assert not empty.axioms.ccon
    assert stone_representation_report(empty).ok
    # a connectedness search that lies fails the fourth line only, and
    # names both sides
    monkeypatch.setattr(adjacency, "is_connected_relation", lambda pairs, n: True)
    report = stone_representation_report(empty)
    assert [(c.name, c.witness) for c in report.failures] == [
        (STONE_LINES[3], "Ccon=False, connected=True")
    ]


def test_correspondence_biconditionals_exhaustive():
    """Every relation on 1 to 3 cells: the four lines of the Stone report
    on its region algebra pass, and the axiom flags they compare are the
    literal relation properties."""
    connected = set()
    for n in (1, 2, 3):
        for pairs in all_kernels(n):
            pca = contact_from_adjacency(adj(n, pairs))
            report = stone_representation_report(pca)
            assert [c.name for c in report.checks] == list(STONE_LINES)
            assert report.ok, (n, sorted(pairs), report.failures)
            flags = pca.axioms
            expected = (
                all((x, x) in pairs for x in range(n)),
                oracle_is_symmetric(pairs),
                oracle_is_transitive(pairs),
                oracle_is_connected_relation(pairs, n),
            )
            assert (flags.cref, flags.csym, flags.ctr, flags.ccon) == expected, (n, sorted(pairs))
            connected.add(flags.ccon)
    assert connected == {True, False}


def test_canonical_adjacency(b4, path_pca):
    can = canonical_adjacency(path_pca)
    assert can.pairs == {(0, 1), (1, 2)}
    assert canonical_adjacency(smallest_contact(b4)).pairs == {(0, 0), (1, 1)}
    assert canonical_adjacency(largest_contact(b4)).pairs == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }


def test_canonical_adjacency_rejects_degenerate():
    with pytest.raises(PreconditionError):
        canonical_adjacency(
            pca_from_pairs(0, frozenset())
        )


def test_canonical_adjacency_matches_literal_quantifier(kernels_3):
    for pairs in kernels_3:
        pca = pca_from_pairs(3, pairs)
        expected = oracle_ultrafilter_adjacency(3, expand_relation(3, pairs))
        assert canonical_adjacency(pca).pairs == expected == pairs


def test_adjacency_roundtrip_through_regions():
    # regions of an adjacency space, then ultrafilter cells, recover the
    # relation up to the cell bijection
    for n in (1, 2, 3):
        for pairs in all_kernels(n):
            space = adj(n, pairs)
            rebuilt = canonical_adjacency(contact_from_adjacency(space))
            assert rebuilt.pairs == pairs


def test_is_connected_relation_matches_pairwise_paths():
    """Every relation on at most 3 cells, and seeded relations on 4 to 7
    cells, against one path search per ordered pair of cells."""
    rng = random.Random(20261020)
    cases = [(n, pairs) for n in (0, 1, 2, 3) for pairs in all_kernels(n)]
    for n in range(4, 8):
        for density in (0.05, 0.1, 0.2, 0.3):
            for _ in range(15):
                pairs = {(x, y) for x in range(n) for y in range(n) if rng.random() < density}
                cases.append((n, frozenset(pairs)))
    outcomes = set()
    for n, pairs in cases:
        got = is_connected_relation(pairs, n)
        assert got == oracle_is_connected_relation(pairs, n), (n, sorted(pairs))
        outcomes.add((n >= 4, got))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_representation_report_fixtures(b4, path_pca):
    assert stone_representation_report(path_pca).ok
    assert stone_representation_report(smallest_contact(b4)).ok
    assert stone_representation_report(largest_contact(b4)).ok


def test_representation_report_exhaustive(kernels_upto_2):
    for n, pairs in kernels_upto_2:
        assert stone_representation_report(pca_from_pairs(n, pairs)).ok


def test_stone_adjacency_flag(disc2, xl_space):
    stone = AdjacencySpace(("a", "b"), frozenset({(0, 1)}), disc2)
    assert stone.is_stone_adjacency
    untopologized = AdjacencySpace(("a", "b"), frozenset({(0, 1)}))
    assert not untopologized.is_stone_adjacency
