import itertools

import pytest

from contactlab.boolean import BooleanHom, FiniteBooleanAlgebra
from contactlab.errors import AxiomViolationError, DomainMismatchError
from contactlab.precontact import (
    axiom_report,
    clan_supports,
    contact_closure,
    contact_from_well_inside_atoms,
    is_pca_morphism,
    largest_contact,
    normalize_relation,
    pca_from_pairs,
    restrict_clan_support,
    restrict_relation,
    smallest_contact,
    well_inside_atoms,
)

from oracles import (
    expand_relation,
    oracle_axioms,
    oracle_clans,
    oracle_contact_from_well_inside,
    oracle_is_pca_morphism,
    oracle_unary_relation,
    oracle_well_inside,
    oracle_well_inside_axioms,
    satisfies_c0_cplus,
)


# ---------------------------------------------------------------------------
# kernels and normalization


def test_normalize_overlap_relation(b4):
    rel = frozenset(
        (a, b) for a in range(4) for b in range(4) if a & b
    )
    kernel = normalize_relation(b4, rel)
    assert kernel.pairs == {(0, 0), (1, 1)}


def test_normalize_rejects_zero_contact(b4):
    with pytest.raises(AxiomViolationError) as err:
        normalize_relation(b4, frozenset({(0b11, 0)}))
    assert err.value.axiom == "(C0)"
    assert err.value.witness == (0b11, 0)


def test_normalize_rejects_additivity_failure(b4):
    # p related to 1 but to neither atom
    with pytest.raises(AxiomViolationError) as err:
        normalize_relation(b4, frozenset({(0b01, 0b11)}))
    assert err.value.axiom == "(C+)"


def test_kernel_expansion_round_trip_exhaustive(kernels_upto_2, kernels_3):
    for n, pairs in list(kernels_upto_2) + [(3, k) for k in kernels_3]:
        algebra = FiniteBooleanAlgebra(n)
        rel = frozenset(expand_relation(n, pairs))
        assert satisfies_c0_cplus(n, rel)
        assert normalize_relation(algebra, rel).pairs == pairs


def test_holds_examples(b4, b8, path_pca):
    rho_s = smallest_contact(b4)
    assert rho_s.kernel.succ == (0b01, 0b10)
    assert (0b01, 0b11) in expand_relation(2, rho_s.kernel.pairs)
    assert not any((0, b) in expand_relation(2, rho_s.kernel.pairs) for b in range(4))
    assert path_pca.kernel.succ == (0b010, 0b100, 0)
    assert (0b001, 0b110) in expand_relation(3, path_pca.kernel.pairs)


# ---------------------------------------------------------------------------
# axiom reports


def test_axiom_report_on_extremal_relations(b4):
    rho_s = axiom_report(smallest_contact(b4))
    assert rho_s.is_contact and rho_s.is_normal_contact
    assert rho_s.ctr and not rho_s.ccon
    rho_l = axiom_report(largest_contact(b4))
    assert rho_l.is_contact and rho_l.ccon


def test_axiom_report_on_path_kernel(path_pca):
    flags = axiom_report(path_pca)
    assert not flags.csym
    assert not flags.ctr
    assert flags.ccon and flags.c6
    assert not flags.is_contact


def test_axiom_report_matches_oracle(kernels_upto_2, kernels_3):
    population = list(kernels_upto_2) + [(3, k) for k in list(kernels_3)[::7]]
    for n, pairs in population:
        flags = axiom_report(pca_from_pairs(n, pairs))
        expected = oracle_axioms(n, expand_relation(n, pairs))
        assert flags.cref == expected["cref"], (n, pairs)
        assert flags.csym == expected["csym"]
        assert flags.ctr == expected["ctr"]
        assert flags.ctr_sharp == expected["ctr_sharp"]
        assert flags.ccon == expected["ccon"]
        assert flags.c6 == expected["c6"]


# ---------------------------------------------------------------------------
# contact closure


def test_contact_closure_of_path_kernel(path_pca):
    closed = contact_closure(path_pca)
    assert closed.kernel.pairs == {
        (0, 1), (1, 0), (1, 2), (2, 1), (0, 0), (1, 1), (2, 2),
    }


def test_contact_closure_fixed_points(b4):
    rho_s = smallest_contact(b4)
    assert contact_closure(rho_s).kernel.pairs == rho_s.kernel.pairs
    empty = pca_from_pairs(2, frozenset())
    assert contact_closure(empty).kernel.pairs == rho_s.kernel.pairs


def test_contact_closure_idempotent_and_contact(kernels_3):
    for pairs in kernels_3:
        closed = contact_closure(pca_from_pairs(3, pairs))
        assert closed.axioms.is_contact
        assert contact_closure(closed).kernel.pairs == closed.kernel.pairs


def test_extremal_bounds_for_contacts(kernels_upto_2, kernels_3):
    for n, pairs in list(kernels_upto_2) + [(3, k) for k in kernels_3]:
        pca = pca_from_pairs(n, pairs)
        if not pca.axioms.is_contact:
            continue
        small = smallest_contact(pca.algebra).kernel.pairs
        large = largest_contact(pca.algebra).kernel.pairs
        assert small <= pairs <= large


# ---------------------------------------------------------------------------
# the well-inside relation, by its literal definition and its unary form


def literal_well_inside(pca):
    n = pca.algebra.atom_count
    return oracle_well_inside(n, expand_relation(n, pca.kernel.pairs))


def test_well_inside_of_smallest_contact_is_order(b4):
    inside = literal_well_inside(smallest_contact(b4))
    for a in range(b4.size):
        for b in range(b4.size):
            assert ((a, b) in inside) == (a | b == b)


def test_well_inside_of_largest_contact(b4):
    inside = literal_well_inside(largest_contact(b4))
    for a in range(b4.size):
        for b in range(b4.size):
            assert ((a, b) in inside) == (a == 0 or b == b4.full_mask)


def test_well_inside_axioms_of_extremal_relations(b4):
    order = oracle_well_inside_axioms(b4.atom_count, literal_well_inside(smallest_contact(b4)))
    assert all(order.values())
    # the largest contact's well-inside relation keeps (<<1) and the
    # precontact-defining axioms but loses (<<6)
    loose = oracle_well_inside_axioms(b4.atom_count, literal_well_inside(largest_contact(b4)))
    assert {name for name, holds in loose.items() if not holds} == {"ax6"}


def test_empty_well_inside_fails_second_axiom(b4):
    """The empty relation fails (<<2), 0 << 0, under the literal
    quantifiers, so it is the well-inside relation of no precontact
    relation: the relation of every unary form holds 0 << 0."""
    n = b4.atom_count
    assert not oracle_well_inside_axioms(n, frozenset())["ax2"]
    for m in itertools.product(range(1 << n), repeat=n):
        assert (0, 0) in oracle_unary_relation(n, m)


def test_interdefinability_round_trip(kernels_upto_2, kernels_3):
    """The literal inverse takes the literal well-inside relation back to
    the contact relation, and the kernel read back from the unary form
    is the kernel, on every kernel of at most 3 atoms."""
    for n, pairs in list(kernels_upto_2) + [(3, k) for k in kernels_3]:
        pca = pca_from_pairs(n, pairs)
        contact = expand_relation(n, pairs)
        assert oracle_contact_from_well_inside(n, oracle_well_inside(n, contact)) == contact
        rebuilt = contact_from_well_inside_atoms(pca.algebra, well_inside_atoms(pca))
        assert rebuilt.pairs == pairs


# ---------------------------------------------------------------------------
# clans


def test_clans_of_extremal_relations(b4):
    assert clan_supports(smallest_contact(b4)) == [0b01, 0b10]
    assert clan_supports(largest_contact(b4)) == [0b01, 0b10, 0b11]


def test_extremal_relations_coincide_on_one_atom(b2):
    assert smallest_contact(b2).kernel.pairs == largest_contact(b2).kernel.pairs


def test_extremal_kernels(b4):
    assert smallest_contact(b4).kernel.pairs == {(0, 0), (1, 1)}
    assert largest_contact(b4).kernel.pairs == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }


def test_clans_of_path_kernel(path_pca):
    assert clan_supports(path_pca) == [0b001, 0b010, 0b100, 0b011, 0b110]


def clan_members(pca):
    """Each clan as its member set: the elements that meet its support."""
    size = pca.algebra.size
    return {frozenset(m for m in range(size) if m & s) for s in clan_supports(pca)}


def test_clans_match_literal_oracle(kernels_upto_2):
    for n, pairs in kernels_upto_2:
        assert clan_members(pca_from_pairs(n, pairs)) == set(oracle_clans(n, pairs))


def test_clans_match_oracle_on_path_kernel(path_pca):
    assert clan_members(path_pca) == set(oracle_clans(3, path_pca.kernel.pairs))


def test_clans_equal_closure_clans(kernels_3):
    for pairs in kernels_3:
        pca = pca_from_pairs(3, pairs)
        assert clan_supports(pca) == clan_supports(contact_closure(pca))


# ---------------------------------------------------------------------------
# subalgebra restriction


def test_restrict_relation_blocks(path_pca):
    sub = restrict_relation(path_pca, [[0], [1, 2]])
    assert sub.algebra.atom_count == 2
    # block {1,2} sees the (0,1) and (1,2) kernel pairs
    assert sub.kernel.pairs == {(0, 1), (1, 1)}


def test_restrict_relation_identity(path_pca):
    same = restrict_relation(path_pca, [[0], [1], [2]])
    assert same.kernel.pairs == path_pca.kernel.pairs


def test_restrict_relation_single_block(path_pca):
    one = restrict_relation(path_pca, [[0, 1, 2]])
    assert one.algebra.atom_count == 1
    assert one.kernel.pairs == {(0, 0)}


def test_restrict_relation_validates_partition(path_pca):
    with pytest.raises(DomainMismatchError):
        restrict_relation(path_pca, [[0], [1]])
    with pytest.raises(DomainMismatchError):
        restrict_relation(path_pca, [[0, 1], [1, 2]])


def test_a_negative_atom_or_support_is_refused(path_pca):
    with pytest.raises(DomainMismatchError, match="atom index -1 out of range"):
        restrict_relation(path_pca, [[0], [1], [-1]])
    blocks = [[0], [1, 2]]
    with pytest.raises(DomainMismatchError, match="mask -1 outside algebra with 3 atoms"):
        restrict_clan_support(blocks, -1)
    with pytest.raises(DomainMismatchError, match="mask 8 outside algebra with 3 atoms"):
        restrict_clan_support(blocks, 0b1000)
    assert restrict_clan_support(blocks, 0b100) == {1}


def test_an_atom_index_off_the_algebra_is_refused_before_a_mask_is_built(path_pca):
    """An index past the atoms is refused with a typed error naming it,
    not by building the mask 1 << index, which at 2**40 runs out of
    memory; the support image reads no block index as a shift."""
    huge = 2**40
    for blocks, outside in (([[huge], [0], [1], [2]], huge), ([[0], [1], [2, 3]], 3)):
        with pytest.raises(DomainMismatchError, match=f"atom index {outside} out of range"):
            restrict_relation(path_pca, blocks)
    with pytest.raises(DomainMismatchError, match=f"mask 1 outside algebra with {huge + 1} atoms"):
        restrict_clan_support([[huge]], 1)
    assert restrict_clan_support([[huge], [0]], 1) == {1}
    assert restrict_clan_support([[huge], [0]], 0) == frozenset()
    with pytest.raises(DomainMismatchError, match="atom index -1 out of range"):
        restrict_clan_support([[0], [-1]], 1)


def test_clan_traces_restrict_to_clans(kernels_3):
    # every clan of the big algebra traces to a clan of any restriction,
    # for every kernel and every partition of the three atoms
    partitions = [
        [[0], [1], [2]],
        [[0, 1], [2]],
        [[0, 2], [1]],
        [[1, 2], [0]],
        [[0, 1, 2]],
    ]
    for pairs in kernels_3:
        pca = pca_from_pairs(3, pairs)
        for blocks in partitions:
            sub = restrict_relation(pca, blocks)
            sub_supports = set(clan_supports(sub))
            for support_mask in clan_supports(pca):
                traced = restrict_clan_support(blocks, support_mask)
                traced_mask = sum(1 << i for i in traced)
                assert traced_mask in sub_supports


# ---------------------------------------------------------------------------
# morphisms


def test_pca_morphism_examples(b4, b2):
    phi = BooleanHom(b4, b2, (0,))
    assert is_pca_morphism(phi, smallest_contact(b4), smallest_contact(b2))
    assert is_pca_morphism(
        BooleanHom(b4, b4, (0, 1)), largest_contact(b4), largest_contact(b4)
    )
    empty = pca_from_pairs(2, frozenset())
    assert not is_pca_morphism(phi, empty, smallest_contact(b2))


def test_pca_morphism_kernel_check_equals_exhaustive(kernels_upto_2):
    for ns, src_pairs in kernels_upto_2:
        for nt, dst_pairs in kernels_upto_2:
            source = pca_from_pairs(ns, src_pairs)
            target = pca_from_pairs(nt, dst_pairs)
            for amap in itertools.product(range(ns), repeat=nt):
                hom = BooleanHom(source.algebra, target.algebra, amap)
                assert is_pca_morphism(hom, source, target) == (
                    oracle_is_pca_morphism(hom, source, target)
                )
