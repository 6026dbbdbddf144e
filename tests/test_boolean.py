import itertools

import pytest

from contactlab.boolean import (
    BooleanHom,
    ElementFamily,
    FiniteBooleanAlgebra,
    compose_homs,
    grill_from_support,
    grills,
    identity_hom,
    is_family,
    mask_of,
    principal_ultrafilter,
    sandwich_ultrafilter,
    stone_map,
    ultrafilters,
)
from contactlab.errors import (
    CapacityError,
    DomainMismatchError,
    PreconditionError,
)

from oracles import oracle_is_filter, oracle_is_grill, oracle_is_ultrafilter


def test_algebra_sizes():
    assert FiniteBooleanAlgebra(0).size == 1
    assert FiniteBooleanAlgebra(2).size == 4
    assert FiniteBooleanAlgebra(3).size == 8


def test_degenerate_algebra_bounds_coincide():
    assert FiniteBooleanAlgebra(0).full_mask == 0


def test_width_cap(monkeypatch):
    with pytest.raises(CapacityError):
        FiniteBooleanAlgebra(17)
    monkeypatch.setenv("CONTACTLAB_ATOM_LIMIT", "20")
    assert FiniteBooleanAlgebra(18).atom_count == 18


def test_element_mask_range(b4):
    with pytest.raises(DomainMismatchError, match="mask 4 outside algebra with 2 atoms"):
        ElementFamily(b4, frozenset({1, 4}))
    with pytest.raises(DomainMismatchError, match="mask -1 outside algebra with 2 atoms"):
        ElementFamily(b4, frozenset({-1}))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda b: principal_ultrafilter(b, -1), "atom index -1 out of range"),
        (lambda b: principal_ultrafilter(b, 3), "atom index 3 out of range"),
        (lambda b: principal_ultrafilter(b, 5), "atom index 5 out of range"),
        (lambda b: grill_from_support(b, -1), "mask -1 outside algebra with 3 atoms"),
        (lambda b: grill_from_support(b, 1 << 5), "mask 32 outside algebra with 3 atoms"),
        (lambda b: mask_of([0, -1]), "atom index -1 out of range"),
        (lambda b: stone_map(b, -1), "mask -1 outside algebra with 3 atoms"),
        (lambda b: stone_map(b, b.size), "mask 8 outside algebra with 3 atoms"),
    ],
    ids=["ultrafilter-negative", "ultrafilter-first-past", "ultrafilter-past", "grill-negative",
         "grill-past", "mask-of-negative", "stone-negative", "stone-past"],
)
def test_an_index_or_mask_off_the_algebra_raises_a_typed_error(b8, call, message):
    with pytest.raises(DomainMismatchError, match=message):
        call(b8)


def test_ultrafilters(b4, b8):
    assert len(ultrafilters(b4)) == 2
    assert len(ultrafilters(b8)) == 3
    assert ultrafilters(FiniteBooleanAlgebra(0)) == []
    up = ultrafilters(b4)[0]
    assert up.members == {0b01, 0b11}


def test_stone_map(b4, b8):
    assert stone_map(b4, 0b01) == frozenset({principal_ultrafilter(b4, 0)})
    assert stone_map(b4, b4.full_mask) == frozenset(ultrafilters(b4))
    assert stone_map(b8, 0b011) == frozenset(
        {principal_ultrafilter(b8, 0), principal_ultrafilter(b8, 1)}
    )


def test_stone_map_is_boolean_isomorphism(b8):
    seen = set()
    for a in range(b8.size):
        image = stone_map(b8, a)
        assert image not in seen
        seen.add(image)
        for b in range(b8.size):
            assert stone_map(b8, a | b) == stone_map(b8, a) | stone_map(b8, b)
            assert stone_map(b8, a & b) == stone_map(b8, a) & stone_map(b8, b)
        assert stone_map(b8, b8.full_mask ^ a) == frozenset(ultrafilters(b8)) - image


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_is_family_matches_literal_oracle(n):
    """Every family on at most 3 atoms, 256 of them on 3; with a member
    of a wider algebra added, no family is of any kind."""
    algebra = FiniteBooleanAlgebra(n)
    outside = algebra.size
    for r in range(algebra.size + 1):
        for masks in itertools.combinations(range(algebra.size), r):
            members = frozenset(masks)
            assert is_family("filter", algebra, members) == oracle_is_filter(n, masks), masks
            assert is_family("ultrafilter", algebra, members) == oracle_is_ultrafilter(
                n, masks
            ), masks
            assert is_family("grill", algebra, members) == oracle_is_grill(n, masks), masks
            for kind in ("filter", "ultrafilter", "grill"):
                assert not is_family(kind, algebra, members | {outside}), (kind, masks)


def test_family_examples(b4):
    assert is_family("grill", b4, frozenset({0b01, 0b10, 0b11}))
    assert not is_family("grill", b4, frozenset({0b01, 0b10}))
    assert is_family("filter", b4, frozenset({b4.full_mask}))
    assert not is_family("filter", b4, frozenset({-1, b4.full_mask}))


def test_family_kind_validated_on_construction(b4):
    with pytest.raises(PreconditionError):
        ElementFamily(b4, frozenset({0}), "filter")
    ElementFamily(b4, frozenset({0}), "arbitrary")
    with pytest.raises(PreconditionError, match="unknown family kind"):
        ElementFamily(b4, frozenset({0}), "clan")


def test_grills_count():
    for n in (1, 2, 3):
        algebra = FiniteBooleanAlgebra(n)
        found = grills(algebra)
        assert len(found) == algebra.size - 1
        for g in found:
            assert is_family("grill", algebra, g.members)


def test_grills_are_unions_of_ultrafilters(b4):
    listed = [g.members for g in grills(b4)]
    assert listed == [
        {0b01, 0b11},
        {0b10, 0b11},
        {0b01, 0b10, 0b11},
    ]


def test_sandwich_ultrafilter_examples(b4):
    trivial = ElementFamily(b4, frozenset({b4.full_mask}), "filter")
    grill = ElementFamily(b4, frozenset({0b01, 0b10, 0b11}), "grill")
    assert sandwich_ultrafilter(trivial, grill) == principal_ultrafilter(b4, 0)
    up = principal_ultrafilter(b4, 0)
    assert sandwich_ultrafilter(
        ElementFamily(b4, up.members, "filter"), grill_from_support(b4, 0b01)
    ) == up
    only_q = grill_from_support(b4, 0b10)
    assert sandwich_ultrafilter(trivial, only_q) == principal_ultrafilter(b4, 1)


def test_sandwich_requires_containment(b4):
    up = principal_ultrafilter(b4, 0)
    other = grill_from_support(b4, 0b10)
    with pytest.raises(PreconditionError):
        sandwich_ultrafilter(ElementFamily(b4, up.members, "filter"), other)


def test_sandwich_exhaustive_small():
    # every filter-grill inclusion on up to 3 atoms has a witness between
    for n in (1, 2, 3):
        algebra = FiniteBooleanAlgebra(n)
        filters = [
            ElementFamily(
                algebra, frozenset(m for m in range(algebra.size) if m | stem == m), "filter"
            )
            for stem in range(1, algebra.size)
        ]
        all_grills = grills(algebra)
        for f in filters:
            for g in all_grills:
                if not f.members <= g.members:
                    continue
                u = sandwich_ultrafilter(f, g)
                assert f.members <= u.members <= g.members


def test_hom_from_atom_map(b4, b2):
    phi = BooleanHom(b4, b2, (0,))
    assert phi.apply_mask(0b01) == b2.full_mask
    assert phi.apply_mask(0b10) == 0
    assert phi.apply_mask(b4.full_mask) == b2.full_mask
    assert phi.apply_mask(0) == 0
    for outside in (-1, b4.size):
        with pytest.raises(DomainMismatchError):
            phi.apply_mask(outside)


def test_hom_validates_atom_map(b4, b2):
    with pytest.raises(DomainMismatchError):
        BooleanHom(b4, b2, (2,))
    with pytest.raises(DomainMismatchError):
        BooleanHom(b4, b2, ())


def test_identity_hom(b8):
    ident = identity_hom(b8)
    for a in range(b8.size):
        assert ident.apply_mask(a) == a


def test_homs_preserve_operations_exhaustively():
    # every atom map on source/target sizes up to 3 gives a Boolean hom
    for ns in (1, 2, 3):
        for nt in (1, 2, 3):
            source = FiniteBooleanAlgebra(ns)
            target = FiniteBooleanAlgebra(nt)
            for amap in itertools.product(range(ns), repeat=nt):
                h = BooleanHom(source, target, amap).apply_mask
                assert h(0) == 0 and h(source.full_mask) == target.full_mask
                for a in range(source.size):
                    assert h(source.full_mask ^ a) == target.full_mask ^ h(a)
                    for b in range(source.size):
                        assert h(a | b) == h(a) | h(b)
                        assert h(a & b) == h(a) & h(b)


def test_hom_composition(b8, b4, b2):
    inner = BooleanHom(b8, b4, (0, 2))
    outer = BooleanHom(b4, b2, (1,))
    both = compose_homs(outer, inner)
    for a in range(b8.size):
        assert both.apply_mask(a) == outer.apply_mask(inner.apply_mask(a))
