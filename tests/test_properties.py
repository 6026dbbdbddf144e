"""Randomized law checking with hypothesis on small instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab.duality import algebra_roundtrip_iso
from contactlab.precontact import (
    contact_closure,
    contact_from_well_inside_atoms,
    pca_from_pairs,
    well_inside_atoms,
)
from contactlab.serialize import decode, encode
from contactlab.topology import (
    closure,
    interior,
    is_closed,
    space_from_closed_base,
)

from oracles import expand_relation, oracle_unary_relation, oracle_well_inside


@st.composite
def kernels(draw, max_atoms=4):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    pairs = draw(
        st.frozensets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=n * n,
        )
    )
    return pca_from_pairs(n, pairs)


@st.composite
def spaces(draw, max_points=4):
    n = draw(st.integers(min_value=1, max_value=max_points))
    base = draw(
        st.frozensets(
            st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6
        )
    )
    return space_from_closed_base(tuple(f"p{i}" for i in range(n)), base)


@settings(max_examples=80, deadline=None)
@given(kernels())
def test_contact_closure_laws(pca):
    closed = contact_closure(pca)
    assert closed.kernel.is_reflexive and closed.kernel.is_symmetric
    assert contact_closure(closed).kernel.pairs == closed.kernel.pairs
    assert closed.kernel.pairs >= pca.kernel.pairs


@settings(max_examples=60, deadline=None)
@given(kernels(max_atoms=4))
def test_interdefinability_random(pca):
    """The unary form induces the literal well-inside relation of the
    kernel's expansion, and the atom inverse gives back the kernel."""
    n = pca.algebra.atom_count
    m = well_inside_atoms(pca)
    contact = expand_relation(n, pca.kernel.pairs)
    assert oracle_unary_relation(n, m) == oracle_well_inside(n, contact)
    assert contact_from_well_inside_atoms(pca.algebra, m).pairs == pca.kernel.pairs


@settings(max_examples=40, deadline=None)
@given(kernels(max_atoms=4))
def test_roundtrip_random(pca):
    trip = algebra_roundtrip_iso(pca)
    assert trip.report.ok


@settings(max_examples=60, deadline=None)
@given(kernels(max_atoms=4))
def test_serialization_random(pca):
    assert decode(encode(pca)) == pca


@settings(max_examples=80, deadline=None)
@given(spaces(), st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_closure_laws_random(space, a, b):
    a &= space.full_mask
    b &= space.full_mask
    ca = closure(space, a)
    assert a | ca == ca
    assert closure(space, ca) == ca
    assert closure(space, a | b) == ca | closure(space, b)
    assert interior(space, a) == space.full_mask ^ closure(space, space.full_mask ^ a)
    assert is_closed(space, ca)


@settings(max_examples=60, deadline=None)
@given(spaces(max_points=3))
def test_space_serialization_random(space):
    assert decode(encode(space)) == space
