"""Finite Boolean algebras whose elements are atom bitmasks.

An algebra with n atoms has exactly the 2**n subsets of {0, ..., n-1} as
its carrier.  At finite scale an element is its set of atoms (Stone
duality: its ultrafilters), so it is held as an integer bitmask, bit i
set iff atom i belongs to it: join, meet and complement are bitwise
operations, the algebra order is mask inclusion, and no element object
is built.  The carrier is never materialised as a collection;
exhaustive operations iterate by counting over range(2**n).

A family of elements (a filter, an ultrafilter, a grill) is the
frozenset of its member masks, each checked to lie in the algebra
(`require_mask`).  Families are materialised explicitly and therefore
fall under the enumeration width budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .config import require_atom_width, require_enum_width
from .errors import DomainMismatchError, PreconditionError
from .memo import once

FAMILY_KINDS = ("filter", "ultrafilter", "grill", "arbitrary")


def bit_indices(mask):
    """Indices of the set bits of ``mask``, ascending.  A negative mask
    has infinitely many set bits, so it raises DomainMismatchError."""
    if mask < 0:
        raise DomainMismatchError("negative mask")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    """The mask with the bits ``indices`` set; a negative index raises
    DomainMismatchError."""
    out = 0
    try:
        for i in indices:
            out |= 1 << i
    except ValueError:
        raise DomainMismatchError(f"atom index {i} out of range") from None
    return out


def join_at(values, mask):
    """The union of values[i] over the set bits i of ``mask``: the entry
    at ``mask`` of `joins_table`, without building the table.  A mask
    with a bit at no value, a negative one included (it has infinitely
    many set bits), raises DomainMismatchError."""
    out = 0
    try:
        while mask:
            low = mask & -mask
            out |= values[low.bit_length() - 1]
            mask ^= low
    except IndexError:
        raise DomainMismatchError(f"mask has a bit outside the {len(values)} values") from None
    return out


def reach(rows, start):
    """The indices reachable from the set bits of ``start`` along the
    adjacency ``rows`` (rows[i]: the mask of the indices adjacent to i),
    ``start`` included, as a mask; one breadth-first pass, each row read
    once."""
    seen = frontier = start
    while frontier:
        frontier = join_at(rows, frontier) & ~seen
        seen |= frontier
    return seen


def fibres(width, mapping):
    """out[y]: the mask of the i with mapping[i] = y, for each of the
    ``width`` values y.  The preimage of a set is the join of the fibres
    of its members (`join_at`), so preimage preserves joins."""
    out = [0] * width
    for i, y in enumerate(mapping):
        out[y] |= 1 << i
    return out


def transpose(rows, width):
    """out[j]: the mask of the i with bit j set in rows[i], for each of
    the ``width`` columns j; every row must lie below 1 << width.  One
    pass over the set bits of the rows."""
    out = [0] * width
    bit = 1
    for row in rows:
        while row:
            j = row.bit_length() - 1
            out[j] |= bit
            row ^= 1 << j
        bit <<= 1
    return out


def meeting_rows(left, right):
    """rows[p]: the indices q with left[p] meeting right[q], as a mask."""
    rows = []
    for l in left:
        row = 0
        for q, r in enumerate(right):
            if l & r:
                row |= 1 << q
        rows.append(row)
    return rows


def joins_table(atom_values):
    """table[m] = the union of atom_values[p] over the atoms p of m, for
    every m of the 2**n masks; the table preserves joins by construction."""
    table = [0] * (1 << len(atom_values))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | atom_values[low.bit_length() - 1]
    return table


def _first_map_mismatch(left_values, right_values):
    """The first element a, in ascending mask order, where two maps
    differ; None when they agree everywhere.  The maps are given by their
    values at the atoms, left_values[p] and right_values[p] at 1 << p.

    Both maps must send 0 to 0 and preserve joins.  Such a map sends a
    to the join of its values at the atoms of a, so two of them agree
    everywhere iff they agree at the atoms.  Let p be the first atom
    where they differ: every a below 1 << p holds only atoms below p, at
    which the maps agree, so 1 << p is the first element where they
    differ, and no element is swept."""
    return next(
        (1 << p for p, (x, y) in enumerate(zip(left_values, right_values)) if x != y),
        None,
    )


def _first_pair_mismatch(left_rows, right_rows):
    """The first (a, b), in lexicographic order over the element pairs,
    where two relations differ; None when they agree everywhere.  The
    relations are given by their atom rows: bit q of left_rows[p] means
    {p} R {q}.

    Both relations must be additive in a and in b: false when a side is
    0, and true on a join iff true on one of its parts.  Such a relation
    holds on (a, b) iff some atom p of a has a row meeting b, so two of
    them agree everywhere iff their rows agree.  Let p be the first atom
    whose rows differ and q the lowest atom of the difference of those
    rows.  Every a below 1 << p holds only atoms whose rows agree, so the
    relations agree on (a, b) for every b.  At a = 1 << p the relations
    read the two rows, which agree on every b below 1 << q (b holds only
    atoms below q) and differ at b = 1 << q.  So (1 << p, 1 << q) is the
    first witness, and no element pair is swept."""
    for p, (x, y) in enumerate(zip(left_rows, right_rows)):
        if x != y:
            return 1 << p, (x ^ y) & -(x ^ y)
    return None


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """The powerset algebra over ``atom_count`` atoms.

    ``atom_count == 0`` gives the degenerate algebra where 0 == 1; it is a
    legal value here but is rejected by the duality constructions.
    """

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 0:
            raise PreconditionError("atom_count must be nonnegative")
        require_atom_width(self.atom_count)

    @property
    def size(self):
        return 1 << self.atom_count

    @property
    def full_mask(self):
        return (1 << self.atom_count) - 1

    @property
    def is_degenerate(self):
        return self.atom_count == 0


def require_mask(algebra, mask):
    """``mask``, when it is an element of ``algebra``; else
    DomainMismatchError."""
    if not 0 <= mask <= algebra.full_mask:
        raise DomainMismatchError(f"mask {mask} outside algebra with {algebra.atom_count} atoms")
    return mask


@dataclass(frozen=True)
class ElementFamily:
    """A finite set of elements, the frozenset of their masks, tagged
    with what it claims to be.

    Each member must lie in the algebra.  The tags ``filter``,
    ``ultrafilter`` and ``grill`` are verified on construction;
    ``arbitrary`` is not.
    """

    algebra: FiniteBooleanAlgebra
    members: frozenset
    kind: str = "arbitrary"

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise PreconditionError(f"unknown family kind {self.kind!r}")
        for m in self.members:
            require_mask(self.algebra, m)
        if self.kind != "arbitrary" and not is_family(self.kind, self.algebra, self.members):
            raise PreconditionError(f"member set is not a {self.kind}")


def is_family(kind, algebra, members):
    """Decide whether the masks ``members`` satisfy the invariants of
    ``kind``.

    filter: contains 1, excludes 0, upward closed, closed under meet.
    ultrafilter: a filter that contains a or a* for every a.
    grill: nonempty, excludes 0, upward closed, and a+b inside forces
    a or b inside.

    Each is decided by its generator, with no pass over the 2**n
    elements; a mask outside the algebra gives False.

    * A family F is a filter iff it is 0-free and has 2**(n - |s|)
      members, s the meet of its members.  Every member lies above s,
      and the 2**(n - |s|) elements above s are the principal filter of
      s, so F has that many members iff it is that filter, which is
      0-free iff s != 0.  Conversely a finite filter holds the meet s of
      its members and, upward closed, everything above it.
    * A filter is an ultrafilter iff |s| = 1: the principal filter of s
      holds one of a and a* for every a iff s is an atom.
    * With t the atoms p whose singleton {p} is a member, a family G is
      a grill iff it is nonempty, every member meets t, and it has
      2**n - 2**(n - |t|) members.  A member a of a grill is the join
      of its atoms, so by the last condition one of them is a member
      and a meets t; conversely, upward closed, a grill holds every a
      meeting t.  So a grill is the set of the elements meeting t, of
      2**n - 2**(n - |t|) members.  The other way, a nonempty family of
      that size whose members meet t is that set, which is upward
      closed, excludes 0, and holds a+b only when a or b meets t.
    """
    masks = frozenset(members)
    full = algebra.full_mask
    n = algebra.atom_count
    if not all(0 <= m <= full for m in masks):
        return False
    if kind == "filter" or kind == "ultrafilter":
        s = reduce(and_, masks, full)
        if 0 in masks or len(masks) != 1 << (n - s.bit_count()):
            return False
        return kind == "filter" or s.bit_count() == 1
    if kind == "grill":
        t = _singleton_support(n, masks)
        return (
            bool(masks)
            and all(m & t for m in masks)
            and len(masks) == (1 << n) - (1 << (n - t.bit_count()))
        )
    raise PreconditionError(f"is_family does not check kind {kind!r}")


def _singleton_support(atom_count, masks):
    """The atoms p whose singleton 1 << p is one of ``masks``, as a mask."""
    return sum(1 << p for p in range(atom_count) if 1 << p in masks)


def principal_ultrafilter(algebra, atom_index):
    """All elements above the given atom, tagged as an ultrafilter."""
    require_enum_width(algebra.atom_count)
    if not 0 <= atom_index < algebra.atom_count:
        raise DomainMismatchError(f"atom index {atom_index} out of range")
    bit = 1 << atom_index
    members = frozenset(m for m in range(algebra.size) if m & bit)
    return ElementFamily(algebra, members, "ultrafilter")


def ultrafilters(algebra):
    """All ultrafilters, ordered by their atom index; empty when degenerate."""
    return [principal_ultrafilter(algebra, p) for p in range(algebra.atom_count)]


def stone_map(algebra, mask):
    """The ultrafilters containing the element ``mask``; a Boolean
    isomorphism onto the clopen algebra of the finite Stone space."""
    return frozenset(
        principal_ultrafilter(algebra, p) for p in bit_indices(require_mask(algebra, mask))
    )


def grill_from_support(algebra, support_mask):
    """The grill that is the union of the ultrafilters of ``support_mask``."""
    require_enum_width(algebra.atom_count)
    if require_mask(algebra, support_mask) == 0:
        raise PreconditionError("a grill needs a nonempty atom support")
    members = frozenset(m for m in range(algebra.size) if m & support_mask)
    return ElementFamily(algebra, members, "grill")


def grills(algebra):
    """All grills, one per nonempty atom support, in (size, atoms) order."""
    require_enum_width(algebra.atom_count)
    supports = sorted(
        range(1, algebra.size),
        key=lambda m: (m.bit_count(), tuple(bit_indices(m))),
    )
    return [grill_from_support(algebra, s) for s in supports]


def grill_support(grill_family):
    """Atoms whose principal ultrafilter sits inside the grill."""
    return _singleton_support(grill_family.algebra.atom_count, grill_family.members)


def sandwich_ultrafilter(filter_family, grill_family):
    """An ultrafilter U with F <= U <= G, for a filter F inside a grill G.

    Deterministic tie-break: the principal ultrafilter of the
    smallest-index eligible atom.
    """
    algebra = filter_family.algebra
    if grill_family.algebra != algebra:
        raise DomainMismatchError("filter and grill from different algebras")
    if not is_family("filter", algebra, filter_family.members):
        raise PreconditionError("first argument is not a filter")
    if not is_family("grill", algebra, grill_family.members):
        raise PreconditionError("second argument is not a grill")
    if not filter_family.members <= grill_family.members:
        raise PreconditionError("the filter is not contained in the grill")
    stem = reduce(and_, filter_family.members)
    support = grill_support(grill_family)
    for p in bit_indices(stem & support):
        return principal_ultrafilter(algebra, p)
    raise PreconditionError("no ultrafilter between the given filter and grill")


@dataclass(frozen=True)
class BooleanHom:
    """A Boolean homomorphism between finite algebras.

    Determined by a total map from target atoms back to source atoms:
    apply_mask(a) = { q : atom_map[q] in a }.  This preserves 0, 1, join,
    meet and complement by construction.
    """

    source: FiniteBooleanAlgebra
    target: FiniteBooleanAlgebra
    atom_map: tuple

    def __post_init__(self):
        if len(self.atom_map) != self.target.atom_count:
            raise DomainMismatchError("atom_map must be total on target atoms")
        for p in self.atom_map:
            if not 0 <= p < self.source.atom_count:
                raise DomainMismatchError(f"atom index {p} out of source range")

    @once
    def _atom_images(self):
        # _atom_images[p] = mask of target atoms that pull back to source atom p
        return tuple(fibres(self.source.atom_count, self.atom_map))

    def apply_mask(self, mask):
        return join_at(self._atom_images, mask)


def identity_hom(algebra):
    return BooleanHom(algebra, algebra, tuple(range(algebra.atom_count)))


def compose_homs(outer, inner):
    """outer o inner, for inner: A -> B and outer: B -> C."""
    if inner.target != outer.source:
        raise DomainMismatchError("homs do not compose")
    return BooleanHom(
        inner.source,
        outer.target,
        tuple(inner.atom_map[p] for p in outer.atom_map),
    )
