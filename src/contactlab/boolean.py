"""Finite Boolean algebras with atom-indexed elements.

An algebra with n atoms has exactly the 2**n subsets of {0, ..., n-1} as
its carrier.  An element is held as an integer bitmask (bit i set iff
atom i belongs to it), so join, meet, complement are bitwise operations
and the algebra order is mask inclusion.  The carrier is never
materialised as a collection; exhaustive operations iterate by counting
over range(2**n).

Families of elements (filters, ultrafilters, grills) are materialised
explicitly and therefore fall under the enumeration width budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .config import require_atom_width, require_enum_width
from .errors import DomainMismatchError, PreconditionError

FAMILY_KINDS = ("filter", "ultrafilter", "grill", "clan-candidate", "arbitrary")


def bit_indices(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def join_at(values, mask):
    """The union of values[i] over the set bits i of ``mask``: the entry
    at ``mask`` of `joins_table`, without building the table."""
    out = 0
    while mask:
        low = mask & -mask
        out |= values[low.bit_length() - 1]
        mask ^= low
    return out


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
    def zero(self):
        return Element(self, 0)

    @property
    def one(self):
        return Element(self, self.full_mask)

    @property
    def is_degenerate(self):
        return self.atom_count == 0

    def element(self, mask):
        if not 0 <= mask <= self.full_mask:
            raise DomainMismatchError(f"mask {mask} outside algebra with {self.atom_count} atoms")
        return Element(self, mask)

    def atom(self, index):
        if not 0 <= index < self.atom_count:
            raise DomainMismatchError(f"atom index {index} out of range")
        return Element(self, 1 << index)

    def elements(self):
        return (Element(self, m) for m in range(self.size))


@dataclass(frozen=True)
class Element:
    """One element of a finite Boolean algebra, stored as an atom bitmask."""

    algebra: FiniteBooleanAlgebra
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.algebra.full_mask:
            raise DomainMismatchError(
                f"mask {self.mask} outside algebra with {self.algebra.atom_count} atoms"
            )

    @property
    def atoms(self):
        return frozenset(bit_indices(self.mask))

    @property
    def is_zero(self):
        return self.mask == 0

    @property
    def is_one(self):
        return self.mask == self.algebra.full_mask

    def _same(self, other):
        if not isinstance(other, Element) or other.algebra != self.algebra:
            raise DomainMismatchError("operands belong to different algebras")

    def join(self, other):
        self._same(other)
        return Element(self.algebra, self.mask | other.mask)

    def meet(self, other):
        self._same(other)
        return Element(self.algebra, self.mask & other.mask)

    def complement(self):
        return Element(self.algebra, self.algebra.full_mask ^ self.mask)

    def leq(self, other):
        self._same(other)
        return self.mask | other.mask == other.mask

    __add__ = join
    __mul__ = meet
    __invert__ = complement
    __le__ = leq

    def __repr__(self):
        return f"Element({self.algebra.atom_count}, 0b{self.mask:0{max(self.algebra.atom_count, 1)}b})"


@dataclass(frozen=True)
class ElementFamily:
    """A finite set of elements tagged with what it claims to be.

    The tags ``filter``, ``ultrafilter`` and ``grill`` are verified on
    construction; ``clan-candidate`` and ``arbitrary`` are not.
    """

    algebra: FiniteBooleanAlgebra
    members: frozenset
    kind: str = "arbitrary"

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise PreconditionError(f"unknown family kind {self.kind!r}")
        for e in self.members:
            if e.algebra != self.algebra:
                raise DomainMismatchError("family member from a different algebra")
        if self.kind in ("filter", "ultrafilter", "grill") and not is_family(
            self.kind, self.algebra, self.members
        ):
            raise PreconditionError(f"member set is not a {self.kind}")

    @property
    def member_masks(self):
        return frozenset(e.mask for e in self.members)

    def __contains__(self, element):
        return element in self.members


def _upward_closed(size, masks):
    for m in masks:
        rest = (size - 1) ^ m
        extra = rest
        while True:
            if (m | extra) not in masks:
                return False
            if extra == 0:
                break
            extra = (extra - 1) & rest
    return True


def _is_grill(size, masks):
    """Nonempty, 0-free, upward closed, and a + b inside forces a or b
    inside.  The complement of an up-set is a down-set, and the last
    condition says it is closed under joins, which for a down-set holds
    iff it holds its own join: O(2**n) instead of the pair sweep."""
    if not masks or 0 in masks or not _upward_closed(size, masks):
        return False
    return reduce(or_, (m for m in range(size) if m not in masks), 0) not in masks


def is_family(kind, algebra, members):
    """Decide whether ``members`` satisfies the invariants of ``kind``.

    filter: contains 1, excludes 0, upward closed, closed under meet.
    ultrafilter: a filter that contains a or a* for every a.
    grill: nonempty, excludes 0, upward closed, and a+b inside forces
    a or b inside.
    """
    require_enum_width(algebra.atom_count)
    masks = frozenset(e.mask for e in members)
    full = algebra.full_mask
    size = algebra.size
    if kind == "filter" or kind == "ultrafilter":
        if full not in masks or 0 in masks:
            return False
        if not _upward_closed(size, masks):
            return False
        if any((a & b) not in masks for a in masks for b in masks):
            return False
        if kind == "ultrafilter":
            return all(a in masks or (full ^ a) in masks for a in range(size))
        return True
    if kind == "grill":
        return _is_grill(size, masks)
    raise PreconditionError(f"is_family does not check kind {kind!r}")


def principal_ultrafilter(algebra, atom_index):
    """All elements above the given atom, tagged as an ultrafilter."""
    require_enum_width(algebra.atom_count)
    bit = 1 << atom_index
    members = frozenset(
        Element(algebra, m) for m in range(algebra.size) if m & bit
    )
    return ElementFamily(algebra, members, "ultrafilter")


def ultrafilters(algebra):
    """All ultrafilters, ordered by their atom index; empty when degenerate."""
    return [principal_ultrafilter(algebra, p) for p in range(algebra.atom_count)]


def stone_map(algebra, element):
    """The ultrafilters containing ``element``; a Boolean isomorphism onto
    the clopen algebra of the finite Stone space."""
    if element.algebra != algebra:
        raise DomainMismatchError("element from a different algebra")
    return frozenset(principal_ultrafilter(algebra, p) for p in bit_indices(element.mask))


def grill_from_support(algebra, support_mask):
    """The grill that is the union of the ultrafilters of ``support_mask``."""
    require_enum_width(algebra.atom_count)
    if support_mask == 0:
        raise PreconditionError("a grill needs a nonempty atom support")
    members = frozenset(
        Element(algebra, m) for m in range(algebra.size) if m & support_mask
    )
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
    masks = grill_family.member_masks
    return mask_of(
        p for p in range(grill_family.algebra.atom_count) if (1 << p) in masks
    )


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
    stem = reduce(lambda a, b: a & b, filter_family.member_masks)
    support = grill_support(grill_family)
    for p in bit_indices(stem & support):
        return principal_ultrafilter(algebra, p)
    raise PreconditionError("no ultrafilter between the given filter and grill")


@dataclass(frozen=True)
class BooleanHom:
    """A Boolean homomorphism between finite algebras.

    Determined by a total map from target atoms back to source atoms:
    apply(a) = { q : atom_map[q] in a }.  This preserves 0, 1, join,
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

    @cached_property
    def _atom_images(self):
        # _atom_images[p] = mask of target atoms that pull back to source atom p
        out = [0] * self.source.atom_count
        for q, p in enumerate(self.atom_map):
            out[p] |= 1 << q
        return tuple(out)

    def apply_mask(self, mask):
        return join_at(self._atom_images, mask)

    def apply(self, element):
        if element.algebra != self.source:
            raise DomainMismatchError("element not in the hom's source algebra")
        return Element(self.target, self.apply_mask(element.mask))


def hom_from_atom_map(source, target, atom_map):
    return BooleanHom(source, target, tuple(atom_map))


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
