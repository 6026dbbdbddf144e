"""Precontact relations on finite Boolean algebras.

A relation satisfying (C0) and (C+) on a finite powerset algebra is
completely determined by its restriction to atom pairs, so relations are
stored canonically as atom-pair kernels and the element-level relation
is always derived:

    a C b  iff  some kernel pair (p, q) has p in a and q in b.

Axiom checks decide exactly over the carrier, never by sampling; every
reduction is tested against the literal quantifiers in `tests/oracles.py`.
They are the ground truth the rest of the package is tested against.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .boolean import (
    BooleanHom,
    Element,
    FiniteBooleanAlgebra,
    _upward_closed,
    bit_indices,
    joins_table,
    mask_of,
)
from .config import require_enum_width
from .errors import (
    AxiomViolationError,
    DomainMismatchError,
    InternalError,
    PreconditionError,
)


@dataclass(frozen=True)
class RelationKernel:
    """Atom-pair kernel of a precontact relation; satisfies (C0) and (C+)
    by construction."""

    algebra: FiniteBooleanAlgebra
    pairs: frozenset

    def __post_init__(self):
        n = self.algebra.atom_count
        for p, q in self.pairs:
            if not (0 <= p < n and 0 <= q < n):
                raise DomainMismatchError(f"kernel pair ({p}, {q}) out of range")

    @cached_property
    def _succ(self):
        # _succ[p] = mask of atoms q with (p, q) in the kernel
        out = [0] * self.algebra.atom_count
        for p, q in self.pairs:
            out[p] |= 1 << q
        return tuple(out)

    def holds_masks(self, a_mask, b_mask):
        succ = self._succ
        return any(succ[p] & b_mask for p in bit_indices(a_mask))

    def forward_table(self):
        """table[a] = mask of atoms q reachable from the atoms of a; then
        a C b iff table[a] & b != 0.  Size 2**n."""
        return joins_table(self._succ)

    @property
    def is_symmetric(self):
        return all((q, p) in self.pairs for p, q in self.pairs)

    @property
    def is_reflexive(self):
        return all((p, p) in self.pairs for p in range(self.algebra.atom_count))

    @property
    def is_transitive(self):
        return all(
            (p, r) in self.pairs
            for p, q in self.pairs
            for q2, r in self.pairs
            if q2 == q
        )

    def transpose(self):
        return RelationKernel(self.algebra, frozenset((q, p) for p, q in self.pairs))


@dataclass(frozen=True)
class RawRelation:
    """An unvalidated element-level relation: ordered pairs of element masks."""

    algebra: FiniteBooleanAlgebra
    pairs: frozenset


@dataclass(frozen=True)
class RelationAxioms:
    """Exactly computed axiom flags for one precontact algebra."""

    cref: bool
    csym: bool
    ctr: bool
    ctr_sharp: bool
    ccon: bool
    c6: bool

    @property
    def is_contact(self):
        return self.cref and self.csym

    @property
    def is_normal_contact(self):
        return self.is_contact and self.ctr_sharp and self.c6

    def as_dict(self):
        return {
            "Cref": self.cref,
            "Csym": self.csym,
            "Ctr": self.ctr,
            "Ctr#": self.ctr_sharp,
            "Ccon": self.ccon,
            "C6": self.c6,
            "is_contact": self.is_contact,
            "is_normal_contact": self.is_normal_contact,
        }


@dataclass(frozen=True)
class PrecontactAlgebra:
    """A finite Boolean algebra with a precontact relation kernel."""

    algebra: FiniteBooleanAlgebra
    kernel: RelationKernel

    def __post_init__(self):
        if self.kernel.algebra != self.algebra:
            raise DomainMismatchError("kernel belongs to a different algebra")

    @cached_property
    def axioms(self):
        return axiom_report(self)

    @cached_property
    def _clan_supports(self):
        # clan_supports, computed once per object
        require_enum_width(self.algebra.atom_count)
        # adj[p]: the atoms related to p under the contact closure, which
        # is reflexive and symmetric.  So m is a clique iff m ^ low is one
        # and every atom of m is adjacent to its lowest atom: one pass in
        # ascending order decides all 2**n masks.
        adj = contact_closure(self).kernel._succ
        clique = bytearray(self.algebra.size)
        clique[0] = 1
        out = []
        for m in range(1, self.algebra.size):
            low = m & -m
            if clique[m ^ low] and not m & ~adj[low.bit_length() - 1]:
                clique[m] = 1
                out.append(m)
        out.sort(key=lambda m: (m.bit_count(), tuple(bit_indices(m))))
        return tuple(out)

    def __getstate__(self):
        # the dual triple is held weakly (see memo.remember), and a weak
        # reference does not pickle
        return {
            k: v for k, v in self.__dict__.items() if not isinstance(v, weakref.ref)
        }

    def contact(self, a, b):
        if a.algebra != self.algebra or b.algebra != self.algebra:
            raise DomainMismatchError("elements from a different algebra")
        return self.kernel.holds_masks(a.mask, b.mask)

    def holds_masks(self, a_mask, b_mask):
        return self.kernel.holds_masks(a_mask, b_mask)


def pca_from_pairs(atom_count, pairs):
    algebra = FiniteBooleanAlgebra(atom_count)
    return PrecontactAlgebra(algebra, RelationKernel(algebra, frozenset(pairs)))


def _nonzero_meets(n):
    """hits[s] = the set of elements b with b & s != 0, as a bitmask over
    the 2**n elements (bit b set).  Size 2**n."""
    size = 1 << n
    hits = [0] * size
    for q in range(n):
        atom = 1 << q
        hits[atom] = sum(1 << b for b in range(size) if b & atom)
    for s in range(1, size):
        low = s & -s
        if s != low:
            hits[s] = hits[s ^ low] | hits[low]
    return hits


def _atoms_in(row, n):
    """The atoms q whose singleton 1 << q is a member of the element
    bitmask ``row``, as an atom mask."""
    out = 0
    for q in range(n):
        if row >> (1 << q) & 1:
            out |= 1 << q
    return out


def _first_cplus_witness(rel, size):
    """The lexicographically first triple (a, b, c) breaking (C+) on the
    literal relation, or None."""
    for a in range(size):
        for b in range(size):
            ab = (a, b) in rel
            for c in range(size):
                if ((a, b | c) in rel) != (ab or (a, c) in rel):
                    return a, b, c
                if ((b | c, a) in rel) != ((b, a) in rel or (c, a) in rel):
                    return a, b, c
    return None


def normalize_relation(raw):
    """Validate (C0) and (C+) on the full carrier and return the unique
    kernel reproducing the relation.

    Raises AxiomViolationError with a concrete witness pair for (C0) or a
    witness triple (a, b, c) for (C+), and DomainMismatchError for a pair
    outside the algebra.

    Reduction, O(4**n) instead of the 8**n triple sweep: write row[a]
    for the set of b with a C b, col[b] for the set of a with a C b,
    S_a for the atoms q with a C {q} and T_b for the atoms p with
    {p} C b.  Under (C0), (C+) holds iff row[a] = {b : b & S_a != 0}
    and col[b] = {a : a & T_b != 0} for every a and b.  Proof: (C0)
    and (C+) make each row and each column a join-preserving map into
    {0, 1} sending 0 to 0, which is fixed by its value on the atoms;
    conversely a row of that form is additive in b, and a column of
    that form in a.  The same two forms prove the kernel round trip:
    a C b iff a & T_b != 0 iff some atom p of a has b & S_{p} != 0 iff
    b meets the kernel's forward table at a.  On failure the literal
    triple search names the lexicographically first witness.
    """
    algebra = raw.algebra
    n = algebra.atom_count
    require_enum_width(n)
    rel = raw.pairs
    size = algebra.size
    full = algebra.full_mask
    row = [0] * size
    col = [0] * size
    outside = None
    for a, b in rel:
        if a == 0 or b == 0:
            raise AxiomViolationError("(C0)", (a, b))
        if not (0 <= a <= full and 0 <= b <= full):
            outside = (a, b)
            continue
        row[a] |= 1 << b
        col[b] |= 1 << a
    if outside is not None:
        raise DomainMismatchError(
            f"relation pair {outside} outside algebra with {n} atoms"
        )
    hits = _nonzero_meets(n)
    row_atoms = [_atoms_in(r, n) for r in row]
    if any(row[a] != hits[row_atoms[a]] for a in range(size)) or any(
        c != hits[_atoms_in(c, n)] for c in col
    ):
        witness = _first_cplus_witness(rel, size)
        if witness is None:
            raise InternalError("(C+) fails on rows or columns but no triple breaks it")
        raise AxiomViolationError("(C+)", witness)
    kernel = RelationKernel(
        algebra,
        frozenset((p, q) for p in range(n) for q in bit_indices(row_atoms[1 << p])),
    )
    table = kernel.forward_table()
    if any(row[a] != hits[table[a]] for a in range(size)):
        raise InternalError("kernel round trip failed")
    return kernel


def expand_kernel(kernel):
    """The full element-level relation of a kernel, as a RawRelation."""
    algebra = kernel.algebra
    require_enum_width(algebra.atom_count)
    table = kernel.forward_table()
    pairs = frozenset(
        (a, b)
        for a in range(algebra.size)
        for b in range(algebra.size)
        if table[a] & b
    )
    return RawRelation(algebra, pairs)


def contact_closure(pca):
    """The smallest contact relation containing the given precontact one:
    symmetrize the kernel and add the diagonal (overlap) pairs."""
    kernel = pca.kernel
    n = pca.algebra.atom_count
    closed = set(kernel.pairs)
    closed.update((q, p) for p, q in kernel.pairs)
    closed.update((p, p) for p in range(n))
    return PrecontactAlgebra(pca.algebra, RelationKernel(pca.algebra, frozenset(closed)))


def smallest_contact(algebra):
    """Overlap contact: a C b iff a.b != 0; kernel is the atom diagonal."""
    pairs = frozenset((p, p) for p in range(algebra.atom_count))
    return PrecontactAlgebra(algebra, RelationKernel(algebra, pairs))


def largest_contact(algebra):
    """a C b iff both are nonzero; kernel is every atom pair."""
    n = algebra.atom_count
    pairs = frozenset((p, q) for p in range(n) for q in range(n))
    return PrecontactAlgebra(algebra, RelationKernel(algebra, pairs))


def well_inside(pca, a, b):
    """Non-tangential inclusion: a is well inside b iff a is not in
    contact with the complement of b."""
    if a.algebra != pca.algebra or b.algebra != pca.algebra:
        raise DomainMismatchError("elements from a different algebra")
    return not pca.kernel.holds_masks(a.mask, pca.algebra.full_mask ^ b.mask)


def well_inside_pairs(pca):
    """All mask pairs (a, b) with a well inside b."""
    algebra = pca.algebra
    require_enum_width(algebra.atom_count)
    table = pca.kernel.forward_table()
    full = algebra.full_mask
    return frozenset(
        (a, b)
        for a in range(algebra.size)
        for b in range(algebra.size)
        if not table[a] & (full ^ b)
    )


@dataclass(frozen=True)
class WellInsideAxioms:
    """Axioms of the well-inside relation, each decided exactly.

    Tags (<<1)..(<<7) plus the derived forms (<<2') and (<<4').  The set
    {(<<2), (<<2'), (<<3), (<<4), (<<4')} characterises the relations
    whose induced contact is a precontact relation.
    """

    ax1: bool
    ax2: bool
    ax2_prime: bool
    ax3: bool
    ax4: bool
    ax4_prime: bool
    ax5: bool
    ax6: bool
    ax7: bool

    @property
    def defines_precontact(self):
        return self.ax2 and self.ax2_prime and self.ax3 and self.ax4 and self.ax4_prime

    def as_dict(self):
        return {
            "<<1": self.ax1,
            "<<2": self.ax2,
            "<<2'": self.ax2_prime,
            "<<3": self.ax3,
            "<<4": self.ax4,
            "<<4'": self.ax4_prime,
            "<<5": self.ax5,
            "<<6": self.ax6,
            "<<7": self.ax7,
            "defines_precontact": self.defines_precontact,
        }


def well_inside_axiom_report(algebra, pairs):
    """Flags for (<<1)..(<<7), (<<2') and (<<4') on an explicit relation,
    each decided exactly over the carrier.

    Reductions, with below[a] = {b : a << b} and above[c] = {a : a << c}
    built in one pass over the pairs:

    * (<<3) holds iff every pair stays related after removing one atom
      from its left side or adding one atom to its right side, which
      takes O(|rel| n): any smaller left side and larger right side is
      reached by such moves, each from a related pair.
    * When (<<3) holds, below[a] is an up-set, so it is closed under
      meets iff it contains its own meet (every meet of two members lies
      above that one), and (<<4) is O(4**n).  Dually above[c] is a
      down-set and (<<4') reduces to the join of above[c].  When (<<3)
      fails, (<<4) and (<<4') are checked on every pair of members.
    * (<<5) asks below[a] and above[c] to meet, and (<<6) asks above[a]
      to hold a nonzero element: bitmask tests over the elements.
    """
    n = algebra.atom_count
    require_enum_width(n)
    size = algebra.size
    full = algebra.full_mask
    rel = frozenset(pairs)
    below = [0] * size
    above = [0] * size
    for a, b in rel:
        if not (0 <= a <= full and 0 <= b <= full):
            raise DomainMismatchError(
                f"well-inside pair {(a, b)} outside algebra with {n} atoms"
            )
        below[a] |= 1 << b
        above[b] |= 1 << a

    ax1 = all(a | b == b for a, b in rel)
    ax2 = (0, 0) in rel
    ax2_prime = (full, full) in rel
    ax3 = all(
        all((b ^ 1 << p, c) in rel for p in bit_indices(b))
        and all((b, c | 1 << q) in rel for q in bit_indices(full ^ c))
        for b, c in rel
    )
    below_sets = [tuple(bit_indices(m)) for m in below]
    above_sets = [tuple(bit_indices(m)) for m in above]
    if ax3:
        ax4 = all(
            below[a] >> reduce(and_, below_sets[a], full) & 1
            for a in range(size)
            if below[a]
        )
        ax4_prime = all(
            above[c] >> reduce(or_, above_sets[c], 0) & 1
            for c in range(size)
            if above[c]
        )
    else:
        ax4 = all(
            (a, x & y) in rel
            for a in range(size)
            for x in below_sets[a]
            for y in below_sets[a]
        )
        ax4_prime = all(
            (x | y, c) in rel
            for c in range(size)
            for x in above_sets[c]
            for y in above_sets[c]
        )
    ax5 = all(below[a] & above[c] for a, c in rel)
    ax6 = all(above[a] >> 1 for a in range(1, size))
    ax7 = all((full ^ b, full ^ a) in rel for a, b in rel)
    return WellInsideAxioms(ax1, ax2, ax2_prime, ax3, ax4, ax4_prime, ax5, ax6, ax7)


def contact_from_well_inside(algebra, pairs):
    """Invert interdefinability: a C b iff a is not well inside b*.

    The pairs must satisfy the precontact-defining well-inside axioms;
    the round trip through ``well_inside_pairs`` is the identity.
    """
    report = well_inside_axiom_report(algebra, pairs)
    for tag, okay in (
        ("(<<2)", report.ax2),
        ("(<<2')", report.ax2_prime),
        ("(<<3)", report.ax3),
        ("(<<4)", report.ax4),
        ("(<<4')", report.ax4_prime),
    ):
        if not okay:
            raise AxiomViolationError(tag)
    rel = frozenset(pairs)
    full = algebra.full_mask
    contact = frozenset(
        (a, b)
        for a in range(algebra.size)
        for b in range(algebra.size)
        if (a, full ^ b) not in rel
    )
    return normalize_relation(RawRelation(algebra, contact))


def axiom_report(pca):
    """Flags for (Cref), (Csym), (Ctr), (Ctr#), (Ccon), (C6), each decided
    exactly over the whole carrier.

    (Ctr) and (Ctr#) interpolate through the well-inside relation of C
    and of its contact closure.  With tab the forward table, a << c iff
    tab[a] <= c, and tab is monotone, so tab[a] is the smallest
    candidate interpolant.  Hence some b has a << b << c iff
    tab[tab[a]] <= c, and the axiom holds iff tab[tab[a]] <= tab[a]
    for every a (take c = tab[a]): O(2**n) instead of O(8**n).
    """
    algebra = pca.algebra
    require_enum_width(algebra.atom_count)
    size = algebra.size
    full = algebra.full_mask
    table = pca.kernel.forward_table()
    sharp_table = contact_closure(pca).kernel.forward_table()

    cref = all(table[a] & a for a in range(1, size))
    csym = all(
        not (table[a] & b) or (table[b] & a) for a in range(size) for b in range(size)
    )

    def interpolates(tab):
        return all(tab[tab[a]] | tab[a] == tab[a] for a in range(size))

    ctr = interpolates(table)
    ctr_sharp = interpolates(sharp_table)
    ccon = all(
        table[a] & (full ^ a) or table[full ^ a] & a for a in range(1, full)
    )
    c6 = all(
        any(b != 0 and not (table[b] & a) for b in range(size))
        for a in range(size)
        if a != full
    )
    return RelationAxioms(cref, csym, ctr, ctr_sharp, ccon, c6)


@dataclass(frozen=True)
class Clan:
    """A clan stored by its atom support; the member set is the upward
    closure of the support's atoms."""

    algebra: FiniteBooleanAlgebra
    support: frozenset

    def __post_init__(self):
        if not self.support:
            raise PreconditionError("a clan has a nonempty atom support")
        for p in self.support:
            if not 0 <= p < self.algebra.atom_count:
                raise DomainMismatchError(f"atom index {p} out of range")

    @property
    def support_mask(self):
        return mask_of(self.support)

    def contains_mask(self, mask):
        return bool(mask & self.support_mask)

    def member_masks(self):
        smask = self.support_mask
        return frozenset(m for m in range(self.algebra.size) if m & smask)


def clan_supports(pca):
    """Supports of all clans: nonempty atom sets pairwise related under
    the contact-closure kernel, in (size, atoms) order.  Computed once
    per object; each call returns a fresh list."""
    return list(pca._clan_supports)


def clans(pca):
    return [Clan(pca.algebra, frozenset(bit_indices(m))) for m in clan_supports(pca)]


def is_clan(pca, members):
    """Literal check of the four clan conditions on an explicit element set."""
    algebra = pca.algebra
    require_enum_width(algebra.atom_count)
    masks = frozenset(e.mask if isinstance(e, Element) else e for e in members)
    if not masks or 0 in masks:
        return False
    size = algebra.size
    if not _upward_closed(size, masks):
        return False
    for a in range(size):
        for b in range(size):
            if (a | b) in masks and a not in masks and b not in masks:
                return False
    sharp = contact_closure(pca)
    return all(sharp.holds_masks(a, b) for a in masks for b in masks)


def restrict_relation(pca, blocks):
    """The subalgebra generated by a partition of the atoms, with the
    relation cut down to it.  Blocks become the atoms of the result."""
    n = pca.algebra.atom_count
    block_masks = []
    seen = 0
    for block in blocks:
        m = mask_of(block)
        if m == 0 or (m & seen) or m > pca.algebra.full_mask:
            raise DomainMismatchError("blocks must be nonempty, disjoint atom sets")
        seen |= m
        block_masks.append(m)
    if seen != pca.algebra.full_mask:
        raise DomainMismatchError("blocks must cover every atom")
    k = len(block_masks)
    pairs = frozenset(
        (i, j)
        for i in range(k)
        for j in range(k)
        if pca.kernel.holds_masks(block_masks[i], block_masks[j])
    )
    sub = FiniteBooleanAlgebra(k)
    return PrecontactAlgebra(sub, RelationKernel(sub, pairs))


def restrict_clan_support(blocks, support_mask):
    """Image of a clan support under a partition restriction."""
    return frozenset(
        i for i, block in enumerate(blocks) if mask_of(block) & support_mask
    )


@dataclass(frozen=True)
class PcaMorphism:
    """A Boolean hom h with: h(a) C' h(b) implies a C b, for all a, b."""

    hom: BooleanHom
    source: PrecontactAlgebra
    target: PrecontactAlgebra

    def __post_init__(self):
        if self.hom.source != self.source.algebra or self.hom.target != self.target.algebra:
            raise DomainMismatchError("hom does not match the given algebras")
        if not is_pca_morphism(self.hom, self.source, self.target):
            raise PreconditionError("the hom does not reflect the contact relation")


def is_pca_morphism(hom, source_pca, target_pca):
    """Exhaustive check of the reflection condition over all element pairs."""
    if hom.source != source_pca.algebra or hom.target != target_pca.algebra:
        raise DomainMismatchError("hom does not match the given algebras")
    require_enum_width(source_pca.algebra.atom_count)
    size = source_pca.algebra.size
    src_table = source_pca.kernel.forward_table()
    dst_table = target_pca.kernel.forward_table()
    images = [hom.apply_mask(a) for a in range(size)]
    for a in range(size):
        ia = images[a]
        for b in range(size):
            if dst_table[ia] & images[b] and not src_table[a] & b:
                return False
    return True


def is_pca_morphism_on_kernel(hom, source_pca, target_pca):
    """Equivalent kernel-level form: every target kernel pair pulls back
    into the source kernel along the atom map."""
    amap = hom.atom_map
    src = source_pca.kernel.pairs
    return all((amap[p], amap[q]) in src for p, q in target_pca.kernel.pairs)
