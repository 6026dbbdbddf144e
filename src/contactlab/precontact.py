"""Precontact relations on finite Boolean algebras.

A relation satisfying (C0) and (C+) on a finite powerset algebra is
completely determined by its restriction to atom pairs, so relations are
stored canonically as atom-pair kernels and the element-level relation
is always derived:

    a C b  iff  some kernel pair (p, q) has p in a and q in b.

Element-level relations (a raw relation to normalize, a well-inside
relation, the contact read back from one) are held as rows of bitsets:
2**n Python ints, bit b of rows[a] meaning a R b, packed into one
4**n-bit matrix where a check reads every row at once.  Sets of element
pairs appear only where a public function takes or returns them, and are
converted once there.  The well-inside relation of an algebra is also
held in a unary form, its n values on the atoms (`well_inside_atoms`),
where its flags and the inverse of interdefinability take O(n**2).

Axiom checks decide exactly over the carrier, never by sampling; every
reduction is proved next to its code and tested against the literal
quantifiers in `tests/oracles.py`.  They are the ground truth the rest
of the package is tested against.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import NamedTuple

from .boolean import (
    BooleanHom,
    Element,
    FiniteBooleanAlgebra,
    _is_grill,
    bit_indices,
    join_at,
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
        return clique_supports(_closure_succ(self.kernel))

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


def clique_supports(adj):
    """The nonempty cliques of a reflexive and symmetric adjacency on
    len(adj) atoms (adj[p]: the mask of the atoms adjacent to p), in
    (size, atoms) order.  Under the contact closure's adjacency these
    are the clan supports."""
    # m is a clique iff m ^ low is one and every atom of m is adjacent to
    # its lowest atom: one pass in ascending order decides all masks.
    # rev[m] is the clique m with its n bits reversed (-1 off the
    # cliques).  Two atom sets of one size first differ, in ascending
    # order, at the lowest bit of a ^ b, and the set holding it comes
    # first: that bit is the highest of rev[a] ^ rev[b], so the larger
    # rev comes first.
    n = len(adj)
    size = 1 << n
    rev = [-1] * size
    rev[0] = 0
    out = []
    for m in range(1, size):
        low = m & -m
        p = low.bit_length() - 1
        if rev[m ^ low] >= 0 and not m & ~adj[p]:
            rev[m] = rev[m ^ low] | 1 << (n - 1 - p)
            out.append(m)
    out.sort(key=lambda m: (m.bit_count(), -rev[m]))
    return tuple(out)


def pca_from_pairs(atom_count, pairs):
    algebra = FiniteBooleanAlgebra(atom_count)
    return PrecontactAlgebra(algebra, RelationKernel(algebra, frozenset(pairs)))


class _RowTables(NamedTuple):
    """Constants of the row form for one atom count n, with size = 2**n.

    A relation is held as ``size`` rows: bit b of rows[a] means a R b.
    Packed into one matrix of size**2 bits, the pair (a, b) sits at bit
    i = a * size + b, so index bits 0..n-1 are the atoms of b and bits
    n..2n-1 those of a.
    """

    row: int  # the full row, every b
    everything: int  # the full matrix, every (a, b)
    hits: list  # hits[s]: the b with b & s != 0
    up: list  # up[m]: the b containing m
    order: int  # the matrix of inclusion, a <= b
    bits: tuple  # bits[j]: the matrix positions whose index bit j is set
    swaps: tuple  # swaps[j]: bit j set and bit n + j clear, for transposing


@lru_cache(maxsize=4)
def _row_tables(n):
    # Keyed on the atom count alone.  Every constant is a bit pattern
    # built by doubling: bits[j] repeats 2**j zeros then 2**j ones, and
    # each entry of hits and up is one join or meet of two earlier ones.
    size = 1 << n
    span = size * size
    bits = []
    for j in range(2 * n):
        width = 1 << j
        pattern, period = ((1 << width) - 1) << width, 2 * width
        while period < span:
            pattern |= pattern << period
            period *= 2
        bits.append(pattern)
    row = (1 << size) - 1
    hits, up = [0] * size, [row] * size
    for m in range(1, size):
        low = m & -m
        if m == low:
            hits[m] = up[m] = bits[low.bit_length() - 1] & row
        else:
            hits[m] = hits[m ^ low] | hits[low]
            up[m] = up[m ^ low] & up[low]
    return _RowTables(
        row=row,
        everything=(1 << span) - 1,
        hits=hits,
        up=up,
        order=_pack(up),
        bits=tuple(bits),
        swaps=tuple(bits[j] & ~bits[n + j] for j in range(n)),
    )


def _pack(rows):
    """The rows as one matrix of len(rows)**2 bits, row a at bit
    a * len(rows)."""
    size = len(rows)
    if size < 8:
        return sum(r << (a * size) for a, r in enumerate(rows))
    width = size >> 3
    return int.from_bytes(b"".join(r.to_bytes(width, "little") for r in rows), "little")


def _unpack(matrix, size):
    """The ``size`` rows of a packed matrix."""
    if size < 8:
        row = (1 << size) - 1
        return [matrix >> (a * size) & row for a in range(size)]
    width = size >> 3
    data = matrix.to_bytes(width * size, "little")
    return [
        int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)
    ]


def _flip(matrix, bits, indices):
    """The matrix with the given index bits complemented: for each j, the
    blocks of 2**j positions with bit j clear and set trade places."""
    for j in indices:
        shift = 1 << j
        matrix = (matrix & bits[j]) >> shift | (matrix & ~bits[j]) << shift
    return matrix


def _transpose(matrix, tables, n):
    """(a, b) -> (b, a): index bits j and n + j exchanged by delta swaps."""
    for j, mask in enumerate(tables.swaps):
        shift = (1 << (n + j)) - (1 << j)
        t = (matrix >> shift ^ matrix) & mask
        matrix ^= t ^ t << shift
    return matrix


def _rows_of_pairs(algebra, pairs, what):
    """Rows of an explicit relation; a pair outside the algebra raises
    DomainMismatchError, naming the first one met."""
    full = algebra.full_mask
    rows = [0] * algebra.size
    for a, b in frozenset(pairs):
        if not (0 <= a <= full and 0 <= b <= full):
            raise DomainMismatchError(
                f"{what} pair {(a, b)} outside algebra with {algebra.atom_count} atoms"
            )
        rows[a] |= 1 << b
    return rows


def _pairs_of_rows(rows):
    return frozenset((a, b) for a, row in enumerate(rows) for b in bit_indices(row))


def _atoms_in(row, n):
    """The atoms q whose singleton 1 << q is a member of the element
    bitmask ``row``, as an atom mask."""
    out = 0
    for q in range(n):
        if row >> (1 << q) & 1:
            out |= 1 << q
    return out


def _first_cplus_witness(rows):
    """The lexicographically first triple (a, b, c) breaking (C+) on the
    literal relation, or None."""
    size = len(rows)
    for a in range(size):
        row = rows[a]
        for b in range(size):
            for c in range(size):
                if row >> (b | c) & 1 != (row >> b | row >> c) & 1:
                    return a, b, c
                if rows[b | c] >> a & 1 != (rows[b] | rows[c]) >> a & 1:
                    return a, b, c
    return None


def _kernel_of_rows(algebra, rows):
    """The kernel of a relation given by rows that satisfy (C0), after
    deciding (C+); AxiomViolationError names the first breaking triple.

    Reduction, O(2**n) row comparisons instead of the 8**n triple sweep:
    write S_a for the atoms q with a C {q}.  Under (C0), (C+) holds iff
    rows[a] = hits[S_a] for every a and S is a join-homomorphism.  Proof:
    (C0) and (C+) make each row and each column a join-preserving map
    into {0, 1} sending 0 to 0, which is fixed by its value on the atoms,
    so rows[a] = hits[S_a]; and then the columns are additive iff
    S_{b | c} = S_b | S_c, as the atoms tell the sets S apart.
    Conversely rows of that form are additive in b, and with S additive
    in a.  S is a join-homomorphism with S_0 = 0 iff it is the joins
    table of its atom values, the kernel's forward table, so both halves
    are the single test rows == hits[table].  On failure the literal
    triple search names the lexicographically first witness.
    """
    n = algebra.atom_count
    succ = [_atoms_in(rows[1 << p], n) for p in range(n)]
    hits = _row_tables(n).hits
    if rows != [hits[t] for t in joins_table(succ)]:
        witness = _first_cplus_witness(rows)
        if witness is None:
            raise InternalError("(C+) fails on the rows but no triple breaks it")
        raise AxiomViolationError("(C+)", witness)
    return RelationKernel(
        algebra, frozenset((p, q) for p in range(n) for q in bit_indices(succ[p]))
    )


def normalize_relation(raw):
    """Validate (C0) and (C+) on the full carrier and return the unique
    kernel reproducing the relation.

    Raises AxiomViolationError with a concrete witness pair for (C0) or a
    witness triple (a, b, c) for (C+), and DomainMismatchError for a pair
    outside the algebra.  The pairs are read into rows once; (C+) is
    decided on the rows (see `_kernel_of_rows`).
    """
    algebra = raw.algebra
    n = algebra.atom_count
    require_enum_width(n)
    full = algebra.full_mask
    rows = [0] * algebra.size
    outside = None
    for a, b in raw.pairs:
        if a == 0 or b == 0:
            raise AxiomViolationError("(C0)", (a, b))
        if not (0 <= a <= full and 0 <= b <= full):
            outside = (a, b)
            continue
        rows[a] |= 1 << b
    if outside is not None:
        raise DomainMismatchError(
            f"relation pair {outside} outside algebra with {n} atoms"
        )
    return _kernel_of_rows(algebra, rows)


def expand_kernel(kernel):
    """The full element-level relation of a kernel, as a RawRelation:
    a C b iff the forward table at a meets b, so rows[a] = hits[table[a]]."""
    n = kernel.algebra.atom_count
    require_enum_width(n)
    hits = _row_tables(n).hits
    return RawRelation(
        kernel.algebra, _pairs_of_rows([hits[t] for t in kernel.forward_table()])
    )


def _closure_succ(kernel):
    """The atom rows of the contact closure of the kernel: row p holds p,
    the successors of p and the atoms that have p as a successor.  The
    clans, (Ctr#) and the round trip read the closure in this form; the
    closed kernel's pair set is built only by `contact_closure`."""
    succ = kernel._succ
    rows = [s | 1 << p for p, s in enumerate(succ)]
    for p, s in enumerate(succ):
        while s:
            low = s & -s
            rows[low.bit_length() - 1] |= 1 << p
            s ^= low
    return rows


def contact_closure(pca):
    """The smallest contact relation containing the given precontact one:
    symmetrize the kernel and add the diagonal (overlap) pairs."""
    pairs = frozenset(
        (p, q) for p, row in enumerate(_closure_succ(pca.kernel)) for q in bit_indices(row)
    )
    return PrecontactAlgebra(pca.algebra, RelationKernel(pca.algebra, pairs))


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


def well_inside_rows(pca):
    """below[a] = the elements b with a well inside b, as 2**n bitsets.

    a << b iff tab[a] & b* = 0 iff tab[a] <= b, with tab the forward
    table, so below[a] = up[tab[a]].
    """
    n = pca.algebra.atom_count
    require_enum_width(n)
    up = _row_tables(n).up
    return [up[t] for t in pca.kernel.forward_table()]


def well_inside_pairs(pca):
    """All mask pairs (a, b) with a well inside b."""
    return _pairs_of_rows(well_inside_rows(pca))


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
    each decided exactly over the carrier (see `_well_inside_flags`)."""
    n = algebra.atom_count
    require_enum_width(n)
    below = _rows_of_pairs(algebra, pairs, "well-inside")
    return _well_inside_flags(n, below)


def _well_inside_flags(n, below):
    """The nine well-inside flags of the relation with rows ``below``,
    below[a] = {b : a << b}.

    Reductions, each O(n) operations on the matrix or O(2**n) on the
    rows; the literal row sweeps run only where (<<3) or (<<4) fails:

    * (<<1) is the matrix inside the inclusion matrix.
    * (<<3) holds iff every row is an up-set and below[a] lies inside
      below[a - p] for each atom p of a: any smaller left side and
      larger right side is reached by removing or adding one atom at a
      time.  On the matrix that is 2n shifted subset tests, one per
      index bit: add an atom of b, or remove an atom of a.
    * Given (<<3), a nonempty row is an up-set, so it is closed under
      meets iff it is up[m] for its numerically smallest member m:
      up[m] is a filter, and a member x not above m would put x & m,
      smaller than m, in a meet-closed row.  That decides (<<4).
    * Given (<<3), rows shrink as a grows, so below[a | b] lies inside
      below[a] & below[b], and (<<4') asks for equality: below is a
      join-to-meet map, which holds iff below[m] = below[m - low] &
      below[low] for every m, low its lowest atom.
    * Given (<<3) and (<<4), with below[a] = up[m]: a << b << c forces
      m << c by (<<3), and a << m, so (<<5) holds iff below[a] lies
      inside below[m].  Otherwise (<<5) asks each row to lie inside the
      join of the rows of its members.
    * (<<6) asks the join of the nonzero rows to hold every nonzero b.
    * (<<7) maps (a, b) to (b*, a*): complementing all 2n index bits
      and transposing; it holds iff the matrix lies inside its image.
    """
    tables = _row_tables(n)
    size = 1 << n
    full = size - 1
    up, bits = tables.up, tables.bits
    matrix = _pack(below)

    ax1 = not matrix & ~tables.order
    ax2 = bool(below[0] & 1)
    ax2_prime = bool(below[full] >> full & 1)
    ax3 = not any(
        ((matrix & ~bits[q]) << (1 << q)) & ~matrix for q in range(n)
    ) and not any(
        ((matrix & bits[n + p]) >> (size << p)) & ~matrix for p in range(n)
    )
    lowest = [(row & -row).bit_length() - 1 for row in below]
    if ax3:
        ax4 = all(row == up[m] for row, m in zip(below, lowest) if row)
        ax4_prime = all(
            below[m] == below[m ^ (m & -m)] & below[m & -m] for m in range(1, size)
        )
    else:
        ax4 = all(
            row >> (x & y) & 1
            for row in below
            for x in bit_indices(row)
            for y in bit_indices(row)
        )
        ax4_prime = not any(
            below[a] & below[b] & ~below[a | b] for a in range(size) for b in range(a)
        )
    if ax3 and ax4:
        ax5 = not any(row & ~below[m] for row, m in zip(below, lowest) if row)
    else:
        ax5 = not any(
            row & ~reduce(or_, (below[b] for b in bit_indices(row)), 0)
            for row in below
        )
    ax6 = reduce(or_, below[1:], 0) | 1 == tables.row
    image = _transpose(_flip(matrix, bits, range(2 * n)), tables, n)
    ax7 = not matrix & ~image
    return WellInsideAxioms(ax1, ax2, ax2_prime, ax3, ax4, ax4_prime, ax5, ax6, ax7)


def contact_from_well_inside_rows(algebra, below):
    """Invert interdefinability on rows: a C b iff not a << b*.

    ``below`` holds 2**n bitsets, below[a] = {b : a << b}, and must
    satisfy the precontact-defining axioms (<<2), (<<2'), (<<3), (<<4)
    and (<<4').  b -> b* reverses the order of the 2**n bits of a row,
    so the contact row of a is the complement of the bit-reversed
    below[a].  (C0) holds: (<<2) and (<<3) put every b in below[0], and
    (<<2') and (<<3) put 1 in every row.
    """
    n = algebra.atom_count
    require_enum_width(n)
    tables = _row_tables(n)
    if len(below) != algebra.size or not all(0 <= row <= tables.row for row in below):
        raise DomainMismatchError(f"expected {algebra.size} rows of {algebra.size} bits")
    report = _well_inside_flags(n, below)
    for tag, okay in (
        ("(<<2)", report.ax2),
        ("(<<2')", report.ax2_prime),
        ("(<<3)", report.ax3),
        ("(<<4)", report.ax4),
        ("(<<4')", report.ax4_prime),
    ):
        if not okay:
            raise AxiomViolationError(tag)
    contact = tables.everything ^ _flip(_pack(below), tables.bits, range(n))
    return _kernel_of_rows(algebra, _unpack(contact, algebra.size))


def contact_from_well_inside(algebra, pairs):
    """Invert interdefinability: a C b iff a is not well inside b*.

    The pairs must satisfy the precontact-defining well-inside axioms;
    the round trip through ``well_inside_pairs`` is the identity.
    """
    require_enum_width(algebra.atom_count)
    return contact_from_well_inside_rows(
        algebra, _rows_of_pairs(algebra, pairs, "well-inside")
    )


def well_inside_atoms(pca):
    """The unary form of the well-inside relation: m at the n atoms, the
    forward table's values on the singletons (the kernel's successors).

    With m extended to elements by joins, below[a] = up[m(a)] (see
    `well_inside_rows`), so m fixes the relation.  Every m of n atom
    masks is the unary form of the kernel p K q iff q in m(p)."""
    return pca.kernel._succ


def well_inside_atom_flags(m):
    """The nine well-inside flags of the relation with unary form ``m``,
    decided in O(n**2) at the atoms.

    With below[a] = up[m(a)] and m join-preserving:

    * (<<2), (<<2'), (<<3), (<<4) and (<<4') hold by construction: m(0)
      = 0, each row is the filter up[m(a)], which shrinks as a grows,
      and up[m(a | b)] = up[m(a)] & up[m(b)].
    * (<<1): up[m(a)] inside up[a] iff a <= m(a), and m(a) is the join
      of the m(p) over the atoms p of a, so (<<1) iff p in m(p).
    * (<<5): m(a) is the least b with a << b, and m is monotone, so some
      b has a << b << c iff m(m(a)) <= c; (<<5) iff m(m(a)) <= m(a),
      which by joins holds iff it holds at each atom.
    * (<<6): b has a nonzero a << b iff some atom p has m(p) <= b (take
      an atom of a), so every atom q needs a p with m(p) inside {q}, and
      that is enough, as b holds an atom.
    * (<<7): a << b iff m(a) misses b*, so (<<7) says m(a) misses b*
      iff m(b*) misses a: the kernel is symmetric, q in m(p) iff p in
      m(q).
    """
    n = len(m)
    values = set(m)
    return WellInsideAxioms(
        ax1=all(v >> p & 1 for p, v in enumerate(m)),
        ax2=True,
        ax2_prime=True,
        ax3=True,
        ax4=True,
        ax4_prime=True,
        ax5=all(not join_at(m, v) & ~v for v in m),
        ax6=0 in values or all(1 << q in values for q in range(n)),
        ax7=all(m[q] >> p & 1 for p, v in enumerate(m) for q in bit_indices(v)),
    )


def contact_from_well_inside_atoms(algebra, m):
    """Invert interdefinability on the unary form: a C b iff not a <<
    b*, iff m(a) meets b, so the kernel is p K q iff q in m(p).  Any n
    atom masks are a unary form: the precontact-defining flags hold by
    construction (`well_inside_atom_flags`)."""
    n = algebra.atom_count
    if len(m) != n or not all(0 <= v <= algebra.full_mask for v in m):
        raise DomainMismatchError(f"expected {n} atom masks of {n} bits")
    return RelationKernel(
        algebra, frozenset((p, q) for p, v in enumerate(m) for q in bit_indices(v))
    )


def axiom_report(pca):
    """Flags for (Cref), (Csym), (Ctr), (Ctr#), (Ccon), (C6), each decided
    exactly over the whole carrier.

    (Ctr) and (Ctr#) interpolate through the well-inside relation of C
    and of its contact closure.  With tab the forward table, a << c iff
    tab[a] <= c, and tab is monotone, so tab[a] is the smallest
    candidate interpolant.  Hence some b has a << b << c iff
    tab[tab[a]] <= c, and the axiom holds iff tab[tab[a]] <= tab[a]
    for every a (take c = tab[a]): O(2**n) instead of O(8**n).

    (Csym): a C b iff some kernel pair joins an atom of a to an atom of
    b, so C is symmetric iff its kernel is (take a and b atoms).
    (C6): if b != 0 has not b C a, neither has any atom of b, as tab is
    monotone; and every nonzero a* contains an atom.  So (C6) holds iff
    every atom q has an atom p with tab[{p}] <= {q}, i.e. tab[{p}] is
    empty or {q}.
    """
    algebra = pca.algebra
    n = algebra.atom_count
    require_enum_width(n)
    size = algebra.size
    full = algebra.full_mask
    table = pca.kernel.forward_table()
    sharp_table = joins_table(_closure_succ(pca.kernel))

    cref = all(table[a] & a for a in range(1, size))
    csym = pca.kernel.is_symmetric

    def interpolates(tab):
        return all(tab[tab[a]] | tab[a] == tab[a] for a in range(size))

    ctr = interpolates(table)
    ctr_sharp = interpolates(sharp_table)
    ccon = all(
        table[a] & (full ^ a) or table[full ^ a] & a for a in range(1, full)
    )
    atom_rows = {table[1 << p] for p in range(n)}
    c6 = 0 in atom_rows or all(1 << q in atom_rows for q in range(n))
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
    """Check the four clan conditions on an explicit element set.

    A grill of a finite algebra holds exactly the elements that meet its
    atom support S (each member is a join of atoms, one of which the
    grill must hold).  Its members are pairwise in contact under the
    contact closure iff the atoms of S are: every member holds an atom
    of S, and the closure's relation is monotone.
    """
    algebra = pca.algebra
    require_enum_width(algebra.atom_count)
    masks = frozenset(e.mask if isinstance(e, Element) else e for e in members)
    if not _is_grill(algebra.size, masks):
        return False
    support = mask_of(p for p in range(algebra.atom_count) if 1 << p in masks)
    succ = _closure_succ(pca.kernel)
    return all(succ[p] & support == support for p in bit_indices(support))


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
        if not is_pca_morphism(self.hom, self.source, self.target):
            raise PreconditionError("the hom does not reflect the contact relation")


def is_pca_morphism(hom, source_pca, target_pca):
    """Does the hom reflect the relation: h(a) C' h(b) implies a C b?

    Decided on the kernels: every target kernel pair (p, q) must pull
    back into the source kernel along the atom map.  h(a) holds the
    target atoms mapped into a, so h(a) C' h(b) iff some target kernel
    pair has p mapped into a and q into b; pulled-back pairs then give
    a C b, and a = {map p}, b = {map q} shows each pullback is needed.
    """
    if hom.source != source_pca.algebra or hom.target != target_pca.algebra:
        raise DomainMismatchError("hom does not match the given algebras")
    amap = hom.atom_map
    src = source_pca.kernel.pairs
    return all((amap[p], amap[q]) in src for p, q in target_pca.kernel.pairs)
