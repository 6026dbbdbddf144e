"""Precontact relations on finite Boolean algebras.

A relation satisfying (C0) and (C+) on a finite powerset algebra is
completely determined by its restriction to atom pairs, so relations are
stored canonically as atom-pair kernels and the element-level relation
is always derived:

    a C b  iff  some kernel pair (p, q) has p in a and q in b.

The one element-level relation taken as input, a raw relation to
normalize, is held only as the pair set it is given: it is checked
against the kernel read off its singleton pairs by counting, with no
2**n rows (`normalize_relation`).  The well-inside
relation a << b (not a C b*) is held only in its unary form, its n
values on the atoms (`well_inside_atoms`), which are the kernel's
successors; the inverse of interdefinability reads a kernel back from
that form (`contact_from_well_inside_atoms`).  No element-level << is
built: the suite's interdefinability line reads the unary form, and the
literal relation and its axioms are oracles in `tests/oracles.py`.

A kernel is its n atom rows (`RelationKernel.succ`, the successors of
each atom), checked at construction; its pair set is a view derived on
the first read.  `RelationKernel.of_pairs` builds the rows from a pair
set and keeps that set, so a kernel built from pairs never derives it,
and a check that compares kernels by their rows builds no pair set
while it passes.  The atom rows of the contact closure are computed
once per kernel (`RelationKernel._closure_rows`), and the clan supports
and the atom clan sets (the clans holding each atom, the closed base of
the dual) once per algebra; the clans, (Ctr#), `contact_closure` and
the round trip read those copies.  The six axiom flags of
`axiom_report` are read off the kernel's atom rows (its successors and
the closure rows) in O(n**2), with no 2**n table.

Axiom checks decide exactly over the carrier, never by sampling; every
reduction is proved next to its code and tested against the literal
quantifiers in `tests/oracles.py`.  They are the ground truth the rest
of the package is tested against.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .boolean import (
    BooleanHom,
    FiniteBooleanAlgebra,
    bit_indices,
    join_at,
    joins_table,
    mask_of,
    meeting_rows,
    reach,
    transpose,
)
from .config import require_enum_width
from .errors import (
    AxiomViolationError,
    DomainMismatchError,
    InternalError,
    PreconditionError,
)
from .memo import once


@dataclass(frozen=True)
class RelationKernel:
    """Atom-pair kernel of a precontact relation, held by its n atom
    rows: succ[p] is the mask of the atoms q with (p, q) in the kernel.
    Satisfies (C0) and (C+) by construction."""

    algebra: FiniteBooleanAlgebra
    succ: tuple

    def __post_init__(self):
        n, full = self.algebra.atom_count, self.algebra.full_mask
        if len(self.succ) != n or not all(0 <= s <= full for s in self.succ):
            raise DomainMismatchError(f"expected {n} atom masks of {n} bits")

    @classmethod
    def of_pairs(cls, algebra, pairs):
        """The kernel holding the atom pairs ``pairs``, which it keeps as
        its pair set."""
        pairs = frozenset(pairs)
        n = algebra.atom_count
        succ = [0] * n
        for p, q in pairs:
            if not (0 <= p < n and 0 <= q < n):
                raise DomainMismatchError(f"kernel pair ({p}, {q}) out of range")
            succ[p] |= 1 << q
        kernel = cls(algebra, tuple(succ))
        once.keep(kernel, "pairs", pairs)
        return kernel

    @once
    def pairs(self):
        """The pairs (p, q) with q a successor of p, derived on the first
        read of a kernel built from its rows."""
        return _pairs_of_rows(self.succ)

    @once
    def _closure_rows(self):
        """The atom rows of the contact closure of the kernel, computed
        once per object: row p holds p, the successors of p and the
        atoms that have p as a successor.  The clans, (Ctr#), the round
        trip and `contact_closure`, which builds the closed kernel from
        them, read the closure in this form."""
        succ = self.succ
        rows = [s | 1 << p for p, s in enumerate(succ)]
        for p, s in enumerate(succ):
            while s:
                low = s & -s
                rows[low.bit_length() - 1] |= 1 << p
                s ^= low
        return tuple(rows)

    # The relation properties, read by the Stone report and again by the
    # suite, are computed once per kernel, off the pair set (see
    # `is_transitive`).

    @once
    def is_symmetric(self):
        return all((q, p) in self.pairs for p, q in self.pairs)

    @once
    def is_reflexive(self):
        return all((p, p) in self.pairs for p in range(self.algebra.atom_count))

    @once
    def is_transitive(self):
        """(p, q) and (q, r) in the pairs force (p, r): the successors of
        q lie among those of p, for every pair (p, q).  Read off the pair
        set, grouped by source once, in O(|pairs|); not off `succ`, so
        it stays independent of the (Ctr) flag of `axiom_report`."""
        succ = {}
        for p, q in self.pairs:
            succ[p] = succ.get(p, 0) | 1 << q
        return not any(succ.get(q, 0) & ~succ[p] for p, q in self.pairs)


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

    @once
    def axioms(self):
        return axiom_report(self)

    @once
    def _clan_supports(self):
        # clan_supports, computed once per object: every clan is a point
        # of the dual, so the whole family is built
        require_enum_width(self.algebra.atom_count)
        return tuple(clique_supports(self.kernel._closure_rows))

    @once
    def _atom_clans(self):
        # _atom_clans[p]: the clans holding the atom p, as a mask over
        # the clan supports; the closed base of the dual triple and the
        # round trip's images, computed once per object
        return tuple(transpose(self._clan_supports, self.algebra.atom_count))

    @once
    def _clan_positions(self):
        # _clan_positions[s]: the position of the clan support s in
        # _clan_supports, the dual's point order; the lookup of
        # `duality._clan_points`, computed once per object
        return {s: i for i, s in enumerate(self._clan_supports)}

    def __getstate__(self):
        # the dual triple is held weakly (see memo.remember), and a weak
        # reference does not pickle
        return {
            k: v for k, v in self.__dict__.items() if not isinstance(v, weakref.ref)
        }


def clique_supports(adj):
    """Yield the nonempty cliques of a reflexive and symmetric adjacency
    on len(adj) atoms (adj[p]: the mask of the atoms adjacent to p), in
    (size, atoms) order.  Under the contact closure's adjacency these
    are the clan supports.  The walk is lazy (its cost is below), so
    only a caller that builds the whole family needs a width budget.

    Each clique is grown once, from its prefix.  Drop the highest atom j
    of a nonempty clique and what is left, its prefix s, is a clique or
    0; j lies above every atom of s and is adjacent to each of them.
    Conversely, adding to a clique s (or to 0) an atom j above its
    highest atom and adjacent to all its atoms gives a clique with
    prefix s, as j is adjacent to itself.  So growing each clique from
    every such j reaches each nonempty clique exactly once.  Each clique
    s carries common(s), the atoms adjacent to every atom of s: common(0)
    is every atom and common(s | {j}) = common(s) & adj[j].

    The cliques are grown in the order they are appended, so those of
    size k come before those of size k + 1.  Within a size they come in
    (prefix, j) order, which by induction on the size is their atom
    order: two cliques with different prefixes first differ inside
    them.  Each clique is yielded as it is appended, so the yields keep
    that order.  Only cliques already yielded are grown, and growing
    one costs a step plus one per clique it yields: the first m cliques
    cost O(m) steps on len(adj)-bit masks."""
    cliques, commons = [0], [(1 << len(adj)) - 1]
    for s, common in zip(cliques, commons):
        rest = common & -(1 << s.bit_length())
        while rest:
            low = rest & -rest
            clique = s | low
            yield clique
            cliques.append(clique)
            commons.append(common & adj[low.bit_length() - 1])
            rest ^= low


def pca_from_pairs(atom_count, pairs):
    algebra = FiniteBooleanAlgebra(atom_count)
    return PrecontactAlgebra(algebra, RelationKernel.of_pairs(algebra, pairs))


def _pairs_of_rows(rows):
    return frozenset((a, b) for a, row in enumerate(rows) for b in bit_indices(row))


def _first_cplus_witness(pairs, size):
    """The lexicographically first triple (a, b, c) breaking (C+) on the
    literal relation given by its pairs, or None.  Read on the failure
    path only, off rows of the pairs: bit b of rows[a] for a R b."""
    rows = [0] * size
    for a, b in pairs:
        rows[a] |= 1 << b
    for a in range(size):
        row = rows[a]
        for b in range(size):
            for c in range(size):
                if row >> (b | c) & 1 != (row >> b | row >> c) & 1:
                    return a, b, c
                if rows[b | c] >> a & 1 != (rows[b] | rows[c]) >> a & 1:
                    return a, b, c
    return None


def normalize_relation(algebra, pairs):
    """Validate (C0) and (C+) over the whole carrier for the element-level
    relation R with the given pairs, and return the unique kernel
    reproducing it.  AxiomViolationError names a witness pair for (C0)
    or triple (a, b, c) for (C+), and DomainMismatchError a pair outside
    the algebra; a pair with a zero side is reported as (C0) before any
    pair is checked for range.

    (C+) is decided on the pairs, with no 2**n rows.  Write succ[p] for
    the atoms q with {p} R {q}, tab for its joins table and
    E = {(a, b) : tab[a] meets b}.  Under (C0), (C+) holds iff R = E:
    (C0) and (C+) make each row and each column of R a join-preserving
    map into {0, 1} sending 0 to 0, which is fixed by its atom values,
    so a R b iff some atoms p of a and q of b have {p} R {q}, iff tab[a]
    meets b; conversely E has (C0), as tab[0] = 0, and (C+), as tab
    preserves joins.  R = E iff R lies in E and |R| = |E|, and |E| sums
    2**n - 2**(n - |tab[a]|) over a, the b missing tab[a] being the
    subsets of its complement.  On failure the literal triple search
    names the lexicographically first witness.
    """
    n = algebra.atom_count
    require_enum_width(n)
    pairs = frozenset(pairs)
    for a, b in pairs:
        if a == 0 or b == 0:
            raise AxiomViolationError("(C0)", (a, b))
    full = algebra.full_mask
    succ = [0] * n
    for a, b in pairs:
        if not (0 <= a <= full and 0 <= b <= full):
            raise DomainMismatchError(f"relation pair {(a, b)} outside algebra with {n} atoms")
        if not (a & (a - 1) or b & (b - 1)):  # {p} R {q}
            succ[a.bit_length() - 1] |= b
    tab = joins_table(succ)
    size = algebra.size
    if len(pairs) != sum(size - (size >> t.bit_count()) for t in tab) or not all(
        tab[a] & b for a, b in pairs
    ):
        witness = _first_cplus_witness(pairs, size)
        if witness is None:
            raise InternalError("(C+) fails on the pairs but no triple breaks it")
        raise AxiomViolationError("(C+)", witness)
    return RelationKernel(algebra, tuple(succ))


def contact_closure(pca):
    """The smallest contact relation containing the given precontact one:
    symmetrize the kernel and add the diagonal (overlap) pairs."""
    return PrecontactAlgebra(pca.algebra, RelationKernel(pca.algebra, pca.kernel._closure_rows))


def smallest_contact(algebra):
    """Overlap contact: a C b iff a.b != 0; kernel is the atom diagonal."""
    rows = tuple(1 << p for p in range(algebra.atom_count))
    return PrecontactAlgebra(algebra, RelationKernel(algebra, rows))


def largest_contact(algebra):
    """a C b iff both are nonzero; kernel is every atom pair."""
    rows = (algebra.full_mask,) * algebra.atom_count
    return PrecontactAlgebra(algebra, RelationKernel(algebra, rows))


def well_inside_atoms(pca):
    """The unary form of the well-inside relation: m at the n atoms, the
    forward table's values on the singletons (the kernel's successors).

    a << b iff not a C b*, iff tab[a] misses b*, iff tab[a] <= b, with
    tab the forward table, the join-preserving extension of m.  So m
    fixes the relation, and every m of n atom masks is the unary form of
    the kernel p K q iff q in m(p)."""
    return pca.kernel.succ


def contact_from_well_inside_atoms(algebra, m):
    """Invert interdefinability on the unary form: a C b iff not a <<
    b*, iff m(a) meets b, so the kernel is p K q iff q in m(p).

    Any n atom masks are a unary form.  With m extended by joins, the
    relation a << b iff m(a) <= b satisfies the precontact-defining
    axioms (<<2), (<<2'), (<<3), (<<4) and (<<4') by construction: m(0)
    = 0, the elements above m(a) form a filter, which shrinks as a
    grows, and m(a | b) <= c iff m(a) <= c and m(b) <= c.  Any other m
    raises DomainMismatchError (`RelationKernel`'s check)."""
    return RelationKernel(algebra, tuple(m))


def axiom_report(pca):
    """Flags for (Cref), (Csym), (Ctr), (Ctr#), (Ccon), (C6), each decided
    exactly over the whole carrier, and read in O(n**2) off the kernel's
    atom rows: succ, the successors of each atom, and rows, the atom rows
    of the contact closure.  No 2**n table is built.

    Write tab for the forward table, tab[a] = the join of succ[p] over
    the atoms p of a, so that a C b iff tab[a] meets b; tab sends 0 to 0
    and preserves joins.

    (Cref): a C a for every a != 0 iff p is in succ[p] for every atom p.
    Take a = {p}; conversely, any a != 0 holds an atom p, and p in
    succ[p] puts p in tab[a] & a.

    (Ctr) and (Ctr#) interpolate through the well-inside relation of C
    and of its contact closure.  a << c iff tab[a] <= c, and tab is
    monotone, so tab[a] is the smallest candidate interpolant: some b
    has a << b << c iff tab[tab[a]] <= c, and the axiom holds iff
    tab[tab[a]] <= tab[a] for every a (take c = tab[a]).  tab and tab∘tab
    both preserve joins, so that holds for every a iff it holds at the
    atoms: join_at(succ, succ[p]) <= succ[p] for every p.  The same
    argument on rows gives (Ctr#).

    (Csym): a C b iff some kernel pair joins an atom of a to an atom of
    b, so C is symmetric iff its kernel is (take a and b atoms): iff q is
    in succ[p] exactly when p is in succ[q], i.e. succ is its own
    transpose.  Read off the rows, not `RelationKernel.is_symmetric`, so
    the suite and the Stone report compare two computations.

    (Ccon): a C a* or a* C a holds iff some kernel pair has exactly one
    end in a, so every proper cut 0 < a < 1 is crossed iff the
    undirected kernel graph is connected, iff the atoms form one class
    under rows (the symmetrized kernel; its diagonal crosses no cut).
    With n = 0 there is no proper cut and no atom to start from, and
    (Ccon) holds.

    (C6): if b != 0 has not b C a, neither has any atom of b, as tab is
    monotone; and every nonzero a* contains an atom.  So (C6) holds iff
    every atom q has an atom p with succ[p] <= {q}, i.e. succ[p] is
    empty or {q}.
    """
    n = pca.algebra.atom_count
    kernel = pca.kernel
    succ = kernel.succ
    rows = kernel._closure_rows

    cref = all(s >> p & 1 for p, s in enumerate(succ))
    csym = transpose(succ, n) == list(succ)
    ctr = not any(join_at(succ, s) & ~s for s in succ)
    ctr_sharp = not any(join_at(rows, r) & ~r for r in rows)
    ccon = n == 0 or reach(rows, 1) == pca.algebra.full_mask
    values = set(succ)
    c6 = 0 in values or all(1 << q in values for q in range(n))
    return RelationAxioms(cref, csym, ctr, ctr_sharp, ccon, c6)


def clan_supports(pca):
    """Supports of all clans: nonempty atom sets pairwise related under
    the contact-closure kernel, in (size, atoms) order.  Computed once
    per object; each call returns a fresh list."""
    return list(pca._clan_supports)


def restrict_relation(pca, blocks):
    """The subalgebra generated by a partition of the atoms, with the
    relation cut down to it.  Blocks become the atoms of the result; an
    atom index outside the algebra raises DomainMismatchError before
    any mask is built from it."""
    n = pca.algebra.atom_count
    block_masks = []
    seen = 0
    for block in blocks:
        block = tuple(block)
        outside = next((i for i in block if not 0 <= i < n), None)
        if outside is not None:
            raise DomainMismatchError(f"atom index {outside} out of range")
        m = mask_of(block)
        if m == 0 or (m & seen):
            raise DomainMismatchError("blocks must be nonempty, disjoint atom sets")
        seen |= m
        block_masks.append(m)
    if seen != pca.algebra.full_mask:
        raise DomainMismatchError("blocks must cover every atom")
    # block i relates to block j iff some kernel pair (p, q) has p in
    # block i and q in block j: iff the successors of block i's atoms
    # meet block j
    succ = pca.kernel.succ
    rows = meeting_rows([join_at(succ, b) for b in block_masks], block_masks)
    sub = FiniteBooleanAlgebra(len(block_masks))
    return PrecontactAlgebra(sub, RelationKernel(sub, tuple(rows)))


def restrict_clan_support(blocks, support_mask):
    """Image of a clan support, a mask over the atoms the blocks
    partition, under a partition restriction.  Membership is read off
    the support's bits, so no mask is built from a block index, and a
    negative index is refused."""
    blocks = [frozenset(block) for block in blocks]
    covered = frozenset().union(*blocks)
    negative = next((i for i in covered if i < 0), None)
    if negative is not None:
        raise DomainMismatchError(f"atom index {negative} out of range")
    # a negative mask has bits past every block
    if support_mask < 0 or not covered.issuperset(bit_indices(support_mask)):
        atoms = max(covered, default=-1) + 1
        raise DomainMismatchError(f"mask {support_mask} outside algebra with {atoms} atoms")
    return frozenset(
        k for k, block in enumerate(blocks) if any(support_mask >> i & 1 for i in block)
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
