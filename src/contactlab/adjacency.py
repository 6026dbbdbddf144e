"""Adjacency spaces and their precontact algebras.

An adjacency space is a nonempty cell set with a binary relation; its
regions (cell sets) carry the precontact relation

    M C N  iff  some x in M and y in N are adjacent,

whose kernel is the relation itself.  Ultrafilters of a finite algebra
are identified with atoms throughout.  The ultrafilter-pair quantifier
holds exactly on the kernel's pairs (proved at `canonical_adjacency`,
which builds the adjacency from them); the literal sweep over the
ultrafilters' members is kept in `tests/oracles.py`, and the two are
compared there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolean import bit_indices
from .errors import DomainMismatchError, PreconditionError
from .precontact import (
    PrecontactAlgebra,
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
    finite Stone topology, i.e. discrete.

    The adjacency of the ultrafilters at p and q is the quantifier: every
    element of the one is in contact with every element of the other.
    It holds iff (p, q) is a kernel pair, i.e. q is in succ[p].  The
    members of the ultrafilter at p are the a with a >= {p}, and a C b
    iff some atom r of a and s of b form a kernel pair.  So a kernel pair
    (p, q) relates every member a of the one to every member b of the
    other, and the members a = {p}, b = {q} are in contact only through
    it."""
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("the degenerate algebra has no ultrafilters")
    names = tuple(f"u{p}" for p in range(algebra.atom_count))
    space = AdjacencySpace(names, frozenset(pca.kernel.pairs), discrete_space(names))
    return CanonicalAdjacency(pca, space)


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
    """Verify that the reflexivity, symmetry and transitivity axioms of
    the algebra match the relation properties of its canonical adjacency
    space.

    The Stone map onto that space's region algebra needs no check at
    finite scale: the ultrafilters are the principal ones, one per atom,
    and the map sends an element to those of its atoms, so read as masks
    it is the identity, a bijection onto the 2**n regions.  The adjacency
    is the kernel's own pairs (`canonical_adjacency`, where the
    ultrafilter quantifier is proved to hold exactly there), so the map
    preserves and reflects the relation as well.  The axiom flags come
    from `axiom_report`, read off the kernel's atom rows, and the
    relation properties from the kernel's pair set, computed
    independently.
    """
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("representation needs a nondegenerate algebra")
    report = ReportBuilder(f"stone representation of a {algebra.atom_count}-atom algebra")

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
