"""Adjacency spaces and their precontact algebras.

An adjacency space is a nonempty cell set with a binary relation; its
regions (cell sets) carry the precontact relation

    M C N  iff  some x in M and y in N are adjacent,

whose kernel is the relation itself.  Ultrafilters of a finite algebra
are identified with atoms throughout.  The ultrafilter-pair quantifier
holds exactly on the kernel's pairs (proved at `canonical_adjacency`,
which builds the adjacency from them); the literal sweep over the
ultrafilters' members is kept in `tests/oracles.py`, and the two are
compared there.  `stone_representation_report` checks four
correspondences: (Cref), (Csym), (Ctr) and (Ccon) of the algebra
against reflexivity, symmetry, transitivity and connectedness of the
canonical adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolean import bit_indices
from .errors import DomainMismatchError, PreconditionError
from .precontact import pca_from_pairs
from .report import ReportBuilder
from .topology import FiniteSpace, discrete_space, is_t1


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
        # A finite space is Stone iff it is T1 (`is_t1`).  A finite Stone
        # space is discrete, so is its square, and every relation on it
        # is closed.
        return self.topology is not None and is_t1(self.topology)


def r_flat(adjacency):
    """Reflexive and symmetric closure of the adjacency relation."""
    closed = set(adjacency.pairs)
    closed.update((y, x) for x, y in adjacency.pairs)
    closed.update((x, x) for x in range(adjacency.cell_count))
    return AdjacencySpace(adjacency.cells, frozenset(closed), adjacency.topology)


def contact_from_adjacency(adjacency):
    """The precontact algebra of all regions (atoms = cells) with kernel
    exactly the adjacency relation."""
    return pca_from_pairs(adjacency.cell_count, adjacency.pairs)


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

    Reachability over a symmetric relation is an equivalence, so every
    two cells are joined iff every cell is reached from cell 0: one
    search decides it.
    """
    if n <= 1:
        return True
    adjacent = [0] * n
    for x, y in pairs:
        adjacent[x] |= 1 << y
        adjacent[y] |= 1 << x
    seen = frontier = 1
    while frontier:
        nxt = 0
        for x in bit_indices(frontier):
            nxt |= adjacent[x]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


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
    return AdjacencySpace(names, frozenset(pca.kernel.pairs), discrete_space(names))


def stone_representation_report(pca):
    """Verify that the reflexivity, symmetry, transitivity and
    connectedness axioms of the algebra match the relation properties of
    its canonical adjacency space.

    The Stone map onto that space's region algebra needs no check at
    finite scale: the ultrafilters are the principal ones, one per atom,
    and the map sends an element to those of its atoms, so read as masks
    it is the identity, a bijection onto the 2**n regions.  The adjacency
    is the kernel's own pairs (`canonical_adjacency`, where the
    ultrafilter quantifier is proved to hold exactly there), so the map
    preserves and reflects the relation as well.  The axiom flags come
    from `axiom_report`, read off the kernel's atom rows, and the
    relation properties from the kernel's pair set, computed
    independently: connectedness by `is_connected_relation`, a search
    over the symmetrized pairs, not the reach of the closure rows that
    (Ccon) reads.
    """
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("representation needs a nondegenerate algebra")
    report = ReportBuilder(f"stone representation of a {algebra.atom_count}-atom algebra")

    flags = pca.axioms
    kernel = pca.kernel
    connected = is_connected_relation(kernel.pairs, algebra.atom_count)
    for tag, flag, prop, holds in (
        ("Cref", flags.cref, "reflexive", kernel.is_reflexive),
        ("Csym", flags.csym, "symmetric", kernel.is_symmetric),
        ("Ctr", flags.ctr, "transitive", kernel.is_transitive),
        ("Ccon", flags.ccon, "connected", connected),
    ):
        report.add(
            f"({tag}) iff the canonical adjacency is {prop}",
            flag == holds,
            None if flag == holds else f"{tag}={flag}, {prop}={holds}",
        )
    return report.done()
