"""Finite topological spaces, regular closed algebras and point traces.

A finite topology is determined by its singleton closures: a set is
closed exactly when it contains the closure of each of its points.  A
space is therefore stored as the tuple of point-closure masks, which
keeps closure, interior, subspaces and products polynomial.  A space
built from a closed base, and the closed-base test, read the closure of
a point as the meet of the base members that hold it (`_meets`); such a
space skips the closure checks of `FiniteSpace`, which `_meets` output
meets by construction, and keeps the name checks.  The maximal points
are computed once per space.
Families are held by their atoms: the clopens of a subspace by its
connected components (`clopen_atoms`), the regular closed sets by the
closures of the maximal points (`rc_atoms`), and a Boolean subalgebra
of them, RC(X) and the pair's algebra included, as a
`MereotopologicalPair` of its atoms.  The point budget bounds only the
functions that return a whole family: `closed_sets`, `open_sets`,
`clopen_sets`, `rc_members`, `clopens_of_subset`,
`rc_members_of_subset` and `closure_trace`.  Predicates decide at the
atoms at any size.

Point sets are integer bitmasks over the point index, matching the
element encoding of the Boolean side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .boolean import bit_indices, join_at, mask_of
from .config import require_atom_width, require_enum_width, require_point_budget
from .errors import DomainMismatchError, InternalError, PreconditionError
from .precontact import clique_supports


@dataclass(frozen=True)
class FiniteSpace:
    """A finite space given by its points and their singleton closures."""

    point_names: tuple
    point_closures: tuple

    def __post_init__(self):
        self._check_shape()
        full = self.full_mask
        closures = self.point_closures
        for x, cl in enumerate(closures):
            if not 0 <= cl <= full:
                raise DomainMismatchError(f"closure mask of point {x} out of range")
            if not cl >> x & 1:
                raise PreconditionError(f"point {x} missing from its own closure")
        for cl in closures:
            rest = cl
            while rest:
                low = rest & -rest
                if closures[low.bit_length() - 1] & ~cl:
                    raise PreconditionError("singleton closures are not transitive")
                rest ^= low

    def _check_shape(self):
        n = len(self.point_names)
        if len(set(self.point_names)) != n:
            raise PreconditionError("point names must be distinct")
        if len(self.point_closures) != n:
            raise PreconditionError("one closure mask per point required")

    @classmethod
    def _trusted(cls, point_names, point_closures):
        """The space of closures that are in range, reflexive and
        transitive by construction (`_meets` output): only the checks
        the names and the count can break are run."""
        space = object.__new__(cls)
        object.__setattr__(space, "point_names", point_names)
        object.__setattr__(space, "point_closures", point_closures)
        space._check_shape()
        return space

    @property
    def point_count(self):
        return len(self.point_names)

    @property
    def full_mask(self):
        return (1 << self.point_count) - 1

    def name_set(self, mask):
        return "{" + ",".join(self.point_names[i] for i in bit_indices(mask)) + "}"

    @cached_property
    def maximal_points(self):
        """The points whose closure holds every point above them (y is
        above x when x is in cl{y}), as a mask.  Computed once per
        object."""
        closures = self.point_closures
        above = [0] * self.point_count
        for x, cl in enumerate(closures):
            for y in bit_indices(cl):
                above[y] |= 1 << x
        return mask_of(x for x, cl in enumerate(closures) if not above[x] & ~cl)


def _meets(point_count, members):
    """meet[x]: the intersection of the members that hold the point x,
    the whole space when none does, in one pass over the members' bits.

    meet[x] is the hull of {x}, the intersection of all finite unions of
    members that hold x (the empty union and the whole space included):
    a finite union holds x iff one of its members does, and then it
    holds that member, so the members holding x and the whole space
    leave the same intersection as all those unions.  Bits of a member
    outside the points are dropped."""
    full = (1 << point_count) - 1
    meet = [full] * point_count
    for m in {m & full for m in members}:
        rest = m
        while rest:
            low = rest & -rest
            meet[low.bit_length() - 1] &= m
            rest ^= low
    return meet


def space_from_closed_base(point_names, base_masks):
    """Build the space whose closed sets are all intersections of finite
    unions of the base members, plus the empty set and the whole space.

    cl{x} is the hull of {x}, the meet of the members holding x
    (`_meets`), in one pass over the bits of the members.  The space is
    built without the closure checks of `FiniteSpace`, which `_meets`
    output passes by construction: each meet[x] starts as the whole
    space and is only intersected with members cut down to the points,
    so it is in range; every member it is cut by holds x, so x is in meet[x]; and
    for y in meet[x], every member holding x holds y, so the members
    holding y include those holding x and meet[y] lies inside meet[x],
    which is transitivity.  The name checks, which the input can
    break, still run."""
    names = tuple(point_names)
    return FiniteSpace._trusted(names, tuple(_meets(len(names), base_masks)))


def discrete_space(point_names):
    names = tuple(point_names)
    return FiniteSpace(names, tuple(1 << i for i in range(len(names))))


def indiscrete_space(point_names):
    names = tuple(point_names)
    full = (1 << len(names)) - 1
    return FiniteSpace(names, tuple(full for _ in names))


def closure(space, mask):
    closures = space.point_closures
    out = 0
    while mask:
        low = mask & -mask
        out |= closures[low.bit_length() - 1]
        mask ^= low
    return out


def is_closed(space, mask):
    return closure(space, mask) == mask


def interior(space, mask):
    full = space.full_mask
    return full ^ closure(space, full ^ mask)


def is_open(space, mask):
    return is_closed(space, space.full_mask ^ mask)


def minimal_open(space, x):
    """Smallest open set containing the point: everyone whose closure
    reaches x."""
    return sum(
        1 << y for y in range(space.point_count) if space.point_closures[y] >> x & 1
    )


def closed_sets(space):
    """All closed sets, ascending as masks.  Point-budget bound."""
    require_point_budget(space.point_count)
    out = tuple(
        m for m in range(space.full_mask + 1) if is_closed(space, m)
    )
    return out


def open_sets(space):
    full = space.full_mask
    return tuple(sorted(full ^ m for m in closed_sets(space)))


def clopen_sets(space):
    closed = set(closed_sets(space))
    full = space.full_mask
    return tuple(sorted(m for m in closed if (full ^ m) in closed))


def is_t0(space):
    return len(set(space.point_closures)) == space.point_count


def is_t1(space):
    return all(cl == 1 << x for x, cl in enumerate(space.point_closures))


def is_hausdorff(space):
    # at finite scale Hausdorff collapses to T1 (and then to discrete)
    return is_t1(space)


def is_discrete(space):
    return is_t1(space)


def is_compact(space):
    return True


def is_connected(space):
    """No proper nonempty clopen set: at most one clopen atom.  A pass
    over every point; a valid triple's space is read at its dense part
    instead (`triple_is_connected`)."""
    return len(clopen_atoms(space, space.full_mask)) <= 1


def is_zero_dimensional(space):
    """Every open set a union of clopens; for finite spaces this means
    every minimal open neighbourhood is clopen."""
    return all(
        is_closed(space, minimal_open(space, x)) for x in range(space.point_count)
    )


def is_stone(space):
    return is_compact(space) and is_hausdorff(space) and is_zero_dimensional(space)


def is_extremally_disconnected(space):
    """Closures of open sets are open."""
    # Every open set is the union of the smallest open sets of its
    # points, unions of opens are open and closure is additive: it
    # suffices that cl(minimal_open(x)) is open for every point x.
    return all(
        is_open(space, closure(space, minimal_open(space, x)))
        for x in range(space.point_count)
    )


def is_closed_base(space, members):
    """Is the family a closed base, i.e. is every closed set an
    intersection of finite unions of members?

    Checked on singleton closures, since every closed set is a finite
    union of them: the members must be closed, and the hull of each
    cl{x} must be cl{x} itself.  The hull of the empty set is always
    empty.  With closed members that hull is meet[x] (`_meets`): the
    hull of {x} is an intersection of finite unions of closed sets, so
    a closed set holding x, and it holds cl{x}; the hull is monotone,
    and the hull of a hull is itself, so hull(cl{x}) = hull({x}).
    """
    members = set(members)
    if any(not is_closed(space, m) for m in members):
        return False
    meet = _meets(space.point_count, members)
    return all(cl == meet[x] for x, cl in enumerate(space.point_closures))


@dataclass(frozen=True)
class SpacePredicates:
    is_t0: bool
    is_semiregular: bool
    is_connected: bool
    is_compact: bool
    is_hausdorff: bool
    is_zero_dimensional: bool
    is_stone: bool
    is_extremally_disconnected: bool

    def as_dict(self):
        return {
            "is_T0": self.is_t0,
            "is_semiregular": self.is_semiregular,
            "is_connected": self.is_connected,
            "is_compact": self.is_compact,
            "is_hausdorff": self.is_hausdorff,
            "is_zero_dimensional": self.is_zero_dimensional,
            "is_stone": self.is_stone,
            "is_extremally_disconnected": self.is_extremally_disconnected,
        }


def space_predicates(space):
    return SpacePredicates(
        is_t0=is_t0(space),
        is_semiregular=is_semiregular(space),
        is_connected=is_connected(space),
        is_compact=is_compact(space),
        is_hausdorff=is_hausdorff(space),
        is_zero_dimensional=is_zero_dimensional(space),
        is_stone=is_stone(space),
        is_extremally_disconnected=is_extremally_disconnected(space),
    )


def minimal_members(masks):
    """The minimal nonzero members of a family of sets, ascending as masks;
    a repeated minimal member is kept once per occurrence.

    Members are taken in popcount order and compared only with the
    minimal members found so far: a member with a proper nonzero subset
    in the family has one of smaller popcount, and below that a minimal
    one, found earlier."""
    found = []
    for m in sorted((m for m in masks if m), key=int.bit_count):
        if not any(o != m and o | m == m for o in found):
            found.append(m)
    return tuple(sorted(found))


def unions(atoms):
    """All unions of the given sets, ascending as masks."""
    out = [0]
    for a in atoms:
        out += [m | a for m in out]
    return tuple(sorted(out))


def rc_atoms(space):
    """The atoms of RC(X): the distinct closures cl{m} of the maximal
    points m, ascending as masks."""
    # Open sets are up-sets of the specialization order (y in cl{x}
    # means y <= x), and every point lies below a maximal one.  An open U
    # holds a maximal point above each of its points, so cl U = cl(U n M)
    # for the maximal points M.  Conversely, for S inside M the points
    # above S form an open set inside cl S (a point above a maximal point
    # is below it too), so cl S is regular closed: RC(X) is the finite
    # unions of the cl{m}.  A nonzero cl S inside cl{m} has a point s of
    # S below m, so m is below s and cl S holds cl{m}: each cl{m} is
    # minimal, and cl{m} = cl{m'} only for m, m' below each other.
    closures = space.point_closures
    return tuple(sorted({closures[m] for m in bit_indices(space.maximal_points)}))


def rc_members(space):
    """All regular closed sets: the unions of `rc_atoms`."""
    require_point_budget(space.point_count)
    return unions(rc_atoms(space))


def rc_algebra(space):
    """RC(X) as a pair held by its atoms (`rc_atoms`)."""
    return MereotopologicalPair(space, rc_atoms(space))


def is_semiregular(space):
    """RC(X) is a closed base."""
    # The members are the finite unions of the atoms, all closed.  A
    # member holding x holds an atom holding x, so both families have
    # the same meet at each point (`is_closed_base`).
    return is_closed_base(space, rc_atoms(space))


def subspace(space, mask):
    """Trace topology: singleton closures intersected with the subset."""
    indices = list(bit_indices(mask))
    position = {x: i for i, x in enumerate(indices)}
    names = tuple(space.point_names[x] for x in indices)
    closures = []
    for x in indices:
        local = 0
        for y in bit_indices(space.point_closures[x] & mask):
            local |= 1 << position[y]
        closures.append(local)
    return FiniteSpace(names, tuple(closures))


def restrict_to_subspace_mask(subset_mask, global_mask):
    out = 0
    for i, x in enumerate(bit_indices(subset_mask)):
        if global_mask >> x & 1:
            out |= 1 << i
    return out


@dataclass(frozen=True)
class TopologicalPair:
    """A space with a dense subset of its points."""

    space: FiniteSpace
    subset: int

    def __post_init__(self):
        if not 0 <= self.subset <= self.space.full_mask:
            raise DomainMismatchError("subset mask out of range")
        if closure(self.space, self.subset) != self.space.full_mask:
            raise PreconditionError("the subset is not dense")

    @property
    def dense_part(self):
        return subspace(self.space, self.subset)


def clopen_atoms(space, subset):
    """The atoms of the clopen algebra of the subspace on ``subset``,
    ascending as masks in the ambient point indexing."""
    # A inside the subset is closed there iff it holds cl{x} n subset for
    # each of its points x, and open there iff its complement is closed,
    # i.e. iff it holds each point of the subset whose closure meets A.
    # So the clopens are the unions of connected components of the graph
    # joining x to the points of cl{x} n subset: those are the atoms.
    closures = space.point_closures
    adj = [0] * len(closures)
    rest = subset
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        near = closures[x] & subset
        adj[x] |= near
        while near:
            y = near & -near
            adj[y.bit_length() - 1] |= low
            near ^= y
        rest ^= low
    atoms = []
    rest = subset
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            grown = join_at(adj, frontier)
            frontier = grown & ~seen
            seen |= grown
        atoms.append(seen)
        rest &= ~seen
    return tuple(sorted(atoms))


def clopens_of_subset(space, subset):
    """Clopen subsets of the subspace on ``subset``, kept in the ambient
    point indexing: the unions of `clopen_atoms`."""
    require_point_budget(subset.bit_count())
    return unions(clopen_atoms(space, subset))


def rc_atoms_of_subset(space, subset):
    """The closures of `clopen_atoms`, ascending as masks: the atoms of
    the closures of the clopens of the subspace."""
    # A clopen f is closed in the subset, so cl f n subset = f: f |-> cl f
    # preserves and reflects inclusion, and closure is additive, so the
    # closures of the clopens are the unions of these atoms.
    return tuple(sorted(closure(space, a) for a in clopen_atoms(space, subset)))


def rc_members_of_subset(space, subset):
    """The closures of the clopens of the subspace: the unions of
    `rc_atoms_of_subset`."""
    require_point_budget(subset.bit_count())
    return unions(rc_atoms_of_subset(space, subset))


def rc_pair_algebra(pair):
    """Closures of the clopens of the dense part: the pair's regular
    closed algebra, held by its atoms (`rc_atoms_of_subset`)."""
    return MereotopologicalPair(pair.space, rc_atoms_of_subset(pair.space, pair.subset))


def delta_contact(pair, f, g):
    """Proximity of clopens of the dense part: closures meet in the
    ambient space."""
    return bool(closure(pair.space, f) & closure(pair.space, g))


def restrict_regular_closed(pair, f):
    """RC(X) -> RC(X0), F |-> F n X0; inverse of extend_regular_closed."""
    if closure(pair.space, interior(pair.space, f)) != f:
        raise DomainMismatchError("input is not regular closed in the space")
    return f & pair.subset


def extend_regular_closed(pair, g):
    """RC(X0) -> RC(X), G |-> cl(G) taken in the ambient space."""
    sub = pair.dense_part
    local = restrict_to_subspace_mask(pair.subset, g)
    if g & ~pair.subset:
        raise DomainMismatchError("input is not a subset of the dense part")
    if closure(sub, interior(sub, local)) != local:
        raise DomainMismatchError("input is not regular closed in the dense part")
    return closure(pair.space, g)


def point_trace(members, x):
    """The members containing the point (sigma trace)."""
    return frozenset(m for m in members if m >> x & 1)


def interior_trace(space, members, x):
    """The members whose interior contains the point (nu trace); always a
    filter inside the sigma trace."""
    return frozenset(m for m in members if interior(space, m) >> x & 1)


def closure_trace(pair, x):
    """The clopens of the dense part whose ambient closure contains the
    point (the Gamma trace)."""
    return frozenset(
        f
        for f in clopens_of_subset(pair.space, pair.subset)
        if closure(pair.space, f) >> x & 1
    )


def is_u_point(space, x):
    """Membership in two closures of opens forces membership in the
    closure of their intersection."""
    # x is in cl U iff the up-set U holds a maximal point above x.  If
    # only one atom cl{m} of `rc_atoms` holds x, each such U holds the
    # up-set of m, and so does U n V.  If cl{m} and cl{m'} are distinct
    # atoms holding x, the up-sets of m and m' are disjoint opens whose
    # closures hold x.  So x is a u-point iff exactly one atom holds x.
    return bool(held_once(rc_atoms(space)) >> x & 1)


def held_once(sets):
    """The points held by exactly one of the sets, as a mask."""
    once = twice = 0
    for s in sets:
        twice |= once & s
        once |= s
    return once & ~twice


@dataclass(frozen=True)
class MereotopologicalPair:
    """A space with a chosen Boolean subalgebra of its regular closed
    sets, held by the subalgebra's atoms, its minimal nonzero members,
    ascending as masks.  The members are the unions of the atoms, with

        F + G = F u G,   F . G = cl(int(F n G)),   F* = cl(X \\ F),
        F C G  iff  F n G is nonempty.
    """

    space: FiniteSpace
    atoms: tuple

    def __post_init__(self):
        # Let A_1..A_k be nonzero regular closed sets that cover X with
        # int(A_i n A_j) = 0 for i != j.  For i != j, int A_j misses A_i:
        # an open set that meets A_i = cl(int A_i) meets int A_i, and
        # int A_i n int A_j = int(A_i n A_j) is empty.  So a nonzero
        # union below A_i = cl(int A_i) is A_i itself: the A_i are the
        # minimal members of their unions.  Unions of regular closed sets
        # are regular closed, unions of unions are unions, and X is the
        # union of all atoms.  Let F be the union over T and F' the union
        # of the other atoms.  X \ F lies in the closed F', and each atom
        # A_j of F' is cl(int A_j) with int A_j inside X \ F, so the
        # complement F* = cl(X \ F) is F', a member.  By De Morgan the
        # meet cl(int(F n H)) = cl(int F n int H) of members F and H is
        # (F* u H*)*, a member.  So the 2**k unions are a Boolean
        # subalgebra of RC(X) with atoms A_1..A_k.  Conversely, a Boolean
        # subalgebra of RC(X) has union as its join: it is the 2**k
        # unions of its k atoms, which cover X, the top member, and
        # distinct atoms meet in cl(int(A_i n A_j)) = 0.
        space, atoms = self.space, self.atoms
        if list(atoms) != sorted(set(atoms)):
            raise PreconditionError("the atoms must be distinct and ascending")
        covered = 0
        for a in atoms:
            if not 0 < a <= space.full_mask:
                raise DomainMismatchError(f"atom mask {a} is zero or out of range")
            if closure(space, interior(space, a)) != a:
                raise DomainMismatchError(f"{space.name_set(a)} is not regular closed")
            covered |= a
        if covered != space.full_mask:
            raise PreconditionError("the atoms do not cover the space")
        for a, b in combinations(atoms, 2):
            if interior(space, a & b):
                raise PreconditionError(
                    f"the atoms {space.name_set(a)} and {space.name_set(b)} share an interior point"
                )

    @classmethod
    def from_members(cls, space, members):
        """The pair whose members are the given sets.  Raises on the first
        member that is not regular closed, in input order, then when 0
        or X is missing, then when the family is not closed under
        complement, join and meet."""
        for m in members:
            if closure(space, interior(space, m)) != m:
                raise DomainMismatchError(f"{space.name_set(m)} is not regular closed")
        family = set(members)
        full = space.full_mask
        if 0 not in family or full not in family:
            raise PreconditionError("the subalgebra must contain 0 and 1")
        # A Boolean subalgebra is the unions of its distinct minimal
        # members, which then pass the atom test (`__post_init__`).  The
        # count is compared first, so a family that fails it builds no
        # unions.  When the family holding X is their unions, the minimal
        # members are distinct, ascending, regular closed and cover X, so
        # the constructor can only reject two of them that share an
        # interior point.  The member-pair loop below runs only to name
        # the first failure.
        atoms = minimal_members(family)
        if len(family) == 1 << len(atoms) and family == set(unions(atoms)):
            try:
                return cls(space, atoms)
            except PreconditionError:
                pass
        for f in members:
            if closure(space, full ^ f) not in family:
                raise PreconditionError("subalgebra not closed under complement")
            for g in members:
                if (f | g) not in family or closure(space, interior(space, f & g)) not in family:
                    raise PreconditionError("subalgebra not closed under join/meet")
        raise InternalError("the atom test and the member-pair loop disagree")

    @property
    def members(self):
        """All members, the unions of the atoms, ascending as masks."""
        return unions(self.atoms)

    def meet(self, f, g):
        return closure(self.space, interior(self.space, f & g))

    def complement(self, f):
        return closure(self.space, self.space.full_mask ^ f)

    def contact(self, f, g):
        return bool(f & g)


def u_point_of_pair(mereo, x):
    """u-point of (X, B): x in F n G forces x in cl(int(F n G)) for all
    members F, G."""
    # cl(int(F n G)) is the meet F . G of B, a Boolean subalgebra of RC(X)
    # whose join is union: each member is the union of the distinct atoms
    # of B below it, and those atoms cover X, the top member.  If exactly
    # one atom a holds x, each member holding x holds a, so F . G holds
    # a and x.  If distinct atoms a and b hold x, then a . b = 0 misses x.
    # So x is a u-point iff exactly one atom holds x.
    return bool(held_once(mereo.atoms) >> x & 1)


def overlap_clans(atoms):
    """The clan supports of the contact algebra on the nonzero sets
    ``atoms`` whose kernel is overlap (atom i related to atom j when
    atoms[i] meets atoms[j]), in (size, atoms) order."""
    # Overlap is reflexive and symmetric, so it is its own contact
    # closure, and the clans are the cliques of its adjacency.  The
    # width checks are those of building that algebra and its clans.
    require_atom_width(len(atoms))
    require_enum_width(len(atoms))
    return clique_supports([mask_of(j for j, b in enumerate(atoms) if a & b) for a in atoms])


def first_unrealized_support(atoms, supports, point_count):
    """The first support (a mask over ``atoms``) that is not the atom
    support {i : x in atoms[i]} of any point x, or None."""
    # On a family of the unions of distinct atoms, atom i inside the
    # union over T iff i is in T, the members above an atom of S are the
    # unions over the T meeting S, and the members holding x those over
    # the T meeting the atom support of x.  By singleton T, the two agree
    # iff S is that support: an element set is a point trace iff its
    # support is realized here.
    support_of = [0] * point_count
    for i, a in enumerate(atoms):
        for x in bit_indices(a):
            support_of[x] |= 1 << i
    realized = set(support_of)
    return next((s for s in supports if s not in realized), None)


def is_c_semiregular(space):
    """Semiregular T0 space where every clan of the regular closed
    contact algebra is the sigma trace of a point."""
    # RC(X) is the unions of the distinct `rc_atoms`, so a clan is a trace
    # iff its support is an atom support (`first_unrealized_support`).
    if not is_t0(space) or not is_semiregular(space):
        return False
    atoms = rc_atoms(space)
    return first_unrealized_support(atoms, overlap_clans(atoms), space.point_count) is None
