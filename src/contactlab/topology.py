"""Finite topological spaces, regular closed algebras and point traces.

A finite topology is determined by its singleton closures: a set is
closed exactly when it contains the closure of each of its points.  A
space is therefore stored as the tuple of point-closure masks, which
keeps closure and interior polynomial.  A space
built from a closed base, and the closed-base test, read the closure of
a point as the meet of the base members that hold it (`_meets`); such a
space skips the closure checks of `FiniteSpace`, which `_meets` output
meets by construction, and keeps the name checks when it is given
names.  It also keeps its base and the signatures of its points,
sig(x) = {i : x in base[i]}, as attributes outside the dataclass
fields, so equality, hashing and repr are those of its names and
closures.  It may be named by a rule on its signatures instead of a
tuple of names: it then derives its names on their first read and
keeps them.  A canonical dual is named so, by its clan supports, and a
passing check reads no name, so a dual that is only checked builds no
text.  The maximal
points are the points held by exactly one distinct closure, and T0 is
decided, once per space.

Families are held by their atoms: the clopens of a subspace by its
connected components (`clopen_atoms`), the regular closed sets by the
closures of the maximal points (`rc_atoms`), and a Boolean subalgebra
of them, RC(X) and the pair's algebra included, as a
`MereotopologicalPair` of its atoms, whose constructor takes one
interior per atom.  When the atoms are the closed base the space was
built from, covering it with a point of each singleton signature, as on
every canonical dual, the interiors are read off the signatures and no
interior is taken (`_signature_interiors`); the C-semiregularity tests
of such atoms decide the clans once per space, at the base and its
signatures, and when all of them are realized they pass with no
`_meets` and no `transpose` (`_c_semiregular_tests`).  A pair (X, X0)
is read through one table, `pair_atoms`: the clopen atoms of X0, their closures, the
atoms whose closures hold each point, and the Stone and closed-base
verdicts of the pair, kept on the space for the last subset asked for.  When the
closures of the clopen atoms are the base the space was built from, in
order, the point supports are its signatures and the closed-base
verdict is True, read off the base with no further pass.  A family
whose members are closed by construction (atom closures, `rc_atoms`,
the atoms of a pair) is decided a closed base without a closedness
pass (`_is_base_of_closed`).  The point budget bounds only the
functions that return a whole family: `rc_members`, `clopens_of_subset`,
`rc_members_of_subset` and `closure_trace`.
Predicates decide at the atoms at any size.

Point sets are integer bitmasks over the point index, matching the
element encoding of the Boolean side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import NamedTuple

from .boolean import bit_indices, join_at, meeting_rows, reach, transpose
from .config import require_point_budget
from .errors import DomainMismatchError, InternalError, PreconditionError
from .memo import once
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
            if join_at(closures, cl) & ~cl:
                raise PreconditionError("singleton closures are not transitive")

    def _check_shape(self):
        n = len(self.point_names)
        if len(set(self.point_names)) != n:
            raise PreconditionError("point names must be distinct")
        if len(self.point_closures) != n:
            raise PreconditionError("one closure mask per point required")

    @classmethod
    def _of_closed_base(cls, point_names, base, signatures):
        """The space of the closed base ``base``, a tuple of masks, whose
        signatures are ``signatures``: sig(x) = {i : x in base[i]}, the
        `transpose` of the members cut to the points, one per point.
        cl{x} is the meet of the members holding x (`_meets`).  Its
        output is in range, reflexive and transitive by construction
        (`space_from_closed_base`), so only the checks the names and the
        count can break are run.  The base and the signatures are kept
        on the frozen space (`memo`), not as fields, so equality,
        hashing and repr see the names and closures only; `pair_atoms`
        reads them.

        ``point_names`` is a tuple of names, or a rule naming a point by
        its signature.  A rule is kept instead of the names, and
        `point_names` applies it to the signatures on its first read
        (`_named_by_rule`); a space whose names are never read builds
        none.  The caller vouches that the rule names distinct
        signatures apart and that the signatures are distinct, so the
        names are distinct and the shape check is not run: there is one
        closure per signature, hence one per name."""
        closures = tuple(_meets(len(signatures), base))
        space = object.__new__(cls)
        object.__setattr__(space, "point_closures", closures)
        if callable(point_names):
            once.keep(space, "_name_rule", point_names)
        else:
            object.__setattr__(space, "point_names", point_names)
            space._check_shape()
        once.keep(space, "_base", base)
        once.keep(space, "_signatures", signatures)
        return space

    @property
    def point_count(self):
        return len(self.point_closures)

    @property
    def full_mask(self):
        return (1 << self.point_count) - 1

    def name_set(self, mask):
        try:
            return "{" + ",".join(self.point_names[i] for i in bit_indices(mask)) + "}"
        except IndexError:
            raise DomainMismatchError(
                f"mask {mask} outside space with {self.point_count} points"
            ) from None

    @once
    def maximal_points(self):
        """The points whose closure holds every point above them (y is
        above x when x is in cl{y}), as a mask: the points held by
        exactly one distinct closure.  Computed once per object."""
        # If x is in cl{y}, then cl{x} lies inside cl{y}, and y is in
        # cl{x} iff the two closures are equal.  So x is maximal iff
        # every closure holding x is cl{x}, which holds x: iff exactly
        # one distinct closure holds x.  No T0 assumption is used.
        return held_once(set(self.point_closures))

    @once
    def t0(self):
        """`is_t0`, computed once per object: each validator and report
        of the space reads it here."""
        return is_t0(self)

    @once
    def base_unrealized(self):
        """On a space built from a closed base whose members are distinct,
        nonzero and in range: the first overlap clan of the base, a
        support over its members in base order, that no signature
        realizes, or None (`first_unrealized_support`).  Computed once
        per object, so (CS4) of a pair whose atom closures are the base
        and the clan line of the pair held by the base share one pass."""
        return first_unrealized_support(self._signatures, overlap_clans(self._base))


def _named_by_rule(space):
    """The names of a space built with a naming rule (`_of_closed_base`):
    the rule applied to the signature of each point, in point order."""
    return tuple(map(space._name_rule, space._signatures))


# `point_names` is a field without a default, so the class holds no
# attribute of that name and this non-data descriptor is reached only
# when the space holds no names: on a space built with a naming rule,
# until the first read, which keeps the names it derives (`memo.once`).
# Equality, hashing, repr and every reader of the field read them
# through it, so they see the same tuple as on a space built with it.
FiniteSpace.point_names = once(_named_by_rule, "point_names")


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
    break, still run.  The space keeps the base and the signatures
    sig(x) = {i : x in base[i]} of its points, one `transpose` of the
    members cut to the points (`FiniteSpace._of_closed_base`)."""
    names = tuple(point_names)
    base = tuple(base_masks)
    full = (1 << len(names)) - 1
    signatures = tuple(transpose([m & full for m in base], len(names)))
    return FiniteSpace._of_closed_base(names, base, signatures)


def discrete_space(point_names):
    names = tuple(point_names)
    return FiniteSpace(names, tuple(1 << i for i in range(len(names))))


def require_subset(space, mask):
    """Raise DomainMismatchError unless ``mask`` is a set of the space's
    points."""
    if not 0 <= mask <= space.full_mask:
        raise DomainMismatchError("subset mask out of range")


def require_point(space, x):
    """Raise DomainMismatchError unless ``x`` is a point index of the
    space."""
    if not 0 <= x < space.point_count:
        raise DomainMismatchError(f"point {x} outside space with {space.point_count} points")


def closure(space, mask):
    """The closure of a set of points, the join of their closures.  A
    mask outside the space, a negative one included, raises
    DomainMismatchError as `require_subset` does; the walk meets it, so
    an in-range mask pays no test."""
    closures = space.point_closures
    out = 0
    try:
        while mask:
            low = mask & -mask
            out |= closures[low.bit_length() - 1]
            mask ^= low
    except IndexError:
        raise DomainMismatchError("subset mask out of range") from None
    return out


def is_closed(space, mask):
    return closure(space, mask) == mask


def interior(space, mask):
    require_subset(space, mask)
    full = space.full_mask
    return full ^ closure(space, full ^ mask)


def is_open(space, mask):
    return is_closed(space, space.full_mask ^ mask)


def minimal_open(space, x):
    """Smallest open set containing the point: everyone whose closure
    reaches x."""
    require_point(space, x)
    return sum(
        1 << y for y in range(space.point_count) if space.point_closures[y] >> x & 1
    )


def is_t0(space):
    return len(set(space.point_closures)) == space.point_count


def is_t1(space):
    # On a finite space T1 is also Hausdorff and Stone: a finite space is
    # compact, and T1 makes it discrete, as every set, a finite union of
    # points, is closed; a discrete space is zero-dimensional, as every
    # set is clopen.
    return all(cl == 1 << x for x, cl in enumerate(space.point_closures))


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


def is_extremally_disconnected(space):
    """Closures of open sets are open."""
    # Every open set is the union of the smallest open sets of its
    # points, unions of opens are open and closure is additive: it
    # suffices that cl(minimal_open(x)) is open for every point x.
    return all(
        is_open(space, closure(space, minimal_open(space, x)))
        for x in range(space.point_count)
    )


def _is_base_of_closed(space, members):
    """Is the family of closed members a closed base, i.e. is every
    closed set an intersection of finite unions of members?  Iff the
    meets of the members holding each point are the point closures.

    Checked on singleton closures, since every closed set is a finite
    union of them: the hull of each cl{x} must be cl{x} itself.  The
    hull of the empty set is always empty.  With closed members that
    hull is meet[x] (`_meets`): the hull of {x} is an intersection of
    finite unions of closed sets, so a closed set holding x, and it
    holds cl{x}; the hull is monotone, and the hull of a hull is itself,
    so hull(cl{x}) = hull({x}).
    """
    return _meets(space.point_count, members) == list(space.point_closures)


def space_predicates(space):
    """The predicates that `validate` of a space prints, by name."""
    # Hausdorff and Stone are T1 at finite scale (`is_t1`).
    t1 = is_t1(space)
    return {
        "is_T0": is_t0(space),
        "is_semiregular": is_semiregular(space),
        "is_connected": is_connected(space),
        # a finite space is compact: every open cover is finite
        "is_compact": True,
        "is_hausdorff": t1,
        "is_zero_dimensional": is_zero_dimensional(space),
        "is_stone": t1,
        "is_extremally_disconnected": is_extremally_disconnected(space),
    }


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
    # The members are the finite unions of the atoms, the closures of
    # points.  A member holding x holds an atom holding x, so both
    # families have the same meet at each point (`_is_base_of_closed`).
    return _is_base_of_closed(space, rc_atoms(space))


@dataclass(frozen=True)
class TopologicalPair:
    """A space with a dense subset of its points."""

    space: FiniteSpace
    subset: int

    def __post_init__(self):
        require_subset(self.space, self.subset)
        if closure(self.space, self.subset) != self.space.full_mask:
            raise PreconditionError("the subset is not dense")


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
        component = reach(adj, rest & -rest)
        atoms.append(component)
        rest &= ~component
    return tuple(sorted(atoms))


class PairAtoms(NamedTuple):
    """The pair (X, X0) read at the clopen atoms of X0 (`pair_atoms`)."""

    subset: int
    closures: tuple
    support: tuple | list  # a closed base's signatures, or a transpose
    stone: bool
    closed_base: bool

    @property
    def atoms(self):
        """The clopen atoms, ascending as masks.  Each closure meets the
        subset in its atom, so the atoms are read back off the closures
        instead of kept: each object a dual keeps alive is one more for
        the cycle collector to trace."""
        return tuple(c & self.subset for c in self.closures)


def pair_atoms(space, subset):
    """The table of the pair (space, subset) at the clopen atoms of the
    subset (`clopen_atoms`, ascending as masks): ``closures``, their
    closures in that order, and ``atoms``, read back off them;
    ``support[x]``, the mask of the atoms whose closures hold the point
    x; ``stone``, is the subspace a Stone space; ``closed_base``, do the
    closures of the clopens of the subset form a closed base.  The space
    keeps the table of the last subset asked for and rebuilds it for
    another one.

    The clopens of the subspace form a finite Boolean algebra of sets
    whose atoms partition the subset, so each clopen is the union of
    the atoms below it.  Closure is additive, so the closures of the
    clopens are the unions of the atom closures, and a clopen f is
    closed in the subset, so cl f n subset = f: each atom closure meets
    the subset in its atom, and a point of the subset is held by the
    closure of its own atom only.

    Stone: a finite space is compact, Hausdorff is T1 there, T1 forces
    discrete and discrete forces zero-dimensional.  So the subspace is
    Stone iff each of its singleton closures, cl{x} & subset, is {x}.
    The clopen atoms are the components of the graph joining each x of
    the subset to the points of cl{x} & subset (`clopen_atoms`), so that
    holds iff every atom is one point: iff there are as many atoms as
    points in the subset.

    Closed base: the closures of the clopens are the finite unions of
    the atom closures.  A union holds x iff one of its members does, so
    both families have the same meet of the members holding each point,
    and both consist of closed sets: they get the same verdict
    (`_is_base_of_closed`).  The atom closures are closed without a test:
    for y in cl{x}, cl{y} lies inside cl{x}, as point closures are
    transitive (checked by `FiniteSpace`, and given by `_meets` to a
    space built from a closed base), so a union of point closures holds
    the closure of each of its points.  So the verdict is the comparison
    of the meets with the point closures (`_is_base_of_closed`).

    A space built from a closed base keeps the base and the signatures
    of its points (`FiniteSpace._of_closed_base`).  When the closures
    are that base, in order, ``support`` is the signatures and
    ``closed_base`` is True, with no `transpose` and no `_meets` pass;
    the proof is beside the code.  Otherwise both are computed as above.
    """
    table = getattr(space, "_pair_atoms", None)
    if table is None or table.subset != subset:
        require_subset(space, subset)
        closures = tuple(closure(space, a) for a in clopen_atoms(space, subset))
        # A space built from a closed base whose members are these
        # closures, in this order, holds the table already.  The point
        # closures are `_meets` of that base, so they are the meets of
        # the closures holding each point: the closed-base verdict is
        # True.  The members are then in range, as closures are, so the
        # signatures are `transpose(closures)`: support[x] is sig(x).  On
        # every canonical dual this holds for the dense part (see
        # `structures._canonical_pcs`).
        if closures == getattr(space, "_base", None):
            support, closed_base = space._signatures, True
        else:
            support = transpose(closures, space.point_count)
            closed_base = _is_base_of_closed(space, closures)
        table = PairAtoms(
            subset, closures, support, len(closures) == subset.bit_count(), closed_base
        )
        once.keep(space, "_pair_atoms", table)
    return table


def clopens_of_subset(space, subset):
    """Clopen subsets of the subspace on ``subset``, kept in the ambient
    point indexing: the unions of its clopen atoms (`pair_atoms`)."""
    require_point_budget(subset.bit_count())
    return unions(pair_atoms(space, subset).atoms)


def rc_atoms_of_subset(space, subset):
    """The closures of the clopen atoms of the subset (`pair_atoms`),
    ascending as masks: the atoms of the closures of the clopens of the
    subspace."""
    # A clopen f is closed in the subset, so cl f n subset = f: f |-> cl f
    # preserves and reflects inclusion, and closure is additive, so the
    # closures of the clopens are the unions of these atoms.
    return tuple(sorted(pair_atoms(space, subset).closures))


def rc_members_of_subset(space, subset):
    """The closures of the clopens of the subspace: the unions of
    `rc_atoms_of_subset`."""
    require_point_budget(subset.bit_count())
    return unions(rc_atoms_of_subset(space, subset))


def rc_pair_algebra(pair):
    """Closures of the clopens of the dense part: the pair's regular
    closed algebra, held by its atoms (`rc_atoms_of_subset`)."""
    return MereotopologicalPair(pair.space, rc_atoms_of_subset(pair.space, pair.subset))


def point_trace(members, x):
    """The members containing the point (sigma trace).  The members are
    masks of no given space, so only a negative index is refused."""
    if x < 0:
        raise DomainMismatchError(f"point {x} is negative")
    return frozenset(m for m in members if m >> x & 1)


def interior_trace(space, members, x):
    """The members whose interior contains the point (nu trace); always a
    filter inside the sigma trace."""
    require_point(space, x)
    return frozenset(m for m in members if interior(space, m) >> x & 1)


def closure_trace(pair, x):
    """The clopens of the dense part whose ambient closure contains the
    point (the Gamma trace)."""
    require_point(pair.space, x)
    return frozenset(
        f
        for f in clopens_of_subset(pair.space, pair.subset)
        if closure(pair.space, f) >> x & 1
    )


def held_once(sets):
    """The points held by exactly one of the sets, as a mask."""
    once = twice = 0
    for s in sets:
        twice |= once & s
        once |= s
    return once & ~twice


def _signature_interiors(space, atoms):
    """The interiors of the members B_0 .. B_{k-1} of the closed base the
    space was built from, in base order, read off the signatures:
    int B_j is the set of points whose signature is {j}.  None unless
    ``atoms`` are that base, ascending, they cover the space, and every
    B_j has a point whose signature is {j}, as on every canonical dual
    (the ultrafilter clans)."""
    # The closure of a point y is the meet of the members holding it
    # (`_meets`), so x is in cl{y} iff sig(y) lies inside sig(x).  The
    # smallest open set holding x, the y with x in cl{y}, is therefore
    # U_x = {y : sig(y) inside sig(x)}, and x is in int B_j iff every
    # such y has j in sig(y).  The atoms cover the space, so no
    # signature is empty.  If sig(x) = {j}, every y in U_x has sig(y) =
    # {j}, so x is in int B_j.  If j is not in sig(x), x is not in B_j.
    # If sig(x) holds j and some i != j, the point z with sig(z) = {i} is
    # in U_x and not in B_j, so x is not in int B_j.  Hence int B_j is
    # the points of signature {j}.  It holds the point z_j of signature
    # {j}, and cl{z_j} = B_j, so B_j is nonzero and B_j = cl(int B_j)
    # (B_j is closed); interiors of distinct members are disjoint, as a
    # point has one signature; and the cover makes every atom in range.
    base = getattr(space, "_base", None)
    if base is None or sorted(base) != list(atoms) or reduce(or_, atoms, 0) != space.full_mask:
        return None
    interiors = [0] * len(base)
    for x, s in enumerate(space._signatures):
        if not s & (s - 1):
            interiors[s.bit_length() - 1] |= 1 << x
    return interiors if all(interiors) else None


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
        # When the interiors can be read off the signatures, every atom
        # is nonzero, in range and regular closed, the atoms cover the
        # space and distinct atoms have disjoint interiors
        # (`_signature_interiors`): no test below can fail.
        if _signature_interiors(space, atoms) is not None:
            return
        # The interior of each atom is taken once, for its regularity
        # test, and each pair is tested by int(A n B) = int A n int B:
        # int A n int B is an open set inside A n B, and int(A n B) lies
        # inside int A and int B, as the interior is monotone.
        covered, interiors = 0, []
        for a in atoms:
            if not 0 < a <= space.full_mask:
                raise DomainMismatchError(f"atom mask {a} is zero or out of range")
            interiors.append(interior(space, a))
            if closure(space, interiors[-1]) != a:
                raise DomainMismatchError(f"{space.name_set(a)} is not regular closed")
            covered |= a
        if covered != space.full_mask:
            raise PreconditionError("the atoms do not cover the space")
        for (a, int_a), (b, int_b) in combinations(zip(atoms, interiors), 2):
            if int_a & int_b:
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


def overlap_clans(atoms):
    """Yield the clan supports of the contact algebra on the nonzero sets
    ``atoms`` whose kernel is overlap (atom i related to atom j when
    atoms[i] meets atoms[j]), in (size, atoms) order."""
    # Overlap is reflexive and symmetric, so it is its own contact
    # closure, and the clans are the cliques of its adjacency, yielded
    # one by one as the walk grows them: no algebra is built.
    return clique_supports(meeting_rows(atoms, atoms))


def first_unrealized_support(point_supports, supports):
    """The first of ``supports`` (masks over a list of atoms) that is not
    the atom support {i : x in atoms[i]} of any point x, or None.
    ``point_supports[x]`` is that support, the `transpose` of the atoms
    over the points.

    ``supports`` may be a lazy walk (`overlap_clans`), and is read only
    up to the first unrealized member.  When its members are distinct,
    as the cliques of a walk are, that is at most P + 1 of them, P the
    number of points: the realized supports are at most P distinct
    masks, so among any P + 1 distinct supports one is not realized.
    On a walk of the cliques of k atoms the scan then takes O(P) steps
    on k-bit masks (`clique_supports`), however many cliques there are."""
    # On a family of the unions of distinct atoms, atom i inside the
    # union over T iff i is in T, the members above an atom of S are the
    # unions over the T meeting S, and the members holding x those over
    # the T meeting the atom support of x.  By singleton T, the two agree
    # iff S is that support: an element set is a point trace iff its
    # support is realized here.
    realized = set(point_supports)
    return next((s for s in supports if s not in realized), None)


def _c_semiregular_tests(space, atoms):
    """The three tests of C-semiregularity over the distinct nonzero
    closed sets ``atoms``, regular closed and covering the space: do
    their unions form a closed base, is the space T0, and the support
    of the first overlap clan of the atoms that no point realizes, or
    None.  When the atoms are the closed base the space was built from
    and every overlap clan of that base is realized
    (`FiniteSpace.base_unrealized`), the first is True and the third
    None, with no `_meets` and no `transpose`."""
    # A union holding x holds an atom holding x, so the unions and the
    # atoms have the same meet at each point (`_is_base_of_closed`).  The
    # unions are a Boolean subalgebra of RC(X) whose atoms these are, so
    # a clan is a trace iff its support is an atom support
    # (`first_unrealized_support`).
    #
    # On the base B, ascending: `_meets` takes the members as a set, so
    # the atoms and B have the same meets, which are the point closures
    # by construction (`_of_closed_base`): the space is a closed base.
    # Atom i is B_j for the j with atoms[i] = B_j, so the atom support of
    # x is sig(x) with each j moved to that i, and the overlap clans of
    # the atoms are those of B moved the same way.  Moving every support
    # by one bijection keeps "realized", so when every clan of B in base
    # order is realized, so is every clan of the atoms.  Otherwise the
    # general path below names the first failure in atom order, and its
    # closed-base verdict is True, as above.
    base = getattr(space, "_base", None)
    if base is not None and sorted(base) == list(atoms) and space.base_unrealized is None:
        return True, space.t0, None
    supports = transpose(atoms, space.point_count)
    closed_base = _is_base_of_closed(space, atoms)
    return closed_base, space.t0, first_unrealized_support(supports, overlap_clans(atoms))
