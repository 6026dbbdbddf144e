"""Composite space structures: 2-precontact spaces, 2-contact spaces,
Stone 2-spaces, mereotopological pairs and their validators.

Validators return witness-bearing reports rather than booleans; a failed
axiom never raises, it is recorded with a concrete counterexample.
Canonical constructions index their points by clan support in
(size, atoms) order, which keeps serialization and isomorphism checks
stable; a point is named by its support's atoms ("c0-2") only when a
caller reads the names, and the ultrafilter clans are the first
points.  Every reader of a pair (X, X0) at the clopen atoms of X0 reads
one table, `topology.pair_atoms`, built once per space and subset: the
2-precontact, 2-contact and Stone 2-space validators take their Stone
and closed-base verdicts from it, (PCS5), (CS4) and (S2S4) its atoms whose closures
hold each point, and (PCS4) which of its atom closures meet; (PCS2)
decides closedness of the relation on the ambient masks, building no
subspace; the canonical algebra, the pair-determined relation and
connectedness read its atoms and their closures.  Only the kernel
rows of the canonical algebra, which (PCS4) and (PCS5) read off the
relation's reach, are kept on the triple (`_kernel_rows`), and the
canonical algebra reads them.  The canonical algebra is held by its
atoms, the closures of the dense part's clopen atoms in the table's order; its
2**n members are built only when asked for.  A canonical dual keeps the
algebra it was built from, and its canonical algebra is that algebra
itself once the rows read off the triple are checked to be its
kernel's, so the dual of the dual of an algebra is its dual again.  The
validators and the mereocompactness report read T0 off the space, which
decides it once; on a canonical dual, (CS4) and the report's clan line
share one overlap-clan pass of the space's closed base
(`FiniteSpace.base_unrealized`).  The canonical triple's space is built
from the atom clan sets and the clan supports its algebra holds, as its
closed base and signatures, so its dense part's table is read off them.  Every
realization line, (PCS5), (CS4), (S2S4) and the mereocompactness clan
line, is added by one function (`_realization_check`), which names a
failing element set by the atoms of its support, at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .boolean import (
    FiniteBooleanAlgebra,
    bit_indices,
    join_at,
    meeting_rows,
    transpose,
)
from .errors import DomainMismatchError, PreconditionError, ValidationError
from .memo import once, remember
from .precontact import PrecontactAlgebra, RelationKernel, clique_supports
from .report import CheckList, ReportBuilder
from .topology import (
    FiniteSpace,
    _c_semiregular_tests,
    clopen_atoms,
    closure,
    first_unrealized_support,
    held_once,
    overlap_clans,
    pair_atoms,
    rc_atoms,
    rc_atoms_of_subset,
    require_subset,
    unions,
)

# ---------------------------------------------------------------------------
# shared helpers for the clopen algebra of a subspace


def _realization_check(report, name, prefix, space, family, unrealized):
    """Add the realization line ``name``: is every element set asked
    about a point trace?  ``unrealized`` is the support, a mask over
    ``family.atoms`` (of a `pair_atoms` table or a pair), of the first
    that is not (`first_unrealized_support`), or None.  A failing line
    names that support by its atoms: the element set is the members
    above one of them, so they fix it.  The atoms are read only then."""
    witness = None
    if unrealized is not None:
        atoms = family.atoms
        chosen = ",".join(space.name_set(atoms[i]) for i in bit_indices(unrealized))
        witness = prefix + "support {" + chosen + "}"
    report.add(name, unrealized is None, witness)


def _relation_out_masks(space, subset, relation):
    """succ[x]: the points y with (x, y) in the relation, as a mask.
    Raises on the first pair, in iteration order, that is out of range
    or leaves the subset; range is checked first, so no pair indexes
    ``succ`` unchecked."""
    count = space.point_count
    succ = [0] * count
    for x, y in relation:
        if not (0 <= x < count and 0 <= y < count):
            raise DomainMismatchError(f"relation pair ({x}, {y}) out of range")
        if not (subset >> x & 1 and subset >> y & 1):
            raise DomainMismatchError(
                f"relation pair ({x}, {y}) leaves the chosen subset"
            )
        succ[x] |= 1 << y
    return succ


# ---------------------------------------------------------------------------
# 2-precontact spaces


@dataclass(frozen=True)
class TwoPrecontactSpace(CheckList):
    """A space, a subset of its points and a relation on the subset,
    together with the cached validation verdicts for (PCS1)..(PCS5)."""

    space: FiniteSpace
    subset: int
    relation: frozenset
    checks: tuple = field(default=(), compare=False)

    @once
    def _rows(self):
        """The kernel rows of the canonical algebra (`_kernel_rows`): the
        ones `validate_pcs` computed, rebuilt only for a triple
        constructed directly."""
        succ = _relation_out_masks(self.space, self.subset, self.relation)
        return _kernel_rows(succ, pair_atoms(self.space, self.subset))

    @once
    def _algebra(self):
        # pcs_algebra, computed once per object
        if not self.ok:
            raise ValidationError(
                "not a 2-precontact space: " + (self.failure_summary(" ") or "no checks")
            )
        # The members are the closures cl f of the clopens f of the dense
        # part: the unions of the closures of the clopen atoms, which are
        # their atoms (`rc_atoms_of_subset`), taken here in the table's
        # order, that of the clopen atoms ascending as masks (`pair_atoms`).
        # cl f meets the dense part in f, so cl f and cl g are in contact
        # iff some point of f is related to some point of g, i.e. iff
        # reach[f] meets g.  reach[f] lies in the subset, which cl g meets
        # in g: iff reach[f] meets cl g.  The kernel's rows are those, the
        # rows `validate_pcs` kept (`_kernel_rows`).
        #
        # On the canonical dual T_A of an algebra A (`_canonical_pcs`)
        # these rows are A's own.  Its dense part is discrete with the
        # clopen atoms {0} .. {n-1}, in order, and their closures are the
        # atom clan sets B_0 .. B_{n-1}, each meeting the dense part in
        # its own point (the proof at `_canonical_pcs`).  reach[i] is the
        # points related to i, which are the kernel successors of i, and
        # it lies in the dense part, so it meets B_j iff it holds j: row i
        # is the successor mask of atom i.  So the triple keeps A
        # (`_source`), and when the rows read off the triple are A's, the
        # canonical algebra is A itself, whose dual is this triple (an
        # equal one, for a copied triple); any other triple gets a kernel
        # built from the rows.
        closed = pair_atoms(self.space, self.subset).closures
        rows = self._rows
        source = getattr(self, "_source", None)
        if source is not None and rows == source.kernel.succ:
            return PcsAlgebra(self, source, closed)
        algebra = FiniteBooleanAlgebra(len(closed))
        pca = PrecontactAlgebra(algebra, RelationKernel(algebra, rows))
        return PcsAlgebra(self, pca, closed)


def validate_pcs(space, subset, relation):
    """Check (PCS1)..(PCS5) and return the triple with its report.

    Failures carry witnesses; precondition breaches (a relation pair out
    of range or leaving the subset) raise instead, in the one pass that
    reads the relation into successor masks.  (PCS2) and (PCS3) take the
    Stone and closed-base verdicts of the pair's table (`pair_atoms`),
    (PCS4) which of its atom closures meet, and (PCS5) its atoms whose
    closures hold each point.  On a dense part that is not Stone, (PCS2)
    decides the closedness of the relation at the successor masks and
    the point closures of the space, with no subspace built.  Every
    check is polynomial in the points, with no family of the clopen
    algebra built, so the validator decides at any size and reads no
    budget.
    """
    require_subset(space, subset)
    relation = frozenset(relation)
    succ = _relation_out_masks(space, subset, relation)
    report = ReportBuilder("(PCS1)..(PCS5)")

    dense = closure(space, subset) == space.full_mask
    t0 = space.t0
    pcs1 = dense and t0
    report.add("(PCS1)", pcs1, None if pcs1 else f"dense={dense}, T0={t0}")

    table = pair_atoms(space, subset)
    closed, support, stone = table.closures, table.support, table.stone
    # A finite Stone dense part is discrete, so is its square, and every
    # relation on it is closed.  Only a dense part that is not Stone needs
    # the closedness check, to name the second half of the witness.
    #
    # In the square of the dense part D the closure of a point (x, w) is
    # cl_D{x} x cl_D{w}, and a finite set is closed iff it holds the
    # closure of each of its points.  So the relation is closed iff, for
    # each x in D and each y in cl_D{x}, every cl_D{w} with w in succ[x]
    # lies in succ[y]: iff their join cl_D(succ[x]) does.  In the subspace
    # a set S inside D has closure cl(S) n D, and cl_D{x} = cl{x} n D, so
    # the test reads the ambient masks.
    closed_rel = stone or not any(
        closure(space, succ[x]) & subset & ~succ[y]
        for x in bit_indices(subset)
        for y in bit_indices(space.point_closures[x] & subset)
    )
    pcs2 = stone and closed_rel
    report.add("(PCS2)", pcs2, None if pcs2 else f"stone={stone}, closed relation={closed_rel}")
    report.add("(PCS3)", table.closed_base, "the pair's regular closed sets are not a closed base")

    # adj[i]: the atoms j with f_i C# f_j under the contact closure C# of
    # C (the overlap of distinct atoms is empty): the atoms j that
    # reach[i] meets (`_kernel_rows`), and the atoms j whose reach meets
    # f_i, the transpose of those rows.
    reached = _kernel_rows(succ, table)
    reaching = transpose(reached, len(closed))
    adj = [(1 << i) | r | b for i, (r, b) in enumerate(zip(reached, reaching))]

    # (PCS4) asks that clopens f and g whose closures meet be in contact
    # under C#.  missing[i] is the atoms j whose closures meet cl f_i
    # without f_i C# f_j: the row i of `meeting_rows` outside adj[i].
    # That row is the join of support over the points of cl f_i, as
    # support[x] is the mask of the atoms whose closures hold x: the
    # join holds j iff some point of cl f_i lies in cl f_j, iff the two
    # closures meet.  A failing pair (f, g) has a failing atom pair
    # a <= f, b <= g below it: closure is additive, so the closures of
    # some such a and b meet, and a C# b would give f C# g, as reach and
    # overlap are monotone.  So (PCS4) holds iff every missing[i] is 0.
    # Its first failing pair among the clopens, in ascending order as
    # masks, is an atom pair too, since a <= f and b <= g as masks: the
    # first i with missing[i] nonzero and the lowest atom j of
    # missing[i], the atoms being ascending.  So the witness is named
    # from the atoms, and no clopen family is built.
    missing = [m & ~a for m, a in zip(meeting_rows(closed, closed), adj)]
    first = next((i for i, m in enumerate(missing) if m), None)
    pcs4_witness = None
    if first is not None:
        j = (missing[first] & -missing[first]).bit_length() - 1
        atoms = table.atoms
        pcs4_witness = f"({space.name_set(atoms[first])},{space.name_set(atoms[j])})"
    report.add("(PCS4)", first is None, pcs4_witness)

    # The clans of the clopen algebra under C# are the cliques of adj,
    # and a clan is a closure trace iff its support is the support of a
    # point (`_validate_pair`).  The walk is read up to the first
    # unrealized clique, at most point count + 1 of them
    # (`first_unrealized_support`).
    unrealized = first_unrealized_support(support, clique_supports(adj))
    _realization_check(report, "(PCS5)", "unrealized clan ", space, table, unrealized)

    triple = TwoPrecontactSpace(space, subset, relation, report.checks)
    once.keep(triple, "_rows", reached)
    return triple


def _kernel_rows(succ, table):
    """rows[i]: the clopen atoms j of the pair's table whose closures
    meet reach[i], the points related to a point of the clopen atom
    f_i, so that f C g iff reach[f] meets g, and reach is additive.
    These are the kernel rows of the canonical algebra
    (`TwoPrecontactSpace._algebra`)."""
    # reach[i] is the union of succ over the closure of f_i cut to the
    # subset, which is f_i.  It lies in the subset (the span check of
    # `_relation_out_masks`), and a point y of the subset is held by the
    # closure of its own atom only (cl f n subset = f for a clopen f):
    # support[y] is that atom's bit, and the atoms j that reach[i] meets
    # are the join of support over reach[i].
    subset, support = table.subset, table.support
    return tuple(join_at(support, join_at(succ, c & subset)) for c in table.closures)


def triple_is_connected(triple):
    """Is the triple's space connected?  Read at the closures of the
    clopen atoms of its subset when the subset is dense, as in every
    valid triple (`_first_component`)."""
    return _first_component(triple) == triple.space.full_mask


def _first_component(triple):
    """A clopen atom of the triple's space (0 when it has no points): the
    one holding the closure of the first clopen atom of its subset when
    the subset is dense, as in every valid triple, read at those
    closures; the first of the whole-space `clopen_atoms` otherwise."""
    # Let D be dense in X, with clopen atoms A_1..A_k.  A clopen U of X
    # meets D in a clopen of D, so A_i lies inside U or misses it, and
    # then cl A_i lies inside U or inside the closed X \ U.  So each
    # cl A_i lies in one clopen atom of X, and so do two that meet, as
    # the clopen atoms are disjoint: each class of the cl A_i under
    # "closures meet" lies in one.  X = cl D is the union of the cl A_i,
    # so the union of a class is closed, and so is the union of the
    # other classes, its complement: it is clopen.  The clopen atoms of
    # X are therefore the unions of the classes: the class grown from the
    # first closure is the clopen atom holding it.
    space = triple.space
    require_subset(space, triple.subset)
    if closure(space, triple.subset) != space.full_mask:
        return next(iter(clopen_atoms(space, space.full_mask)), 0)
    closed = pair_atoms(space, triple.subset).closures
    grown = closed[0] if closed else 0
    while True:
        wider = reduce(or_, (c for c in closed if c & grown), grown)
        if wider == grown:
            return grown
        grown = wider


# ---------------------------------------------------------------------------
# canonical constructions


def canonical_pcs_of_pca(pca):
    """Points are the clans (by support), the closed base is the family
    of clan sets of the elements, the dense subset is the ultrafilter
    clans and the relation is the kernel on them.

    Computed once per object and held weakly: the algebra shares its
    triple with every caller while one of them holds it, and does not
    keep it alive by itself."""
    return remember(pca, "_dual_triple", _canonical_pcs, weak=True)


def _canonical_pcs(pca):
    """The dual triple of a nondegenerate algebra, validated.

    Point i is the clan with support supports[i], in (size, atoms)
    order, named by `_clan_name` on the first read of its name.  Clan
    supports are the cliques of a reflexive and symmetric adjacency
    (`clique_supports`).  Every singleton is a clique, as the adjacency
    is reflexive, and the n singletons come first, in atom order: the
    ultrafilter clan of atom p is point p.  So the dense subset is the
    first n points and the relation is the kernel's own pairs.

    The space is built from the algebra's atom clan sets as its closed
    base and its clan supports as the signatures of its points, both
    computed once per algebra, so `pair_atoms` reads the dense part's
    point supports and closed-base verdict off them (proof below)."""
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("duality rejects the degenerate algebra")
    n = algebra.atom_count
    # The closed base is the clan sets of the elements.  The clan set of
    # an element is the union of its atoms' clan sets, so the n atom clan
    # sets B_0 .. B_{n-1}, base = transpose(supports, n), generate the
    # same finite unions, hence the same meets in `space_from_closed_base`
    # and the same space.  The signature of point x, {i : x in B_i}, is
    # supports[x]: x is in B_i iff bit i of supports[x] is set, and every
    # support lies below 1 << n, so transpose(base, P) = supports.  The
    # space keeps both tuples the algebra already holds.
    #
    # `pair_atoms` then reads the dense part's table off them: the
    # signature of dense point p is {p}, so the one member holding p is
    # B_p and cl{p} = B_p, which meets the dense part in {p}.  The dense
    # part is discrete, its clopen atoms are {0} .. {n-1} in order, and
    # their closures are the base itself.
    #
    # The space names its points by `_clan_name` of their signatures,
    # the supports, when the names are first read.  The walk yields each
    # support once, so the signatures are distinct, and the name lists
    # the atoms of its support, which it gives back: distinct supports
    # get distinct names, the condition of `_of_closed_base`.
    #
    # The triple keeps the algebra, so that its canonical algebra is the
    # algebra itself once the rows read off the triple are checked to be
    # the kernel's (`TwoPrecontactSpace._algebra`).
    space = FiniteSpace._of_closed_base(_clan_name, pca._atom_clans, pca._clan_supports)
    triple = validate_pcs(space, (1 << n) - 1, pca.kernel.pairs)
    once.keep(triple, "_source", pca)
    return triple


def _clan_name(support):
    """The name of the clan point with the nonzero atom support
    ``support``: "c" and its atoms in ascending order joined by "-"
    ("c0-2")."""
    # This is the name the walk's prefix recursion gave, name(s) =
    # name(r) + "-" + str(top) for the prefix r = s without its highest
    # atom top, and "c" + str(top) when r = 0.  By induction on the size
    # of s: a singleton {top} is named "c" + str(top); for a larger s,
    # name(r) is "c" and the atoms of r ascending joined by "-", all
    # below top, and appending "-" + str(top) gives the atoms of s
    # ascending.  The atoms are read back from the name by splitting it
    # at "-", so distinct supports get distinct names.
    return "c" + "-".join(map(str, bit_indices(support)))


@dataclass(frozen=True)
class PcsAlgebra:
    """The canonical precontact algebra of a 2-precontact space, together
    with the correspondence between abstract elements and point sets.
    The algebra is held by its atoms, the closures of the clopen atoms of
    the dense part, in the order of those clopen atoms (`pair_atoms`);
    on a canonical dual they are the atom clan sets of its algebra, in
    atom order, and ``pca`` is that algebra.  An element's point set is
    the union of its atoms, and a member's element the atoms below it,
    read off the atoms of its dense points; the 2**n members are built
    on request."""

    source: TwoPrecontactSpace
    pca: PrecontactAlgebra
    atom_masks: tuple

    @once
    def members(self):
        """All members, the unions of the atoms, ascending as masks.
        Computed once per object, when asked for."""
        return unions(self.atom_masks)

    def to_point_mask(self, element_mask):
        return join_at(self.atom_masks, element_mask)

    def from_point_mask(self, point_mask):
        """The element whose point set is ``point_mask``; raises
        DomainMismatchError when no member has that point set."""
        # The atoms A_i meet the dense part in its clopen atoms f_i, which
        # are disjoint and nonempty, so a union of the A_i over T holds A_i
        # iff i is in T: a member's element is the atoms below it.  A
        # dense point is held by the closure of its own atom only, its
        # one bit in the table's support, so for a member F the atoms
        # meeting F n X0 are exactly the atoms below F: the element is
        # the join of the supports of the dense points of F.  A mask that
        # is no member is not the union of any atoms, this join's
        # included, so the comparison below refuses it.
        atoms = self.atom_masks
        table = pair_atoms(self.source.space, self.source.subset)
        element = join_at(table.support, point_mask & table.subset)
        if join_at(atoms, element) != point_mask:
            raise DomainMismatchError(f"point mask {point_mask} is not a member")
        return element


def pcs_algebra(pcs):
    """The canonical algebra of a valid triple: the pair's regular
    closed sets under the existential relation of the triple, atom i the
    closure of the dense part's clopen atom i.  Computed once per
    object; on a canonical dual its algebra is the one it was built
    from."""
    return pcs._algebra


def canonical_pca_of_pcs(pcs):
    return pcs_algebra(pcs).pca


# ---------------------------------------------------------------------------
# 2-contact spaces and Stone 2-spaces


@dataclass(frozen=True)
class TwoContactSpace(CheckList):
    space: FiniteSpace
    subset: int
    checks: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class StoneTwoSpace(CheckList):
    space: FiniteSpace
    subset: int
    checks: tuple = field(default=(), compare=False)


def _validate_pair(cls, title, tag, space, subset, unrealized):
    """The shared body of `validate_cs` and `validate_s2s`: the density
    precondition, (CS1) T0, (CS2) Stone dense part and (CS3) closed base,
    then the check ``tag`` that every element set asked about is a
    closure trace: ``unrealized(space, table)`` is the support of the
    first that is not, or None, over the table of the dense part
    (`pair_atoms`, which checks the subset)."""
    table = pair_atoms(space, subset)
    report = ReportBuilder(title)
    cl = closure(space, subset)
    dense = cl == space.full_mask
    report.add(
        "(CS-precondition)",
        dense,
        None if dense else f"closure of the subset is {space.name_set(cl)}",
    )
    report.add("(CS1)", space.t0, "space is not T0")
    report.add("(CS2)", table.stone, "dense part is not a Stone space")
    report.add("(CS3)", table.closed_base, "the pair's regular closed sets are not a closed base")
    # f |-> cl f sends the clopens onto the unions of the atom closures
    # (`rc_atoms_of_subset`), f above an atom iff cl f is above its
    # closure.  So an element set is a closure trace iff its support is
    # the support of a point over the atom closures.
    _realization_check(report, tag, "unrealized ", space, table, unrealized(space, table))
    return cls(space, subset, report.checks)


def validate_cs(space, subset):
    """Check the 2-contact axioms: the clans of the proximity of the
    dense part's clopens (closures meet) must all be closure traces of
    points."""
    return _validate_pair(
        TwoContactSpace, "2-contact axioms", "(CS4)", space, subset, _unrealized_overlap_clan
    )


def _unrealized_overlap_clan(space, table):
    """The first overlap clan of the table's atom closures, a support
    over them, that no point support realizes, or None.  When the
    closures are the base the space was built from, in order, the
    table's point supports are its signatures (`pair_atoms`), so this is
    the base's verdict, computed once per space
    (`FiniteSpace.base_unrealized`) and shared with the clan line of
    the pair held by the base (`_c_semiregular_tests`)."""
    if table.closures == getattr(space, "_base", None):
        return space.base_unrealized
    return first_unrealized_support(table.support, overlap_clans(table.closures))


def validate_s2s(space, subset):
    """Stone 2-space: like a 2-contact space but every grill of the
    clopen algebra must be a closure trace.  The grills are the nonzero
    supports; at most one per point is realized, so the scan stops
    within point count + 1 of them."""
    return _validate_pair(
        StoneTwoSpace,
        "Stone 2-space axioms",
        "(S2S4)",
        space,
        subset,
        lambda space, table: first_unrealized_support(
            table.support, range(1, 1 << len(table.closures))
        ),
    )


def canonical_cs_of_ca(pca):
    """Drop the relation from the canonical triple of a contact algebra."""
    if not pca.axioms.is_contact:
        raise PreconditionError("the relation is not a contact relation")
    triple = canonical_pcs_of_pca(pca)
    return validate_cs(triple.space, triple.subset)


def contact_relation_of_pair(cs):
    """The unique reflexive and symmetric relation turning a 2-contact
    pair into a 2-precontact triple: points of the dense part are related
    when every pair of clopen neighbourhoods has meeting closures."""
    if not cs.ok:
        raise ValidationError("not a 2-contact space")
    # Every clopen holding x holds the clopen atom of x, and meeting
    # closures is monotone in both sides: x and y are related iff the
    # closures of their clopen atoms meet.  Each atom is its closure cut
    # to the subset.
    closures = pair_atoms(cs.space, cs.subset).closures
    return frozenset(
        (x, y)
        for cl_a in closures
        for cl_b in closures
        if cl_a & cl_b
        for x in bit_indices(cl_a & cs.subset)
        for y in bit_indices(cl_b & cs.subset)
    )


# ---------------------------------------------------------------------------
# mereotopology


@dataclass(frozen=True)
class MereocompactReport(CheckList):
    """Verdicts for one mereotopological pair.

    ``is_mereocompact`` holds when the members form a closed base and
    every clan is a point trace.  ``u_set`` is the point set of
    u-points; ``uniqueness_witness`` names a second dense Stone subspace
    reproducing the member algebra, when one exists (there should be
    none for mereocompact T0 pairs).
    """

    is_space: bool
    is_t0: bool
    is_mereocompact: bool
    u_set: int
    uniqueness_witness: int | None
    checks: tuple


def mereocompactness_report(mereo):
    space, atoms = mereo.space, mereo.atoms
    report = ReportBuilder("mereocompactness")

    # The members are the unions of the atoms, a Boolean subalgebra of
    # RC(X): the three tests of C-semiregularity, over these atoms.  A
    # space is C-semiregular iff it is T0 and (X, RC(X)) is mereocompact.
    space_ok, t0, unrealized = _c_semiregular_tests(space, atoms)
    report.add("members form a closed base", space_ok, "not a mereotopological space")
    report.add("space is T0", t0, "not T0")
    _realization_check(
        report, "every clan is a point trace", "unrealized clan ", space, mereo, unrealized
    )
    mereocompact = space_ok and unrealized is None

    # x is a u-point of (X, B) when x in F n G forces x in cl(int(F n G))
    # for all members F, G.  cl(int(F n G)) is the meet F . G of B, a
    # Boolean subalgebra of RC(X) whose join is union: each member is the
    # union of the distinct atoms of B below it, and those atoms cover X,
    # the top member.  If exactly one atom a holds x, each member holding
    # x holds a, so F . G holds a and x.  If distinct atoms a and b hold
    # x, then a . b = 0 misses x.  So x is a u-point iff exactly one atom
    # holds x.  Its trace, the members holding x, is the unions over the
    # T meeting the atom support of x; that is an ultrafilter, the
    # members above one atom, iff the support is a single atom.  So the
    # u-points are exactly the points whose trace is an ultrafilter, on
    # every pair: both point sets are `held_once(atoms)`, so a line
    # comparing them could not fail.
    #
    # The u-points are dense on every pair, so no line checks it.  Each
    # atom A is regular closed, and int A misses the other atoms (the
    # proof in `MereotopologicalPair`), so int A lies in the u-points.
    # Then X, the union of the cl(int A), lies in cl(u-points).
    u_set = held_once(atoms)
    uniqueness_witness = None

    if t0 and mereocompact:
        # The u-point lines read the pair (X, u-points) at its atoms, in
        # its table (`pair_atoms`).
        stone = bool(u_set) and pair_atoms(space, u_set).stone
        report.add(
            "u-point set is a Stone subspace", stone, None if stone else space.name_set(u_set)
        )
        # The closures of the clopens of a subset are the unions of
        # `rc_atoms_of_subset`, and the members the unions of their atoms:
        # the two families are equal iff their atom lists are.
        reproduced = rc_atoms_of_subset(space, u_set) == atoms
        report.add(
            "closures of u-point clopens reproduce the members",
            reproduced,
            None if reproduced else space.name_set(u_set),
        )
        # In a finite T0 space the only dense subset D that is discrete
        # as a subspace is the set M of maximal points.  A maximal m is in
        # cl D, so below some d in D, hence d is below m and d = m by T0;
        # a d in D is below some maximal m, which lies in D, and cl{m} n D
        # = {m} forces d = m.  The clopen atoms of M are its points, so M
        # reproduces the members iff `rc_atoms` are their atoms.
        candidate = space.maximal_points
        if candidate and candidate != u_set and rc_atoms(space) == atoms:
            uniqueness_witness = candidate
        report.add(
            "no other dense Stone subspace reproduces the members",
            uniqueness_witness is None,
            None if uniqueness_witness is None else space.name_set(candidate),
        )
        # When the Stone and reproduction lines hold, the pair with its
        # u-points is a 2-contact space, so no line records it:
        # `validate_cs(space, u_set)` holds.  Its precondition is that the
        # u-points are dense, which holds on every pair (above `u_set`).
        # (CS1) is `t0`.  (CS2) is the Stone line, off the same table.
        # (CS3) is the closed-base test of the closures of the clopen
        # atoms of the u-points, which are the pair's atoms, and `_meets`
        # takes them as a set, so it is `space_ok`.  (CS4) asks whether the
        # overlap clans of the same closures, in the table's order, are
        # realized: a permutation of the atoms permutes the clans and the
        # point supports alike, so it is the clan line.  When either line
        # fails, the report has failed already.

    return MereocompactReport(
        is_space=space_ok,
        is_t0=t0,
        is_mereocompact=mereocompact,
        u_set=u_set,
        uniqueness_witness=uniqueness_witness,
        checks=report.checks,
    )
