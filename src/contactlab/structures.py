"""Composite space structures: 2-precontact spaces, 2-contact spaces,
Stone 2-spaces, mereotopological pairs and their validators.

Validators return witness-bearing reports rather than booleans; a failed
axiom never raises, it is recorded with a concrete counterexample.
Canonical constructions index their points by clan support in
(size, atoms) order, which keeps serialization and isomorphism checks
stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .adjacency import is_closed_relation
from .boolean import bit_indices, join_at, joins_table, mask_of
from .config import require_atom_width, require_enum_width
from .errors import DomainMismatchError, PreconditionError, ValidationError
from .memo import remember
from .precontact import PrecontactAlgebra, clan_supports, clique_supports, pca_from_pairs
from .report import CheckList, ReportBuilder
from .topology import (
    FiniteSpace,
    MereotopologicalPair,
    clopen_atoms,
    clopens_of_subset,
    closure,
    first_unrealized_support,
    held_once,
    is_closed_base,
    is_stone,
    is_t0,
    maximal_points,
    minimal_members,
    overlap_clans,
    rc_atoms,
    rc_atoms_of_subset,
    space_from_closed_base,
    subspace,
    unions,
)

# ---------------------------------------------------------------------------
# shared helpers for the clopen algebra of a subspace


def _element_set_names(space, atoms, members, support):
    """The members above one of the atoms in the support (the element set
    of the grill or clan with that support), named in ascending order."""
    chosen = [atoms[i] for i in bit_indices(support)]
    element_set = sorted(m for m in set(members) if any(a | m == m for a in chosen))
    return "{" + ",".join(space.name_set(m) for m in element_set) + "}"


def _closure_support_check(report, space, subset, name, prefix, atom_closures, supports):
    """Add the check: is every element set with one of the ``supports``
    (masks over the clopen atoms of the dense part, whose closures are
    ``atom_closures``) the closure trace {f clopen : x in cl f} of some
    point x?"""
    # f |-> cl f sends the clopens onto the unions of the atom closures
    # (`rc_atoms_of_subset`), f above an atom iff cl f is above its
    # closure.  So an element set is a closure trace iff its support is
    # the support of a point over the atom closures.  The clopen family
    # is built only to name a failing witness.
    unrealized = first_unrealized_support(atom_closures, supports, space.point_count)
    witness = None
    if unrealized is not None:
        co_atoms = clopen_atoms(space, subset)
        clopens = clopens_of_subset(space, subset)
        witness = prefix + _element_set_names(space, co_atoms, clopens, unrealized)
    report.add(name, unrealized is None, witness)


def _dense_part_verdicts(space, subset, atom_closures):
    """Is the dense part a Stone space, and do the pair's regular closed
    sets form a closed base?  ``atom_closures`` are the closures of the
    atoms of the dense part's clopen algebra.

    Stone: a finite space is compact, Hausdorff is T1 there, T1 forces
    discrete and discrete forces zero-dimensional.  So the dense part is
    Stone iff each of its singleton closures, cl{x} & subset, is {x}.

    Closed base: the pair's regular closed sets are the closures of the
    clopens, each clopen is the union of the atoms below it and closure
    is additive, so they are the finite unions of the atom closures.  A
    union holds x iff one of its members does, so both families have
    the same meet of the members holding each point (`is_closed_base`),
    and both consist of closed sets: they get the same verdict.
    """
    stone = all(space.point_closures[x] & subset == 1 << x for x in bit_indices(subset))
    return stone, is_closed_base(space, atom_closures)


def _relation_out_masks(space, relation):
    succ = [0] * space.point_count
    for x, y in relation:
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

    @cached_property
    def _algebra(self):
        # pcs_algebra, computed once per object
        if not self.ok:
            raise ValidationError("not a 2-precontact space: " + self.failure_summary(" "))
        # The members are the closures cl f of the clopens f of the dense
        # part: the unions of the closures of the clopen atoms, which are
        # their atoms (`rc_atoms_of_subset`), taken here in ascending
        # order.  cl f meets the dense part in f, so cl f and cl g are in
        # contact iff some point of f is related to some point of g, i.e.
        # iff reach[f] meets g.
        co_atoms, closed, reach = _triple_atom_table(self)
        order = sorted(range(len(co_atoms)), key=closed.__getitem__)
        pca = pca_from_pairs(
            len(order),
            (
                (i, j)
                for i, p in enumerate(order)
                for j, q in enumerate(order)
                if reach[p] & co_atoms[q]
            ),
        )
        atoms = tuple(closed[p] for p in order)
        return PcsAlgebra(self, pca, atoms, unions(atoms))


def _check_relation_span(space, subset, relation):
    for x, y in relation:
        if not (0 <= x < space.point_count and 0 <= y < space.point_count):
            raise DomainMismatchError(f"relation pair ({x}, {y}) out of range")
        if not (subset >> x & 1 and subset >> y & 1):
            raise DomainMismatchError(
                f"relation pair ({x}, {y}) leaves the chosen subset"
            )


def validate_pcs(space, subset, relation):
    """Check (PCS1)..(PCS5) and return the triple with its report.

    Failures carry witnesses; precondition breaches (relation leaving the
    subset) raise instead.
    """
    relation = frozenset(relation)
    _check_relation_span(space, subset, relation)
    report = ReportBuilder("(PCS1)..(PCS5)")

    dense = closure(space, subset) == space.full_mask
    t0 = is_t0(space)
    pcs1 = dense and t0
    report.add("(PCS1)", pcs1, None if pcs1 else f"dense={dense}, T0={t0}")

    table = _atom_table(space, subset, relation)
    co_atoms, closed, reach = table

    stone, base_ok = _dense_part_verdicts(space, subset, closed)
    # A finite Stone dense part is discrete, so is its square, and every
    # relation on it is closed.  Only a dense part that is not Stone needs
    # the product topology, to name the second half of the witness.
    closed_rel = stone or is_closed_relation(
        _local_relation(subset, relation), subspace(space, subset)
    )
    pcs2 = stone and closed_rel
    report.add("(PCS2)", pcs2, None if pcs2 else f"stone={stone}, closed relation={closed_rel}")
    report.add("(PCS3)", base_ok, "the pair's regular closed sets are not a closed base")

    # The clopen algebra of the dense part is held to the algebra width
    # like any other, before (PCS4) and (PCS5) read it.
    require_atom_width(len(co_atoms))
    # adj[i]: the atoms j with f_i C# f_j under the contact closure C# of
    # f C g iff reach[f] meets g (the overlap of distinct atoms is empty).
    adj = [
        (1 << i)
        | mask_of(j for j, g in enumerate(co_atoms) if reach[i] & g or reach[j] & f)
        for i, f in enumerate(co_atoms)
    ]

    # Both sides of (PCS4) hold on (f, g) iff they hold on some pair of
    # atoms below f and g: (PCS4) holds iff it holds on the atom pairs.
    # On failure the pair sweep over all clopens names the first witness.
    pcs4_ok = all(
        adj[i] >> j & 1
        for i, cl_f in enumerate(closed)
        for j, cl_g in enumerate(closed)
        if cl_f & cl_g
    )
    pcs4_witness = None
    if not pcs4_ok:

        def over(values, f):
            # a clopen is the union of the atoms it meets
            return reduce(or_, (v for a, v in zip(co_atoms, values) if a & f), 0)

        def pcs4_fails(f, g):
            return over(closed, f) & over(closed, g) and not (
                over(reach, f) & g or over(reach, g) & f or f & g
            )

        clopens = clopens_of_subset(space, subset)
        f, g = next((f, g) for f in clopens for g in clopens if pcs4_fails(f, g))
        pcs4_witness = f"({space.name_set(f)},{space.name_set(g)})"
    report.add("(PCS4)", pcs4_ok, pcs4_witness)

    # The clans of the clopen algebra under C# are the cliques of adj.
    require_enum_width(len(co_atoms))
    _closure_support_check(
        report, space, subset, "(PCS5)", "unrealized clan ", closed, clique_supports(adj)
    )

    triple = TwoPrecontactSpace(space, subset, relation, report.done().checks)
    remember(triple, "_atom_table", lambda _: table)
    return triple


def _atom_table(space, subset, relation):
    """The clopen atoms of the dense part, ascending as masks, with their
    closures and their reach masks (the points related to one of the
    atom's points)."""
    # The clopens of the dense part form a finite Boolean algebra of sets
    # whose atoms partition the subset (`clopen_atoms`), so each clopen
    # is the union of the atoms below it.  Closure and reach (f C g iff
    # reach[f] meets g) are additive, so (PCS3), (PCS4), (PCS5) and the
    # canonical algebra read them only at the atoms.
    succ = _relation_out_masks(space, relation)
    co_atoms = clopen_atoms(space, subset)
    return (
        co_atoms,
        tuple(closure(space, a) for a in co_atoms),
        tuple(join_at(succ, a) for a in co_atoms),
    )


def _triple_atom_table(triple):
    """`_atom_table` of a triple: the one `validate_pcs` computed, rebuilt
    only for a triple constructed directly."""
    return remember(
        triple, "_atom_table", lambda t: _atom_table(t.space, t.subset, t.relation)
    )


def _local_relation(subset, relation):
    """The relation in the point indexing of `subspace(space, subset)`."""
    position = {x: i for i, x in enumerate(bit_indices(subset))}
    return frozenset((position[x], position[y]) for x, y in relation)


# ---------------------------------------------------------------------------
# canonical constructions


def clan_point_name(support_mask):
    return "c" + "-".join(str(i) for i in bit_indices(support_mask))


def canonical_pcs_of_pca(pca):
    """Points are the clans (by support), the closed base is the family
    of clan sets of the elements, the dense subset is the ultrafilter
    clans and the relation is the kernel on them.

    Computed once per object and held weakly: the algebra shares its
    triple with every caller while one of them holds it, and does not
    keep it alive by itself."""
    return remember(pca, "_dual_triple", _canonical_pcs, weak=True)


def _canonical_pcs(pca):
    algebra = pca.algebra
    if algebra.is_degenerate:
        raise PreconditionError("duality rejects the degenerate algebra")
    supports = clan_supports(pca)
    names = tuple(clan_point_name(s) for s in supports)
    # The closed base is the clan sets of the elements.  The clan set of
    # an element is the union of its atoms' clan sets, so the n atom clan
    # sets generate the same finite unions, hence the same meets in
    # `space_from_closed_base` and the same space.
    base = [0] * algebra.atom_count
    for i, s in enumerate(supports):
        for p in bit_indices(s):
            base[p] |= 1 << i
    space = space_from_closed_base(names, base)
    position = {s: i for i, s in enumerate(supports)}
    x0 = mask_of(position[1 << p] for p in range(algebra.atom_count))
    relation = frozenset(
        (position[1 << p], position[1 << q]) for p, q in pca.kernel.pairs
    )
    return validate_pcs(space, x0, relation)


def element_point_mask(pca, element_mask):
    """The point set of an element in the canonical space: the clans that
    contain it."""
    supports = clan_supports(pca)
    return mask_of(i for i, s in enumerate(supports) if s & element_mask)


@dataclass(frozen=True)
class PcsAlgebra:
    """The canonical precontact algebra of a 2-precontact space, together
    with the correspondence between abstract elements and point sets."""

    source: TwoPrecontactSpace
    pca: PrecontactAlgebra
    atom_masks: tuple
    members: tuple

    @cached_property
    def _point_masks(self):
        # _point_masks[m]: the point set of the element m, the union of
        # the atom masks of its atoms
        return joins_table(self.atom_masks)

    @cached_property
    def _member_index(self):
        return {mask: m for m, mask in enumerate(self._point_masks)}

    def to_point_mask(self, element_mask):
        return self._point_masks[element_mask]

    def from_point_mask(self, point_mask):
        return self._member_index[point_mask]

    def is_member(self, point_mask):
        return point_mask in self._member_index


def pcs_algebra(pcs):
    """The canonical algebra of a valid triple: the pair's regular
    closed sets under the existential relation of the triple.  Computed
    once per object."""
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


def _pair_axiom_checks(report, space, subset, atom_closures):
    """Add the shared axioms: density precondition, (CS1) T0, (CS2)
    Stone dense part, (CS3) closed base.  ``atom_closures`` are the
    closures of the atoms of the dense part's clopen algebra."""
    cl = closure(space, subset)
    report.add(
        "(CS-precondition)",
        cl == space.full_mask,
        f"closure of the subset is {space.name_set(cl)}",
    )
    report.add("(CS1)", is_t0(space), "space is not T0")
    stone, base_ok = _dense_part_verdicts(space, subset, atom_closures)
    report.add("(CS2)", stone, "dense part is not a Stone space")
    report.add("(CS3)", base_ok, "the pair's regular closed sets are not a closed base")


def validate_cs(space, subset):
    """Check the 2-contact axioms: the clans of the proximity of the
    dense part's clopens (closures meet) must all be closure traces of
    points."""
    closed = [closure(space, a) for a in clopen_atoms(space, subset)]
    report = ReportBuilder("2-contact axioms")
    _pair_axiom_checks(report, space, subset, closed)
    _closure_support_check(
        report, space, subset, "(CS4)", "unrealized ", closed, overlap_clans(closed)
    )
    return TwoContactSpace(space, subset, report.done().checks)


def validate_s2s(space, subset):
    """Stone 2-space: like a 2-contact space but every grill of the
    clopen algebra must be a closure trace.  The grills are the nonzero
    supports; at most one per point is realized, so the scan stops
    within point count + 1 of them."""
    closed = [closure(space, a) for a in clopen_atoms(space, subset)]
    report = ReportBuilder("Stone 2-space axioms")
    _pair_axiom_checks(report, space, subset, closed)
    _closure_support_check(
        report, space, subset, "(S2S4)", "unrealized ", closed, range(1, 1 << len(closed))
    )
    return StoneTwoSpace(space, subset, report.done().checks)


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
    # closures of their clopen atoms meet.
    co_atoms = clopen_atoms(cs.space, cs.subset)
    closed = [closure(cs.space, a) for a in co_atoms]
    return frozenset(
        (x, y)
        for a, cl_a in zip(co_atoms, closed)
        for b, cl_b in zip(co_atoms, closed)
        if cl_a & cl_b
        for x in bit_indices(a)
        for y in bit_indices(b)
    )


# ---------------------------------------------------------------------------
# mereotopology


@dataclass(frozen=True)
class MereocompactReport(CheckList):
    """Verdicts for one mereotopological pair.

    ``u_set`` is the point set of u-points; ``uniqueness_witness`` names
    a second dense Stone subspace reproducing the member algebra, when
    one exists (there should be none for mereocompact T0 pairs).
    """

    pair: MereotopologicalPair
    is_space: bool
    is_t0: bool
    is_mereocompact: bool
    u_set: int
    uniqueness_witness: int | None
    checks: tuple


def mereocompactness_report(mereo):
    space, members = mereo.space, mereo.members
    report = ReportBuilder("mereocompactness")

    space_ok = is_closed_base(space, members)
    report.add("members form a closed base", space_ok, "not a mereotopological space")
    t0 = is_t0(space)
    report.add("space is T0", t0, "not T0")

    # The members form a Boolean subalgebra of RC(X), whose order is
    # inclusion: they are the unions of their distinct atoms, atom i
    # inside the union over T iff i is in T.  So a clan of the members
    # under overlap is a point trace iff its support is the support of
    # a point over the atoms (`first_unrealized_support`).
    distinct_atoms = minimal_members(set(members))
    unrealized = first_unrealized_support(
        distinct_atoms, overlap_clans(distinct_atoms), space.point_count
    )
    mereocompact = unrealized is None
    witness = None
    if not mereocompact:
        witness = "unrealized clan " + _element_set_names(
            space, distinct_atoms, members, unrealized
        )
    report.add("every clan is a point trace", mereocompact, witness)

    # x is a u-point iff exactly one distinct atom holds x (see
    # `u_point_of_pair`), read off the atoms computed above.
    u_set = held_once(distinct_atoms)
    uniqueness_witness = None

    if space_ok and t0 and mereocompact:
        ultra_points = mask_of(
            x
            for x in range(space.point_count)
            if sum(1 for a in distinct_atoms if a >> x & 1) == 1
        )
        report.add(
            "u-points are exactly the ultrafilter traces",
            u_set == ultra_points,
            f"u-points {space.name_set(u_set)}, ultrafilter traces {space.name_set(ultra_points)}",
        )
        dense = closure(space, u_set) == space.full_mask
        report.add("u-point set is dense", dense, space.name_set(u_set))
        stone = is_stone(subspace(space, u_set)) if u_set else False
        report.add("u-point set is a Stone subspace", stone, space.name_set(u_set))
        # The closures of the clopens of a subset are the unions of
        # `rc_atoms_of_subset`, and the members the unions of their atoms:
        # the two families are equal iff their atom lists are.
        reproduced = dense and rc_atoms_of_subset(space, u_set) == distinct_atoms
        report.add(
            "closures of u-point clopens reproduce the members",
            reproduced,
            space.name_set(u_set),
        )
        # In a finite T0 space the only dense subset D that is discrete
        # as a subspace is the set M of maximal points.  A maximal m is in
        # cl D, so below some d in D, hence d is below m and d = m by T0;
        # a d in D is below some maximal m, which lies in D, and cl{m} n D
        # = {m} forces d = m.  The clopen atoms of M are its points, so M
        # reproduces the members iff `rc_atoms` are their atoms.
        candidate = maximal_points(space)
        if candidate and candidate != u_set and rc_atoms(space) == distinct_atoms:
            uniqueness_witness = candidate
        report.add(
            "no other dense Stone subspace reproduces the members",
            uniqueness_witness is None,
            space.name_set(candidate),
        )
        cs = validate_cs(space, u_set) if dense else None
        report.add(
            "the pair with its u-points is a 2-contact space",
            cs is not None and cs.ok,
            cs.failure_summary(" ") if cs is not None else "u-point set not dense",
        )

    return MereocompactReport(
        pair=mereo,
        is_space=space_ok,
        is_t0=t0,
        is_mereocompact=mereocompact,
        u_set=u_set,
        uniqueness_witness=uniqueness_witness,
        checks=report.done().checks,
    )
