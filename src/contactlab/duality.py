"""The duality between precontact algebras and 2-precontact triples.

Objects travel through ``canonical_pcs_of_pca`` and
``canonical_pca_of_pcs`` of ``structures``; morphisms through
``dual_space_map`` (clan preimages) and ``dual_algebra_map`` (closures
of preimages of dense clopens).  The two round-trip isomorphisms send
an element to its clan set and a point to its trace in the pair's
regular closed sets.  Everything here returns explicit witness maps or
witness-bearing reports, never bare booleans.

The maps compared here preserve joins and the relations compared are
additive, so each comparison is decided at the atoms: a map by its
values at the atoms (`_first_map_mismatch`: the naturality square of
the algebra round trip and the invariants of the dual algebra map), a
relation by its atom rows (`_first_pair_mismatch`: the round trip's
relation and proximity checks), and the first witness is read off the
first atom where they differ.  A point map is read through its fibres,
so a preimage costs one union per target point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

from .adjacency import AdjacencySpace, contact_from_adjacency, is_closed_relation
from .boolean import (
    BooleanHom,
    _first_map_mismatch,
    _first_pair_mismatch,
    bit_indices,
    join_at,
    joins_table,
    mask_of,
)
from .config import ENUMERATION_POINT_CAP, ISOMORPHISM_POINT_CAP
from .errors import (
    CapacityError,
    ClassificationError,
    DomainMismatchError,
    InternalError,
    PreconditionError,
)
from .memo import remember
from .precontact import (
    PcaMorphism,
    PrecontactAlgebra,
    _closure_succ,
    clan_supports,
    is_pca_morphism,
    largest_contact,
    smallest_contact,
)
from .report import Check, ReportBuilder
from .structures import (
    TwoPrecontactSpace,
    _local_relation,
    _relation_out_masks,
    _triple_atom_table,
    canonical_pcs_of_pca,
    contact_relation_of_pair,
    mereocompactness_report,
    pcs_algebra,
    triple_is_connected,
    validate_cs,
)
from .topology import (
    MereotopologicalPair,
    closure,
    interior,
    is_c_semiregular,
    is_discrete,
    is_extremally_disconnected,
    is_stone,
    rc_atoms,
    rc_atoms_of_subset,
    rc_members_of_subset,
    subspace,
)


# ---------------------------------------------------------------------------
# morphisms on the space side


def _point_fibres(point_count, point_map):
    """fibres[y]: the points x with point_map[x] = y, for each of the
    ``point_count`` target points.  The preimage of a set is the union of
    the fibres of its points (`join_at`), so preimage preserves unions."""
    fibres = [0] * point_count
    for x, y in enumerate(point_map):
        fibres[y] |= 1 << x
    return fibres


def _is_valid_pcs_map(source, target, point_map):
    sp, tp = source.space, target.space
    if len(point_map) != sp.point_count:
        return False
    if any(not 0 <= i < tp.point_count for i in point_map):
        return False
    fibres = _point_fibres(tp.point_count, point_map)
    # Each condition is an inclusion of preimages, as f(A) <= B iff A <=
    # f^-1(B).  Continuity: f(cl{x}) <= cl{f(x)}, i.e. cl{x} lies inside
    # f^-1(cl{f(x)}), for every x.
    for x, cl in enumerate(sp.point_closures):
        if cl & ~join_at(fibres, tp.point_closures[point_map[x]]):
            return False
    # The dense part: f(X0) <= X0', i.e. X0 lies inside f^-1(X0').
    if source.subset & ~join_at(fibres, target.subset):
        return False
    for x, y in source.relation:
        if (point_map[x], point_map[y]) not in target.relation:
            return False
    # trace coherence: the map is determined by its dense restriction.
    # Landing in the closure of a dense clopen must force membership in
    # the closure of that clopen's preimage (the converse is continuity):
    # f^-1(cl c) lies inside cl(f^-1(c) n X0).  A clopen is the union of
    # the clopen atoms below it, and closure and preimage are additive:
    # the condition holds for every clopen iff it holds for the atoms,
    # which the target's atom table holds with their closures.
    co_atoms, closed, _ = _triple_atom_table(target)
    for clopen, target_closure in zip(co_atoms, closed):
        source_closure = closure(sp, join_at(fibres, clopen) & source.subset)
        if join_at(fibres, target_closure) & ~source_closure:
            return False
    return True


@dataclass(frozen=True)
class PcsMorphism:
    """A continuous point map respecting the dense parts and their
    relations, and determined by its dense restriction.

    On top of continuity, f(X0) <= X0' and relation preservation, a
    morphism must be trace coherent: a point may only land in the
    closure of a dense clopen of the target when it already lies in the
    closure of that clopen's preimage.  Without this condition a map
    into a non-discrete space can move points of X \\ X0 independently
    of its dense restriction, which breaks faithfulness, the naturality
    squares and the hom-set bijection with the algebra side.  On
    discrete spaces the condition is vacuous.
    """

    source: TwoPrecontactSpace
    target: TwoPrecontactSpace
    point_map: tuple

    def __post_init__(self):
        if not _is_valid_pcs_map(self.source, self.target, self.point_map):
            raise PreconditionError("not a morphism of 2-precontact spaces")

    def apply(self, x):
        return self.point_map[x]

    @cached_property
    def _fibres(self):
        return _point_fibres(self.target.space.point_count, self.point_map)

    def preimage_mask(self, target_mask):
        return join_at(self._fibres, target_mask & self.target.space.full_mask)

    @cached_property
    def _dual_algebra_map(self):
        # dual_algebra_map, computed once per object.  The action sends 0
        # to 0 and preserves unions, as each of its steps does: the trace
        # on X0', the preimage, the cut to X0 and the closure.  So the
        # image of an element is the union of the images of its atoms,
        # and the action is evaluated at the target atoms only:
        # * the members are the unions of the source atoms, so every
        #   image is a member iff the image of every atom is;
        # * the hom and `to_point_mask` (a joins table) send 0 to 0 and
        #   preserve joins, so the atom map reproduces the action on
        #   every element iff it does at the atoms (`_first_map_mismatch`).
        source_alg = pcs_algebra(self.source)
        target_alg = pcs_algebra(self.target)
        action = _pointwise_dual_hom(self)
        images = [action(atom) for atom in target_alg.atom_masks]
        if not all(source_alg.is_member(img) for img in images):
            raise InternalError("image leaves the pair's regular closed sets")
        atom_map = []
        for atom_mask in source_alg.atom_masks:
            hits = [p for p, img in enumerate(images) if atom_mask | img == img]
            if len(hits) != 1:
                raise InternalError("the dual map is not a Boolean homomorphism")
            atom_map.append(hits[0])
        hom = BooleanHom(target_alg.pca.algebra, source_alg.pca.algebra, tuple(atom_map))
        reproduced = [
            source_alg.to_point_mask(hom.apply_mask(1 << p)) for p in range(len(images))
        ]
        if _first_map_mismatch(reproduced, images) is not None:
            raise InternalError("atom map does not reproduce the dual action")
        return PcaMorphism(hom, target_alg.pca, source_alg.pca)


def identity_pcs_morphism(pcs):
    return PcsMorphism(pcs, pcs, tuple(range(pcs.space.point_count)))


def compose_pcs_morphisms(outer, inner):
    if inner.target != outer.source:
        raise DomainMismatchError("morphisms do not compose")
    return PcsMorphism(
        inner.source,
        outer.target,
        tuple(outer.point_map[i] for i in inner.point_map),
    )


def pcs_iso_report(morphism):
    """Is the morphism an isomorphism of triples: a homeomorphism that
    matches the dense parts and the relations in both directions?"""
    report = ReportBuilder("2-precontact space isomorphism")
    src, dst, pm = morphism.source, morphism.target, morphism.point_map
    bijective = (
        len(set(pm)) == len(pm) and dst.space.point_count == src.space.point_count
    )
    report.add("bijective", bijective, witness=f"map {pm}")
    if not bijective:
        return report.done()
    names = src.space.point_names
    moved = next(
        (
            f"the closure of {names[x]} does not transfer"
            for x in range(src.space.point_count)
            if mask_of(pm[y] for y in bit_indices(src.space.point_closures[x]))
            != dst.space.point_closures[pm[x]]
        ),
        None,
    )
    report.add("homeomorphism", moved is None, witness=moved)
    iso1 = mask_of(pm[x] for x in bit_indices(src.subset)) == dst.subset
    report.add("dense parts correspond", iso1, witness="image of the dense part differs")
    points = list(bit_indices(src.subset))
    broken = next(
        (
            f"({names[x]},{names[y]}) is not preserved"
            for x, y in sorted(src.relation)
            if (pm[x], pm[y]) not in dst.relation
        ),
        None,
    ) or next(
        (
            f"({names[x]},{names[y]}) is not reflected"
            for x in points
            for y in points
            if (pm[x], pm[y]) in dst.relation and (x, y) not in src.relation
        ),
        None,
    )
    report.add("relation preserved and reflected", broken is None, witness=broken)
    return report.done()


# ---------------------------------------------------------------------------
# the two functors


def dual_space_map(morphism):
    """A PCA-morphism induces the clan-preimage map between the dual
    triples, in the reverse direction.  Computed once per object."""
    return remember(morphism, "_dual_space_map", _dual_space_map)


def _dual_space_map(morphism):
    source_pca, target_pca = morphism.source, morphism.target
    amap = morphism.hom.atom_map
    dual_of_target = canonical_pcs_of_pca(target_pca)
    dual_of_source = canonical_pcs_of_pca(source_pca)
    source_positions = {s: i for i, s in enumerate(clan_supports(source_pca))}
    point_map = []
    for support in clan_supports(target_pca):
        image = mask_of(amap[q] for q in bit_indices(support))
        if image not in source_positions:
            raise InternalError("preimage of a clan must be a clan")
        point_map.append(source_positions[image])
    return PcsMorphism(dual_of_target, dual_of_source, tuple(point_map))


def _pointwise_dual_hom(f):
    """The point-set action of the algebra map of a space morphism:
    a member of the target pair goes to the closure of the preimage of
    its dense trace."""
    source = f.source

    def action(member_mask):
        trace = member_mask & f.target.subset
        pre = f.preimage_mask(trace) & source.subset
        return closure(source.space, pre)

    return action


def dual_algebra_map(f):
    """A PCS-morphism induces a PCA-morphism between the canonical
    algebras, in the reverse direction: each member of the target pair
    goes to the closure of the preimage of its dense trace.  Computed
    once per object."""
    return f._dual_algebra_map


# ---------------------------------------------------------------------------
# the natural isomorphisms


def space_roundtrip_iso(pcs):
    """The triple against the dual of its dual: a point goes to its
    trace in the pair's regular closed sets, read as a clan."""
    alg = pcs_algebra(pcs)
    rebuilt = canonical_pcs_of_pca(alg.pca)
    positions = {s: i for i, s in enumerate(clan_supports(alg.pca))}
    point_map = []
    for x in range(pcs.space.point_count):
        support = mask_of(
            i for i, atom in enumerate(alg.atom_masks) if atom >> x & 1
        )
        if support not in positions:
            raise InternalError("a point trace must be a clan of the dual algebra")
        point_map.append(positions[support])
    return PcsMorphism(pcs, rebuilt, tuple(point_map))


@dataclass(frozen=True)
class AlgebraRoundTrip:
    """The clan-set map from an algebra onto the canonical algebra of its
    dual triple, with the verification report."""

    source: PrecontactAlgebra
    space: TwoPrecontactSpace
    canonical: object
    images: tuple
    report: object

    def image_of(self, element_mask):
        return self.images[element_mask]


def _meeting_rows(left, right):
    """rows[p]: the indices q with left[p] meeting right[q], as a mask."""
    return [mask_of(q for q, r in enumerate(right) if l & r) for l in left]


def algebra_roundtrip_iso(pca):
    """Verify that sending an element to the set of clans containing it
    is an isomorphism onto the canonical algebra of the dual triple, both
    for the raw relation and, through the contact closure, for the
    pair's proximity."""
    report = ReportBuilder(f"algebra round trip on {pca.algebra.atom_count} atoms")
    triple = canonical_pcs_of_pca(pca)
    report.add(
        "canonical triple validates",
        triple.ok,
        witness=triple.failure_summary(" "),
    )
    alg = pcs_algebra(triple)
    space = triple.space
    supports = clan_supports(pca)
    atom_clans = [
        mask_of(i for i, s in enumerate(supports) if s >> p & 1)
        for p in range(pca.algebra.atom_count)
    ]
    images = tuple(joins_table(atom_clans))
    size = len(images)

    image_set = set(images)
    bijective = len(image_set) == size and image_set == set(alg.members)
    report.add(
        "bijective onto the pair's regular closed sets",
        bijective,
        None if bijective else f"images {sorted(image_set)} vs members {sorted(alg.members)}",
    )

    # images is built by `joins_table`, which preserves joins by
    # construction: the check is recorded, not swept.
    report.add("preserves joins", True)

    # Complements follow from bijectivity.  `pcs_algebra` accepts only a
    # valid triple, so (PCS1) makes its subset D dense.  The members are
    # the unions of the closures A_i of the clopen atoms f_i of D, A_i
    # below cl f iff f_i is inside f.  For a member F = cl f, F n D = f,
    # and the open X \ F has the closure of its trace on the dense D:
    # F* = cl(X \ F) = cl(D \ f), the union of the A_i not below F, which
    # is the complement of F among the members.  The images preserve
    # joins, so a bijection onto the members is an order isomorphism,
    # which preserves complements.  With joins and complements preserved,
    # De Morgan forces the meets: images[a & b] = images[~(~a | ~b)] =
    # (images[a]* | images[b]*)*, since cl(int(F & G)) = (F* | G*)* for
    # any point sets (closure is additive).  So the complement sweep runs
    # only when bijectivity fails, and the meet sweep only when
    # complements fail.  Both read one table of stars F* = cl(X \ F),
    # keyed on the point set.
    comp_witness = meet_witness = None
    if not bijective:
        points = space.full_mask
        stars = {}

        def star(f):
            out = stars.get(f)
            if out is None:
                out = stars[f] = closure(space, points ^ f)
            return out

        image_stars = [star(image) for image in images]
        full = pca.algebra.full_mask
        comp_witness = next(
            (a for a in range(size) if images[full ^ a] != image_stars[a]), None
        )
        if comp_witness is not None:
            meet_witness = next(
                (
                    (a, b)
                    for a in range(size)
                    for b in range(size)
                    if images[a & b] != star(image_stars[a] | image_stars[b])
                ),
                None,
            )
    report.add("preserves meets", meet_witness is None, f"(a, b) = {meet_witness}")
    report.add("preserves complements", comp_witness is None, f"a = {comp_witness}")

    # Each relation below is additive in a and in b, so each check
    # compares atom rows (`_first_pair_mismatch`).  The kernel relates a
    # and b iff its forward table at a meets b: its rows are the kernel's
    # successors, and those of the contact closure C# are `_closure_succ`.
    # The relation of the triple lies inside the dense part, so it relates
    # the point sets images[a] and images[b] iff the points related to a
    # dense point of images[a], the union of reach[p] over the atoms p of
    # a, meet images[b], the union of the clan sets of the atoms of b.
    # Overlap of unions is the union of the overlaps, so the rows of the
    # triple's relation and of the pair's proximity (images[a] meets
    # images[b]) are `_meeting_rows`.
    succ = _relation_out_masks(space, triple.relation)
    reach = [join_at(succ, image & triple.subset) for image in atom_clans]
    relation_witness = _first_pair_mismatch(
        pca.kernel._succ, _meeting_rows(reach, atom_clans)
    )
    report.add(
        "preserves and reflects the relation",
        relation_witness is None,
        f"(a, b) = {relation_witness}",
    )

    proximity_witness = _first_pair_mismatch(
        _closure_succ(pca.kernel), _meeting_rows(atom_clans, atom_clans)
    )
    report.add(
        "contact closure matches the pair's proximity",
        proximity_witness is None,
        f"(a, b) = {proximity_witness}",
    )

    # Two kernels differ iff their atom rows do, and the first pair of
    # their symmetric difference, in sorted order, is the first atom pair
    # (1 << i, 1 << j) where the rows differ.
    atoms = alg.atom_masks
    kernel_diff = _first_pair_mismatch(
        _closure_succ(alg.pca.kernel), _meeting_rows(atoms, atoms)
    )
    report.add(
        "closed canonical relation coincides with the pair's proximity",
        kernel_diff is None,
        None
        if kernel_diff is None
        else f"atom pair {tuple(m.bit_length() - 1 for m in kernel_diff)}",
    )

    return AlgebraRoundTrip(pca, triple, alg, images, report.done())


# ---------------------------------------------------------------------------
# naturality


def check_naturality(morphism):
    if isinstance(morphism, PcaMorphism):
        return _check_algebra_square(morphism)
    if isinstance(morphism, PcsMorphism):
        return _check_space_square(morphism)
    raise DomainMismatchError("expected a PCA- or PCS-morphism")


def _check_algebra_square(phi):
    """g_target o phi must equal the double dual of phi after g_source."""
    report = ReportBuilder("naturality of the algebra round trip")
    a_trip = algebra_roundtrip_iso(phi.source)
    b_trip = algebra_roundtrip_iso(phi.target)
    f = dual_space_map(phi)
    psi = dual_algebra_map(f)
    a_alg = pcs_algebra(a_trip.space)
    b_alg = pcs_algebra(b_trip.space)

    # Every map here sends 0 to 0 and preserves joins: the round-trip
    # images and `to_point_mask` (joins tables), the hom, the preimage
    # under f, and `from_point_mask`, the inverse on the members of the
    # injective join-preserving `to_point_mask`.  So both checks compare
    # their two composites at the atoms (`_first_map_mismatch`), which
    # names the first element mask where they differ.
    atoms = [1 << p for p in range(phi.source.algebra.atom_count)]
    hom_images = [b_trip.images[phi.hom.apply_mask(a)] for a in atoms]
    basic = _first_map_mismatch(
        [f.preimage_mask(a_trip.images[a]) for a in atoms], hom_images
    )
    report.add(
        "preimages of basic closed sets match the hom images",
        basic is None,
        f"element mask {basic}",
    )
    square = _first_map_mismatch(
        hom_images,
        [
            b_alg.to_point_mask(psi.hom.apply_mask(a_alg.from_point_mask(a_trip.images[a])))
            for a in atoms
        ],
    )
    report.add("the square commutes", square is None, f"element mask {square}")
    return report.done()


def _check_space_square(f):
    """The double dual of f must match f through the point traces."""
    report = ReportBuilder("naturality of the space round trip")
    t_src = space_roundtrip_iso(f.source)
    t_dst = space_roundtrip_iso(f.target)
    psi = dual_algebra_map(f)
    f_sharp = dual_space_map(psi)
    ok, witness = True, None
    for x in range(f.source.space.point_count):
        left = f_sharp.point_map[t_src.point_map[x]]
        right = t_dst.point_map[f.point_map[x]]
        if left != right:
            ok, witness = False, f"point {f.source.space.point_names[x]}"
            break
    report.add("the square commutes", ok, witness)
    return report.done()


def gt_preimage_check(f, member_mask):
    """The algebra map of a space morphism acts as plain preimage on the
    pair's regular closed sets."""
    target_alg = pcs_algebra(f.target)
    source_alg = pcs_algebra(f.source)
    psi = dual_algebra_map(f)
    element = target_alg.from_point_mask(member_mask)
    through_hom = source_alg.to_point_mask(psi.hom.apply_mask(element))
    plain = f.preimage_mask(member_mask)
    passed = through_hom == plain
    return Check(
        "algebra map acts as preimage",
        passed,
        None
        if passed
        else f"member {f.target.space.name_set(member_mask)}",
    )


# ---------------------------------------------------------------------------
# the adjacency reduct and reconstruction


def dense_part(pcs):
    """Forget down to the dense part with its relation: a Stone adjacency
    space at finite scale."""
    sub = subspace(pcs.space, pcs.subset)
    return AdjacencySpace(sub.point_names, _local_relation(pcs.subset, pcs.relation), sub)


def dense_part_map(f):
    """Restriction of a PCS-morphism to the dense parts, as a cell map."""
    src = list(bit_indices(f.source.subset))
    dst = {x: i for i, x in enumerate(bit_indices(f.target.subset))}
    return tuple(dst[f.point_map[x]] for x in src)


def pcs_from_stone_adjacency(adjacency, candidate=None):
    """The unique triple extending a Stone adjacency space, built through
    the region algebra of the cells; optionally verified isomorphic to a
    supplied candidate."""
    topo = adjacency.topology
    if topo is not None and not (
        is_stone(topo) and is_closed_relation(adjacency.pairs, topo)
    ):
        raise PreconditionError("not a Stone adjacency space")
    pca = contact_from_adjacency(adjacency)
    triple = canonical_pcs_of_pca(pca)
    report = ReportBuilder("reconstruction from a Stone adjacency space")
    report.add(
        "triple validates",
        triple.ok,
        witness=triple.failure_summary(" "),
    )
    reduct = dense_part(triple)
    report.add(
        "dense part reproduces the input cells",
        reduct.cell_count == adjacency.cell_count
        and reduct.pairs == adjacency.pairs,
        witness=f"reduct relation {sorted(reduct.pairs)}",
    )
    if candidate is not None:
        witness_map = pcs_isomorphic(triple, candidate)
        report.add(
            "isomorphic to the supplied candidate",
            witness_map is not None,
            witness="no isomorphism found",
        )
    return triple, report.done()


def pcs_isomorphic(first, second):
    """Brute-force search for a triple isomorphism; None when there is
    none."""
    n = first.space.point_count
    if n != second.space.point_count or first.subset.bit_count() != second.subset.bit_count():
        return None
    if n > ISOMORPHISM_POINT_CAP:
        raise CapacityError(f"isomorphism search capped at {ISOMORPHISM_POINT_CAP} points")
    for pm in permutations(range(n)):
        if mask_of(pm[x] for x in bit_indices(first.subset)) != second.subset:
            continue
        if any(
            mask_of(pm[y] for y in bit_indices(first.space.point_closures[x]))
            != second.space.point_closures[pm[x]]
            for x in range(n)
        ):
            continue
        if frozenset((pm[x], pm[y]) for x, y in first.relation) != second.relation:
            continue
        return pm
    return None


def canonical_kernel_form(pca):
    """Lexicographically minimal kernel under atom permutations."""
    n = pca.algebra.atom_count
    if n > ISOMORPHISM_POINT_CAP:
        raise CapacityError(f"canonical form capped at {ISOMORPHISM_POINT_CAP} atoms")
    best = None
    for pm in permutations(range(n)):
        remapped = tuple(sorted((pm[p], pm[q]) for p, q in pca.kernel.pairs))
        if best is None or remapped < best:
            best = remapped
    return best


def pca_isomorphic(first, second):
    """An atom permutation carrying one kernel onto the other, or None."""
    n = first.algebra.atom_count
    if n != second.algebra.atom_count:
        return None
    if n > ISOMORPHISM_POINT_CAP:
        raise CapacityError(f"isomorphism search capped at {ISOMORPHISM_POINT_CAP} atoms")
    target = second.kernel.pairs
    for pm in permutations(range(n)):
        if frozenset((pm[p], pm[q]) for p, q in first.kernel.pairs) == target:
            return pm
    return None


# ---------------------------------------------------------------------------
# morphism enumeration (hom-set experiments)


def enumerate_boolean_homs(source, target):
    maps = product(range(source.atom_count), repeat=target.atom_count)
    return [BooleanHom(source, target, tuple(m)) for m in maps]


def enumerate_pca_morphisms(source_pca, target_pca):
    out = []
    for hom in enumerate_boolean_homs(source_pca.algebra, target_pca.algebra):
        if is_pca_morphism(hom, source_pca, target_pca):
            out.append(PcaMorphism(hom, source_pca, target_pca))
    return out


def enumerate_pcs_morphisms(source, target):
    if source.space.point_count > ENUMERATION_POINT_CAP:
        raise CapacityError(
            f"morphism enumeration capped at {ENUMERATION_POINT_CAP} points"
        )
    out = []
    for pm in product(range(target.space.point_count), repeat=source.space.point_count):
        try:
            out.append(PcsMorphism(source, target, pm))
        except PreconditionError:
            continue
    return out


# ---------------------------------------------------------------------------
# specializations of the duality


def _diagonal(indices):
    return frozenset((i, i) for i in indices)


def specialization_report(pca, which=None):
    """Run the subcategory specializations that apply to the algebra.

    ``which`` restricts to one named specialization and raises
    ClassificationError when the object is not in that subcategory.
    Names: stone, connected-stone, contact, complete-contact,
    mereocompact, connected.
    """
    known = (
        "stone",
        "connected-stone",
        "contact",
        "complete-contact",
        "mereocompact",
        "connected",
    )
    if which is not None and which not in known:
        raise ClassificationError(f"unknown specialization {which!r}")
    report = ReportBuilder(f"specializations on {pca.algebra.atom_count} atoms")
    flags = pca.axioms

    is_stone_object = pca.kernel.pairs == smallest_contact(pca.algebra).kernel.pairs
    is_connected_stone_object = (
        pca.kernel.pairs == largest_contact(pca.algebra).kernel.pairs
    )
    memberships = {
        "stone": is_stone_object,
        "connected-stone": is_connected_stone_object,
        "contact": flags.is_contact,
        "complete-contact": flags.is_contact,
        "mereocompact": flags.is_contact,
        "connected": flags.ccon,
    }
    if which is not None and not memberships[which]:
        raise ClassificationError(
            f"object is not in the {which} subcategory"
        )

    selected = [which] if which is not None else [k for k in known if memberships[k]]
    if which is None:
        selected.append("connected-correspondence")

    triple = canonical_pcs_of_pca(pca)
    supports = clan_supports(pca)
    n = pca.algebra.atom_count

    for name in selected:
        if name == "stone":
            report.add(
                "clans are exactly the ultrafilters",
                supports == [1 << p for p in range(n)],
            )
            report.add(
                "dual triple is the whole space with the diagonal",
                triple.subset == triple.space.full_mask
                and triple.relation == _diagonal(range(triple.space.point_count))
                and is_discrete(triple.space),
            )
        elif name == "connected-stone":
            report.add(
                "clans are exactly the grills",
                sorted(supports) == list(range(1, pca.algebra.size)),
            )
            x0 = list(bit_indices(triple.subset))
            report.add(
                "dual relation is total on the dense part",
                triple.relation == frozenset((x, y) for x in x0 for y in x0),
            )
            if n >= 2:
                report.add("dual space is connected", triple_is_connected(triple))
        elif name == "contact":
            cs = validate_cs(triple.space, triple.subset)
            report.add(
                "dual pair is a 2-contact space",
                cs.ok,
                witness=cs.failure_summary(" "),
            )
            if cs.ok:
                report.add(
                    "the pair determines the relation",
                    contact_relation_of_pair(cs) == triple.relation,
                )
        elif name == "complete-contact":
            # Both families are the unions of their atoms, so they are
            # equal iff their atom lists are.
            report.add(
                "regular closed sets of the dual all come from the pair",
                rc_atoms(triple.space)
                == rc_atoms_of_subset(triple.space, triple.subset),
            )
            report.add("dual space is C-semiregular", is_c_semiregular(triple.space))
            report.add(
                "dense part is extremally disconnected",
                is_extremally_disconnected(subspace(triple.space, triple.subset)),
            )
        elif name == "mereocompact":
            atoms = rc_atoms_of_subset(triple.space, triple.subset)
            result = mereocompactness_report(MereotopologicalPair(triple.space, atoms))
            report.add(
                "dual pair's member algebra is mereocompact",
                result.is_t0 and result.is_mereocompact,
            )
            report.add(
                "u-points recover the dense part",
                result.u_set == triple.subset,
                witness=triple.space.name_set(result.u_set),
            )
        elif name == "connected":
            report.add("dual space is connected", triple_is_connected(triple))
        elif name == "connected-correspondence":
            report.add(
                "connectedness axiom matches the dual space",
                flags.ccon == triple_is_connected(triple),
                witness=f"Ccon={flags.ccon}",
            )
    return report.done()


def gmcs_hom_check(source_cs, target_cs, point_map):
    """For a continuous map of 2-contact pairs, taking plain preimages of
    the target pair's regular closed sets must give a Boolean
    homomorphism into the source pair's."""
    report = ReportBuilder("preimage homomorphism of a pair map")
    if not (source_cs.ok and target_cs.ok):
        raise PreconditionError("both pairs must be valid 2-contact spaces")
    src_space = source_cs.space
    src_members = set(rc_members_of_subset(src_space, source_cs.subset))
    dst_members = rc_members_of_subset(target_cs.space, target_cs.subset)

    def pre(mask):
        return mask_of(
            x for x in range(src_space.point_count) if mask >> point_map[x] & 1
        )

    images = {h: pre(h) for h in dst_members}
    report.add(
        "preimages stay inside the source pair's regular closed sets",
        all(v in src_members for v in images.values()),
        witness=str(sorted(v for v in images.values() if v not in src_members)),
    )
    report.add(
        "preserves bounds",
        images[0] == 0 and images[target_cs.space.full_mask] == src_space.full_mask,
    )
    join_ok = all(
        images[h | k] == (images[h] | images[k]) for h in dst_members for k in dst_members
    )
    report.add("preserves joins", join_ok)
    meet_ok = all(
        images[
            closure(
                target_cs.space, interior(target_cs.space, h & k)
            )
        ]
        == closure(src_space, interior(src_space, images[h] & images[k]))
        for h in dst_members
        for k in dst_members
    )
    report.add("preserves meets", meet_ok)
    comp_ok = all(
        images[closure(target_cs.space, target_cs.space.full_mask ^ h)]
        == closure(src_space, src_space.full_mask ^ images[h])
        for h in dst_members
    )
    report.add("preserves complements", comp_ok)
    return report.done()
