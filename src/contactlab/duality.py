"""The duality between precontact algebras and 2-precontact triples.

Objects travel through ``canonical_pcs_of_pca`` and
``canonical_pca_of_pcs`` of ``structures``; morphisms through
``dual_space_map`` (clan preimages) and ``dual_algebra_map`` (closures
of preimages of dense clopens).  The two round-trip isomorphisms send
an element to its clan set and a point to its trace in the pair's
regular closed sets.  The canonical algebra of the dual of an algebra is
the algebra itself (`structures.TwoPrecontactSpace._algebra`), so the
space round trip of a canonical dual is the identity onto that dual,
and the double dual of an algebra morphism is the morphism.  Everything
here returns explicit witness maps or witness-bearing reports, never
bare booleans.

The maps compared here preserve joins and the relations compared are
additive, so each comparison is decided at the atoms: a map by its
values at the atoms (`_first_map_mismatch`: the naturality square of
the algebra round trip), a relation by its atom rows
(`_first_pair_mismatch`: the round trip's relation and proximity
checks), and the first witness is read off the first atom where they
differ.  A space morphism joins two valid triples, and it is checked
at the k clopen atoms of the target's dense part (`_is_valid_pcs_map`):
continuity and trace coherence are one comparison per atom, and the
preimages of the atoms' closures are kept, so the preimage of a member
of the target pair is the union of those of its atoms
(`gt_preimage_check`).  The dual algebra map of a space morphism
is read off where it sends each dense point, and a point of a dual is
found by its clan support (`_clan_points`) in both functors and in the
space round trip.  The naturality squares read the unit maps where
they are defined, and run no round-trip check: the algebra square the
atom clan sets of its two algebras, the space square the point maps of
the two space round trips (`_unit_points`).  The
algebra round trip is a join-preserving map, held by its n atom images:
it is a bijection onto the pair's regular closed sets iff those images
are the pair's atoms, each once (`_bijectivity_witness`), and its 2**n
images are built only when bijectivity fails or a caller asks for them.
It reads the triple only through its canonical algebra (`pcs_algebra`):
the relation at that algebra's kernel rows, which `validate_pcs` kept,
and the pair's proximity at one table of the atoms that meet, read by
both proximity lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjacency import contact_from_adjacency
from .boolean import (
    BooleanHom,
    _first_map_mismatch,
    _first_pair_mismatch,
    bit_indices,
    fibres,
    join_at,
    joins_table,
    meeting_rows,
)
from .errors import (
    DomainMismatchError,
    InternalError,
    PreconditionError,
    ValidationError,
)
from .memo import once, remember
from .precontact import (
    PcaMorphism,
    PrecontactAlgebra,
    clan_supports,
    largest_contact,
    smallest_contact,
)
from .report import ReportBuilder, verdict
from .structures import (
    TwoPrecontactSpace,
    canonical_cs_of_ca,
    canonical_pcs_of_pca,
    contact_relation_of_pair,
    mereocompactness_report,
    pcs_algebra,
)
from .topology import (
    closure,
    pair_atoms,
    rc_algebra,
    rc_atoms,
    rc_atoms_of_subset,
    rc_pair_algebra,
)


# ---------------------------------------------------------------------------
# morphisms on the space side


def _is_valid_pcs_map(source, target, point_map):
    """The preimages f^-1(B_q) of the closures B_q of the clopen atoms of
    the target's dense part, in the order of its table (`pair_atoms`),
    when the point map is a morphism of 2-precontact spaces; else None.

    The target is valid (`PcsMorphism`), so by (PCS3) the closures B_q
    form a closed base, and continuity and trace coherence are decided
    in one pass over the k atoms g_q of the target's dense part: f is
    continuous and trace coherent iff f^-1(B_q) == cl(f^-1(g_q) n X0)
    for every q.
    * (<=) Each f^-1(B_q) is then a closure, so it is closed.  Every
      cl{y} is the meet of the B_q that hold y, or the whole space when
      none does (the closed-base verdict), and preimage preserves meets (and sends the whole
      space to the whole space).  So every f^-1(cl{y}) is closed, and
      every closed set of a finite space is a union of point closures:
      f is continuous.  The inclusion of the left side in the right is
      trace coherence at the atoms, which gives it at every clopen (see
      below).
    * (=>) Continuity makes f^-1(B_q) closed.  It holds f^-1(g_q) n X0,
      as g_q lies in B_q, so it holds the closure of that set too.
      Trace coherence gives the other inclusion."""
    sp, tp = source.space, target.space
    if len(point_map) != sp.point_count:
        return None
    if point_map and not (0 <= min(point_map) and max(point_map) < tp.point_count):
        return None
    point_fibres = fibres(tp.point_count, point_map)
    table = pair_atoms(tp, target.subset)
    # The dense part: f(X0) <= X0', i.e. X0 lies inside f^-1(X0').
    if source.subset & ~join_at(point_fibres, target.subset):
        return None
    for x, y in source.relation:
        if (point_map[x], point_map[y]) not in target.relation:
            return None
    # Trace coherence: the map is determined by its dense restriction.
    # Landing in the closure of a dense clopen must force membership in
    # the closure of that clopen's preimage: f^-1(cl c) lies inside
    # cl(f^-1(c) n X0).  A clopen is the union of the clopen atoms below
    # it, and closure and preimage are additive: the condition holds for
    # every clopen iff it holds for the atoms, which the target pair's
    # table holds with their closures.
    preimages = []
    for clopen, target_closure in zip(table.atoms, table.closures):
        preimage = join_at(point_fibres, target_closure)
        if preimage != closure(sp, join_at(point_fibres, clopen) & source.subset):
            return None
        preimages.append(preimage)
    return tuple(preimages)


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

    Both ends must be valid triples: a morphism with an end that fails
    (PCS1)..(PCS5) raises ValidationError.  The conditions are decided
    at the clopen atoms of the target's dense part (`_is_valid_pcs_map`),
    and the preimages of their closures are kept (``_atom_preimages``):
    a member of the target pair is the union of its atoms' closures, and
    preimage is additive, so its preimage is the union of theirs
    (`gt_preimage_check`).
    """

    source: TwoPrecontactSpace
    target: TwoPrecontactSpace
    point_map: tuple

    def __post_init__(self):
        for end, pcs in (("source", self.source), ("target", self.target)):
            if not pcs.ok:
                raise ValidationError(
                    f"the {end} is not a 2-precontact space: "
                    + (pcs.failure_summary(" ") or "no checks")
                )
        preimages = _is_valid_pcs_map(self.source, self.target, self.point_map)
        if preimages is None:
            raise PreconditionError("not a morphism of 2-precontact spaces")
        once.keep(self, "_atom_preimages", preimages)

    @once
    def _fibres(self):
        return tuple(fibres(self.target.space.point_count, self.point_map))

    def preimage_mask(self, target_mask):
        return join_at(self._fibres, target_mask & self.target.space.full_mask)

    @once
    def _dual_algebra_map(self):
        # dual_algebra_map, computed once per object: a member F' of the
        # target pair goes to cl(f^-1(F' n X0') n X0).  Both canonical
        # algebras are numbered by the clopen atoms of their dense parts
        # (`pair_atoms`), f_p of X0 with closure A_p and g_q of X0' with
        # closure B_q.  Both triples are valid, so by (PCS2) each clopen
        # atom is one dense point: f_p = {x_p}.
        # * f sends the dense point x_p to a dense point of the target,
        #   the one point of some g_q.  A point of X0' is held by the
        #   closure of its own atom only, so q is the one bit of the
        #   table's support of f(x_p).
        # * Hence f^-1(g_q) n X0 is the union of the f_p with
        #   atom_map[p] = q.  B_q meets X0' in g_q, and F' is the union
        #   of the B_q over the atoms q of its element, so its image is
        #   the closure of the union of those f_p over them: the union of
        #   the A_p with atom_map[p] among them, `apply_mask` of F'.
        source_alg = pcs_algebra(self.source)
        target_alg = pcs_algebra(self.target)
        support = pair_atoms(self.target.space, self.target.subset).support
        atom_map = []
        for closed in source_alg.atom_masks:
            dense = closed & self.source.subset
            x = (dense & -dense).bit_length() - 1
            atom_map.append(support[self.point_map[x]].bit_length() - 1)
        hom = BooleanHom(target_alg.pca.algebra, source_alg.pca.algebra, tuple(atom_map))
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
    """Is the morphism an isomorphism of triples: a bijection that
    reflects the relation on the dense parts?  A bijective morphism is a
    homeomorphism that matches the dense parts (proof below)."""
    # A `PcsMorphism` joins valid triples, is continuous, sends the dense
    # part into the target's and preserves the relation
    # (`_is_valid_pcs_map`), so only reflection is swept.  Why no line
    # checks the homeomorphism or the dense parts:
    # * (PCS1) makes X T0 with X0 dense and (PCS2) makes X0 discrete, so
    #   X0 is the set of maximal points (see `mereocompactness_report`);
    #   likewise Y0 in Y.
    # * A continuous injection sends a point x below a maximal m, x != m,
    #   to f(x) != f(m) inside cl{f(m)}; by T0, f(x) is not maximal.
    #   With f(X0) <= Y0 and f bijective, f(X0) = Y0.
    # * By (PCS2) each clopen atom of Y0 is one point, so the atom test
    #   of `_is_valid_pcs_map` reads f^-1(cl{f(m)}) = cl{m} for each m in
    #   X0.  By (PCS3) every cl{x} is the meet of the cl{m}, m in X0,
    #   that hold x, on both sides, and a bijection preserves meets:
    #   f(cl{x}) = cl{f(x)}.
    report = ReportBuilder("2-precontact space isomorphism")
    src, dst, pm = morphism.source, morphism.target, morphism.point_map
    bijective = (
        len(set(pm)) == len(pm) and dst.space.point_count == src.space.point_count
    )
    report.add("bijective", bijective, witness=None if bijective else f"map {pm}")
    if not bijective:
        return report.done()
    space = src.space  # its names are read only to word a failure
    points = list(bit_indices(src.subset))
    broken = next(
        (
            f"({space.point_names[x]},{space.point_names[y]}) is not reflected"
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
    # The preimage of the clan with support S has the support of the
    # source atoms atom_map[q] over the q in S.
    atom_bits = [1 << p for p in morphism.hom.atom_map]
    images = (join_at(atom_bits, support) for support in target_pca._clan_supports)
    return PcsMorphism(
        canonical_pcs_of_pca(target_pca),
        canonical_pcs_of_pca(source_pca),
        _clan_points(source_pca, images),
    )


def _clan_points(pca, supports):
    """The point of the dual of ``pca`` at each of the clan supports,
    its position in `clan_supports`, the dual's point order."""
    positions = pca._clan_positions
    points = tuple(map(positions.get, supports))
    if None in points:
        raise InternalError("a support must be a clan of the algebra")
    return points


def dual_algebra_map(f):
    """A PCS-morphism induces a PCA-morphism between the canonical
    algebras, in the reverse direction: each member of the target pair
    goes to the closure of the preimage of its dense trace.  Computed
    once per object."""
    return f._dual_algebra_map


# ---------------------------------------------------------------------------
# the natural isomorphisms


def _unit_points(pcs):
    """The point map of the space round trip of a valid triple: a point
    goes to its trace in the pair's regular closed sets, read as a clan.
    The canonical algebra's atoms are the closures in the pair's table,
    in its order, so the trace of x is held by its support there.  On a
    canonical dual the dual of its dual is the triple itself and the map
    is the identity: point x is the clan with support supports[x], and
    its trace is the atom clan sets B_i holding it, those i in
    supports[x]."""
    return _clan_points(pcs_algebra(pcs).pca, pair_atoms(pcs.space, pcs.subset).support)


def space_roundtrip_iso(pcs):
    """The triple against the dual of its dual, as a morphism of
    triples: a point goes to its trace (`_unit_points`)."""
    return PcsMorphism(pcs, canonical_pcs_of_pca(pcs_algebra(pcs).pca), _unit_points(pcs))


@dataclass(frozen=True)
class AlgebraRoundTrip:
    """The clan-set map from an algebra onto the canonical algebra of its
    dual triple, with the verification report.  The map is held by its
    atom images, the algebra's atom clan sets; the 2**n images are built
    on request."""

    source: PrecontactAlgebra
    space: TwoPrecontactSpace
    report: object

    @once
    def images(self):
        """images[m]: the clan set of the element m, the union of the
        atom clan sets of its atoms.  Computed once per object, when
        asked for."""
        return tuple(joins_table(self.source._atom_clans))


def _bijectivity_witness(space, atom_images, pair_atoms):
    """Why the join-preserving map with the given atom images is not a
    bijection onto the unions of the pair's atoms, or None when it is:
    the first atom whose image is not a pair atom, or is the image of an
    earlier atom, else the first pair atom that is no atom's image.

    The pair's atoms A_i are the closures of the clopen atoms f_i of a
    dense part D, so A_i n D = f_i: they are nonempty and disjoint, and
    the union over an index set T meets D in the union of the f_i over
    T, which gives T back.  So the 2**k unions of the k pair atoms are
    distinct.  Let the map g send the element m to the union of the
    images of its atoms.  If the n atom images are the k pair atoms,
    each once, then g is a reindexing of the unions: onto, and one to
    one as the unions are distinct.  Conversely, let g be a bijection
    onto the unions.  It preserves joins, so it preserves order, and it
    reflects it: g(m) inside g(m') gives g(m | m') = g(m'), so m | m' =
    m'.  An order isomorphism sends the atoms, the minimal nonzero
    elements, to the minimal nonzero unions, which are the pair atoms:
    every nonzero union holds a pair atom, and no pair atom holds
    another, as their unions are distinct.  So the n atom images are the
    k pair atoms, each once.  Bijectivity is decided on the n atom images
    alone, with no 2**n list."""
    free = set(pair_atoms)
    for p, image in enumerate(atom_images):
        if image not in free:
            why = "the image of an earlier atom" if image in pair_atoms else "not a pair atom"
            return f"atom {p} goes to {space.name_set(image)}, {why}"
        free.remove(image)
    if free:
        return f"pair atom {space.name_set(min(free))} is no atom's image"
    return None


def algebra_roundtrip_iso(pca):
    """Verify that sending an element to the set of clans containing it
    is an isomorphism onto the canonical algebra of the dual triple, both
    for the raw relation and, through the contact closure, for the
    pair's proximity.  Bijectivity is decided at the atom images
    (`_bijectivity_witness`); the 2**n images are built only when it
    fails."""
    report = ReportBuilder(f"algebra round trip on {pca.algebra.atom_count} atoms")
    triple = canonical_pcs_of_pca(pca)
    valid = triple.ok
    report.add(
        "canonical triple validates",
        valid,
        witness=None if valid else triple.failure_summary(" "),
    )
    if not valid:
        # `pcs_algebra` accepts only a valid triple
        return AlgebraRoundTrip(pca, triple, report.done())
    alg = pcs_algebra(triple)
    space = triple.space
    # The images come from the algebra alone, its atom clan sets (the
    # ones `_canonical_pcs` passed as the closed base), and the members
    # from the triple's pair table: the two sides stay independent.
    atom_clans = pca._atom_clans
    unmatched = _bijectivity_witness(space, atom_clans, alg.atom_masks)
    bijective = unmatched is None
    report.add("bijective onto the pair's regular closed sets", bijective, unmatched)

    # The images preserve joins by construction, as the union of the
    # atom images: the check is recorded, not swept.
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
    # complements fail; only then are the 2**n images built.  Both read
    # one table of stars F* = cl(X \ F), keyed on the point set.
    comp_witness = meet_witness = None
    if not bijective:
        images = tuple(joins_table(atom_clans))
        size = len(images)
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
    report.add(
        "preserves meets",
        meet_witness is None,
        None if meet_witness is None else f"(a, b) = {meet_witness}",
    )
    report.add(
        "preserves complements",
        comp_witness is None,
        None if comp_witness is None else f"a = {comp_witness}",
    )

    # Each relation below is additive in a and in b, so each check
    # compares atom rows (`_first_pair_mismatch`), and the first pair of
    # a difference, in sorted order, is the first atom pair (1 << i,
    # 1 << j) where the rows differ.  The kernel relates a and b iff its
    # forward table at a meets b: its rows are the kernel's successors,
    # and those of the contact closure C# are the kernel's
    # `_closure_rows`.  The canonical algebra is held by its atoms, the
    # pair's atoms A_i; the triple's relation relates the unions of the
    # A_i over a and b iff its canonical kernel relates a and b (proof
    # at `TwoPrecontactSpace._algebra`), and overlap of unions is the
    # union of the overlaps, so the pair's proximity has the rows
    # `meeting_rows` of the A_i.  On a canonical dual the A_i are the
    # atom clan sets, the images of the atoms (`_canonical_pcs`), so
    # these are the relation and the proximity of images[a] and
    # images[b].
    relation_witness = _first_pair_mismatch(pca.kernel.succ, alg.pca.kernel.succ)
    report.add(
        "preserves and reflects the relation",
        relation_witness is None,
        None if relation_witness is None else f"(a, b) = {relation_witness}",
    )

    atoms = alg.atom_masks
    proximity = meeting_rows(atoms, atoms)
    proximity_witness = _first_pair_mismatch(pca.kernel._closure_rows, proximity)
    report.add(
        "contact closure matches the pair's proximity",
        proximity_witness is None,
        None if proximity_witness is None else f"(a, b) = {proximity_witness}",
    )

    kernel_diff = _first_pair_mismatch(alg.pca.kernel._closure_rows, proximity)
    report.add(
        "closed canonical relation coincides with the pair's proximity",
        kernel_diff is None,
        None
        if kernel_diff is None
        else f"atom pair {tuple(m.bit_length() - 1 for m in kernel_diff)}",
    )

    return AlgebraRoundTrip(pca, triple, report.done())


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
    # The duals of the source and the target are the ends of f, and the
    # unit map of an algebra sends atom p to its atom clan set.
    f = dual_space_map(phi)
    psi = dual_algebra_map(f)
    a_alg = pcs_algebra(f.target)
    b_alg = pcs_algebra(f.source)
    a_clans, b_clans = phi.source._atom_clans, phi.target._atom_clans

    # Every map here sends 0 to 0 and preserves joins: the unit maps
    # (unions of atom clan sets) and `to_point_mask` (unions of the
    # canonical algebra's atoms), the hom, the preimage under f, and
    # `from_point_mask`, the inverse on the members of the injective
    # join-preserving `to_point_mask`.  So both checks compare their two
    # composites at the atoms (`_first_map_mismatch`), which names the
    # first element mask where they differ.
    atoms = [1 << p for p in range(phi.source.algebra.atom_count)]
    hom_images = [join_at(b_clans, phi.hom.apply_mask(a)) for a in atoms]
    basic = _first_map_mismatch([f.preimage_mask(clans) for clans in a_clans], hom_images)
    report.add(
        "preimages of basic closed sets match the hom images",
        basic is None,
        None if basic is None else f"element mask {basic}",
    )
    square = _first_map_mismatch(
        hom_images,
        [
            b_alg.to_point_mask(psi.hom.apply_mask(a_alg.from_point_mask(clans)))
            for clans in a_clans
        ],
    )
    report.add(
        "the square commutes",
        square is None,
        None if square is None else f"element mask {square}",
    )
    return report.done()


def _check_space_square(f):
    """The double dual of f must match f through the point traces."""
    report = ReportBuilder("naturality of the space round trip")
    f_sharp = dual_space_map(dual_algebra_map(f)).point_map
    t_src, t_dst = _unit_points(f.source), _unit_points(f.target)
    moved = next(
        (x for x, y in enumerate(f.point_map) if f_sharp[t_src[x]] != t_dst[y]), None
    )
    report.add(
        "the square commutes",
        moved is None,
        None if moved is None else f"point {f.source.space.point_names[moved]}",
    )
    return report.done()


def gt_preimage_check(f, member_mask):
    """The algebra map of a space morphism acts as plain preimage on the
    pair's regular closed sets."""
    target_alg = pcs_algebra(f.target)
    source_alg = pcs_algebra(f.source)
    psi = dual_algebra_map(f)
    element = target_alg.from_point_mask(member_mask)
    through_hom = source_alg.to_point_mask(psi.hom.apply_mask(element))
    # `from_point_mask` has checked that the member is the union of its
    # element's atoms, the closures B_q in the target's table order, and
    # preimage is additive: the plain preimage is the union of the kept
    # f^-1(B_q) (`PcsMorphism`), independent of psi's atom map.
    plain = join_at(f._atom_preimages, element)
    passed = through_hom == plain
    return verdict(
        "algebra map acts as preimage",
        passed,
        None if passed else f"member {f.target.space.name_set(member_mask)}",
    )


# ---------------------------------------------------------------------------
# the adjacency reduct and reconstruction


def dense_part_map(f):
    """Restriction of a PCS-morphism to the dense parts, as a cell map."""
    src = list(bit_indices(f.source.subset))
    dst = {x: i for i, x in enumerate(bit_indices(f.target.subset))}
    return tuple(dst[f.point_map[x]] for x in src)


def pcs_from_stone_adjacency(adjacency):
    """The unique triple extending a Stone adjacency space, built through
    the region algebra of the cells.  An adjacency space without a
    topology, or whose topology is not Stone, is refused."""
    # every relation on a finite Stone space is closed (`is_stone_adjacency`)
    if not adjacency.is_stone_adjacency:
        raise PreconditionError("not a Stone adjacency space")
    pca = contact_from_adjacency(adjacency)
    triple = canonical_pcs_of_pca(pca)
    report = ReportBuilder("reconstruction from a Stone adjacency space")
    valid = triple.ok
    report.add(
        "triple validates",
        valid,
        witness=None if valid else triple.failure_summary(" "),
    )
    # No line compares the dense part with the input: it reproduces the
    # cells and their adjacency by construction.  `contact_from_adjacency`
    # keeps the adjacency's pairs as the kernel's pair set
    # (`RelationKernel.of_pairs`), and `_canonical_pcs` passes that set
    # to `validate_pcs` as the relation on the first n points, the dense
    # part, where n is the cell count.  Read in the dense part's own
    # point order, point p is point p, so its relation is the input's.
    return triple, report.done()


# ---------------------------------------------------------------------------
# specializations of the duality


def specialization_report(pca):
    """Run the subcategory specializations that apply to the algebra, in
    this order: stone, connected-stone, contact, complete-contact and
    mereocompact.  The connected specialization is the suite's line
    "(Ccon) iff connected dual space" (`suite.instance_suite`), which
    reads the same flag and the same dual, so no line here repeats it.
    An algebra in none of these subcategories gets a report with no
    line, which like every empty report is not ``ok``: read its
    ``failures``.

    A line that cannot fail once an earlier line or the construction of
    the dual holds is left out, with its proof beside the line that
    makes it redundant.
    """
    n = pca.algebra.atom_count
    report = ReportBuilder(f"specializations on {n} atoms")
    flags = pca.axioms
    triple = canonical_pcs_of_pca(pca)
    space = triple.space

    def atom_set(mask):
        return "{" + ",".join(map(str, bit_indices(mask))) + "}"

    # The subcategories are told apart by the kernel's atom rows, which
    # fix its pairs.
    if pca.kernel.succ == smallest_contact(pca.algebra).kernel.succ:
        # stone: the n singletons are clans, first and in order, so the
        # clans are more than the ultrafilters iff one is wider.  When
        # they are exactly the ultrafilters, the dual triple is the whole
        # space with the diagonal on a discrete space, so that needs no
        # line of its own: the dual's points are these n supports, all of
        # them the dense part (`_canonical_pcs` makes the first n points
        # dense); the closed base is the atom clan sets, here the n
        # singletons, so each point's closure is itself; and the relation
        # is the kernel's pairs on the dense part, the diagonal.
        supports = clan_supports(pca)
        ultrafilters = supports == [1 << p for p in range(n)]
        report.add(
            "clans are exactly the ultrafilters",
            ultrafilters,
            None
            if ultrafilters
            else "clan support " + atom_set(next(s for s in supports if s & (s - 1))),
        )

    if pca.kernel.succ == largest_contact(pca.algebra).kernel.succ:
        # connected-stone: the supports are distinct nonzero masks below
        # the size, so they are all the grills iff there are size - 1 of
        # them; the sweep for a missing grill runs only when there are
        # fewer.
        supports = clan_supports(pca)
        grills = len(supports) == pca.algebra.size - 1
        witness = None
        if not grills:
            clans = set(supports)
            missing = next(g for g in range(1, pca.algebra.size) if g not in clans)
            witness = f"grill {atom_set(missing)} is not a clan"
        report.add("clans are exactly the grills", grills, witness)
        # The dual relation is total on the dense part by construction:
        # `_canonical_pcs` takes the kernel's pairs as the relation on the
        # first n points, its dense part, and the gate has just read every
        # kernel row full.

    if flags.is_contact:
        # contact
        cs = canonical_cs_of_ca(pca)
        report.add(
            "dual pair is a 2-contact space",
            cs.ok,
            witness=None if cs.ok else cs.failure_summary(" "),
        )
        if cs.ok:
            differ = contact_relation_of_pair(cs) ^ triple.relation
            report.add(
                "the pair determines the relation",
                not differ,
                "point pair " + _pair_name(space, min(differ)) if differ else None,
            )

        # complete-contact: both families are the unions of their atoms,
        # so they are equal iff their atom sets are; the pair's atoms
        # (the closures of the dense part's clopen atoms, `pair_atoms`)
        # are distinct, as a clopen f of the dense part has
        # cl f n subset = f.
        differ = set(rc_atoms(space)) ^ set(rc_atoms_of_subset(space, triple.subset))
        report.add(
            "regular closed sets of the dual all come from the pair",
            not differ,
            "atom " + space.name_set(min(differ)) if differ else None,
        )
        # X is C-semiregular iff it is T0 and (X, RC(X)) is mereocompact
        # (both read `topology._c_semiregular_tests`); on failure the
        # failing lines of that report are the witness.  When the line
        # above holds, RC(X) is the pair's algebra, whose report also
        # serves the mereocompact line.
        pair_report = mereocompactness_report(rc_pair_algebra(triple))
        result = mereocompactness_report(rc_algebra(space)) if differ else pair_report
        semiregular = result.is_t0 and result.is_mereocompact
        report.add(
            "dual space is C-semiregular",
            semiregular,
            None if semiregular else result.failure_summary(" "),
        )
        # The dense part is extremally disconnected once the 2-contact
        # line holds: its (CS2) makes the dense part discrete, and every
        # discrete space is.

        # mereocompact: the pair's member algebra is mereocompact iff
        # `pair_report` reads T0 and mereocompact, the C-semiregular line
        # itself once the complete-contact line holds (`result is
        # pair_report`), so no line repeats that.  This line also reads
        # the u-point lines of `pair_report` (a Stone subspace whose
        # clopens' closures are the members, and the only dense one),
        # and a failure there is named by the failing lines.
        recovered = pair_report.u_set == triple.subset
        witness = None if recovered else space.name_set(pair_report.u_set)
        if recovered and not pair_report.ok:
            witness = pair_report.failure_summary(" ")
        report.add("u-points recover the dense part", witness is None, witness)
    return report.done()


def _pair_name(space, pair):
    return "({}, {})".format(*(space.point_names[x] for x in pair))


def gmcs_hom_check(source_cs, target_cs, point_map):
    """For a continuous map of 2-contact pairs, taking plain preimages of
    the target pair's regular closed sets must give a Boolean
    homomorphism into the source pair's.  Decided at the atoms of both
    pairs (`pair_atoms`).  A point map that does not send every source
    point to a target point raises DomainMismatchError."""
    if not (source_cs.ok and target_cs.ok):
        raise PreconditionError("both pairs must be valid 2-contact spaces")
    src_space, dst_space = source_cs.space, target_cs.space
    if len(point_map) != src_space.point_count or any(
        not 0 <= y < dst_space.point_count for y in point_map
    ):
        raise DomainMismatchError("the point map must send each source point to a target point")
    report = ReportBuilder("preimage homomorphism of a pair map")
    src_atoms = pair_atoms(src_space, source_cs.subset).closures
    dst_atoms = pair_atoms(dst_space, target_cs.subset).closures
    point_fibres = fibres(dst_space.point_count, point_map)
    # The members of a pair are the unions of its atoms, one per set of
    # atom indices (distinct, as cl f n X0 = f for a clopen f of the
    # dense part), and the member algebra is that of the index sets.  A
    # preimage of a union is the union of the preimages, so every
    # member's preimage is a member iff each target atom's is, and a set
    # is a union of atoms iff it is the union of the atoms inside it:
    # inside[q] for the preimage of atom q.  Then the preimage map sends
    # an index set T to the union of inside[q] over q in T: it sends 0
    # to 0, the whole target to the whole source (the map is total) and
    # joins to joins.  Such a map is a Boolean homomorphism iff it
    # preserves meets, complements then following from the bounds.  Two
    # distinct atoms meet in 0, so meets force the inside[q] pairwise
    # disjoint; disjoint ones give the union over T n U, which is the
    # meet of the unions over T and over U.
    preimages = [join_at(point_fibres, b) for b in dst_atoms]
    inside = [sum(1 << p for p, a in enumerate(src_atoms) if not a & ~pre) for pre in preimages]
    outside = next(
        (q for q, pre in enumerate(preimages) if join_at(src_atoms, inside[q]) != pre), None
    )
    report.add(
        "preimages stay inside the source pair's regular closed sets",
        outside is None,
        None
        if outside is None
        else "preimage {} of atom {}".format(
            src_space.name_set(preimages[outside]), dst_space.name_set(dst_atoms[outside])
        ),
    )
    k = len(inside)
    shared = next(
        (
            (q, r, next(bit_indices(inside[q] & inside[r])))
            for q in range(k)
            for r in range(q + 1, k)
            if inside[q] & inside[r]
        ),
        None,
    )
    report.add(
        "preimages of distinct target atoms share no source atom",
        shared is None,
        None
        if shared is None
        else "atoms {} and {} share {}".format(
            dst_space.name_set(dst_atoms[shared[0]]),
            dst_space.name_set(dst_atoms[shared[1]]),
            src_space.name_set(src_atoms[shared[2]]),
        ),
    )
    return report.done()
