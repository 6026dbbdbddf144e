"""Independent brute-force oracles.

Everything here recomputes expected values from literal definitions,
using explicit set families and quantifier loops, never the package's
kernel/closure machinery.  Oracles are deliberately slow and only run on
tiny instances.  `subspace` hands its trace topology back as the
package's `FiniteSpace`, a container of point closures, so that the
package's predicates can be asked about it.
"""

from functools import lru_cache
from itertools import combinations, permutations

from contactlab.topology import FiniteSpace


def bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def expand_relation(n, kernel_pairs):
    """The element-level relation of an atom-pair kernel, by definition."""
    size = 1 << n
    return {
        (a, b)
        for a in range(size)
        for b in range(size)
        if any(a >> p & 1 and b >> q & 1 for p, q in kernel_pairs)
    }


def oracle_axioms(n, rel):
    """Literal axiom quantifiers on an explicit element-level relation."""
    size = 1 << n
    full = size - 1

    def ll(a, b):
        return (a, full ^ b) not in rel

    cref = all((a, a) in rel for a in range(1, size))
    csym = all((b, a) in rel for (a, b) in rel)

    def interpolating(llf):
        return all(
            any(llf(a, b) and llf(b, c) for b in range(size))
            for a in range(size)
            for c in range(size)
            if llf(a, c)
        )

    ctr = interpolating(ll)
    sharp = rel | {(b, a) for a, b in rel} | {
        (a, b) for a in range(size) for b in range(size) if a & b
    }

    def ll_sharp(a, b):
        return (a, full ^ b) not in sharp

    ctr_sharp = interpolating(ll_sharp)
    ccon = all(
        (a, full ^ a) in rel or (full ^ a, a) in rel
        for a in range(1, size)
        if a != full
    )
    c6 = all(
        any(b != 0 and (b, a) not in rel for b in range(size))
        for a in range(size)
        if a != full
    )
    return {
        "cref": cref,
        "csym": csym,
        "ctr": ctr,
        "ctr_sharp": ctr_sharp,
        "ccon": ccon,
        "c6": c6,
    }


def oracle_normalize(n, rel):
    """The literal (C0) and (C+) sweep over all pairs and triples.

    Returns ("(C0)", pair) for the first pair with a zero side, in the
    iteration order of ``rel``; ("(C+)", (a, b, c)) for the
    lexicographically first triple breaking additivity on either side;
    otherwise ("ok", kernel pairs read off the atom singletons).
    """
    size = 1 << n
    for a, b in rel:
        if a == 0 or b == 0:
            return "(C0)", (a, b)
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if ((a, b | c) in rel) != ((a, b) in rel or (a, c) in rel):
                    return "(C+)", (a, b, c)
                if ((b | c, a) in rel) != ((b, a) in rel or (c, a) in rel):
                    return "(C+)", (a, b, c)
    kernel = frozenset(
        (p, q) for p in range(n) for q in range(n) if (1 << p, 1 << q) in rel
    )
    return "ok", kernel


def oracle_is_pca_morphism(hom, source_pca, target_pca):
    """Reflection by its quantifier over all element pairs: h(a) C' h(b)
    implies a C b, with both relations expanded from their kernels and
    h applied atom by atom."""
    ns, nt = source_pca.algebra.atom_count, target_pca.algebra.atom_count
    source = expand_relation(ns, source_pca.kernel.pairs)
    target = expand_relation(nt, target_pca.kernel.pairs)

    def image(a):
        return sum(1 << q for q in range(nt) if a >> hom.atom_map[q] & 1)

    return all(
        (a, b) in source
        for a in range(1 << ns)
        for b in range(1 << ns)
        if (image(a), image(b)) in target
    )


def satisfies_c0_cplus(n, rel):
    return oracle_normalize(n, rel)[0] == "ok"


def oracle_ultrafilter_adjacency(n, rel):
    """Atom pairs (p, q) such that every element of the ultrafilter at p
    is related to every element of the ultrafilter at q, quantified over
    the members of both ultrafilters."""
    size = 1 << n
    ultrafilters = [[m for m in range(size) if m >> p & 1] for p in range(n)]
    return frozenset(
        (p, q)
        for p in range(n)
        for q in range(n)
        if all((a, b) in rel for a in ultrafilters[p] for b in ultrafilters[q])
    )


def oracle_well_inside(n, rel):
    """The well-inside relation of an element-level relation C, by
    definition: a << b iff not a C b*."""
    size = 1 << n
    full = size - 1
    return {(a, b) for a in range(size) for b in range(size) if (a, full ^ b) not in rel}


def oracle_contact_from_well_inside(n, ll):
    """The inverse of interdefinability, by definition: a C b iff a is
    not well inside b*."""
    size = 1 << n
    full = size - 1
    return {(a, b) for a in range(size) for b in range(size) if (a, full ^ b) not in ll}


def oracle_unary_relation(n, m):
    """The relation a << b iff m(a) <= b, with m given at the n atoms
    and extended to elements by joins."""
    size = 1 << n
    m_of = [0] * size
    for a in range(size):
        for p in bits(a):
            m_of[a] |= m[p]
    return {(a, b) for a in range(size) for b in range(size) if m_of[a] | b == b}


def oracle_well_inside_axioms(n, rel):
    """Literal quantifiers for (<<1)..(<<7), (<<2') and (<<4') on an
    explicit relation, keyed by the report's field names."""
    size = 1 << n
    full = size - 1

    def related(a, b):
        return (a, b) in rel

    def subsets(m):
        return [s for s in range(size) if s | m == m]

    def supersets(m):
        return [s for s in range(size) if s | m == s]

    below = {a: [b for b in range(size) if related(a, b)] for a in range(size)}
    above = {c: [a for a in range(size) if related(a, c)] for c in range(size)}
    return {
        "ax1": all(a | b == b for a, b in rel),
        "ax2": related(0, 0),
        "ax2_prime": related(full, full),
        "ax3": all(
            related(s, d) for b, c in rel for s in subsets(b) for d in supersets(c)
        ),
        "ax4": all(
            related(a, b & c) for a in range(size) for b in below[a] for c in below[a]
        ),
        "ax4_prime": all(
            related(a | b, c) for c in range(size) for a in above[c] for b in above[c]
        ),
        "ax5": all(
            any(related(a, b) and related(b, c) for b in range(size)) for a, c in rel
        ),
        "ax6": all(
            any(b != 0 and related(b, a) for b in range(size)) for a in range(1, size)
        ),
        "ax7": all(related(full ^ b, full ^ a) for a, b in rel),
    }


def upward_closed(n, masks):
    size = 1 << n
    return all(
        b in masks for a in masks for b in range(size) if a | b == b
    )


def oracle_is_filter(n, masks):
    size = 1 << n
    full = size - 1
    return (
        full in masks
        and 0 not in masks
        and upward_closed(n, masks)
        and all((a & b) in masks for a in masks for b in masks)
    )


def oracle_is_ultrafilter(n, masks):
    full = (1 << n) - 1
    return oracle_is_filter(n, masks) and all(
        a in masks or (full ^ a) in masks for a in range(1 << n)
    )


def oracle_is_grill(n, masks):
    size = 1 << n
    if not masks or 0 in masks or not upward_closed(n, masks):
        return False
    return all(
        a in masks or b in masks
        for a in range(size)
        for b in range(size)
        if (a | b) in masks
    )


def oracle_is_clan(n, masks, rel):
    """Literal clan conditions on an explicit element set, with the
    contact closure spelled out."""
    if not oracle_is_grill(n, masks):
        return False
    return all(
        (a, b) in rel or (b, a) in rel or a & b for a in masks for b in masks
    )


def oracle_grills(n):
    """All grills of the n-atom algebra by filtering upward-closed
    0-free candidate subsets (indexed by their nonzero-element content)."""
    size = 1 << n
    nonzero = list(range(1, size))
    out = []
    for r in range(1, len(nonzero) + 1):
        for chosen in combinations(nonzero, r):
            masks = set(chosen)
            if oracle_is_grill(n, masks):
                out.append(frozenset(masks))
    return out


def oracle_clans(n, kernel_pairs):
    """All clans by the same filtering, against the literal expanded
    relation."""
    rel = expand_relation(n, kernel_pairs)
    return [g for g in oracle_grills(n) if oracle_is_clan(n, g, rel)]


# ---------------------------------------------------------------------------
# topology oracles: explicit closed-set families


def family_from_base(point_count, base_masks):
    """Closed family: all intersections of finite unions of the base,
    plus the empty set and the whole space, by two fixpoints."""
    full = (1 << point_count) - 1
    unions = set(base_masks)
    changed = True
    while changed:
        changed = False
        for a in list(unions):
            for b in list(unions):
                if (a | b) not in unions:
                    unions.add(a | b)
                    changed = True
    family = set(unions) | {0, full}
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                if (a & b) not in family:
                    family.add(a & b)
                    changed = True
    return family


def oracle_closure(family, full, mask):
    acc = full
    for c in family:
        if mask | c == c:
            acc &= c
    return acc


def oracle_interior(family, full, mask):
    return full ^ oracle_closure(family, full, full ^ mask)


def oracle_rc(family, full):
    return sorted(
        m
        for m in range(full + 1)
        if oracle_closure(family, full, oracle_interior(family, full, m)) == m
    )


def oracle_u_point(family, full, x):
    opens = [full ^ c for c in family]
    reaching = [u for u in opens if oracle_closure(family, full, u) >> x & 1]
    return all(
        oracle_closure(family, full, u & v) >> x & 1
        for u in reaching
        for v in reaching
    )


def oracle_product_family(point_count, family):
    """Closed family of the product space, generated by closed
    rectangles."""
    n = point_count
    rectangles = []
    for c in family:
        for d in family:
            mask = 0
            for x in bits(c):
                for y in bits(d):
                    mask |= 1 << (x * n + y)
            rectangles.append(mask)
    return family_from_base(n * n, rectangles)


def oracle_closed_in_product(point_closures, mask):
    """Is ``mask``, a set of pair points x * n + y, closed in the product
    of the space with itself?  Literally: its complement is a union of
    open rectangles U x V, each missing the set."""
    n = len(point_closures)
    full = (1 << n) - 1
    opens = [full ^ c for c in oracle_closed_family(point_closures)]
    covered = 0
    for u in opens:
        for v in opens:
            rect = 0
            for x in bits(u):
                for y in bits(v):
                    rect |= 1 << (x * n + y)
            if not rect & mask:
                covered |= rect
    return covered | mask == (1 << (n * n)) - 1


def oracle_is_connected_relation(pairs, n):
    """Between any two distinct cells there is a path over the symmetric
    closure of the relation: one search per ordered pair of cells."""
    flat = set(pairs) | {(y, x) for x, y in pairs}

    def path(start, goal):
        seen, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for a, b in flat:
                if a == x and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return goal in seen

    return all(path(x, y) for x in range(n) for y in range(n) if x != y)


def oracle_closed_family(point_closures):
    """Closed sets of a space given by its singleton closures: the sets
    that hold the closure of each of their points."""
    return {
        m
        for m in range(1 << len(point_closures))
        if all(point_closures[x] | m == m for x in bits(m))
    }


def oracle_closed_unions(point_closures):
    """The unions of the singleton closures, grown from the empty set one
    closure at a time: the family of `oracle_closed_family`, as a set
    holding the closure of each of its points is the union of those
    closures, and a union of closures holds the closure of each of its
    points, closures being transitive.  Its cost is the family's size
    times the points, not 2**points, so it reaches the canonical duals
    of 5 atoms."""
    family, frontier = {0}, [0]
    while frontier:
        grown = frontier.pop()
        for closed in point_closures:
            union = grown | closed
            if union not in family:
                family.add(union)
                frontier.append(union)
    return family


def oracle_is_closed_base(point_closures, members):
    """Members are closed, and the intersections of their finite unions
    are every closed set."""
    closed = oracle_closed_family(point_closures)
    return set(members) <= closed and family_from_base(
        len(point_closures), members
    ) == closed


def _support_order(k):
    """Nonempty atom sets of a k-atom algebra in (size, atoms) order."""
    return sorted(range(1, 1 << k), key=lambda s: (len(bits(s)), bits(s)))


def oracle_clique_supports(adj):
    """Every nonempty atom set whose atoms are pairwise adjacent under
    ``adj`` (adj[p]: the mask of the atoms adjacent to p), in (size,
    atoms) order."""
    return [
        s
        for s in _support_order(len(adj))
        if all(adj[p] >> q & 1 for p in bits(s) for q in bits(s))
    ]


def oracle_clan_supports(n, kernel_pairs):
    """Supports of all clans in (size, atoms) order.  The grills of a
    finite algebra are the families of the elements meeting a nonempty
    atom set S; such a grill is a clan iff each two of its members are
    related by the contact closure of the expanded relation."""
    rel = expand_relation(n, kernel_pairs)
    out = []
    for support in _support_order(n):
        grill = [a for a in range(1 << n) if a & support]
        if all(
            (a, b) in rel or (b, a) in rel or a & b for a in grill for b in grill
        ):
            out.append(support)
    return out


def oracle_first_mismatch(n, rel, other):
    """The first element pair, in lexicographic order, on which two
    element-level relations differ, or None."""
    size = 1 << n
    return next(
        (
            (a, b)
            for a in range(size)
            for b in range(size)
            if ((a, b) in rel) != ((a, b) in other)
        ),
        None,
    )


def _closure_of(point_closures, mask):
    out = 0
    for x in bits(mask):
        out |= point_closures[x]
    return out


def oracle_u_point_of_pair(point_closures, members, x):
    """u-point of a mereotopological pair, literally: for all members F
    and G holding x, x is in cl(int(F n G))."""
    full = (1 << len(point_closures)) - 1
    holding = [f for f in set(members) if f >> x & 1]
    return all(
        _closure_of(point_closures, full ^ _closure_of(point_closures, full ^ (f & g)))
        >> x
        & 1
        for f in holding
        for g in holding
    )


def oracle_mereo_closure_failure(point_closures, members):
    """Why a family of regular closed sets holding 0 and X is not closed
    under complement, join and meet, by the literal loop over all member
    pairs in the given order, or None: the message that
    ``MereotopologicalPair`` raises."""
    full = (1 << len(point_closures)) - 1
    family = set(members)

    def star(f):  # cl(X \ f); the meet cl(int h) is star(star(h))
        return _closure_of(point_closures, full ^ f)

    for f in members:
        if star(f) not in family:
            return "subalgebra not closed under complement"
        for g in members:
            if (f | g) not in family or star(star(f & g)) not in family:
                return "subalgebra not closed under join/meet"
    return None


def subspace(space, mask):
    """The trace topology on the points of ``mask``, by definition: the
    closure of a point there is its closure in the space cut to the
    subset, read in the subset's point order, and each point keeps the
    name the space gives it."""
    points = bits(mask)
    closures = tuple(
        sum(1 << i for i, y in enumerate(points) if space.point_closures[x] >> y & 1)
        for x in points
    )
    return FiniteSpace(tuple(space.point_names[x] for x in points), closures)


def oracle_subspace_clopens(point_closures, subset):
    """Clopen sets of the subspace on ``subset``, ascending: the subsets
    that, like their complements in the subset, are their own closure
    traced on the subset."""
    out = []
    for m in range(subset + 1):
        rest = subset ^ m
        if m & ~subset:
            continue
        if (
            _closure_of(point_closures, m) & subset == m
            and _closure_of(point_closures, rest) & subset == rest
        ):
            out.append(m)
    return out


def oracle_pcs4_pcs5(point_closures, subset, relation):
    """(PCS4) and (PCS5) by their quantifiers over all clopens of the
    dense part, in the order the validator reports them.

    (PCS4): if the closures of clopens f and g meet, then f C g, g C f
    or f and g overlap, where f C g iff some point of f is related to
    some point of g.  (PCS5): every clan of the clopen algebra under C
    is the closure trace {f : x in cl f} of some point x.

    Returns (pcs4, pcs5): None for a pass, else the first failing clopen
    pair and the first unrealized clan as an ascending list of clopens.
    """
    clopens = oracle_subspace_clopens(point_closures, subset)
    closed = {f: _closure_of(point_closures, f) for f in clopens}

    def related(f, g):
        return any((x, y) in relation for x in bits(f) for y in bits(g))

    sharp = {
        (f, g): related(f, g) or related(g, f) or bool(f & g)
        for f in clopens
        for g in clopens
    }
    pcs4 = next(
        (
            (f, g)
            for f in clopens
            for g in clopens
            if closed[f] & closed[g] and not sharp[f, g]
        ),
        None,
    )

    atoms = sorted(
        f
        for f in clopens
        if f and not any(g and g != f and g | f == f for g in clopens)
    )
    traces = [
        {f for f in clopens if closed[f] >> x & 1}
        for x in range(len(point_closures))
    ]
    pcs5 = None
    for support in _support_order(len(atoms)):
        chosen = [atoms[i] for i in bits(support)]
        grill = [f for f in clopens if any(a | f == f for a in chosen)]
        is_clan = all(sharp[f, g] for f in grill for g in grill)
        if is_clan and set(grill) not in traces:
            pcs5 = grill
            break
    return pcs4, pcs5


def oracle_pcs2_pcs3(point_closures, subset, relation):
    """(PCS2) and (PCS3) by their definitions.

    The dense part carries the trace topology: its closed sets are the
    closed sets of the space cut down to the subset.  It is Stone when it
    is compact (always, being finite), Hausdorff (distinct points have
    disjoint open neighbourhoods) and zero-dimensional (every point of an
    open set has a clopen neighbourhood inside it).  The smallest open
    neighbourhood of a point is the intersection of the open sets that
    hold it, and the products of two of them are the smallest
    neighbourhoods in the square, so the relation is closed when each
    pair outside it has such a product missing it.  (PCS3): the closures
    of the dense part's clopens form a closed base of the space.

    Returns (stone, closed_relation, closed_base).
    """
    closed = {c & subset for c in oracle_closed_family(point_closures)}
    opens = [subset ^ c for c in closed]
    points = bits(subset)
    nbhd = {}
    for x in points:
        nbhd[x] = subset
        for u in opens:
            if u >> x & 1:
                nbhd[x] &= u
    hausdorff = all(not nbhd[x] & nbhd[y] for x in points for y in points if x != y)
    clopens = [u for u in opens if u in closed]
    zero_dimensional = all(
        any(k >> x & 1 and k | u == u for k in clopens) for u in opens for x in bits(u)
    )
    closed_relation = all(
        not any((p, q) in relation for p in bits(nbhd[x]) for q in bits(nbhd[y]))
        for x in points
        for y in points
        if (x, y) not in relation
    )
    regular_closed = [
        _closure_of(point_closures, f)
        for f in oracle_subspace_clopens(point_closures, subset)
    ]
    return (
        hausdorff and zero_dimensional,
        closed_relation,
        oracle_is_closed_base(point_closures, regular_closed),
    )


# ---------------------------------------------------------------------------
# family sweeps: regular closed sets, clopens of a subspace and the traces
# of points, by quantifying over every member


def _minimal_nonzero(family):
    return sorted(
        f for f in set(family) if f and not any(g and g != f and g | f == f for g in family)
    )


def _first_unrealized(atoms, members, supports, traces, related=None):
    """The first element set, over the supports in the given order, that
    is none of the ``traces`` and, unless ``related`` is None, holds only
    pairwise related members: the members above one of the support's
    atoms, as an ascending list."""
    for support in supports:
        chosen = [atoms[i] for i in bits(support)]
        element_set = sorted(f for f in set(members) if any(a | f == f for a in chosen))
        if related is not None and not all(
            related(f, g) for f in element_set for g in element_set
        ):
            continue
        if set(element_set) not in traces:
            return element_set
    return None


def _overlap(f, g):
    return bool(f & g)


def oracle_open_family(point_closures):
    full = (1 << len(point_closures)) - 1
    return sorted(full ^ c for c in oracle_closed_family(point_closures))


def oracle_rc_family(point_closures):
    """Regular closed sets: the closures of all open sets."""
    return sorted(
        {_closure_of(point_closures, u) for u in oracle_open_family(point_closures)}
    )


def oracle_extremally_disconnected(point_closures):
    """The closure of every open set is open."""
    opens = set(oracle_open_family(point_closures))
    return all(_closure_of(point_closures, u) in opens for u in opens)


def oracle_maximal_points(point_closures):
    """The points x such that every y with x in cl{y} lies in cl{x}, as
    a mask."""
    n = len(point_closures)
    return sum(
        1 << x
        for x in range(n)
        if all(point_closures[x] >> y & 1 for y in range(n) if point_closures[y] >> x & 1)
    )


def oracle_is_u_point(point_closures, x):
    """x in cl U and x in cl V force x in cl(U n V), over all open pairs."""
    closed = {u: _closure_of(point_closures, u) for u in oracle_open_family(point_closures)}
    reaching = [u for u, c in closed.items() if c >> x & 1]
    return all(closed[u & v] >> x & 1 for u in reaching for v in reaching)


def oracle_c_semiregular(point_closures):
    """T0, RC(X) a closed base, and every clan of RC(X) under overlap the
    set {F : x in F} of the members holding some point x."""
    n = len(point_closures)
    if len(set(point_closures)) != n:
        return False
    rc = oracle_rc_family(point_closures)
    if not oracle_is_closed_base(point_closures, rc):
        return False
    atoms = _minimal_nonzero(rc)
    traces = [{f for f in rc if f >> x & 1} for x in range(n)]
    return _first_unrealized(atoms, rc, _support_order(len(atoms)), traces, _overlap) is None


def oracle_cs4_s2s4(point_closures, subset):
    """(CS4) and (S2S4) by their quantifiers over all clopens of the
    subspace: the first clan (closures meeting pairwise, in (size, atoms)
    order) and the first grill (in ascending support order) whose element
    set is not the closure trace {f : x in cl f} of any point, as
    ascending lists, or None."""
    clopens = oracle_subspace_clopens(point_closures, subset)
    closed = {f: _closure_of(point_closures, f) for f in clopens}
    atoms = _minimal_nonzero(clopens)
    traces = [
        {f for f in clopens if closed[f] >> x & 1} for x in range(len(point_closures))
    ]

    def delta(f, g):
        return bool(closed[f] & closed[g])

    cs4 = _first_unrealized(atoms, clopens, _support_order(len(atoms)), traces, delta)
    s2s4 = _first_unrealized(atoms, clopens, range(1, 1 << len(atoms)), traces)
    return cs4, s2s4


def oracle_contact_relation(point_closures, subset):
    """x R y iff every clopen holding x and every clopen holding y have
    meeting closures."""
    clopens = oracle_subspace_clopens(point_closures, subset)
    return {
        (x, y)
        for x in bits(subset)
        for y in bits(subset)
        if all(
            _closure_of(point_closures, f) & _closure_of(point_closures, g)
            for f in clopens
            if f >> x & 1
            for g in clopens
            if g >> y & 1
        )
    }


def oracle_pcs_algebra(point_closures, subset, relation):
    """The pair's regular closed sets (the closures of all clopens of the
    subspace), their atoms and the atom pairs (i, j) with a point of
    atom i in the subset related to a point of atom j in the subset."""
    members = sorted(
        {_closure_of(point_closures, f) for f in oracle_subspace_clopens(point_closures, subset)}
    )
    atoms = _minimal_nonzero(members)
    kernel = {
        (i, j)
        for i, a in enumerate(atoms)
        for j, b in enumerate(atoms)
        if any((x, y) in relation for x in bits(a & subset) for y in bits(b & subset))
    }
    return atoms, members, kernel


def oracle_pcs_map_failure(source, target, point_map):
    """The first morphism condition the point map breaks, or None:
    "continuity" (a closed set with a preimage that is not closed),
    "dense part" (a dense point mapped outside the target's), "relation"
    (a related pair mapped to an unrelated one) or "trace coherence" (a
    clopen c of the target's dense part and a point x with f(x) in cl c
    but x outside the closure of the dense points mapped into c).
    ``source`` and ``target`` are (point closures, subset, relation)."""
    (s_cl, s_sub, s_rel), (t_cl, t_sub, t_rel) = source, target

    def preimage(mask):
        return sum(1 << x for x in range(len(s_cl)) if mask >> point_map[x] & 1)

    def closed(mask):
        return all(s_cl[x] | mask == mask for x in bits(mask))

    if any(not closed(preimage(c)) for c in oracle_closed_unions(t_cl)):
        return "continuity"
    if any(not t_sub >> point_map[x] & 1 for x in bits(s_sub)):
        return "dense part"
    if any((point_map[x], point_map[y]) not in t_rel for x, y in s_rel):
        return "relation"
    for c in oracle_subspace_clopens(t_cl, t_sub):
        landing = preimage(_closure_of(t_cl, c))
        if landing & ~_closure_of(s_cl, preimage(c) & s_sub):
            return "trace coherence"
    return None


def oracle_sigma_unrealized(point_closures, members):
    """The first clan of the member algebra under overlap, in (size,
    atoms) order, that is not {F : x in F} for any point x, as an
    ascending list, or None."""
    atoms = _minimal_nonzero(members)
    traces = [{f for f in set(members) if f >> x & 1} for x in range(len(point_closures))]
    return _first_unrealized(atoms, members, _support_order(len(atoms)), traces, _overlap)


def oracle_support_of(element_set):
    """The support of an unrealized element set, read off the set: its
    minimal members, ascending.  The set is the members above one of its
    support's atoms, so those atoms are its minimal members."""
    return _minimal_nonzero(element_set)


def oracle_ultrafilter_points(point_closures, members):
    """The points x whose trace {F : x in F} is an ultrafilter of the
    member algebra, ordered by inclusion, with F . G = cl(int(F n G))
    and F* = cl(X \\ F): it misses 0, holds every member above one of
    its own, holds F . G for F and G in it, and holds F or F* for every
    member F.  As a mask."""
    n = len(point_closures)
    full = (1 << n) - 1
    family = set(members)

    def meet(f, g):
        return _closure_of(point_closures, full ^ _closure_of(point_closures, full ^ (f & g)))

    def complement(f):
        return _closure_of(point_closures, full ^ f)

    out = 0
    for x in range(n):
        trace = {f for f in family if f >> x & 1}
        if (
            0 not in trace
            and all(g in trace for f in trace for g in family if f | g == g)
            and all(meet(f, g) in trace for f in trace for g in trace)
            and all(f in trace or complement(f) in trace for f in family)
        ):
            out |= 1 << x
    return out


def oracle_uniqueness_witness(point_closures, u_set, members):
    """The first nonzero subset other than ``u_set``, in ascending order,
    that is dense, discrete as a subspace, and whose clopens have the
    members as their closures; or None."""
    full = (1 << len(point_closures)) - 1
    for candidate in range(1, full + 1):
        if candidate == u_set or _closure_of(point_closures, candidate) != full:
            continue
        if any(point_closures[x] & candidate != 1 << x for x in bits(candidate)):
            continue
        closures = {
            _closure_of(point_closures, f)
            for f in oracle_subspace_clopens(point_closures, candidate)
        }
        if closures == set(members):
            return candidate
    return None


def oracle_first_map_mismatch(size, left, right):
    """The first element mask, of an algebra of ``size`` elements, on
    which two maps differ, or None."""
    return next((a for a in range(size) if left(a) != right(a)), None)


def oracle_preimage(point_map, mask):
    """The points x with point_map[x] in the mask."""
    return sum(1 << x for x, y in enumerate(point_map) if mask >> y & 1)


def oracle_point_mask(atom_masks, element_mask):
    """The union of the atom masks of the element's atoms."""
    out = 0
    for i in bits(element_mask):
        out |= atom_masks[i]
    return out


def oracle_hom_image(atom_map, mask):
    """The image of an element under the Boolean hom with this atom map:
    the target atoms q with atom_map[q] in the element."""
    return sum(1 << q for q, p in enumerate(atom_map) if mask >> p & 1)


def oracle_algebra_square_witnesses(size, maps, images, atoms):
    """The first element masks, of an algebra of ``size`` elements, that
    break the two checks of the algebra naturality square, by the sweeps
    over all elements; None for a check that holds.  ``maps`` are the
    atom map of phi, the point map of f and the atom map of psi;
    ``images`` the round-trip images of the source and the target;
    ``atoms`` the atom masks of their canonical algebras."""
    hom_map, point_map, psi_map = maps
    a_images, b_images = images
    a_atoms, b_atoms = atoms
    a_members = {oracle_point_mask(a_atoms, m): m for m in range(1 << len(a_atoms))}

    def hom_side(a):
        return b_images[oracle_hom_image(hom_map, a)]

    basic = next(
        (a for a in range(size) if oracle_preimage(point_map, a_images[a]) != hom_side(a)),
        None,
    )
    square = next(
        (
            a
            for a in range(size)
            if hom_side(a)
            != oracle_point_mask(b_atoms, oracle_hom_image(psi_map, a_members[a_images[a]]))
        ),
        None,
    )
    return basic, square


def oracle_dual_images(source, target, point_map, members):
    """cl(f^-1(F' n X0') n X0) for each target member F': its image
    under the algebra map of the space morphism f.  ``source`` and
    ``target`` are (point closures, subset)."""
    (s_cl, s_sub), (_, t_sub) = source, target
    closures = {}
    out = []
    for member in members:
        pre = oracle_preimage(point_map, member & t_sub) & s_sub
        if pre not in closures:
            closures[pre] = _closure_of(s_cl, pre)
        out.append(closures[pre])
    return out


@lru_cache(maxsize=1 << 14)
def _regular_meet(point_closures, f, g):
    """cl int(F n G), kept per space and pair of sets, as the maps into
    one pair meet the same sets again."""
    return _closure_of(point_closures, oracle_interior_at(point_closures, f & g))


def oracle_gmcs_hom(source, target, point_map):
    """The preimage map of a point map between two 2-contact pairs, by
    the sweeps over every member of the target pair: is each preimage a
    member of the source pair, does the map preserve the meets
    cl int(F n G), and does it preserve the complements cl(X \\ F).
    ``source`` and ``target`` are (point closures, subset); the members
    of a pair are the closures of the clopens of its dense part."""

    def members(closures, subset):
        return [_closure_of(closures, f) for f in oracle_subspace_clopens(closures, subset)]

    def complement(closures, f):
        return _closure_of(closures, ((1 << len(closures)) - 1) ^ f)

    (s_cl, s_sub), (t_cl, t_sub) = source, target
    src, dst = set(members(s_cl, s_sub)), members(t_cl, t_sub)
    pre = {h: oracle_preimage(point_map, h) for h in dst}
    inside = all(v in src for v in pre.values())
    meets = all(
        oracle_preimage(point_map, _regular_meet(t_cl, h, k))
        == _regular_meet(s_cl, pre[h], pre[k])
        for h in dst
        for k in dst
    )
    complements = all(
        oracle_preimage(point_map, complement(t_cl, h)) == complement(s_cl, pre[h])
        for h in dst
    )
    return inside, meets, complements


def oracle_bijective_onto_unions(atom_images, pair_atoms):
    """Is the join-preserving map with these atom images a bijection onto
    the unions of the pair atoms?  Literally: its 2**n values, the
    unions of the images over every atom set, are distinct, and as a set
    they are the unions of the pair atoms over every index set."""
    values = [oracle_point_mask(atom_images, m) for m in range(1 << len(atom_images))]
    members = {oracle_point_mask(pair_atoms, t) for t in range(1 << len(pair_atoms))}
    return len(set(values)) == len(values) and set(values) == members


def oracle_interior_at(point_closures, mask):
    """The points x whose smallest open neighbourhood, every y with x in
    cl{y}, lies inside the mask."""
    n = len(point_closures)
    return sum(
        1 << x
        for x in range(n)
        if all(mask >> y & 1 for y in range(n) if point_closures[y] >> x & 1)
    )


def restrict_regular_closed(pair, f):
    """RC(X) -> RC(X0), F |-> F n X0, the inverse of
    `extend_regular_closed`; F must be regular closed in X."""
    closures = pair.space.point_closures
    if _closure_of(closures, oracle_interior_at(closures, f)) != f:
        raise ValueError("input is not regular closed in the space")
    return f & pair.subset


def extend_regular_closed(pair, g):
    """RC(X0) -> RC(X), G |-> cl G taken in X; G must be regular closed
    in the dense part X0.  In X0 the closure of G is cl G n X0, and the
    smallest open set of a point is its smallest open set in X cut down
    to X0, so the interior of G in X0 is int(G u (X \\ X0)) n X0."""
    closures, subset = pair.space.point_closures, pair.subset
    if g & ~subset:
        raise ValueError("input is not a subset of the dense part")
    outside = ((1 << len(closures)) - 1) ^ subset
    inner = oracle_interior_at(closures, g | outside) & subset
    if _closure_of(closures, inner) & subset != g:
        raise ValueError("input is not regular closed in the dense part")
    return _closure_of(closures, g)


def oracle_atom_supports(point_count, atoms):
    """supports[x]: the indices i with x in atoms[i], for each point x."""
    return [
        sum(1 << i for i, a in enumerate(atoms) if a >> x & 1) for x in range(point_count)
    ]


def oracle_support_join_rows(point_count, atoms):
    """rows[i]: the join, over the points x of atoms[i], of the support
    of x, the indices j with x in atoms[j]."""
    supports = oracle_atom_supports(point_count, atoms)
    rows = []
    for a in atoms:
        row = 0
        for x in range(point_count):
            if a >> x & 1:
                row |= supports[x]
        rows.append(row)
    return rows


def canonical_kernel_form(pca):
    """The lexicographically least sorted kernel pair list over every
    permutation of the atoms: equal exactly for isomorphic kernels."""
    n = pca.algebra.atom_count
    return min(
        tuple(sorted((pm[p], pm[q]) for p, q in pca.kernel.pairs))
        for pm in permutations(range(n))
    )


def oracle_prefix_names(supports):
    """Clan point names by the prefix recursion: a support in (size,
    atoms) order is named after the support without its highest atom,
    which comes earlier, with "-" and that atom appended; a singleton
    {p} is "c" followed by p."""
    name_of = {}
    for s in supports:
        top = s.bit_length() - 1
        rest = s ^ (1 << top)
        name_of[s] = (name_of[rest] + "-" if rest else "c") + str(top)
    return tuple(name_of[s] for s in supports)


def oracle_is_symmetric(pairs):
    """(p, q) in the pairs forces (q, p)."""
    return all((q, p) in pairs for p, q in pairs)


def oracle_is_transitive(pairs):
    """(p, q) and (q, r) in the pairs force (p, r), over every pair of
    pairs."""
    return all((p, r) in pairs for p, q in pairs for q2, r in pairs if q2 == q)


def pca_isomorphic(first, second):
    """An atom permutation carrying one kernel onto the other, by trying
    every permutation, or None."""
    n = first.algebra.atom_count
    if n != second.algebra.atom_count:
        return None
    target = second.kernel.pairs
    return next(
        (
            pm
            for pm in permutations(range(n))
            if frozenset((pm[p], pm[q]) for p, q in first.kernel.pairs) == target
        ),
        None,
    )


def pcs_isomorphic(first, second):
    """A point permutation carrying one triple onto the other, by trying
    every permutation, or None: it must carry the dense part, each point
    closure and the relation onto those of the second triple."""
    n = first.space.point_count
    if n != second.space.point_count:
        return None

    def image(pm, mask):
        return sum(1 << pm[x] for x in bits(mask))

    closures = first.space.point_closures
    for pm in permutations(range(n)):
        if (
            image(pm, first.subset) == second.subset
            and all(
                image(pm, closures[x]) == second.space.point_closures[pm[x]]
                for x in range(n)
            )
            and frozenset((pm[x], pm[y]) for x, y in first.relation) == second.relation
        ):
            return pm
    return None
