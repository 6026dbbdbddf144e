"""Seeded inputs, timed operations and verdict checks for the workloads.

Each workload is an endless stream of operations cut into batches.  Batch
``p`` of a seed is always the same; every batch draws new instances, so
no object is timed twice and a cache keyed on objects pays its misses
exactly as a user's first call would.

A workload provides these steps:

* ``batch(api, seed, p)`` builds the inputs of batch ``p`` (untimed);
* ``call(api, value)`` is the timed operation on an item's input, made
  only through public functions of the ``contactlab`` package;
* ``evidence(api, item, out)`` copies out, untimed, what the checks need,
  so the result objects can be dropped;
* ``problems(evidence)`` checks the verdicts against answers the
  benchmark recomputes itself, and ``fingerprint(evidence)`` digests the
  output for comparison with the reference recorded in
  ``reference.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 20260810

# Acceptance criterion 1: all kernels on 1-2 atoms, then 500 seeded
# kernels on each of 3, 4 and 5 atoms with this density cycle.
POPULATION_DENSITIES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.9)
POPULATION_SEEDED = 500

# The density cycle of `contactlab suite` when no --density is given;
# 20 cases make one batch, as in `contactlab suite --atoms 6 --count 20`.
SUITE_DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)
SUITE_ATOMS = 6
SUITE_BATCH = 20

# Source and target atom counts of the seeded morphisms, with the density
# cycle of acceptance criterion 4; 40 = 5 x 8 cases cover every pairing
# of size and density once per batch.
NATURALITY_SIZES = ((3, 3), (4, 4), (5, 4), (4, 5), (5, 5))
NATURALITY_BATCH = 40

FINGERPRINT_HEX = 12


@dataclass
class Item:
    """One operation: its position in the stream, its input shape and the
    input itself."""

    index: int
    shape: dict
    value: object


# ---------------------------------------------------------------------------
# answers recomputed from the definitions, independently of contactlab


def expected_supports(atoms, pairs):
    """Clan supports: nonempty atom sets pairwise related under the
    symmetric, reflexive closure of the kernel, by (size, atoms)."""
    sharp = set(pairs) | {(q, p) for p, q in pairs} | {(p, p) for p in range(atoms)}
    found = []
    for mask in range(1, 1 << atoms):
        members = [p for p in range(atoms) if mask >> p & 1]
        if all((p, q) in sharp for p in members for q in members):
            found.append((len(members), members, mask))
    return tuple(mask for _, _, mask in sorted(found))


def expected_images(atoms, supports):
    """The round-trip map: an element goes to the set of clans whose
    support it meets."""
    return tuple(
        sum(1 << i for i, s in enumerate(supports) if s & m) for m in range(1 << atoms)
    )


def expected_point_map(atom_map, source_supports, target_supports):
    """The dual of a morphism sends a target clan to the source clan
    supported on the image of its atoms."""
    position = {s: i for i, s in enumerate(source_supports)}
    out = []
    for support in target_supports:
        image = 0
        for q, p in enumerate(atom_map):
            if support >> q & 1:
                image |= 1 << p
        out.append(position.get(image, -1))
    return tuple(out)


def _checks(report):
    return tuple((c.name, c.passed, c.witness) for c in report.checks)


def _digest(fields):
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:FINGERPRINT_HEX]


def all_kernels(atoms):
    pairs = [(p, q) for p in range(atoms) for q in range(atoms)]
    for r in range(len(pairs) + 1):
        yield from itertools.combinations(pairs, r)


# ---------------------------------------------------------------------------
# the workloads


# Each workload's tail percentile leaves at least ten operations beyond
# it in a 30-second run on a 2-CPU host, and is the highest whose spread
# over ten seeds stayed within a third of the op_tail_ms bound.


class RoundtripPopulation:
    name = "roundtrip-population"
    tail_percentile = 99

    def batch(self, api, seed, p):
        base = seed if p == 0 else api.randgen.child_seed(seed, p)
        items = []
        for atoms in (1, 2):
            for pairs in all_kernels(atoms):
                items.append(({"atoms": atoms, "density": None}, api.pca_from_pairs(atoms, pairs)))
        for atoms in (3, 4, 5):
            for k in range(POPULATION_SEEDED):
                density = POPULATION_DENSITIES[k % len(POPULATION_DENSITIES)]
                spec = api.RandomSpec(atoms, density, api.randgen.child_seed(base + atoms, k))
                items.append(({"atoms": atoms, "density": density}, api.random_pca(spec)))
        # A run may stop inside a batch; shuffling makes every prefix a
        # fair sample of the atom counts.
        random.Random(base).shuffle(items)
        start = p * len(items)
        return [Item(start + i, shape, pca) for i, (shape, pca) in enumerate(items)]

    def call(self, api, pca):
        return api.algebra_roundtrip_iso(pca)

    def evidence(self, api, item, trip):
        pca = item.value
        supports = tuple(api.clan_supports(pca))
        item.shape["clans"] = len(supports)
        kernel = pca.kernel
        axioms = pca.axioms
        return {
            "atoms": pca.algebra.atom_count,
            "pairs": kernel.pairs,
            "supports": supports,
            "images": tuple(trip.images),
            "checks": _checks(trip.report),
            "ok": trip.report.ok,
            "axioms": (axioms.cref, axioms.csym, axioms.ctr),
            "kernel": (kernel.is_reflexive, kernel.is_symmetric, kernel.is_transitive),
        }

    def problems(self, ev):
        out = []
        if not ev["ok"]:
            out.append("round trip not ok")
        supports = expected_supports(ev["atoms"], ev["pairs"])
        if ev["supports"] != supports:
            out.append("clan supports differ from the pairwise-related atom sets")
        if ev["images"] != expected_images(ev["atoms"], supports):
            out.append("round-trip images differ from the clan-set map")
        if ev["axioms"] != ev["kernel"]:
            out.append("(Cref, Csym, Ctr) flags differ from the kernel properties")
        return out

    def fingerprint(self, ev):
        return _digest((ev["supports"], ev["images"], ev["checks"]))


class Suite6:
    name = "suite-6"
    tail_percentile = 80

    def batch(self, api, seed, p):
        items = []
        for i in range(p * SUITE_BATCH, (p + 1) * SUITE_BATCH):
            density = SUITE_DENSITIES[i % len(SUITE_DENSITIES)]
            spec = api.RandomSpec(SUITE_ATOMS, density, api.randgen.child_seed(seed, i))
            items.append(Item(i, {"atoms": SUITE_ATOMS, "density": density}, api.random_pca(spec)))
        return items

    def call(self, api, pca):
        return api.instance_suite(pca)

    def evidence(self, api, item, report):
        pca = item.value
        supports = tuple(api.clan_supports(pca))
        checks = _checks(report)
        deep = any(name == "specialization suite" for name, _, _ in checks)
        item.shape.update(clans=len(supports), deep=deep)
        return {
            "atoms": pca.algebra.atom_count,
            "pairs": pca.kernel.pairs,
            "supports": supports,
            "checks": checks,
            "ok": report.ok,
            "deep": deep,
        }

    def problems(self, ev):
        out = []
        if not ev["ok"]:
            out.append("instance suite not ok")
        supports = expected_supports(ev["atoms"], ev["pairs"])
        if ev["supports"] != supports:
            out.append("clan supports differ from the pairwise-related atom sets")
        # The dual has one point per clan; the deep specializations run
        # exactly when it fits the default point budget of 12.
        if ev["deep"] != (len(supports) <= 12):
            out.append("deep specializations ran on the wrong instances")
        return out

    def fingerprint(self, ev):
        return _digest((ev["supports"], ev["checks"]))


class Naturality:
    name = "naturality"
    tail_percentile = 97

    def batch(self, api, seed, p):
        items = []
        for i in range(p * NATURALITY_BATCH, (p + 1) * NATURALITY_BATCH):
            source, target = NATURALITY_SIZES[i % len(NATURALITY_SIZES)]
            density = 0.3 + 0.05 * (i % 8)
            phi = api.random_pca_morphism(
                source, target, density, api.randgen.child_seed(seed, 7000 + i)
            )
            items.append(Item(i, {"atoms": [source, target], "density": density}, phi))
        return items

    def call(self, api, phi):
        square = api.check_naturality(phi)
        f = api.dual_space_map(phi)
        space_square = api.check_naturality(f)
        members = api.pcs_algebra(f.target).members
        preimages = [api.gt_preimage_check(f, m) for m in members]
        return square, f, space_square, members, preimages

    def evidence(self, api, item, out):
        square, f, space_square, members, preimages = out
        phi = item.value
        source = tuple(api.clan_supports(phi.source))
        target = tuple(api.clan_supports(phi.target))
        item.shape["clans"] = len(source) + len(target)
        return {
            "atoms": (phi.source.algebra.atom_count, phi.target.algebra.atom_count),
            "pairs": (phi.source.kernel.pairs, phi.target.kernel.pairs),
            "atom_map": tuple(phi.hom.atom_map),
            "supports": (source, target),
            "point_map": tuple(f.point_map),
            "members": tuple(members),
            "checks": (
                _checks(square),
                _checks(space_square),
                tuple((c.name, c.passed, c.witness) for c in preimages),
            ),
            "ok": square.ok and space_square.ok and all(c.passed for c in preimages),
        }

    def problems(self, ev):
        out = []
        if not ev["ok"]:
            out.append("a naturality square or preimage check failed")
        (n_source, n_target), (p_source, p_target) = ev["atoms"], ev["pairs"]
        source = expected_supports(n_source, p_source)
        target = expected_supports(n_target, p_target)
        if ev["supports"] != (source, target):
            out.append("clan supports differ from the pairwise-related atom sets")
        if ev["point_map"] != expected_point_map(ev["atom_map"], source, target):
            out.append("dual space map differs from the clan preimage map")
        if len(ev["members"]) != 1 << n_source:
            out.append("canonical algebra of the dual has the wrong size")
        return out

    def fingerprint(self, ev):
        return _digest((ev["supports"], ev["point_map"], ev["members"], ev["checks"]))


WORKLOADS = {w.name: w for w in (RoundtripPopulation(), Suite6(), Naturality())}
