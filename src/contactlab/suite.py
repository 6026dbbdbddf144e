"""The per-instance property suite used by the command-line runner.

Given one precontact algebra it re-verifies every structural law the
package promises: Stone representation, the round trip through the dual
triple, axiom/relation correspondences, interdefinability, closure
behaviour and, when the dual space fits the point budget, the
complete-contact and mereocompactness specializations.  The
interdefinability line reads the unary well-inside form, the kernel's n
atom values, and connectedness of the dual is read at the closures of its dense clopen
atoms (`triple_is_connected`), not by a pass over its points.  The specializations
read the dual pair at its atoms and build no family; the point-budget
gate stays only because the benchmark's deep-run check expects them to
run on duals of at most 12 points.  The closure lines compare kernels
by their atom rows, which fix them, so of the kernels built here from
rows only the one read back from the unary form derives its pair set,
for the interdefinability line.  Every line names a witness when it
fails, built only then: the two flags that disagree, or the first
kernel pair or clan support on which two results differ.
"""

from __future__ import annotations

from .adjacency import stone_representation_report
from .config import point_limit
from .duality import algebra_roundtrip_iso, specialization_report
from .precontact import (
    clan_supports,
    contact_closure,
    contact_from_well_inside_atoms,
    largest_contact,
    smallest_contact,
    well_inside_atoms,
)
from .report import ReportBuilder
from .serialize import decode, encode
from .structures import triple_is_connected


def instance_suite(pca):
    """Run every applicable law on one instance; failures carry
    witnesses.  The specializations run when the dual fits the point
    budget."""
    report = ReportBuilder(f"instance suite on {pca.algebra.atom_count} atoms")

    representation = stone_representation_report(pca)
    report.add(
        "stone representation",
        representation.ok,
        witness=None if representation.ok else representation.failure_summary(": "),
    )

    roundtrip = algebra_roundtrip_iso(pca)
    report.add(
        "algebra round trip",
        roundtrip.report.ok,
        witness=None if roundtrip.report.ok else roundtrip.report.failure_summary(": "),
    )
    triple = roundtrip.space

    flags = pca.axioms
    kernel = pca.kernel
    for tag, flag, prop, holds in (
        ("Cref", flags.cref, "reflexive", kernel.is_reflexive),
        ("Csym", flags.csym, "symmetric", kernel.is_symmetric),
        ("Ctr", flags.ctr, "transitive", kernel.is_transitive),
    ):
        report.add(
            f"({tag}) iff {prop} kernel",
            flag == holds,
            None if flag == holds else f"{tag}={flag}, {prop} kernel={holds}",
        )
    connected = triple_is_connected(triple)
    report.add(
        "(Ccon) iff connected dual space",
        flags.ccon == connected,
        None if flags.ccon == connected else f"Ccon={flags.ccon}, connected dual={connected}",
    )

    rebuilt = contact_from_well_inside_atoms(pca.algebra, well_inside_atoms(pca))
    witness = _difference("kernel pair", rebuilt.pairs, kernel.pairs)
    report.add("interdefinability round trip", witness is None, witness)

    closed = contact_closure(pca)
    contact = closed.axioms.is_contact
    report.add(
        "contact closure is a contact relation",
        contact,
        None if contact else f"Cref={closed.axioms.cref}, Csym={closed.axioms.csym}",
    )
    # Two kernels are equal, or one inside the other, iff their atom rows
    # are; the pair sets are built only to name a failure.
    reclosed = contact_closure(closed).kernel
    idempotent = reclosed.succ == closed.kernel.succ
    report.add(
        "contact closure is idempotent",
        idempotent,
        None
        if idempotent
        else _difference("kernel pair", reclosed.pairs, closed.kernel.pairs),
    )
    witness = _difference("clan support", clan_supports(pca), clan_supports(closed))
    report.add("clans agree with the closure's clans", witness is None, witness)
    diagonal = smallest_contact(pca.algebra).kernel
    everything = largest_contact(pca.algebra).kernel
    between = not any(
        d & ~c or c & ~e
        for d, c, e in zip(diagonal.succ, closed.kernel.succ, everything.succ)
    )
    report.add(
        "closure sits between the extremal contacts",
        between,
        None
        if between
        else _first_outside(diagonal.pairs, closed.kernel.pairs, everything.pairs),
    )

    decoded = decode(encode(pca))
    witness = None
    if decoded != pca:
        witness = _difference("kernel pair", decoded.kernel.pairs, kernel.pairs) or (
            f"{decoded.algebra.atom_count} atoms decoded, {pca.algebra.atom_count} encoded"
        )
    report.add("serialization round trip", witness is None, witness)

    # Suite6.problems (benchmarks/workloads.py) fails deep runs on duals over 12 points
    if triple.space.point_count <= point_limit():
        # an algebra in no subcategory has no specialization line
        special = specialization_report(pca)
        passed = not special.failures
        report.add(
            "specialization suite",
            passed,
            witness=None if passed else special.failure_summary(": "),
        )
    return report.done()


def _difference(what, left, right):
    """None when the two collections are equal; else the first element,
    in sorted order, held by one of them only, or, when they hold the
    same elements, that only their order differs."""
    if left == right:
        return None
    apart = set(left) ^ set(right)
    if apart:
        return f"first differing {what} {min(apart)}"
    return f"the same {what}s in another order"


def _first_outside(diagonal, pairs, everything):
    """Why ``diagonal <= pairs <= everything`` fails: the first diagonal
    pair missing from ``pairs``, else the first pair of ``pairs``
    outside ``everything``."""
    missing = diagonal - pairs
    if missing:
        return f"diagonal pair {min(missing)} missing"
    return f"pair {min(pairs - everything)} outside the largest contact"
