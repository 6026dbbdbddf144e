"""Finite-model laboratory for contact algebras and their dual spaces.

Builds finite Boolean algebras with precontact relations, finite
topological spaces with dense subsets, the canonical constructions in
both directions, and verifies the duality laws on concrete instances.
"""

from .boolean import (
    BooleanHom,
    ElementFamily,
    FiniteBooleanAlgebra,
    grills,
    is_family,
    sandwich_ultrafilter,
    stone_map,
    ultrafilters,
)
from .errors import (
    AxiomViolationError,
    CapacityError,
    ContactLabError,
    DomainMismatchError,
    InternalError,
    PreconditionError,
    SchemaError,
    ValidationError,
)
from .precontact import (
    PcaMorphism,
    PrecontactAlgebra,
    RelationKernel,
    axiom_report,
    clan_supports,
    contact_closure,
    contact_from_well_inside_atoms,
    is_pca_morphism,
    largest_contact,
    normalize_relation,
    pca_from_pairs,
    restrict_relation,
    smallest_contact,
    well_inside_atoms,
)
from .adjacency import (
    AdjacencySpace,
    canonical_adjacency,
    contact_from_adjacency,
    r_flat,
    stone_representation_report,
)
from .topology import (
    FiniteSpace,
    MereotopologicalPair,
    TopologicalPair,
    closure,
    closure_trace,
    discrete_space,
    interior,
    interior_trace,
    point_trace,
    rc_algebra,
    rc_pair_algebra,
    space_from_closed_base,
    space_predicates,
)
from .structures import (
    MereocompactReport,
    StoneTwoSpace,
    TwoContactSpace,
    TwoPrecontactSpace,
    canonical_cs_of_ca,
    canonical_pca_of_pcs,
    canonical_pcs_of_pca,
    contact_relation_of_pair,
    mereocompactness_report,
    pcs_algebra,
    triple_is_connected,
    validate_cs,
    validate_pcs,
    validate_s2s,
)
from .duality import (
    AlgebraRoundTrip,
    PcsMorphism,
    algebra_roundtrip_iso,
    check_naturality,
    dense_part_map,
    dual_algebra_map,
    dual_space_map,
    gmcs_hom_check,
    gt_preimage_check,
    pcs_from_stone_adjacency,
    pcs_iso_report,
    space_roundtrip_iso,
    specialization_report,
)
from .randgen import RandomSpec, random_pca, random_pca_morphism
from .report import Check, DualityReport
from .suite import instance_suite

__version__ = "0.1.0"
