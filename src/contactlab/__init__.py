"""Finite-model laboratory for contact algebras and their dual spaces.

Builds finite Boolean algebras with precontact relations, finite
topological spaces with dense subsets, the canonical constructions in
both directions, and verifies the duality laws on concrete instances.
"""

from .boolean import (
    BooleanHom,
    Element,
    ElementFamily,
    FiniteBooleanAlgebra,
    grills,
    hom_from_atom_map,
    is_family,
    sandwich_ultrafilter,
    stone_map,
    ultrafilters,
)
from .errors import (
    AxiomViolationError,
    CapacityError,
    ClassificationError,
    ContactLabError,
    DomainMismatchError,
    InternalError,
    PreconditionError,
    SchemaError,
    ValidationError,
)
from .precontact import (
    Clan,
    PcaMorphism,
    PrecontactAlgebra,
    RawRelation,
    RelationKernel,
    axiom_report,
    clan_supports,
    clans,
    contact_closure,
    contact_from_well_inside,
    contact_from_well_inside_atoms,
    is_clan,
    is_pca_morphism,
    largest_contact,
    normalize_relation,
    pca_from_pairs,
    restrict_relation,
    smallest_contact,
    well_inside,
    well_inside_atom_flags,
    well_inside_atoms,
    well_inside_axiom_report,
    well_inside_pairs,
)
from .adjacency import (
    AdjacencySpace,
    CanonicalAdjacency,
    adjacency_correspondence_report,
    canonical_adjacency,
    contact_from_adjacency,
    is_closed_relation,
    product_space,
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
    extend_regular_closed,
    indiscrete_space,
    interior,
    interior_trace,
    is_c_semiregular,
    is_u_point,
    point_trace,
    rc_algebra,
    rc_pair_algebra,
    restrict_regular_closed,
    space_from_closed_base,
    space_predicates,
    subspace,
    u_point_of_pair,
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
    dense_part,
    dense_part_map,
    dual_algebra_map,
    dual_space_map,
    enumerate_pca_morphisms,
    enumerate_pcs_morphisms,
    gmcs_hom_check,
    gt_preimage_check,
    pca_isomorphic,
    pcs_from_stone_adjacency,
    pcs_iso_report,
    pcs_isomorphic,
    space_roundtrip_iso,
    specialization_report,
)
from .randgen import RandomSpec, random_pca, random_pca_morphism
from .report import Check, DualityReport
from .suite import instance_suite

__version__ = "0.1.0"
