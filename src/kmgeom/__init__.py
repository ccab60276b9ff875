"""kmgeom: contact and paracontact metric geometry on left-invariant models.

The package validates contact/paracontact metric structures given by
structure constants, fits curvature nullity constants, and mechanically
constructs and re-verifies every derived structure of a nullity space: the
canonical paracontact structure, the alternating contact/paracontact tower,
the second bi-Legendrian pair, compatible Sasakian structures, and the
anti-hypercomplex 3-web on the contact distribution.
"""

from .catalog import (
    CatalogEntry,
    family_3d,
    heisenberg_3d,
    nilpotent_h_5d,
    tangent_bundle_constants,
)
from .contact import (
    ContactMetricStructure,
    NullityReport,
    blair_identity_suite,
    boeckx_invariant,
    classification_flags,
    nijenhuis_norm,
    nullity_fit,
    validate_contact,
)
from .errors import GeometryError
from .legendre import (
    LegendreDistribution,
    LibermannMap,
    bilegendrian_connection,
    classify_class,
    conjugate_distribution,
    eigendistributions,
    legendre_pair_constants,
    libermann_map,
    pang_invariant,
    psi_to_paracontact,
)
from .lie_model import LieModel, bracket, d_one_form, jacobi_residual, lie_derivative_endo
from .paracontact import (
    ParacontactMetricStructure,
    ParaNullityReport,
    canonical_pc_connection,
    integrability_and_parasasaki,
    para_nullity_fit,
    validate_paracontact,
)
from .report import DEFAULT_TOL, ResidualReport
from .riemann import (
    AffineConnection,
    MetricTensor,
    connection_identity_suite,
    curvature,
    levi_civita,
    signature,
)
from .tower import (
    SasakianPackage,
    TowerNode,
    anti_hypercomplex_and_3web,
    canonical_paracontact,
    derive_next,
    sasakian_structure,
    second_bilegendrian_analysis,
    sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AffineConnection",
    "CatalogEntry",
    "ContactMetricStructure",
    "DEFAULT_TOL",
    "GeometryError",
    "LegendreDistribution",
    "LibermannMap",
    "LieModel",
    "MetricTensor",
    "NullityReport",
    "ParaNullityReport",
    "ParacontactMetricStructure",
    "ResidualReport",
    "SasakianPackage",
    "TowerNode",
    "anti_hypercomplex_and_3web",
    "bilegendrian_connection",
    "blair_identity_suite",
    "boeckx_invariant",
    "bracket",
    "canonical_paracontact",
    "canonical_pc_connection",
    "classification_flags",
    "classify_class",
    "connection_identity_suite",
    "conjugate_distribution",
    "curvature",
    "d_one_form",
    "derive_next",
    "eigendistributions",
    "family_3d",
    "heisenberg_3d",
    "integrability_and_parasasaki",
    "jacobi_residual",
    "legendre_pair_constants",
    "levi_civita",
    "lie_derivative_endo",
    "libermann_map",
    "nijenhuis_norm",
    "nilpotent_h_5d",
    "nullity_fit",
    "pang_invariant",
    "para_nullity_fit",
    "psi_to_paracontact",
    "sasakian_structure",
    "second_bilegendrian_analysis",
    "sequence",
    "signature",
    "tangent_bundle_constants",
    "validate_contact",
    "validate_paracontact",
]
