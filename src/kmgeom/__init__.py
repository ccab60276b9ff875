"""kmgeom: contact and paracontact metric geometry on left-invariant models.

The package validates contact/paracontact metric structures given by
structure constants, fits curvature nullity constants, and mechanically
constructs and re-verifies every derived structure of a nullity space: the
canonical paracontact structure, the alternating contact/paracontact tower
(each step certified against the paper's closed forms by one eps-signed
:func:`step_checks`), the second bi-Legendrian pair, and compatible Sasakian
structures, whose report also checks the anti-hypercomplex triple and the
3-web on the contact distribution.

The public names are the ones imported below, each under one spelling: a
paracontact structure keeps phi~, g~ and h~ in ``phi``, ``g`` and ``h``, and
one validator (:func:`validate_contact`) and one nullity fit
(:func:`nullity_fit`) serve both kinds.
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
    bilegendrian_connection,
    classify_class,
    conjugate_distribution,
    eigendistributions,
    legendre_pair_constants,
    libermann_map,
    psi_to_paracontact,
)
from .lie_model import LieModel, d_one_form, jacobi_residual, lie_derivative_endo
from .paracontact import (
    ParacontactMetricStructure,
    canonical_pc_connection,
    integrability_and_parasasaki,
)
from .report import DEFAULT_TOL, ResidualReport
from .riemann import AffineConnection, levi_civita, signature
from .tower import (
    SasakianPackage,
    TowerNode,
    sasakian_structure,
    second_bilegendrian_analysis,
    sequence,
    step_checks,
)

__version__ = "0.1.0"
