"""kmgeom: contact and paracontact metric geometry on left-invariant models.

The package validates contact/paracontact metric structures given by
structure constants, fits curvature nullity constants, and mechanically
constructs and re-verifies every derived structure of a nullity space: the
canonical paracontact structure, the alternating contact/paracontact tower
(each step certified against the paper's closed forms by one eps-signed
:func:`step_checks`), the bi-Legendrian connection of the h-eigenpair (whose
induced paracontact structure is checked to be the canonical one), the second
bi-Legendrian pair, and compatible Sasakian structures, whose report also checks
the anti-hypercomplex triple and the 3-web on the contact distribution.

The public names are the keys of ``_SUBMODULE`` plus ``DEFAULT_TOL``, each
under one spelling: a paracontact structure keeps phi~, g~ and h~ in ``phi``,
``g`` and ``h``, and one validator (:func:`validate_contact`), one nullity
fit (:func:`nullity_fit`) and one canonical connection
(:func:`canonical_connection`) serve both kinds; each derived result and construction
is one function of ``(s, tol)`` that reads the structure's fit, which
:func:`nullity_fit` keeps on it.  ``_SUBMODULE`` maps each name to
the submodule that defines it, which is imported on first access (PEP 562), so
``import kmgeom`` loads neither numpy nor the engine.
"""

# the default tol of every residual check and of the CLI's --tol; defined here, not
# in report, so that the CLI's parser reads it without importing numpy
DEFAULT_TOL = 1e-9

_SUBMODULE = {
    "family_3d": "catalog", "heisenberg": "catalog", "nilpotent_h_5d": "catalog",
    "tangent_bundle_constants": "catalog", "CatalogEntry": "modelfile",
    "ContactMetricStructure": "contact", "NullityReport": "contact",
    "ParacontactMetricStructure": "contact", "blair_identity_suite": "contact",
    "boeckx_invariant": "contact", "canonical_connection": "contact",
    "classification_flags": "contact", "integrability_and_parasasaki": "contact",
    "nijenhuis_norm": "contact", "nullity_fit": "contact", "validate_contact": "contact",
    "GeometryError": "errors",
    "LegendreDistribution": "legendre", "bilegendrian_connection": "legendre",
    "classify_class": "legendre", "eigendistributions": "legendre",
    "legendre_pair_constants": "legendre", "libermann_map": "legendre",
    "ContactForm": "lie_model", "LieModel": "lie_model", "d_one_form": "lie_model", "jacobi_residual": "lie_model",
    "lie_derivative_endo": "lie_model",
    "ResidualReport": "report",
    "AffineConnection": "riemann", "levi_civita": "riemann", "signature": "riemann",
    "SasakianPackage": "tower", "TowerNode": "tower", "sasakian_structure": "tower",
    "second_bilegendrian_analysis": "tower", "sequence": "tower", "step_checks": "tower",
}
__all__ = ["DEFAULT_TOL", *_SUBMODULE]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, gives the submodule its -X importtime row
    return getattr(__import__(f"{__name__}.{_SUBMODULE[name]}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
