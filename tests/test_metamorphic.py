"""Metamorphic checks on the catalog's models: a D-homothetic deformation
(``catalog.d_homothetic``: eta' = a eta, xi' = xi / a, phi' = phi and the
compatible metric) takes the nullity constants of a structure to

    kappa' = (kappa + eps (a^2 - 1)) / a^2,   mu' = (mu + 2a - 2) / a,

eps = +1 for a contact and -1 for a paracontact structure, and keeps the Boeckx
invariant I_M, the class, the spectral type of h~ and an indeterminate mu (Tanno).
"""

import pytest
from conftest import CLASS_PARAMS

from kmgeom.catalog import d_homothetic, family_3d, heisenberg
from kmgeom.contact import nullity_fit, validate_contact
from kmgeom.errors import DegenerateMetric

FACTORS = (0.5, 2.0, 3.0)
TOL = 1e-12

ENTRIES = {
    **{f"class-{tag}": lambda p=p: family_3d(*p) for tag, p in CLASS_PARAMS.items()},
    **{f"H_{dim}-{kind}": lambda dim=dim, kind=kind: heisenberg(dim, kind)
       for dim in (5, 11, 21) for kind in ("contact", "paracontact")},
}


def _check_d_homothetic(entry, a):
    fit = nullity_fit(entry.structure)
    image = d_homothetic(entry, a).structure
    got = nullity_fit(image)  # a degenerate deformed metric raises here
    assert validate_contact(image).valid
    assert got.kappa == pytest.approx((fit.kappa + image.eps * (a * a - 1.0)) / (a * a), abs=TOL)
    assert got.mu_indeterminate == fit.mu_indeterminate
    if not fit.mu_indeterminate:
        assert got.mu == pytest.approx((fit.mu + 2.0 * a - 2.0) / a, abs=TOL)
    assert (got.class_tag, got.spectral_type) == (fit.class_tag, fit.spectral_type)
    assert got.boeckx == (None if fit.boeckx is None else pytest.approx(fit.boeckx, abs=TOL))


@pytest.mark.parametrize("a", FACTORS)
@pytest.mark.parametrize("name", ENTRIES)
def test_d_homothetic_deformation_keeps_the_invariant(name, a):
    _check_d_homothetic(ENTRIES[name](), a)


@pytest.mark.xfail(raises=DegenerateMetric, strict=True,
                   reason="det g' = 0.5^42 falls below the degeneracy guard, an absolute "
                          "1e-9 that does not scale with the metric")
@pytest.mark.parametrize("kind", ["contact", "paracontact"])
def test_d_homothetic_deformation_of_h41(kind):
    _check_d_homothetic(heisenberg(41, kind), 0.5)
