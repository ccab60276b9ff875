"""Metamorphic checks on the catalog's models: a D-homothetic deformation
(``catalog.d_homothetic``: eta' = a eta, xi' = xi / a, phi' = phi and the
compatible metric) takes the nullity constants of a structure to

    kappa' = (kappa + eps (a^2 - 1)) / a^2,   mu' = (mu + 2a - 2) / a,

eps = +1 for a contact and -1 for a paracontact structure, and keeps the Boeckx
invariant I_M, the class, the spectral type of h~ and an indeterminate mu (Tanno).
The factors below 1 shrink the metric, which no singularity test may read as degenerate.
"""

import numpy as np
import pytest
from conftest import CLASS_PARAMS

from kmgeom.catalog import d_homothetic, family_3d, heisenberg
from kmgeom.contact import nullity_fit, validate_contact
from kmgeom.riemann import levi_civita

# the factors below 1 scale the metric down to about a^2 (1e-4 at a = 0.01): a
# well-conditioned metric of small scale, which the scale-free singularity test accepts;
# at the three smallest, kappa' and mu' grow like 1/a^2 and are compared relative to their size
RELATIVE = (0.01, 0.1, 0.25)
FACTORS = RELATIVE + (0.5, 2.0, 3.0)
TOL = 1e-12

ENTRIES = {
    **{f"class-{tag}": lambda p=p: family_3d(*p) for tag, p in CLASS_PARAMS.items()},
    **{f"H_{dim}-{kind}": lambda dim=dim, kind=kind: heisenberg(dim, kind)
       for dim in (5, 11, 21, 41) for kind in ("contact", "paracontact")},
}


def _close(got, want, a):
    """``got`` equals ``want`` to 1e-12 times max(1, |want|) at the factors ``RELATIVE``,
    and to 1e-12 absolute at the others."""
    scale = max(1.0, abs(want)) if a in RELATIVE else 1.0
    return got == pytest.approx(want, rel=0, abs=TOL * scale)


@pytest.mark.parametrize("a", FACTORS)
@pytest.mark.parametrize("name", ENTRIES)
def test_d_homothetic_deformation_keeps_the_invariant(name, a):
    entry = ENTRIES[name]()
    fit = nullity_fit(entry.structure)
    image = d_homothetic(entry, a).structure
    got = nullity_fit(image)  # a deformed metric read as degenerate would raise here
    assert validate_contact(image).valid
    assert _close(got.kappa, (fit.kappa + image.eps * (a * a - 1.0)) / (a * a), a)
    assert (got.mu is None) == (fit.mu is None)
    if fit.mu is not None:
        assert _close(got.mu, (fit.mu + 2.0 * a - 2.0) / a, a)
    assert (got.class_tag, got.spectral_type) == (fit.class_tag, fit.spectral_type)
    assert got.boeckx == (None if fit.boeckx is None else pytest.approx(fit.boeckx, abs=TOL))


@pytest.mark.parametrize("dim", [15, 21, 41])
def test_levi_civita_accepts_a_quarter_of_the_identity(dim):
    # det(I / 4) = 4^-dim is far below 1e-9, but the metric is perfectly conditioned
    model = heisenberg(dim).model
    conn = levi_civita(model, 0.25 * np.eye(dim))
    np.testing.assert_allclose(conn.gamma, levi_civita(model, np.eye(dim)).gamma, rtol=0,
                               atol=1e-15)
