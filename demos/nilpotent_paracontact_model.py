"""Walk through the 5-dimensional model whose h~ operator is nilpotent.

The model is a solvable Lie algebra carrying a left-invariant paracontact
metric structure where h~ = (1/2) L_xi phi~ does not vanish yet squares to
zero: the metric being indefinite, a symmetric operator can be nonzero with
h~^2 = 0, which never happens in the Riemannian (contact) world.  The
curvature nevertheless satisfies a nullity condition, and h~^2 = 0 pins its
kappa~ at exactly -1.  Its canonical paracontact connection is the eps = -1
member of the one eps-signed canonical connection, whose eps = +1 member is the
generalized Tanaka-Webster connection of a contact structure.
"""

import numpy as np

from kmgeom import (
    canonical_connection,
    integrability_and_parasasaki,
    jacobi_residual,
    nilpotent_h_5d,
    nullity_fit,
    validate_contact,
)

entry = nilpotent_h_5d()
model, st = entry.model, entry.structure
labels = model.labels()

print("== model ==")
print("basis:", ", ".join(labels))
print(f"Jacobi residual: {jacobi_residual(model):.2e}")

print("\n== structure axioms ==")
report = validate_contact(st)
for name, value in sorted(report.entries.items()):
    print(f"  {name:32s} {value:.2e}")
print("valid:", report.valid)

print("\n== the h~ operator ==")
h = st.h
for j, lab in enumerate(labels):
    image = h @ np.eye(5)[j]
    terms = [f"{image[k]:+g} {labels[k]}" for k in range(5) if abs(image[k]) > 1e-12]
    print(f"  h~ {lab:3s} = {' '.join(terms) if terms else '0'}")
print(f"  max |h~|   = {np.max(np.abs(h)):g}   (nonzero)")
print(f"  max |h~^2| = {np.max(np.abs(h @ h)):g}   (nilpotent)")

print("\n== nullity fit ==")
fit = nullity_fit(st)
print(f"  kappa~ = {fit.kappa:+.12f}")
print(f"  mu~    = {fit.mu:+.12f}")
print(f"  full-tensor residual = {fit.residual:.2e}")
print(f"  spectral type: {fit.spectral_type}")
print(f"  h~^2 - (1 + kappa~) phi~^2 residual = {fit.h_square_vs_kappa_residual:.2e}")

print("\n== canonical paracontact connection (canonical_connection at eps = -1) ==")
_, pc_report, nabla_phi = canonical_connection(st)
for name, value in sorted(pc_report.entries.items()):
    print(f"  {name:32s} {value:.2e}")
print(f"  max |nabla* phi~| = {np.max(np.abs(nabla_phi)):.2e}   (integrable)")

flags = integrability_and_parasasaki(st)
print("\nintegrable:", flags["integrable"], " para-Sasakian:", flags["para_sasakian"],
      " (h~ != 0 rules the latter out)")
