"""Legendre foliations of a nullity space and their induced paracontact structure.

The +-lambda eigendistributions of h form a bi-Legendrian pair.  Assigning
phi~ = +1 on one, -1 on the other and g~ = d eta(., phi~ .) + eta (x) eta
induces a paracontact metric structure, which coincides with the canonical
one, h / lambda; its canonical connection is simultaneously the bi-Legendrian
connection of the pair and parallelizes g, phi and h.  bilegendrian_connection(s)
builds it from the pair and reports both claims.  The canonical structure is node
1 of the tower (tower.sequence), certified against node 0 by tower.step_checks.
"""

import numpy as np

from kmgeom import (
    bilegendrian_connection,
    eigendistributions,
    family_3d,
    libermann_map,
    nullity_fit,
    second_bilegendrian_analysis,
    sequence,
    step_checks,
)
from kmgeom.legendre import legendre_distribution

s = family_3d(1.0, 2.0).structure
fit = nullity_fit(s)
print(f"base structure: kappa = {fit.kappa:g}, mu = {fit.mu:g}, I = {fit.boeckx:g}")

d_pos, d_neg = eigendistributions(s)
print("\n== h-eigendistributions ==")
print(f"  D(+lambda): span {np.round(d_pos.vectors, 6).tolist()}  "
      f"Pang {d_pos.pang.ravel().tolist()} ({d_pos.definiteness})")
print(f"  D(-lambda): span {np.round(d_neg.vectors, 6).tolist()}  "
      f"Pang {d_neg.pang.ravel().tolist()} ({d_neg.definiteness})")
# phi D(+lambda), validated as a Legendre distribution of its own, is D(-lambda) and
# g-orthogonal to D(+lambda)
phi_l = d_pos.vectors @ s.phi.T
q = legendre_distribution(s.form, phi_l)
ortho = np.max(np.abs(d_pos.vectors @ s.g @ phi_l.T))
assert ortho <= 1e-12 and np.allclose(q.span_projector(), d_neg.span_projector())
print(f"  conjugate phi D(+lambda) spans D(-lambda), max|g(L, phi L)| = {ortho:.1e}")

print("\n== induced paracontact structure and bi-Legendrian connection ==")
node0, node1 = sequence(s, 2)
checks = step_checks(node0, node1)
print(f"  canonical-structure (tower node 1) checks valid: {checks.valid}")
_, rep = bilegendrian_connection(s)
for name in ("induced_is_canonical", "induced_integrable",
             "preserves_l1", "preserves_l2", "parallel_xi", "parallel_deta",
             "parallel_g", "parallel_phi", "parallel_h",
             "parallel_pang_l1", "parallel_pang_l2", "torsion_mixed_pair"):
    print(f"  {name:20s} {rep[name]:.2e}")

print("\n== second bi-Legendrian pair (|I| > 1 only) ==")
ana = second_bilegendrian_analysis(s)
print(f"  h~ eigenvalues +-lambda~ with lambda~ = {ana.lambda_t:.6f}")
print(f"  Pang value on the normalized eigenbasis: {ana.pang_value:g}")
print(f"  generating Pang coefficients (a, b) = ({ana.a:.6g}, {ana.b:.6g}), "
      f"a b = {ana.a * ana.b:.6g}")
print(f"  generated compatible structure: kappa' = {ana.kappa_new:.6g}, "
      f"mu' = {ana.mu_new:.6g}, new invariant {ana.new_invariant:.6g}")

lam_map = libermann_map(s, ana.d_plus, ana.d_minus)
print(f"  Libermann map: Lambda^2 residual "
      f"{np.max(np.abs(lam_map @ lam_map)):.1e}, "
      f"Lambda xi = {np.round(lam_map @ s.xi, 12).tolist()}")
