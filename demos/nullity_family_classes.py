"""Sweep the 3-dimensional family through all five classes.

The family has brackets [X,Y] = 2 xi, [xi,X] = (lambda+d) Y, [xi,Y] =
(lambda-d) X and realizes kappa = 1 - lambda^2, mu = 2 - 2d, so the Boeckx
invariant is I = d / lambda.  The position of I relative to +-1 decides the
definiteness pattern of the two Pang forms and hence the class:

    I > 1   : both positive                (class I)
    |I| < 1 : positive / negative          (class II)
    I < -1  : both negative                (class III)
    I = 1   : positive / flat              (class IV)
    I = -1  : flat / negative              (class V)
"""

from kmgeom import (
    classify_class,
    eigendistributions,
    family_3d,
    nullity_fit,
    validate_contact,
)

print(f"{'(lambda, d)':>14s} {'kappa':>7s} {'mu':>5s} {'I_M':>6s} "
      f"{'Pang(+)':>9s} {'Pang(-)':>9s} {'class':>6s}")
for lam, d in [(1.0, 2.0), (1.0, 0.0), (1.0, -2.0), (1.0, 1.0), (1.0, -1.0),
               (2.0, 1.0), (0.5, 1.5)]:
    entry = family_3d(lam, d)
    s = entry.structure
    assert validate_contact(s).valid
    fit = nullity_fit(s)  # kept on s: eigendistributions and classify_class read it
    d_pos, d_neg = eigendistributions(s)
    tag = classify_class(s)
    print(f"{f'({lam:g}, {d:g})':>14s} {fit.kappa:7.2f} {fit.mu:5.1f} "
          f"{fit.boeckx:6.2f} {d_pos.definiteness:>9s} {d_neg.definiteness:>9s} {tag:>6s}")

print("""
The classification is computed twice (Pang definiteness and invariant
thresholds) and cross-checked; a mismatch raises instead of reporting.
""")

# the nullity fit is a least-squares solve followed by a full-tensor check,
# so it also *rejects* valid contact structures that satisfy no nullity
# condition; the fit is exact on this family:
s = family_3d(1.7, -0.3).structure
fit = nullity_fit(s)
print(f"spot check (1.7, -0.3): kappa = {fit.kappa:+.12f} (closed form {1 - 1.7**2:+.12f})")
print(f"                        mu    = {fit.mu:+.12f} (closed form {2 - 2 * (-0.3):+.12f})")
print(f"                        residual = {fit.residual:.2e}")
