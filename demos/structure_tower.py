"""Iterate the normalized Lie derivative into a tower of structures.

Starting from a non-Sasakian nullity structure, (1/2) L_xi phi normalized by
sqrt(1 - kappa) is the structure tensor of the canonical paracontact metric
structure; normalizing its own Lie derivative yields the next structure, and
so on.  The Boeckx invariant decides the shape of the tower:

* |I| < 1: contact and paracontact structures alternate, with constants
  settling into the two-cycle (kappa + (1-mu/2)^2, 2) / (kappa - 2 +
  (1-mu/2)^2, 2); every contact member has mu = 2, i.e. it is a
  Tanaka-Webster parallel structure.
* |I| > 1: every derived structure is paracontact with the same constants.
* classes IV and V (|I_M| within `tol` of 1): the normalizer of node 2
  vanishes, and no structure after the canonical paracontact one exists.

Each derived node is certified against the node before it (tower.step_checks):
the normalized Lie derivative, the closed form of its h, the relation between
the two Levi-Civita connections and its own (kappa, mu) identity suite; the
last column is the worst of those residuals.
"""

from kmgeom import family_3d, nullity_fit, sequence, step_checks
from kmgeom.errors import DegenerateInvariant

for lam, d, n_nodes in [(1.0, 0.0, 6), (2.0, 1.0, 5), (1.0, 2.0, 5)]:
    s = family_3d(lam, d).structure
    fit = nullity_fit(s)
    print(f"== family (lambda, d) = ({lam:g}, {d:g}): kappa = {fit.kappa:g}, "
          f"mu = {fit.mu:g}, I = {fit.boeckx:g} ==")
    nodes = sequence(s, n_nodes)
    for prev, node in zip([None, *nodes], nodes):
        tw = "  [TW-parallel]" if node.tw_parallel else ""
        step = "" if prev is None else f", step checks {step_checks(prev, node).worst[1]:.1e}"
        print(f"  node {node.index}: {node.kind:11s} "
              f"(kappa, mu) = ({node.kappa:+.6f}, {node.mu:+.6f}) "
              f"fit residual {node.fit.residual:.1e}{step}{tw}")
    print()

print("in class IV (|I_M| within tol of 1) the construction refuses:")
s = family_3d(1.0, 1.0).structure
try:
    sequence(s, 3)
except DegenerateInvariant as exc:
    print(" ", exc)
