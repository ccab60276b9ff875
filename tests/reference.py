"""Pointwise references for the whole-array kernels of ``kmgeom.riemann``.

Plain functions of an :class:`~kmgeom.riemann.AffineConnection`, written one
basis direction or one vector at a time: the tests compare the kernels that
evaluate an identity over all basis pairs at once (``nabla_endo_all``,
``nabla_bilinear_all``, ``curvature_xi``) against them, and check the
connection identities of ``levi_civita`` with them.  :func:`bracket` is the
pointwise Lie bracket of a model, which the engine itself never forms.
"""

import numpy as np

from kmgeom.report import DEFAULT_TOL, ResidualReport


def bracket(m, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lie bracket [u, v] of the model ``m`` by contraction of its structure constants;
    a vector of the wrong length raises :class:`~kmgeom.errors.DimensionMismatch`."""
    return np.einsum("i,j,ijk->k", m.check_vector(u), m.check_vector(v), m.c)


def direction(conn, i: int) -> np.ndarray:
    """Matrix of nabla_{e_i}: column j holds nabla_{e_i} e_j."""
    return conn.gamma[i].T


def nabla(conn, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """nabla_u v for constant-coefficient (left-invariant) fields."""
    return np.einsum("i,j,ijk->k", u, v, conn.gamma)


def nabla_endo(conn, i: int, t: np.ndarray) -> np.ndarray:
    """(nabla_{e_i} T) for a (1,1)-tensor: the commutator [Gamma_i, T]."""
    gi = direction(conn, i)
    return gi @ t - t @ gi


def nabla_bilinear(conn, i: int, b: np.ndarray) -> np.ndarray:
    """(nabla_{e_i} B)(e_j, e_k) = -B(nabla_i e_j, e_k) - B(e_j, nabla_i e_k)."""
    gi = direction(conn, i)
    return -(gi.T @ b + b @ gi)


def curvature(m, conn, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R_{u v} w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_{[u,v]} w."""
    return (
        nabla(conn, u, nabla(conn, v, w))
        - nabla(conn, v, nabla(conn, u, w))
        - nabla(conn, bracket(m, u, v), w)
    )


def curvature_tensor(m, conn) -> np.ndarray:
    """Full array R[i, j, k, :] = R_{e_i e_j} e_k."""
    d = m.dim
    gam = conn.gamma
    # nabla_{e_i} nabla_{e_j} e_k = sum_m gamma[j,k,m] gamma[i,m,:], as one matmul over m
    t = (gam.reshape(d * d, d) @ gam.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d, d, d)
    t = t.transpose(2, 0, 1, 3)
    r = t - t.transpose(1, 0, 2, 3)
    r -= np.einsum("ijm,mkl->ijkl", m.c, gam)
    return r.reshape(d, d, d, d)


def connection_identity_suite(m, conn, g: np.ndarray, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Metric compatibility, torsion-freeness and the first Bianchi identity."""
    report = ResidualReport(tol=tol)
    report.add("metric_compatibility", conn.nabla_bilinear_all(g))
    report.add("torsion_free", conn.torsion(m))
    r = curvature_tensor(m, conn)
    report.add("first_bianchi", r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3))
    return report
