"""Levi-Civita connections and curvature for left-invariant (pseudo-)metrics.

The Koszul formula loses its derivative terms on left-invariant data:

    2 g(nabla_A B, C) = g([A,B], C) - g([B,C], A) + g([C,A], B)

so the connection is a ``dim x dim x dim`` array of constants,
``gamma[i, j, k]`` with ``nabla_{e_i} e_j = sum_k gamma[i, j, k] e_k``.

Tensor identities are checked as whole arrays over all basis pairs, in the
layout of ``gamma`` and the torsion: a vector-valued expression F(X, Y) is
the array ``F[i, j, :] = F(e_i, e_j)``.  The kernels here produce arrays in
that layout: :meth:`AffineConnection.nabla_endo_all`, :func:`curvature_xi`,
:func:`nijenhuis_tensor` and :func:`on_pairs`; :func:`eta_x`, :func:`eta_y`
and :func:`form_xy` build the right-hand sides.  The pointwise primitives
(:meth:`AffineConnection.nabla`, :func:`curvature`) are their reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch
from .lie_model import BilinearForm, Endomorphism, LieModel, OneForm, Vector, d_one_form
from .report import DEFAULT_TOL, ResidualReport


@dataclass(frozen=True)
class MetricTensor:
    """A symmetric nondegenerate bilinear form with its signature."""

    mat: np.ndarray
    signature: tuple[int, int, int]  # (positive, negative, zero) eigenvalue counts

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = DEFAULT_TOL) -> "MetricTensor":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"metric must be square, got {mat.shape}")
        asym = np.max(np.abs(mat - mat.T))
        if asym > tol:
            raise DegenerateMetric(f"metric not symmetric (residual {asym:.3e})")
        if abs(np.linalg.det(mat)) <= tol:
            raise DegenerateMetric("metric determinant below tolerance")
        return cls(mat=mat, signature=signature(mat, tol))

    def is_riemannian(self) -> bool:
        p, q, z = self.signature
        return q == 0 and z == 0

    def is_paracontact_signature(self) -> bool:
        # odd dimension 2n+1, signature (n+1, n)
        p, q, z = self.signature
        return z == 0 and p == q + 1


def signature(g: BilinearForm, tol: float = DEFAULT_TOL) -> tuple[int, int, int]:
    """(p, q, z) counts of positive / negative / zero eigenvalues of a symmetric form."""
    eig = np.linalg.eigvalsh(0.5 * (g + np.asarray(g).T))
    p = int(np.sum(eig > tol))
    q = int(np.sum(eig < -tol))
    z = len(eig) - p - q
    return (p, q, z)


@dataclass(frozen=True)
class AffineConnection:
    """Connection coefficients ``gamma[i, j, k]`` in the model basis."""

    gamma: np.ndarray

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def direction(self, i: int) -> np.ndarray:
        """Matrix of nabla_{e_i}: column j holds nabla_{e_i} e_j."""
        return self.gamma[i].T

    def nabla(self, u: Vector, v: Vector) -> Vector:
        """nabla_u v for constant-coefficient (left-invariant) fields."""
        return np.einsum("i,j,ijk->k", u, v, self.gamma)

    def nabla_endo(self, i: int, t: np.ndarray) -> np.ndarray:
        """(nabla_{e_i} T) for a (1,1)-tensor: the commutator [Gamma_i, T]."""
        gi = self.direction(i)
        return gi @ t - t @ gi

    def nabla_bilinear(self, i: int, b: np.ndarray) -> np.ndarray:
        """(nabla_{e_i} B)(e_j, e_k) = -B(nabla_i e_j, e_k) - B(e_j, nabla_i e_k)."""
        gi = self.direction(i)
        return -(gi.T @ b + b @ gi)

    def nabla_one_form(self, i: int, eta: np.ndarray) -> np.ndarray:
        return -self.direction(i).T @ eta

    def nabla_endo_all(self, t: Endomorphism) -> np.ndarray:
        """(nabla_{e_i} T) e_j at [i, j, :]: every commutator [Gamma_i, T] at once."""
        return t.T @ self.gamma - self.gamma @ t.T

    def nabla_bilinear_all(self, b: BilinearForm) -> np.ndarray:
        """(nabla_{e_i} B)(e_j, e_k) at [i, j, k]."""
        return -(self.gamma @ b + b @ self.gamma.transpose(0, 2, 1))

    def torsion(self, m: LieModel) -> np.ndarray:
        """T[i, j, :] = nabla_i e_j - nabla_j e_i - [e_i, e_j]."""
        return self.gamma - self.gamma.transpose(1, 0, 2) - m.c


def levi_civita(m: LieModel, g: BilinearForm, tol: float = DEFAULT_TOL) -> AffineConnection:
    """Levi-Civita connection of a left-invariant metric via the Koszul formula.

    Raises :class:`DegenerateMetric` when ``|det g|`` falls below ``tol``.
    The result is metric (``nabla g = 0``) and torsion-free by construction,
    which :func:`connection_identity_suite` re-checks numerically.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (m.dim, m.dim):
        raise DimensionMismatch(f"metric shape {g.shape} does not match dim {m.dim}")
    if abs(np.linalg.det(g)) <= tol:
        raise DegenerateMetric("metric determinant below tolerance")
    # b[i, j, k] = g([e_i, e_j], e_k); transpose(2,0,1)[i,j,k] = b[j,k,i]
    b = np.einsum("ijm,mk->ijk", m.c, g)
    rhs = 0.5 * (b - b.transpose(2, 0, 1) + b.transpose(1, 2, 0))
    # solve g . gamma[i, j, :] = rhs[i, j, :] for every (i, j)
    gamma = np.linalg.solve(g, rhs.reshape(-1, m.dim).T).T.reshape(m.dim, m.dim, m.dim)
    return AffineConnection(gamma=gamma)


def curvature(m: LieModel, conn: AffineConnection, u: Vector, v: Vector, w: Vector) -> Vector:
    """R_{u v} w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_{[u,v]} w."""
    return (
        conn.nabla(u, conn.nabla(v, w))
        - conn.nabla(v, conn.nabla(u, w))
        - conn.nabla(m.bracket(u, v), w)
    )


def curvature_tensor(m: LieModel, conn: AffineConnection) -> np.ndarray:
    """Full array R[i, j, k, :] = R_{e_i e_j} e_k."""
    d = m.dim
    gam = conn.gamma
    # nabla_{e_i} nabla_{e_j} e_k = sum_m gamma[j,k,m] gamma[i,m,:]
    t = np.einsum("jkm,iml->ijkl", gam, gam)
    r = t - t.transpose(1, 0, 2, 3)
    r -= np.einsum("ijm,mkl->ijkl", m.c, gam)
    return r.reshape(d, d, d, d)


def curvature_xi(m: LieModel, conn: AffineConnection, xi: Vector) -> np.ndarray:
    """R_{e_i e_j} xi at [i, j, :].

    xi is contracted before the second connection factor, so this costs
    O(dim^4) where slicing :func:`curvature_tensor` costs O(dim^5).
    """
    nabla_xi = xi @ conn.gamma  # [j, :] = nabla_{e_j} xi
    t = nabla_xi @ conn.gamma  # [i, j, :] = nabla_{e_i} nabla_{e_j} xi
    return t - t.transpose(1, 0, 2) - m.c @ nabla_xi


def on_pairs(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t(a_r, b_s) at [r, s, :] for the rows a_r of ``a`` and b_s of ``b``.

    ``t`` is a vector-valued bilinear array in the pair layout, such as the
    structure constants, a torsion or a Nijenhuis tensor.
    """
    return np.tensordot(a, b @ t, 1)


def eta_x(eta: OneForm, a: Endomorphism) -> np.ndarray:
    """eta(X) A Y at [i, j, :] (X = e_i, Y = e_j)."""
    return np.einsum("i,kj->ijk", eta, a)


def eta_y(eta: OneForm, a: Endomorphism) -> np.ndarray:
    """eta(Y) A X at [i, j, :]."""
    return np.einsum("j,ki->ijk", eta, a)


def form_xy(b: BilinearForm, v: Vector) -> np.ndarray:
    """B(X, Y) v at [i, j, :]."""
    return np.einsum("ij,k->ijk", b, v)


def nijenhuis_tensor(
    m: LieModel, phi: Endomorphism, xi: Vector, eta: OneForm, eps: float
) -> np.ndarray:
    """N(e_i, e_j) at [i, j, :] for

        N(X, Y) = phi^2 [X, Y] + [phi X, phi Y] - phi [phi X, Y] - phi [X, phi Y]
                  + 2 eps d eta(X, Y) xi

    with eps = +1 for contact and eps = -1 for paracontact structures.
    """
    br_phi = np.tensordot(phi.T, m.c, 1)  # [i, j, :] = [phi e_i, e_j]
    mixed = br_phi - br_phi.transpose(1, 0, 2)  # [phi X, Y] + [X, phi Y]
    return (
        m.c @ (phi @ phi).T
        + on_pairs(m.c, phi.T, phi.T)
        - mixed @ phi.T
        + 2.0 * eps * form_xy(d_one_form(m, eta), xi)
    )


def connection_identity_suite(
    m: LieModel, conn: AffineConnection, g: BilinearForm, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Metric compatibility, torsion-freeness and the first Bianchi identity."""
    report = ResidualReport(tol=tol)
    report.add("metric_compatibility", conn.nabla_bilinear_all(g))
    report.add("torsion_free", conn.torsion(m))
    r = curvature_tensor(m, conn)
    report.add("first_bianchi", r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3))
    return report
