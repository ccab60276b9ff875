"""Levi-Civita connections and curvature for left-invariant (pseudo-)metrics.

The Koszul formula loses its derivative terms on left-invariant data:

    2 g(nabla_A B, C) = g([A,B], C) - g([B,C], A) + g([C,A], B)

so the connection is a ``dim x dim x dim`` array of constants,
``gamma[i, j, k]`` with ``nabla_{e_i} e_j = sum_k gamma[i, j, k] e_k``: one
inverse of g and one matmul of the Koszul right-hand sides with it.

Tensor identities are checked as whole arrays over all basis pairs, in the
layout of ``gamma`` and the torsion: a vector-valued expression F(X, Y) is
the array ``F[i, j, :] = F(e_i, e_j)``.  The kernels here produce arrays in
that layout: :meth:`AffineConnection.nabla_endo_all`, :func:`curvature_xi`,
:func:`nijenhuis_tensor` and :func:`on_pairs`; :func:`eta_x`, :func:`eta_y`
and :func:`form_xy` build the right-hand sides.  Their pointwise references
(nabla_u v, R_{u v} w and the full curvature tensor) are plain functions of a
connection in ``tests/reference.py``.

:func:`levi_civita`, :func:`curvature_xi` and :func:`signature` also take a
stack of metrics on one model, with a leading member axis (a single metric is
a stack of one); each member's result is what it gets alone.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetric, DimensionMismatch
from .lie_model import BilinearForm, Endomorphism, LieModel, OneForm, Vector, d_one_form
from .report import DEFAULT_TOL, finite_stack

DEGENERATE = "metric determinant below tolerance"


def signature(g: BilinearForm, tol: float = DEFAULT_TOL):
    """(p, q, z) counts of positive / negative / zero eigenvalues of a symmetric form,
    or their list for a stack; a member with a non-finite entry counts (0, 0, dim)."""
    g = np.asarray(g, dtype=float)
    safe, bad = finite_stack(0.5 * (g + g.swapaxes(-1, -2)))
    eig = np.linalg.eigvalsh(safe)
    eig[bad] = np.nan  # counted neither positive nor negative
    p, q = (np.sum(x, axis=-1).reshape(-1).tolist() for x in (eig > tol, eig < -tol))
    counts = [(a, b, g.shape[-1] - a - b) for a, b in zip(p, q)]
    return counts[0] if g.ndim == 2 else counts


class AffineConnection(NamedTuple):
    """Connection coefficients ``gamma[i, j, k]`` in the model basis (with a leading
    member axis for a stack, whose ``degenerate`` members have a NaN ``gamma``)."""

    gamma: np.ndarray
    degenerate: np.ndarray | bool = False

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

    The d^2 right-hand sides share one ``g``, so the connection is one inverse
    of ``g`` and one matmul rather than a solve against all of them.
    Raises :class:`DegenerateMetric` when ``|det g|`` falls below ``tol``; in a
    stack (B, dim, dim) such a member is marked ``degenerate`` instead.  A NaN
    determinant (a NaN entry) passes the guard, with a NaN connection.
    The result is metric (``nabla g = 0``) and torsion-free by construction,
    which the connection identity suite of ``tests/reference.py`` re-checks
    numerically.
    """
    g = np.asarray(g, dtype=float)
    d = m.dim
    if g.ndim not in (2, 3) or g.shape[-2:] != (d, d):
        raise DimensionMismatch(f"metric shape {g.shape} does not match dim {d}")
    gs = g.reshape(-1, d, d)
    with np.errstate(invalid="ignore"):  # a NaN member must not fail the stack under -W error
        det = abs(np.linalg.det(gs))
    degenerate = det <= tol
    if g.ndim == 2 and degenerate[0]:
        raise DegenerateMetric(DEGENERATE)
    # b[., i, j, k] = g([e_i, e_j], e_k), one matmul; transpose(0,3,1,2)[., i,j,k] = b[., j,k,i]
    b = m.c @ gs[:, None]
    rhs = 0.5 * (b - b.transpose(0, 3, 1, 2) + b.transpose(0, 2, 3, 1))
    bad = ~(det > tol)  # degenerate, or a NaN entry: solved as the identity, then NaN
    any_bad = bad.any()
    if any_bad:
        gs = np.where(bad[:, None, None], np.eye(d), gs)
    # g . gamma[i, j, :] = rhs[i, j, :] for every (i, j)
    gamma = rhs @ np.linalg.inv(gs).swapaxes(1, 2)[:, None]
    if any_bad:
        gamma[bad] = np.nan
    gamma = gamma.reshape(g.shape[:-2] + (d, d, d))
    return AffineConnection(gamma, degenerate if g.ndim == 3 else False)


def curvature_xi(m: LieModel, conn: AffineConnection, xi: Vector) -> np.ndarray:
    """R_{e_i e_j} xi at [i, j, :] (at [b, i, j, :] for a stacked connection).

    xi is contracted before the second connection factor, so this costs
    O(dim^4) where slicing the full curvature tensor costs O(dim^5).
    """
    nabla_xi = (xi @ conn.gamma)[..., None, :, :]  # [j, :] = nabla_{e_j} xi
    t = nabla_xi @ conn.gamma  # [i, j, :] = nabla_{e_i} nabla_{e_j} xi
    return t - t.swapaxes(-3, -2) - m.c @ nabla_xi


def on_pairs(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t(a_r, b_s) at [..., r, s, :] for the rows a_r of ``a`` and b_s of ``b``
    (two matrices, or two stacks of them with one leading member axis).

    ``t`` is a vector-valued bilinear array in the pair layout, such as the
    structure constants, a torsion or a Nijenhuis tensor.
    """
    tb = b[..., None, :, :] @ t  # [..., k, s, :] = t(e_k, b_s)
    return (a @ tb.reshape(*tb.shape[:-3], len(t), -1)).reshape(*a.shape[:-1], *tb.shape[-2:])


def eta_x(eta: OneForm, a: Endomorphism) -> np.ndarray:
    """eta(X) A Y at [i, j, :] (X = e_i, Y = e_j); a stack of A gives a stack."""
    return np.einsum("i,...kj->...ijk", eta, a)


def eta_y(eta: OneForm, a: Endomorphism) -> np.ndarray:
    """eta(Y) A X at [i, j, :]."""
    return np.einsum("j,...ki->...ijk", eta, a)


def form_xy(b: BilinearForm, v: Vector) -> np.ndarray:
    """B(X, Y) v at [i, j, :]."""
    return np.einsum("...ij,k->...ijk", b, v)


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

