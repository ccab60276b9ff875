"""Left-invariant Lie group models given by structure constants.

A model is a finite-dimensional Lie algebra presented by its structure
constants ``c[i][j][k]`` with ``[e_i, e_j] = sum_k c[i][j][k] e_k``.  All
tensors living on the model (vectors, one-forms, endomorphisms, bilinear
forms) are plain numpy arrays with constant coefficients:

* ``Vector``       -- shape ``(dim,)``
* ``OneForm``      -- shape ``(dim,)`` covector components
* ``Endomorphism`` -- shape ``(dim, dim)``; column ``j`` is the image of ``e_j``
* ``BilinearForm`` -- shape ``(dim, dim)``; ``B(u, v) = u @ B @ v``

Because every field is left-invariant, directional derivatives of component
functions vanish and exterior/Lie derivatives reduce to finite-dimensional
algebra in the structure constants.
"""

import numpy as np

from .errors import DimensionMismatch

Vector = np.ndarray
OneForm = np.ndarray
Endomorphism = np.ndarray
BilinearForm = np.ndarray


class LieModel:
    """A Lie algebra with structure constants ``c[i, j, k]``.

    ``c`` must be antisymmetric in its first two indices; Jacobi is not
    enforced at construction (see :func:`jacobi_residual`) so that invalid
    models can be loaded, inspected and rejected with a diagnostic.
    """

    def __init__(self, c: np.ndarray, basis_labels: tuple[str, ...] | None = None):
        c = np.asarray(c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatch(f"structure constants must be cubic, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise DimensionMismatch("structure constants must be finite (NaN or inf found)")
        anti = np.max(np.abs(c + c.transpose(1, 0, 2)))
        if anti > 1e-12:
            raise DimensionMismatch(f"structure constants not antisymmetric (residual {anti:.3e})")
        if basis_labels is not None and len(basis_labels) != c.shape[0]:
            raise DimensionMismatch("basis_labels length does not match dimension")
        self.c = c
        self.basis_labels = basis_labels

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def labels(self) -> tuple[str, ...]:
        if self.basis_labels is not None:
            return self.basis_labels
        return tuple(f"e{i + 1}" for i in range(self.dim))

    def check_vector(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got shape {u.shape}")
        return u

    def bracket(self, u: Vector, v: Vector) -> Vector:
        """Lie bracket [u, v] by contraction of the structure constants."""
        u = self.check_vector(u)
        v = self.check_vector(v)
        return np.einsum("i,j,ijk->k", u, v, self.c)

    def ad(self, u: Vector) -> Endomorphism:
        """Matrix of ad_u = [u, .] acting on column vectors."""
        u = self.check_vector(u)
        # ad(u)[k, j] = sum_i u_i c[i, j, k]
        return np.einsum("i,ijk->kj", u, self.c)


def _structure_constants(dim: int, brackets: dict[tuple[int, int], dict[int, float]]) -> np.ndarray:
    """c[i, j, k] of the brackets [e_i, e_j] = sum_k coeffs[k] e_k, given for i, j by
    0-based (i, j) and k, with c[j, i, k] = -c[i, j, k]."""
    c = np.zeros((dim, dim, dim))
    for (i, j), coeffs in brackets.items():
        for k, v in coeffs.items():
            c[i, j, k] = v
            c[j, i, k] = -v
    return c


def jacobi_residual(m: LieModel) -> float:
    """Max-abs over the triples i < j < k of the cyclic sum
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] (0.0 below dimension 3).

    Zero (up to roundoff) iff the structure constants define a Lie algebra.
    For exactly antisymmetric constants the cyclic sum alternates in (i, j, k),
    so these triples give the max over all index orders.  Constants that are
    antisymmetric only to within the 1e-12 guard of :class:`LieModel` can
    read below that max, by about their asymmetry times their size.

    b[j, k, i, l] = component l of [e_i, [e_j, e_k]] = sum_m c[j,k,m] c[i,m,l]
    vanishes unless [e_j, e_k] != 0 and e_l lies in the image of the bracket.
    So the one matmul runs on those rows (j, k) and components l only, and the
    cyclic sum on the triples with one of its three rows in the support: a
    sparse model costs what its support costs, a dense one the O(dim^5) product.
    """
    c, d = m.c, m.dim
    rows = c.reshape(d * d, d)  # row (j, k): [e_j, e_k]
    on_row = rows.any(1)
    support = rows[on_row]
    cols = c[:, :, support.any(0)].transpose(1, 0, 2)  # [m, i, l] = c[i, m, l], l in the image
    n_l = cols.shape[2]
    # b[row_at[j, k], i] = b[j, k, i, l in the image], with row 0 zero for (j, k) off the support
    a = np.zeros((len(support) + 1, d))
    a[1:] = support
    b = (a @ cols.reshape(d, d * n_l)).reshape(len(a), d, n_l)
    row_at = (on_row.cumsum() * on_row).reshape(d, d)
    s = on_row.reshape(d, d)
    r = np.arange(d)
    ordered = (r[:, None, None] < r[:, None]) & (r[:, None] < r)
    triples = ordered & (s | s.T[:, None] | s[:, :, None])
    i, j, k = np.unravel_index(triples.ravel().nonzero()[0], triples.shape)
    cyc = b[row_at[j, k], i] + b[row_at[k, i], j] + b[row_at[i, j], k]
    return float(np.abs(cyc).max(initial=0.0))


def d_one_form(m: LieModel, eta: OneForm) -> BilinearForm:
    """Exterior derivative of a left-invariant one-form.

    Convention: ``d eta(X, Y) = (X eta(Y) - Y eta(X) - eta([X, Y])) / 2``,
    which for constant components reduces to ``-eta([X, Y]) / 2``.
    """
    eta = m.check_vector(eta)
    return -0.5 * np.einsum("ijk,k->ij", m.c, eta)


def lie_derivative_endo(m: LieModel, xi: Vector, t: Endomorphism) -> Endomorphism:
    """Lie derivative (L_xi T) X = [xi, T X] - T [xi, X] of a (1,1)-tensor.

    For left-invariant data this is the commutator [ad_xi, T].
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (m.dim, m.dim):
        raise DimensionMismatch(f"expected {m.dim}x{m.dim} endomorphism, got {t.shape}")
    ad_xi = m.ad(xi)
    return ad_xi @ t - t @ ad_xi


def reeb_vector(m: LieModel, eta: OneForm, tol: float = 1e-9) -> Vector:
    """The unique xi with eta(xi) = 1 and i_xi d eta = 0.

    Solves the stacked linear system; raises if eta is not a contact form on
    the model (system rank-deficient or inconsistent).
    """
    eta = m.check_vector(eta)
    deta = d_one_form(m, eta)
    # rows: d eta(., e_j) applied to xi gives (deta^T xi)_j = 0; plus eta(xi) = 1
    a = np.vstack([deta.T, eta[None, :]])
    b = np.zeros(m.dim + 1)
    b[-1] = 1.0
    xi, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ xi - b)) > tol or np.linalg.matrix_rank(a, tol=1e-12) < m.dim:
        raise DimensionMismatch("one-form has no unique Reeb vector on this model (not contact)")
    return xi
