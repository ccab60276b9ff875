"""Residual reports: named max-abs residuals with a shared pass/fail tolerance.

:func:`max_abs_each` is the one reduction from a residual array to a number per
member of a stack of structures (a leading member axis), and :func:`max_abs` its
stack-of-one case.  :func:`nonzero_sv` is the one singularity rule, scale-free: it
reads singular values, and counts those above ``tol`` times the largest.  Each site
passes the values its own decomposition already gives: :func:`rank_test` an SVD's,
a symmetric form the |.| of its eigenvalues.
Non-finite input is rejected where tensors enter the engine
(:class:`kmgeom.lie_model.ContactForm`, :class:`kmgeom.contact.MetricStructure` and
the kernels that take raw arrays);
the reduction still propagates a NaN, such as the fit of a degenerate member or
one fed straight to a kernel: it stays with its member and never reads as a pass.
"""

import numpy as np

from . import DEFAULT_TOL


def max_abs_each(residual, n: int) -> np.ndarray:
    """Max-abs of each member of a stack of ``n`` (a leading axis of ``n``, or a
    scalar shared by all); NaN in a member gives NaN for it alone."""
    r = np.abs(np.asarray(residual, dtype=float))
    return np.full(n, r) if r.ndim == 0 else r.reshape(n, -1).max(1)


def max_abs(residual) -> float:
    """Max-abs of a residual scalar or array (a stack of one); NaN anywhere gives NaN."""
    return float(max_abs_each(residual, 1)[0])


def nonzero_sv(sv, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Which singular values of a matrix, or of each of a stack (an array whose last axis
    holds them, in any order), count as nonzero: the engine's one singularity rule.

    They are those above ``tol`` times the largest, so a matrix and its nonzero
    multiples get one verdict, and a NaN never counts.  A symmetric matrix passes the
    |.| of its eigenvalues, which are its singular values.
    """
    return sv > tol * sv.max(-1, keepdims=True, initial=0.0)


def rank_test(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rank, singular, |det|) of a matrix, or of each of a stack, by :func:`nonzero_sv`
    of its SVD.  A matrix is singular unless its rank is full: a zero matrix is, and a
    NaN singular value never reads as nonsingular.  |det| is the product of the
    singular values (of a square matrix), as the notes print it.  numpy's SVD raises on
    a NaN entry, so a caller that may meet a non-finite entry zeroes or rejects it first.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    rank = nonzero_sv(sv, tol).sum(-1)
    return rank, rank < sv.shape[-1], sv.prod(-1)


class ResidualReport:
    """A table of named non-negative residuals checked against one tolerance.

    Validity is purely a function of the residuals and ``tol``; entries are
    max-abs deviations of tensor identities evaluated over the model basis.
    """

    def __init__(self, tol: float = DEFAULT_TOL, entries: dict[str, float] | None = None,
                 notes: dict[str, str] | None = None):
        self.tol = tol
        self.entries = {} if entries is None else entries
        self.notes = {} if notes is None else notes

    def add(self, name: str, residual, note: str | None = None) -> None:
        """Record the max-abs of ``residual`` (a number or a whole residual array), a
        stack of one."""
        ResidualReport.add_each([self], name, residual, [note])

    @staticmethod
    def add_each(reports: list["ResidualReport"], name: str, residual, notes=()) -> None:
        """Record member b's max-abs of a stacked ``residual`` (:func:`max_abs_each`),
        with its note ``notes[b]`` if any, in ``reports[b]``."""
        for b, value in enumerate(max_abs_each(residual, len(reports)).tolist()):
            reports[b].entries[name] = value
            if b < len(notes) and notes[b]:
                reports[b].notes[name] = notes[b]

    def merge(self, other: "ResidualReport") -> None:
        self.entries.update(other.entries)
        self.notes.update(other.notes)

    @property
    def valid(self) -> bool:
        return all(v <= self.tol for v in self.entries.values())

    @property
    def worst(self) -> tuple[str, float]:
        """The largest entry, the first of equal ones; a NaN ranks above every number."""
        if not self.entries:
            return ("", 0.0)
        name = max(self.entries, key=lambda k: (np.isnan(self.entries[k]), self.entries[k]))
        return (name, self.entries[name])

    def failures(self) -> dict[str, float]:
        return {k: v for k, v in self.entries.items() if not v <= self.tol}

    def to_dict(self) -> dict:
        out = {"tol": self.tol, "valid": self.valid, "residuals": dict(self.entries)}
        if self.notes:
            out["notes"] = dict(self.notes)
        return out

    def __getitem__(self, name: str) -> float:
        return self.entries[name]
