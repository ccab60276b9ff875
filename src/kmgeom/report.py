"""Residual reports: named max-abs residuals with a shared pass/fail tolerance.

:func:`max_abs` is the one reduction from a residual array to a number; it
propagates NaN, so a non-finite residual can never compare as a pass.
:func:`max_abs_each` is its per-member form for a stack of structures (a
leading member axis): a NaN stays with the member that produced it.
"""

from dataclasses import dataclass, field

import numpy as np


DEFAULT_TOL = 1e-9


def max_abs(residual) -> float:
    """Max-abs of a residual scalar or array; NaN anywhere gives NaN."""
    return float(np.max(np.abs(residual)))


def max_abs_each(residual, n: int) -> np.ndarray:
    """:func:`max_abs` of each member of a stack of ``n`` (a leading axis of ``n``,
    or a scalar shared by all); NaN in a member gives NaN for it alone."""
    r = np.abs(np.asarray(residual, dtype=float))
    return np.full(n, r) if r.ndim == 0 else r.reshape(n, -1).max(1)


def finite_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | bool]:
    """(``a`` with each member that has a non-finite entry replaced by the
    identity, mask of those members): LAPACK fails a whole stack on one NaN
    member, so the caller solves the stand-in and writes NaN into their results."""
    if np.isfinite(a).all():
        return a, False
    bad = ~np.isfinite(a).all(axis=(-2, -1))
    return np.where(bad[..., None, None], np.eye(*a.shape[-2:]), a), bad


@dataclass
class ResidualReport:
    """A table of named non-negative residuals checked against one tolerance.

    Validity is purely a function of the residuals and ``tol``; entries are
    max-abs deviations of tensor identities evaluated over the model basis.
    """

    tol: float = DEFAULT_TOL
    entries: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, residual, note: str | None = None) -> None:
        """Record the max-abs of ``residual`` (a number or a whole residual array)."""
        self.entries[name] = max_abs(residual)
        if note:
            self.notes[name] = note

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
        if not self.entries:
            return ("", 0.0)
        name = max(self.entries, key=self.entries.get)
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
