"""Residual reports: named max-abs residuals with a shared pass/fail tolerance.

:func:`max_abs` is the one reduction from a residual array to a number; it
propagates NaN, so a non-finite residual can never compare as a pass.
"""

from dataclasses import dataclass, field

import numpy as np


DEFAULT_TOL = 1e-9


def max_abs(residual) -> float:
    """Max-abs of a residual scalar or array; NaN anywhere gives NaN."""
    return float(np.max(np.abs(residual)))


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

    def merge(self, other: "ResidualReport", prefix: str = "") -> None:
        for name, value in other.entries.items():
            self.entries[prefix + name] = value
        for name, note in other.notes.items():
            self.notes[prefix + name] = note

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
