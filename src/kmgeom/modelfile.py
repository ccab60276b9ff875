"""JSON model files.

Format (1-based indices; unlisted brackets are zero):

    {
      "name": "optional",
      "dim": 3,
      "basis_labels": ["X", "Y", "xi"],
      "brackets": [
        {"i": 1, "j": 2, "coeffs": {"3": 2.0}}
      ],
      "structure": {
        "kind": "contact" | "paracontact",
        "phi": [[...]], "xi": [...], "eta": [...], "g": [[...]]
      },
      "expected": { ... }
    }

The loader antisymmetrizes bracket entries and rejects inconsistent
duplicates (the same unordered pair listed twice with different
coefficients, including an (i, j) / (j, i) pair that fails antisymmetry).
``dim``, ``i`` and ``j`` are integers (an integral float such as 3.0 reads as
one); a bool or a non-integral number there, or a bool coefficient, is a
format error.  The checks that need no arrays (the JSON itself, ``dim``,
``basis_labels`` and every bracket entry) run before numpy and the engine are
imported, so a malformed file is rejected without loading them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

from .errors import ModelFormatError

if TYPE_CHECKING:
    from .catalog import CatalogEntry
    from .contact import MetricStructure
    from .lie_model import LieModel


class ModelDocument(NamedTuple):
    model: LieModel
    structure: MetricStructure | None
    name: str | None
    expected: dict


def _number(x, cast=float):
    """``cast(x)``; a bool, or a non-integral float cast to int, raises ValueError."""
    if isinstance(x, bool) or cast is int and isinstance(x, float) and not x.is_integer():
        raise ValueError(f"not {'an integer' if cast is int else 'a number'}: {x!r}")
    return cast(x)


def _parse_brackets(dim: int, entries: list) -> dict[tuple[int, int], dict[int, float]]:
    """The coefficients of each bracket [e_i, e_j], i < j, by 0-based (i, j) and k."""
    seen: dict[tuple[int, int], dict[int, float]] = {}
    for entry in entries:
        try:
            i = _number(entry["i"], int) - 1
            j = _number(entry["j"], int) - 1
            coeffs = {int(k) - 1: _number(v) for k, v in entry["coeffs"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed bracket entry {entry!r}") from exc
        if not (0 <= i < dim and 0 <= j < dim) or any(not 0 <= k < dim for k in coeffs):
            raise ModelFormatError(f"bracket indices out of range in {entry!r}")
        if i == j:
            if any(v != 0.0 for v in coeffs.values()):
                raise ModelFormatError(f"[e_{i + 1}, e_{i + 1}] must vanish")
            continue
        key, signed = ((i, j), coeffs) if i < j else ((j, i), {k: -v for k, v in coeffs.items()})
        if key in seen and any(abs(seen[key].get(k, 0.0) - signed.get(k, 0.0)) > 1e-12
                               for k in seen[key].keys() | signed.keys()):
            raise ModelFormatError(
                f"inconsistent duplicate bracket for pair ({key[0] + 1}, {key[1] + 1})"
            )
        seen.setdefault(key, signed)  # a consistent duplicate keeps the first entry
    return seen


def _parse_structure(model: LieModel, block: dict):
    import numpy as np

    from .contact import ContactMetricStructure
    from .paracontact import ParacontactMetricStructure

    try:
        kind = block["kind"]
        phi = np.asarray(block["phi"], dtype=float)
        xi = np.asarray(block["xi"], dtype=float)
        eta = np.asarray(block["eta"], dtype=float)
        g = np.asarray(block["g"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed structure block: {exc}") from exc
    dim = model.dim
    if phi.shape != (dim, dim) or g.shape != (dim, dim) or xi.shape != (dim,) or eta.shape != (dim,):
        raise ModelFormatError("structure tensor shapes do not match the model dimension")
    if not all(np.all(np.isfinite(t)) for t in (phi, xi, eta, g)):
        raise ModelFormatError("structure tensors must be finite (no NaN or infinity)")
    for cls in (ContactMetricStructure, ParacontactMetricStructure):
        if kind == cls.kind:
            return cls(model, phi, xi, eta, g)
    raise ModelFormatError(f"unknown structure kind {kind!r}")


def loads(text: str) -> ModelDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level JSON value must be an object")
    try:
        dim = _number(doc["dim"], int)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError("missing or malformed 'dim'") from exc
    if dim < 1:
        raise ModelFormatError(f"dim must be positive, got {dim}")
    labels = doc.get("basis_labels")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != dim:
            raise ModelFormatError("basis_labels length does not match dim")
    brackets = _parse_brackets(dim, doc.get("brackets", []))
    import numpy as np

    from .lie_model import LieModel, _structure_constants

    c = _structure_constants(dim, brackets)
    if not np.all(np.isfinite(c)):
        raise ModelFormatError("bracket coefficients must be finite (no NaN or infinity)")
    model = LieModel(c=c, basis_labels=labels)
    structure = None
    if "structure" in doc and doc["structure"] is not None:
        structure = _parse_structure(model, doc["structure"])
    return ModelDocument(
        model=model,
        structure=structure,
        name=doc.get("name"),
        expected=doc.get("expected", {}),
    )


def load(path: str) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps_entry(entry: CatalogEntry) -> str:
    """Serialize a catalog entry in the model file format."""
    import numpy as np

    model = entry.model
    s = entry.structure
    dim = model.dim
    # the nonzero c[i, j, k] with i < j, in (i, j, k) order
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)[:, :, None] & (np.abs(model.c) > 0)
    coeffs = {}
    for i, j, k in zip(*(idx.tolist() for idx in np.nonzero(upper))):
        coeffs.setdefault((i, j), {})[str(k + 1)] = model.c[i, j, k]
    doc = {
        "name": entry.name,
        "dim": dim,
        "basis_labels": list(model.labels()),
        "brackets": [{"i": i + 1, "j": j + 1, "coeffs": cs} for (i, j), cs in coeffs.items()],
        "structure": {
            "kind": s.kind,
            "phi": s.phi.tolist(),
            "xi": s.xi.tolist(),
            "eta": s.eta.tolist(),
            "g": s.g.tolist(),
        },
        "expected": entry.expected,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
