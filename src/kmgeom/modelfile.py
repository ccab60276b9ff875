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
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .catalog import CatalogEntry
from .contact import ContactMetricStructure
from .errors import ModelFormatError
from .lie_model import LieModel
from .paracontact import ParacontactMetricStructure


@dataclass
class ModelDocument:
    model: LieModel
    structure: ContactMetricStructure | ParacontactMetricStructure | None
    name: str | None = None
    expected: dict = field(default_factory=dict)


def _parse_brackets(dim: int, entries: list) -> np.ndarray:
    c = np.zeros((dim, dim, dim))
    seen: dict[tuple[int, int], dict[int, float]] = {}
    for entry in entries:
        try:
            i = int(entry["i"]) - 1
            j = int(entry["j"]) - 1
            coeffs = {int(k) - 1: float(v) for k, v in entry["coeffs"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed bracket entry {entry!r}") from exc
        if not (0 <= i < dim and 0 <= j < dim) or any(not 0 <= k < dim for k in coeffs):
            raise ModelFormatError(f"bracket indices out of range in {entry!r}")
        if i == j:
            if any(v != 0.0 for v in coeffs.values()):
                raise ModelFormatError(f"[e_{i + 1}, e_{i + 1}] must vanish")
            continue
        key, signed = ((i, j), coeffs) if i < j else ((j, i), {k: -v for k, v in coeffs.items()})
        if key in seen:
            if any(abs(seen[key].get(k, 0.0) - v) > 1e-12 for k, v in signed.items()) or any(
                abs(v - signed.get(k, 0.0)) > 1e-12 for k, v in seen[key].items()
            ):
                raise ModelFormatError(
                    f"inconsistent duplicate bracket for pair ({key[0] + 1}, {key[1] + 1})"
                )
            continue
        seen[key] = signed
    for (i, j), coeffs in seen.items():
        for k, v in coeffs.items():
            c[i, j, k] = v
            c[j, i, k] = -v
    return c


def _parse_structure(model: LieModel, block: dict):
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
    if kind == "contact":
        return ContactMetricStructure(model=model, phi=phi, xi=xi, eta=eta, g=g)
    if kind == "paracontact":
        return ParacontactMetricStructure(model=model, phi_t=phi, xi=xi, eta=eta, g_t=g)
    raise ModelFormatError(f"unknown structure kind {kind!r}")


def loads(text: str) -> ModelDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level JSON value must be an object")
    try:
        dim = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError("missing or malformed 'dim'") from exc
    if dim < 1:
        raise ModelFormatError(f"dim must be positive, got {dim}")
    labels = doc.get("basis_labels")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != dim:
            raise ModelFormatError("basis_labels length does not match dim")
    c = _parse_brackets(dim, doc.get("brackets", []))
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
    model = entry.model
    s = entry.structure
    brackets = []
    dim = model.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs = {
                str(k + 1): model.c[i, j, k] for k in range(dim) if abs(model.c[i, j, k]) > 0
            }
            if coeffs:
                brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    if isinstance(s, ContactMetricStructure):
        kind, phi, g = "contact", s.phi, s.g
    else:
        kind, phi, g = "paracontact", s.phi_t, s.g_t
    doc = {
        "name": entry.name,
        "dim": dim,
        "basis_labels": list(model.labels()),
        "brackets": brackets,
        "structure": {
            "kind": kind,
            "phi": phi.tolist(),
            "xi": s.xi.tolist(),
            "eta": s.eta.tolist(),
            "g": g.tolist(),
        },
        "expected": entry.expected,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
