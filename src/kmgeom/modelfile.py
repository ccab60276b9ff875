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

A model file is UTF-8 JSON: :func:`load` turns every failure to read it as such (an
unreadable file, bytes that are not UTF-8, text that is not JSON or is nested past the
interpreter's recursion limit) into a :class:`ModelFormatError`, as it does every
malformed document.  The loader antisymmetrizes bracket entries and rejects inconsistent
duplicates (the same unordered pair listed twice with different
coefficients, including an (i, j) / (j, i) pair that fails antisymmetry).
``dim``, ``i`` and ``j`` are integers (an integral float such as 3.0 reads as
one); a bool or a non-integral number there, or a bool, NaN or infinite
coefficient, is a format error, and so is a ``dim`` whose structure constants
numpy cannot allocate.  The checks that need no arrays (the JSON itself, ``dim``,
``basis_labels`` and every bracket entry) run before numpy and the engine are
imported, so a malformed file is rejected without loading them.  The contact form
(xi and eta) and the structure (phi and g) read and check their own tensors (their
shapes and finiteness); their :class:`DimensionMismatch` is re-raised here as a
format error with the same text.

:func:`render_json` is the package's one JSON writer: it writes the CLI's reports and
the model files of :func:`dumps_entry`.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

import kmgeom

from .errors import DimensionMismatch, ModelFormatError

if TYPE_CHECKING:
    from .contact import MetricStructure
    from .lie_model import LieModel


class CatalogEntry(NamedTuple):
    """A named model with its structure and expected block: a catalog entry, or a
    model file as loaded (whose name and structure may be None).  Defined here, not
    in :mod:`kmgeom.catalog`, so that loading a file imports no fixture code."""

    name: str | None
    model: LieModel
    structure: MetricStructure | None
    expected: dict = {}  # one dict shared by the entries that omit it: read it, do not mutate it


def _number(x, cast=float):
    """``cast(x)``; a bool, or a non-integral float cast to int, raises ValueError."""
    if isinstance(x, bool) or cast is int and isinstance(x, float) and not x.is_integer():
        raise ValueError(f"not {'an integer' if cast is int else 'a number'}: {x!r}")
    return cast(x)


def _listed(doc: dict, key: str, item=lambda x: x) -> tuple | None:
    """``item`` of each element of ``doc[key]``, None when it is absent or null; a value
    that is not a list (or another iterable) is a format error."""
    try:
        return None if doc.get(key) is None else tuple(map(item, doc[key]))
    except TypeError as exc:
        raise ModelFormatError(f"'{key}' must be a list") from exc


def _parse_brackets(dim: int, entries: tuple) -> dict[tuple[int, int], dict[int, float]]:
    """The coefficients of each bracket [e_i, e_j], i < j, by 0-based (i, j) and k."""
    seen: dict[tuple[int, int], dict[int, float]] = {}
    for entry in entries:
        try:
            i = _number(entry["i"], int) - 1
            j = _number(entry["j"], int) - 1
            coeffs = {int(k) - 1: _number(v) for k, v in entry["coeffs"].items()}
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed bracket entry {entry!r}") from exc
        if not (0 <= i < dim and 0 <= j < dim) or any(not 0 <= k < dim for k in coeffs):
            raise ModelFormatError(f"bracket indices out of range in {entry!r}")
        if i == j:
            if any(v != 0.0 for v in coeffs.values()):
                raise ModelFormatError(f"[e_{i + 1}, e_{i + 1}] must vanish")
            continue
        if not all(map(math.isfinite, coeffs.values())):
            raise ModelFormatError("bracket coefficients must be finite (no NaN or infinity)")
        key, signed = ((i, j), coeffs) if i < j else ((j, i), {k: -v for k, v in coeffs.items()})
        if key in seen and any(abs(seen[key].get(k, 0.0) - signed.get(k, 0.0)) > 1e-12
                               for k in seen[key].keys() | signed.keys()):
            raise ModelFormatError(
                f"inconsistent duplicate bracket for pair ({key[0] + 1}, {key[1] + 1})"
            )
        seen.setdefault(key, signed)  # a consistent duplicate keeps the first entry
    return seen


def _parse_structure(model: LieModel, block: dict):
    """The structure of ``block``, whose tensors the structure reads and checks itself."""
    try:
        kind = block["kind"]
        for cls in (kmgeom.ContactMetricStructure, kmgeom.ParacontactMetricStructure):
            if kind == cls.kind:
                return cls(kmgeom.ContactForm(model, block["xi"], block["eta"]), block["phi"], block["g"])
    except DimensionMismatch as exc:  # a shape or an entry the structure rejects
        raise ModelFormatError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:  # a missing key, or a tensor not of numbers
        raise ModelFormatError(f"malformed structure block: {exc}") from exc
    raise ModelFormatError(f"unknown structure kind {kind!r}")


def loads(text: str) -> CatalogEntry:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level JSON value must be an object")
    try:
        dim = _number(doc["dim"], int)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError("missing or malformed 'dim'") from exc
    if dim < 1:
        raise ModelFormatError(f"dim must be positive, got {dim}")
    labels = _listed(doc, "basis_labels", str)
    if labels is not None and len(labels) != dim:
        raise ModelFormatError("basis_labels length does not match dim")
    brackets = _parse_brackets(dim, _listed(doc, "brackets") or ())
    from .lie_model import LieModel, _structure_constants

    try:
        c = _structure_constants(dim, brackets)
    except (ValueError, MemoryError) as exc:  # dim^3 floats are more than numpy can hold
        raise ModelFormatError(f"dim {dim} is too large for its structure constants") from exc
    model = LieModel(c=c, basis_labels=labels)
    block = doc.get("structure")
    structure = None if block is None else _parse_structure(model, block)
    return CatalogEntry(
        name=doc.get("name"),
        model=model,
        structure=structure,
        expected=doc.get("expected", {}),
    )


def load(path: str) -> CatalogEntry:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not valid UTF-8: {exc}") from exc
    return loads(text)


def render_json(doc) -> str:
    """``doc`` as JSON text (sorted keys, indent 2) in one walk: numpy values as Python
    ones, and a non-finite float (Python or numpy) as the string of its repr, so that
    strict JSON parsers read it.  Keys are strings; a value JSON has no form for
    (``np.bool_``) raises TypeError, and one nested deeper than the walk's recursion
    reaches (a model file's ``expected`` block of some hundreds of levels) ValueError."""
    import numpy as np

    def render(x, newline: str) -> str:  # the text of x, whose lines continue with newline
        if isinstance(x, (float, np.floating)):
            text = float.__repr__(float(x))
            return text if math.isfinite(x) else f'"{text}"'
        inner = newline + "  "
        if isinstance(x, dict):
            body = [f"{encode_basestring_ascii(key)}: {render(x[key], inner)}" for key in sorted(x)]
            return "{" + inner + ("," + inner).join(body) + newline + "}" if body else "{}"
        if isinstance(x, str):
            return encode_basestring_ascii(x)
        if x is None or isinstance(x, bool):
            return "null" if x is None else "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return int.__repr__(int(x))
        if isinstance(x, np.ndarray):
            return render(x.tolist(), newline)
        if isinstance(x, (list, tuple)):
            body = [render(v, inner) for v in x]
            return "[" + inner + ("," + inner).join(body) + newline + "]" if body else "[]"
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    try:
        return render(doc, "\n")
    except RecursionError:  # two frames per level: the decoder reads about twice as deep
        raise ValueError("a value nests too deeply to be written as JSON") from None


def dumps_entry(entry: CatalogEntry) -> str:
    """Serialize a catalog entry in the model file format."""
    import numpy as np

    model = entry.model
    s = entry.structure
    dim = model.dim
    # the nonzero c[i, j, k] with i < j, in (i, j, k) order
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)[:, :, None] & (np.abs(model.c) > 0)
    coeffs = {}
    for i, j, k in zip(*np.nonzero(upper)):
        coeffs.setdefault((i, j), {})[str(k + 1)] = model.c[i, j, k]
    return render_json({
        "name": entry.name,
        "dim": dim,
        "basis_labels": list(model.labels()),
        "brackets": [{"i": i + 1, "j": j + 1, "coeffs": cs} for (i, j), cs in coeffs.items()],
        "structure": {"kind": s.kind, "phi": s.phi, "xi": s.xi, "eta": s.eta, "g": s.g},
        "expected": entry.expected,
    })
