"""Command-line front end.

Subcommands:

* ``validate <model.json>``: Jacobi identity plus structure axioms.
* ``analyze <model.json> [--json out] [--sasakian] [--legendre3 [--a --b]]``,
  or ``analyze --batch DIR``: the full report (axioms, nullity fit, class,
  identity suites, the constructions asked for); a structure that is merely
  not a nullity space is reported, not rejected.
* ``derive <model.json> --steps N``: the analyze report plus the derived
  structure sequence.
* ``catalog list`` / ``catalog emit <name> [--lam --d] [--c] [--out path]``:
  built-in fixtures in the model file format.

``validate``, ``analyze`` and ``derive`` share one path (``cmd_run``): load the
model file, run the rows of the stage table ``_STAGES`` that apply, in order,
and write the report.  A row is ``(key, applies, run, human)``: the value of
``run`` is stored in the report under ``key`` (``nullity.nijenhuis_norm``
nests), and ``human`` prints that key in the text report, from the report
alone.  A row whose key is None is a gate: its ``run`` ends the command.  The
rows, in report order:

* ``model``, ``tol``, ``structure``, ``valid``: every command; all that
  ``validate`` runs.
* ``expected`` and ``nullity`` (the fit, or the reason there is none):
  analyze and derive on a valid structure.
* contact rows (a nullity fit with eps > 0): the Pang-checked class, the
  flags, the Nijenhuis norm and the identities (Nijenhuis side report and
  Blair suite).  Paracontact rows (eps < 0): the identities of the canonical
  connection and of integrability, and the integrability flags (one
  integrability computation per structure serves both).
* opt-in contact rows: ``sasakian_construction`` (``--sasakian``) and
  ``legendre3`` (``--legendre3``, with ``--a --b``); a construction that does
  not apply reports ``{"error": reason}``.
* derive rows: a gate that stops a valid model without a contact structure
  before its nullity fit, a gate that stops a contact structure that is not
  a nullity space after writing its report, and ``tower``, reached only by a
  valid contact nullity space.

A key that two rows store, one per sign (``flags``, ``identities``), is
printed by the first row's ``human``.

Exit codes:

* 0: the report of a valid model (for analyze a valid structure suffices);
  for derive, the tower row ran.
* 1: an invalid model (its report is written), an engine error (an error
  line), or a derive gate.
* 2: a parse or IO error (an unreadable or malformed model file; a failed
  ``--json`` or ``--out`` write, after the text report) or a usage error,
  options that would be ignored included: ``--batch`` with a model file or
  with ``--json``, and ``--a``/``--b`` without ``--legendre3``.
* 3: the tower row meets class IV or V (|I_M| within ``--tol`` of 1), where
  no node 2 exists: N >= 3 (N <= 2 gives nodes 0 and 1).

Residuals print in scientific notation with three significant digits; JSON
reports are emitted with sorted keys so that serialize/parse/serialize
round-trips are byte-identical.

The parser, the exit codes and the ``error:`` lines need no arrays: numpy and
the engine modules are imported by the functions that compute, so a usage
error, ``--help`` or a malformed model file exits without loading them.  The
engine is called through its modules (``contact.nullity_fit``), so a
rebinding of a module's function is seen by every call.
"""

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import DEFAULT_TOL, modelfile
from .errors import (
    DegenerateInvariant,
    GeometryError,
    InternalInconsistency,
    InvalidPangPair,
    InvariantTooSmall,
    ModelFormatError,
    NotNullity,
    SasakianDegenerate,
    SasakianOrInvalid,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


class _Stop(Exception):
    """Ends the command with ``(exit code, error line)``."""


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _mu(mu: float | None) -> str:
    return "indeterminate" if mu is None else f"{mu:+.6g}"


def render_json(report: dict) -> str:
    """``report`` as JSON text (sorted keys, indent 2) in one walk: numpy values as Python
    ones, and a non-finite float (Python or numpy) as the string of its repr, so that
    strict JSON parsers read it.  Keys are strings; a value JSON has no form for
    (``np.bool_``) raises TypeError."""
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

    return render(report, "\n")


def _write(path: str | None, text: str) -> None:
    """``text`` and a newline to the file ``path``, or to stdout when ``path`` is None."""
    if path is None:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _Stop(EXIT_PARSE, f"error: cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- stage rows
# A row's ``applies`` and ``run`` take the run state ``c``: the parsed options plus
# ``doc``, its structure ``s``, the ``report`` so far and the nullity ``fit`` (None
# until the nullity row fits one).


def _model(c) -> dict:
    from . import lie_model

    residual = lie_model.jacobi_residual(c.doc.model)
    return {
        "name": c.doc.name,
        "dim": c.doc.model.dim,
        "basis_labels": list(c.doc.model.labels()),
        "jacobi_residual": residual,
        "jacobi_ok": residual <= c.tol,
    }


def _structure(c) -> dict | None:
    from . import contact

    if c.s is None:
        return None
    return {"kind": c.s.kind, **contact.validate_contact(c.s, c.tol).to_dict()}


def _valid(c) -> bool:
    structure = c.report["structure"]
    return bool(c.report["model"]["jacobi_ok"] and (structure is None or structure["valid"]))


def _nullity(c) -> dict:
    from . import contact

    try:
        c.fit = contact.nullity_fit(c.s, c.tol)
    except NotNullity as exc:
        return {"error": "not_nullity", "residual": exc.residual}
    return c.fit.to_dict()


def _pang_class(c) -> str | None:
    from . import legendre

    try:
        return legendre.classify_class(c.s, c.fit, c.tol)
    except SasakianDegenerate:
        return None


def _flags(c) -> dict:
    from . import contact

    return contact.classification_flags(c.s, c.fit, c.tol)


def _identities(c) -> dict:
    """The Nijenhuis side report, and the Blair suite when mu is determined."""
    from . import contact

    identities = dict(c.s.nijenhuis_norm(c.tol)[1].entries)
    if c.fit.mu is not None:
        identities.update(contact.blair_identity_suite(c.s, c.fit.kappa, c.fit.mu, c.tol).entries)
    return identities


def _pc_identities(c) -> dict:
    """The canonical connection's suite and the integrability residuals."""
    from . import paracontact

    _, pc_rep = paracontact.canonical_pc_connection(c.s, c.tol)
    found = c.s.integrability_and_parasasaki(c.tol)
    return {**pc_rep.entries, "nijenhuis_d_component": found["nijenhuis_d_residual"],
            "pc_parallel_phi": found["pc_parallel_phi_residual"]}


def _pc_flags(c) -> dict:
    found = c.s.integrability_and_parasasaki(c.tol)
    return {"integrable": found["integrable"], "para_sasakian": found["para_sasakian"]}


def _construction(c, build, **kwargs) -> dict:
    """The report of the construction ``build(tower)`` on the structure and its fit, or
    the reason it does not apply."""
    from . import tower

    try:
        return build(tower)(c.s, c.fit, tol=c.tol, **kwargs).to_dict()
    except (InternalInconsistency, InvalidPangPair, InvariantTooSmall, NotNullity,
            SasakianDegenerate, SasakianOrInvalid) as exc:
        return {"error": str(exc)}


def _no_contact(c):
    raise _Stop(EXIT_INVALID, "error: derive requires a contact structure")


def _no_nullity(c):
    _write_outputs(c.report, c.json)
    raise _Stop(EXIT_INVALID, "error: the structure is not a nullity space (residual "
                f"{_fmt(c.report['nullity']['residual'])}): no derived structures")


def _tower(c) -> list[dict]:
    from . import tower

    try:
        nodes = tower.sequence(c.s, c.steps, c.tol)
    except GeometryError as exc:
        code = EXIT_DEGENERATE if isinstance(exc, DegenerateInvariant) else EXIT_INVALID
        raise _Stop(code, f"error: {exc}") from exc
    return [node.to_dict() for node in nodes]


def _analyzed(c) -> bool:
    return c.command != "validate" and c.report["valid"] and c.s is not None


def _contact(c) -> bool:
    return c.fit is not None and c.s.eps > 0


def _paracontact(c) -> bool:
    return c.fit is not None and c.s.eps < 0


def _derive_gate(c) -> bool:
    return c.command == "derive" and c.report["valid"]


# ---------------------------------------------------------------- human text
# A row's ``human`` prints the row's value; it reads nothing but the report.


def _human_model(model: dict, report: dict) -> None:
    name = model.get("name") or "(unnamed)"
    print(f"model {name}: dim {model['dim']}, jacobi residual {_fmt(model['jacobi_residual'])}")


def _human_structure(st: dict, report: dict) -> None:
    print(f"structure: {st['kind']}, valid = {st['valid']}")
    for key, val in sorted(st["residuals"].items()):
        marker = "" if val <= report["tol"] else "  <-- FAIL"
        print(f"  {key:34s} {_fmt(val)}{marker}")


def _human_nullity(nul: dict, report: dict) -> None:
    if "error" in nul:
        print(f"nullity: {nul['error']} (residual {_fmt(nul['residual'])})")
        return
    # a contact fit has a class, a paracontact one a spectral type
    extra = f", class {nul['class']}" if "class" in nul else f", spectral type {nul['spectral_type']}"
    boeckx = nul.get("boeckx")
    inv = "" if boeckx is None else f", I_M = {boeckx:+.6g}"
    print(
        f"nullity: kappa = {nul['kappa']:+.6g}, mu = {_mu(nul.get('mu'))}"
        f" (residual {_fmt(nul['residual'])}){inv}{extra}"
    )


def _human_flags(flags: dict, report: dict) -> None:
    print("flags:", ", ".join(f"{k} = {v}" for k, v in sorted(flags.items())))


def _human_identities(identities: dict, report: dict) -> None:
    # the largest residual, ties to the smallest name: the line follows from the sorted JSON
    worst = min(identities.items(), key=lambda kv: (-kv[1], kv[0]))
    print(f"identity suites: {len(identities)} checks, worst {worst[0]} = {_fmt(worst[1])}")


def _human_construction(title: str, render):
    """The ``human`` of a construction row: ``title``, then the reason the construction
    does not apply or ``render`` of its report."""

    def human(rep: dict, report: dict) -> None:
        print(f"{title}: {rep['error'] if 'error' in rep else render(rep)}")

    return human


def _human_tower(nodes: list[dict], report: dict) -> None:
    print("tower:")
    for node in nodes:
        tw = " [TW-parallel]" if node.get("tw_parallel") else ""
        print(
            f"  node {node['index']}: {node['kind']:11s} kappa = {node['kappa']:+.6g}, "
            f"mu = {_mu(node['mu'])}, fit residual {_fmt(node['fit_residual'])}{tw}"
        )


def _always(c) -> bool:
    return True


# (key, applies, run, human), run in this order.  A row with key None is a gate: its run
# always raises _Stop.  A key that two rows store (one per sign) is printed by the first
# row's ``human``.
_STAGES = (
    ("model", _always, _model, _human_model),
    ("tol", _always, lambda c: c.tol, None),
    ("structure", _always, _structure, _human_structure),
    ("valid", _always, _valid, None),
    (None, lambda c: _derive_gate(c) and (c.s is None or c.s.eps < 0), _no_contact, None),
    ("expected", lambda c: _analyzed(c) and c.doc.expected, lambda c: c.doc.expected, None),
    ("nullity", _analyzed, _nullity, _human_nullity),
    ("nullity.class_pang_checked", _contact, _pang_class, None),
    ("flags", _contact, _flags, _human_flags),
    ("nullity.nijenhuis_norm", _contact, lambda c: c.s.nijenhuis_norm(c.tol)[0], None),
    ("identities", _contact, _identities, _human_identities),
    ("identities", _paracontact, _pc_identities, None),
    ("flags", _paracontact, _pc_flags, None),
    ("sasakian_construction", lambda c: _contact(c) and c.sasakian,
     lambda c: _construction(c, lambda tower: tower.sasakian_structure),
     _human_construction("sasakian construction",
                         lambda sas: f"sign {sas['sign']}, valid = {sas['checks']['valid']}")),
    ("legendre3", lambda c: _contact(c) and c.legendre3,
     lambda c: _construction(c, lambda tower: tower.second_bilegendrian_analysis, a=c.a, b=c.b),
     _human_construction("second bi-Legendrian pair", lambda leg: (
         f"lambda~ = {leg['lambda_tilde']:.6g}, (a, b) = ({leg['a']:.6g}, {leg['b']:.6g}), "
         f"new constants ({leg['kappa_new']:.6g}, {leg['mu_new']:.6g})"))),
    (None, lambda c: _derive_gate(c) and c.fit is None, _no_nullity, None),
    ("tower", lambda c: _derive_gate(c) and _contact(c), _tower, _human_tower),
)


def _print_human(report: dict) -> None:
    for key, _, _, human in _STAGES:
        if human and report.get(key) is not None:
            human(report[key], report)


def _write_outputs(report: dict, json_path: str | None) -> None:
    _print_human(report)
    if json_path:
        _write(None if json_path == "-" else json_path, render_json(report))


def _run(args, path: str, label: str) -> tuple[dict | None, int]:
    """Load ``path`` and run the stages that apply: (report, exit code), or (None,
    exit code) after an error line; a stage may end the command by raising _Stop."""
    try:
        doc = modelfile.load(path)
    except (ModelFormatError, OSError) as exc:
        reason = exc if isinstance(exc, ModelFormatError) else f"cannot read {path}: {exc}"
        print(f"error: {label}{reason}", file=sys.stderr)
        return None, EXIT_PARSE
    c = argparse.Namespace(**vars(args), doc=doc, s=doc.structure, report={}, fit=None)
    try:
        for key, applies, run, _ in _STAGES:
            if not applies(c):
                continue
            value = run(c)
            if key is not None:
                parent, _, leaf = key.rpartition(".")
                (c.report[parent] if parent else c.report)[leaf] = value
    except GeometryError as exc:  # an error line, not a traceback
        print(f"error analyzing {path}: {exc}" if c.command == "analyze" else f"error: {exc}",
              file=sys.stderr)
        return None, EXIT_INVALID
    return c.report, EXIT_OK if c.report["valid"] else EXIT_INVALID


def cmd_run(args) -> int:
    """``validate``, ``analyze`` or ``derive`` of ``args.path``, or ``analyze`` of each
    model file of ``--batch`` (each report under a ``== path`` line); the worst exit code."""
    if args.batch and (args.path or args.json):
        raise _Stop(EXIT_PARSE, f"error: --batch takes no {'model file' if args.path else '--json'}")
    if (args.a is not None or args.b is not None) and not args.legendre3:
        raise _Stop(EXIT_PARSE, "error: --a and --b apply only with --legendre3")
    paths = [args.path]
    if args.batch:
        import glob

        paths = sorted(glob.glob(os.path.join(args.batch, "*.json")))
        if not paths:
            raise _Stop(EXIT_PARSE, f"error: no *.json files in {args.batch}")
    if not paths[0]:
        raise _Stop(EXIT_PARSE, "error: supply a model file or --batch")
    worst = EXIT_OK
    for path in paths:
        report, code = _run(args, path, f"{path}: " if len(paths) > 1 else "")
        if len(paths) > 1:
            print(f"== {path}")
        elif report is None and args.command == "analyze":
            print(f"error: cannot analyze {path}", file=sys.stderr)
        if report is not None:
            _write_outputs(report, args.json)
        worst = max(worst, code)
    return worst


def cmd_catalog(args) -> int:
    from . import catalog as catalog_mod

    if args.catalog_command == "list":
        for name in catalog_mod.list_entries():
            print(name)
        print("tangent-bundle-constants  (constants only; use --c)")
        return EXIT_OK
    if args.name == "tangent-bundle-constants":
        if args.c is None:
            raise _Stop(EXIT_PARSE, "error: tangent-bundle-constants requires --c")
        kappa, mu, inv = catalog_mod.tangent_bundle_constants(args.c)
        text = render_json({"c": args.c, "kappa": kappa, "mu": mu, "boeckx": inv})
    else:
        try:
            entry = catalog_mod.get_entry(args.name, lam=args.lam, d=args.d)
        except (KeyError, GeometryError) as exc:
            raise _Stop(EXIT_PARSE, f"error: {exc}") from exc
        text = modelfile.dumps_entry(entry)
    _write(args.out, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmgeom",
        description="Verification engine for contact/paracontact metric structures "
        "on left-invariant Lie group models.",
    )
    # analyze's own options, read by the stage rows of every command
    parser.set_defaults(batch=None, sasakian=False, legendre3=False, a=None, b=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
        p.add_argument("--json", help="write the JSON report to this path ('-' for stdout)")
        p.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check Jacobi identity and structure axioms")
    p_val.add_argument("path")
    add_common(p_val)

    p_ana = sub.add_parser("analyze", help="full nullity/classification report")
    p_ana.add_argument("path", nargs="?")
    p_ana.add_argument("--batch", help="analyze every *.json file in a directory")
    p_ana.add_argument("--sasakian", action="store_true", help="build the compatible Sasakian structure")
    p_ana.add_argument("--legendre3", action="store_true",
                       help="analyze the second bi-Legendrian pair (|I_M| > 1)")
    p_ana.add_argument("--a", type=float, default=None, help="Pang coefficient a for --legendre3")
    p_ana.add_argument("--b", type=float, default=None, help="Pang coefficient b for --legendre3")
    add_common(p_ana)

    p_der = sub.add_parser("derive", help="build the derived structure sequence")
    p_der.add_argument("path")
    p_der.add_argument("--steps", type=int, required=True, help="number of tower nodes")
    add_common(p_der)

    p_cat = sub.add_parser("catalog", help="built-in fixture models")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list entry names").set_defaults(func=cmd_catalog)
    p_emit = cat_sub.add_parser("emit", help="emit an entry as a model file")
    p_emit.add_argument("name")
    p_emit.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p_emit.add_argument("--d", type=float, default=None)
    p_emit.add_argument("--c", type=float, default=None, help="tangent bundle curvature parameter")
    p_emit.add_argument("--out", help="output path (default stdout)")
    p_emit.set_defaults(func=cmd_catalog)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Stop as stop:  # a usage error, a failed write, or a stage that ends the command
        print(stop.args[1], file=sys.stderr)
        return stop.args[0]


if __name__ == "__main__":
    sys.exit(main())
