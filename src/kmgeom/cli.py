"""Command-line front end.

Subcommands:

* ``validate <model.json>``: Jacobi identity plus structure axioms.
  Exit 0 on success, 1 on validation failure, 2 on parse/IO errors.
* ``analyze <model.json> [--json out] [--sasakian] [--legendre3 [--a --b]]``:
  full report (axioms, nullity fit, class, identity suites); never fails on
  structures that are merely not nullity spaces (reported instead).
* ``derive <model.json> --steps N``: the derived structure sequence; exit 3
  when N >= 3 and the space is in class IV or V (|I_M| within ``--tol`` of 1),
  where no node 2 exists (N <= 2 gives nodes 0 and 1 there), exit 1
  (after the analyze report) when the structure is not a nullity space.
* ``catalog list`` / ``catalog emit <name> [--lam --d] [--c] [--out path]``:
  built-in fixtures in the model file format.

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


def _fmt(x: float) -> str:
    return f"{x:.3e}"


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


def _load(path: str) -> modelfile.ModelDocument:
    try:
        return modelfile.load(path)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc


def _validate_doc(doc: modelfile.ModelDocument, tol: float) -> dict:
    from . import contact, lie_model

    report = {
        "model": {
            "name": doc.name,
            "dim": doc.model.dim,
            "basis_labels": list(doc.model.labels()),
            "jacobi_residual": lie_model.jacobi_residual(doc.model),
        },
        "tol": tol,
    }
    jacobi_ok = report["model"]["jacobi_residual"] <= tol
    report["model"]["jacobi_ok"] = jacobi_ok
    if doc.structure is None:
        report["structure"] = None
        report["valid"] = bool(jacobi_ok)
        return report
    srep = contact.validate_contact(doc.structure, tol)
    report["structure"] = {"kind": doc.structure.kind, **srep.to_dict()}
    report["valid"] = bool(jacobi_ok and srep.valid)
    return report


def _construction(build, *args, **kwargs) -> dict:
    """The report of ``build(*args, **kwargs)``, or the reason it does not apply."""
    try:
        return build(*args, **kwargs).to_dict()
    except (InternalInconsistency, InvalidPangPair, InvariantTooSmall, NotNullity,
            SasakianDegenerate, SasakianOrInvalid) as exc:
        return {"error": str(exc)}


def _analyze_doc(
    doc: modelfile.ModelDocument,
    tol: float,
    run_sasakian: bool = False,
    run_legendre3: bool = False,
    a: float | None = None,
    b: float | None = None,
) -> dict:
    from . import contact, legendre, paracontact, tower

    report = _validate_doc(doc, tol)
    s = doc.structure
    if s is None or not report["valid"]:
        return report
    if doc.expected:
        report["expected"] = doc.expected

    try:
        fit = contact.nullity_fit(s, tol)
    except NotNullity as exc:
        report["nullity"] = {"error": "not_nullity", "residual": exc.residual}
        return report
    report["nullity"] = fit.to_dict()
    if s.eps > 0:
        try:
            report["nullity"]["class_pang_checked"] = legendre.classify_class(s, fit, tol)
        except SasakianDegenerate:
            report["nullity"]["class_pang_checked"] = None
        report["flags"] = contact.classification_flags(s, fit, tol)
        nij, side = s.nijenhuis_norm(tol)
        report["nullity"]["nijenhuis_norm"] = nij
        report["identities"] = dict(side.to_dict()["residuals"])
        if fit.mu is not None:
            blair = contact.blair_identity_suite(s, fit.kappa, fit.mu, tol)
            report["identities"].update(blair.to_dict()["residuals"])
        if run_sasakian:
            report["sasakian_construction"] = _construction(tower.sasakian_structure, s, fit, tol=tol)
        if run_legendre3:
            report["legendre3"] = _construction(
                tower.second_bilegendrian_analysis, s, fit, a=a, b=b, tol=tol
            )
    else:
        _, pc_rep = paracontact.canonical_pc_connection(s, tol)
        report["identities"] = dict(pc_rep.to_dict()["residuals"])
        flags = paracontact.integrability_and_parasasaki(s, tol)
        report["flags"] = {key: flags[key] for key in ("integrable", "para_sasakian")}
        report["identities"]["nijenhuis_d_component"] = flags["nijenhuis_d_residual"]
        report["identities"]["pc_parallel_phi"] = flags["pc_parallel_phi_residual"]
    return report


def _print_human(report: dict) -> None:
    model = report["model"]
    name = model.get("name") or "(unnamed)"
    print(f"model {name}: dim {model['dim']}, jacobi residual {_fmt(model['jacobi_residual'])}")
    if report.get("structure"):
        st = report["structure"]
        print(f"structure: {st['kind']}, valid = {st['valid']}")
        for key, val in sorted(st["residuals"].items()):
            marker = "" if val <= report["tol"] else "  <-- FAIL"
            print(f"  {key:34s} {_fmt(val)}{marker}")
    if "nullity" in report:
        nul = report["nullity"]
        if "error" in nul:
            print(f"nullity: {nul['error']} (residual {_fmt(nul['residual'])})")
        else:
            mu = "indeterminate" if nul.get("mu") is None else f"{nul['mu']:+.6g}"
            extra = ""
            if nul.get("class") is not None:
                extra = f", class {nul['class']}"
            if nul.get("spectral_type"):
                extra += f", spectral type {nul['spectral_type']}"
            boeckx = nul.get("boeckx")
            inv = "" if boeckx is None else f", I_M = {boeckx:+.6g}"
            print(
                f"nullity: kappa = {nul['kappa']:+.6g}, mu = {mu}"
                f" (residual {_fmt(nul['residual'])}){inv}{extra}"
            )
    if "flags" in report:
        print("flags:", ", ".join(f"{k} = {v}" for k, v in sorted(report["flags"].items())))
    if "identities" in report:
        # the largest residual, ties to the smallest name: the line follows from the sorted JSON
        worst = min(report["identities"].items(), key=lambda kv: (-kv[1], kv[0]))
        print(f"identity suites: {len(report['identities'])} checks, worst {worst[0]} = {_fmt(worst[1])}")
    if "sasakian_construction" in report:
        sas = report["sasakian_construction"]
        if "error" in sas:
            print(f"sasakian construction: {sas['error']}")
        else:
            print(f"sasakian construction: sign {sas['sign']}, valid = {sas['checks']['valid']}")
    if "legendre3" in report:
        leg = report["legendre3"]
        if "error" in leg:
            print(f"second bi-Legendrian pair: {leg['error']}")
        else:
            print(
                f"second bi-Legendrian pair: lambda~ = {leg['lambda_tilde']:.6g}, "
                f"(a, b) = ({leg['a']:.6g}, {leg['b']:.6g}), "
                f"new constants ({leg['kappa_new']:.6g}, {leg['mu_new']:.6g})"
            )
    if "tower" in report:
        print("tower:")
        for node in report["tower"]:
            mu = "indeterminate" if node["mu"] is None else f"{node['mu']:+.6g}"
            tw = " [TW-parallel]" if node.get("tw_parallel") else ""
            print(
                f"  node {node['index']}: {node['kind']:11s} kappa = {node['kappa']:+.6g}, "
                f"mu = {mu}, fit residual {_fmt(node['fit_residual'])}{tw}"
            )


def _write_outputs(report: dict, json_path: str | None) -> None:
    _print_human(report)
    if json_path:
        text = render_json(report)
        if json_path == "-":
            print(text)
        else:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")


def cmd_validate(args) -> int:
    try:
        doc = _load(args.path)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = _validate_doc(doc, args.tol)
    _write_outputs(report, args.json)
    return EXIT_OK if report["valid"] else EXIT_INVALID


def cmd_analyze(args) -> int:
    paths = [args.path] if args.path else []
    if args.batch:
        import glob
        import os

        paths = sorted(glob.glob(os.path.join(args.batch, "*.json")))
        if not paths:
            print(f"error: no *.json files in {args.batch}", file=sys.stderr)
            return EXIT_PARSE
    if not paths:
        print("error: supply a model file or --batch", file=sys.stderr)
        return EXIT_PARSE

    def run(path: str) -> tuple[dict | None, int]:
        try:
            doc = _load(path)
        except ModelFormatError as exc:  # as validate prints it; a batch also names the file
            print(f"error: {path + ': ' if len(paths) > 1 else ''}{exc}", file=sys.stderr)
            return None, EXIT_PARSE
        try:
            report = _analyze_doc(
                doc, args.tol, run_sasakian=args.sasakian,
                run_legendre3=args.legendre3, a=args.a, b=args.b,
            )
        except GeometryError as exc:
            print(f"error analyzing {path}: {exc}", file=sys.stderr)
            return None, EXIT_INVALID
        return report, EXIT_OK if report["valid"] else EXIT_INVALID

    if len(paths) == 1:
        report, code = run(paths[0])
        if report is None:
            print(f"error: cannot analyze {paths[0]}", file=sys.stderr)
            return code
        _write_outputs(report, args.json)
        return code

    worst = EXIT_OK
    for path in paths:
        report, code = run(path)
        print(f"== {path}")
        if report is not None:
            _print_human(report)
        worst = max(worst, code)
    return worst


def cmd_derive(args) -> int:
    try:
        doc = _load(args.path)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    from . import tower

    try:
        report = _analyze_doc(doc, args.tol)
    except GeometryError as exc:  # as in analyze: an error line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not report["valid"]:
        _write_outputs(report, args.json)
        return EXIT_INVALID
    if doc.structure is None or doc.structure.eps < 0:
        print("error: derive requires a contact structure", file=sys.stderr)
        return EXIT_INVALID
    if "error" in report["nullity"]:
        _write_outputs(report, args.json)
        print("error: the structure is not a nullity space (residual "
              f"{_fmt(report['nullity']['residual'])}): no derived structures", file=sys.stderr)
        return EXIT_INVALID
    try:
        nodes = tower.sequence(doc.structure, args.steps, args.tol)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateInvariant) else EXIT_INVALID
    report["tower"] = [node.to_dict() for node in nodes]
    _write_outputs(report, args.json)
    return EXIT_OK


def cmd_catalog(args) -> int:
    from . import catalog as catalog_mod

    if args.catalog_command == "list":
        for name in catalog_mod.list_entries():
            print(name)
        print("tangent-bundle-constants  (constants only; use --c)")
        return EXIT_OK
    name = args.name
    if name == "tangent-bundle-constants":
        if args.c is None:
            print("error: tangent-bundle-constants requires --c", file=sys.stderr)
            return EXIT_PARSE
        kappa, mu, inv = catalog_mod.tangent_bundle_constants(args.c)
        text = render_json({"c": args.c, "kappa": kappa, "mu": mu, "boeckx": inv})
    else:
        try:
            entry = catalog_mod.get_entry(name, lam=args.lam, d=args.d)
        except (KeyError, GeometryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        text = modelfile.dumps_entry(entry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmgeom",
        description="Verification engine for contact/paracontact metric structures "
        "on left-invariant Lie group models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
        p.add_argument("--json", help="write the JSON report to this path ('-' for stdout)")

    p_val = sub.add_parser("validate", help="check Jacobi identity and structure axioms")
    p_val.add_argument("path")
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_ana = sub.add_parser("analyze", help="full nullity/classification report")
    p_ana.add_argument("path", nargs="?")
    p_ana.add_argument("--batch", help="analyze every *.json file in a directory")
    p_ana.add_argument("--sasakian", action="store_true", help="build the compatible Sasakian structure")
    p_ana.add_argument("--legendre3", action="store_true",
                       help="analyze the second bi-Legendrian pair (|I_M| > 1)")
    p_ana.add_argument("--a", type=float, default=None, help="Pang coefficient a for --legendre3")
    p_ana.add_argument("--b", type=float, default=None, help="Pang coefficient b for --legendre3")
    add_common(p_ana)
    p_ana.set_defaults(func=cmd_analyze)

    p_der = sub.add_parser("derive", help="build the derived structure sequence")
    p_der.add_argument("path")
    p_der.add_argument("--steps", type=int, required=True, help="number of tower nodes")
    add_common(p_der)
    p_der.set_defaults(func=cmd_derive)

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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
