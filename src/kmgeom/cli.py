"""Command-line front end.

Subcommands:

* ``validate <model.json>``: Jacobi identity plus structure axioms.
* ``analyze <model.json> [--json out] [--sasakian] [--legendre3 [--a --b]]``,
  or ``analyze --batch DIR``: the full report (axioms, nullity fit, class,
  identity suites, the constructions asked for); a structure that is merely
  not a nullity space is reported, not rejected.
* ``derive <model.json> --steps N``: the analyze report plus the derived
  structure sequence of N >= 1 nodes.
* ``catalog list`` / ``catalog emit <name> [--lam --d] [--c] [--out path]``:
  built-in fixtures in the model file format.

``validate``, ``analyze`` and ``derive`` share one path (``cmd_run``): load the
model file, run the rows of the stage table ``_STAGES`` that apply, in order,
and write the report.  A row is ``(key, applies, run, human)``: the value of
``run`` is stored in the report under ``key`` (``nullity.nijenhuis_norm``
nests), and ``human`` prints that key in the text report, from the report
alone.  A row whose key is None stores nothing in the report: its ``run`` may end
the command (a gate), or leave a value on the run state for a later row.  The rows,
in order:

* ``model``, ``tol``, ``structure``, ``valid``: every command; all that
  ``validate`` runs.
* derive's gate, a row with key None: it stops a valid model without a contact
  structure before its nullity fit.
* ``expected`` and ``nullity`` (the fit, or the reason there is none):
  analyze and derive on a valid structure.
* derive's walk, a row with key None right after the fit: it walks the tower and
  leaves its nodes on the run state.  A structure that is not a nullity space gets
  its report written, and then, like a tower that cannot be built, ends the
  command, before the rows that read the fit compute a report that it would discard.
* the rows of a fitted structure: ``flags`` and ``identities`` for both signs, and
  for a contact structure (eps > 0) also the Pang-checked class and the Nijenhuis
  norm.  The flags are :func:`kmgeom.classification_flags` of the structure's sign;
  the identities are the Nijenhuis side report and the Blair suite of a contact
  structure, the suites of the canonical connection and of integrability of a
  paracontact one (one integrability computation per structure serves the flags
  too).
* opt-in contact rows: ``sasakian_construction`` (``--sasakian``) and
  ``legendre3`` (``--legendre3``, with ``--a --b``); a construction that does
  not apply reports ``{"error": reason}``.
* ``tower``, derive's last row: the nodes of the walk, rendered.

Each key of the report is stored by one row, and printed, if at all, by that row's
``human``.

Exit codes:

* 0: the report of a valid model (for analyze a valid structure suffices);
  for derive, the walk built its nodes.
* 1: an invalid model (its report is written), an engine error (an error
  line), derive's gate, or derive on a structure that is not a nullity space or
  is Sasakian (for every ``--steps``).
* 2: a model file that is not usable (one that cannot be read, is not UTF-8
  JSON or is malformed: one :class:`~kmgeom.errors.ModelFormatError` from
  :func:`kmgeom.modelfile.load`), a failed ``--json`` or ``--out`` write (after
  the text report; a report with a value of the model file nested too deeply to
  render is one) or a usage error,
  options that would be ignored included: ``--batch`` with a model file or
  with ``--json``, ``--a``/``--b`` without ``--legendre3``, and a ``catalog
  emit`` option that its entry does not take (``--lam``/``--d`` are
  family-3d's, ``--c`` tangent-bundle-constants'); a number option that is
  not a finite number (``--tol``: a finite number >= 0) is one too, and so is a
  ``--steps`` count below 1.
* 3: derive's walk meets class IV or V (|I_M| within ``--tol`` of 1), where
  no node 2 exists: N >= 3 (N <= 2 gives nodes 0 and 1).

A model file that is not usable and an engine error of a stage each end the
model file's run with one error line and their exit code (2; 3 or 1), given in one
place, :func:`_run`; derive's walk maps none of them.

Residuals print in scientific notation with three significant digits; JSON
reports are written by :func:`kmgeom.modelfile.render_json`, with sorted keys, so
that serialize/parse/serialize round-trips are byte-identical.

The parser, the exit codes and the ``error:`` lines need no arrays: the rows
call the engine by the package's public names (``kmgeom.nullity_fit``), and the
package imports a name's submodule, and numpy with it, on first access, so a
usage error, ``--help`` or a malformed model file exits without loading them.
Each access reads the name from its defining module, so a rebinding of a
module's function (``contact.nullity_fit``) is seen by every call.

:func:`main` is the in-process API: it returns the exit code.  :func:`run`, the
entry of ``python -m kmgeom.cli`` and of the ``kmgeom`` script, ends the process
with that code once the output is written, without the interpreter's teardown.
"""

import argparse
import atexit
import functools
import math
import os
import sys

import kmgeom

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
    residual = kmgeom.jacobi_residual(c.doc.model)
    return {
        "name": c.doc.name,
        "dim": c.doc.model.dim,
        "basis_labels": list(c.doc.model.labels()),
        "jacobi_residual": residual,
        "jacobi_ok": residual <= c.tol,
    }


def _structure(c) -> dict | None:
    if c.s is None:
        return None
    return {"kind": c.s.kind, **kmgeom.validate_contact(c.s, c.tol).to_dict()}


def _valid(c) -> bool:
    structure = c.report["structure"]
    return bool(c.report["model"]["jacobi_ok"] and (structure is None or structure["valid"]))


def _nullity(c) -> dict:
    try:
        c.fit = kmgeom.nullity_fit(c.s, c.tol)
    except NotNullity as exc:
        return {"error": "not_nullity", "residual": exc.residual}
    return c.fit.to_dict()


def _pang_class(c) -> str | None:
    try:
        return kmgeom.classify_class(c.s, c.tol)
    except SasakianDegenerate:
        return None


def _identities(c) -> dict:
    """The identity suites of the structure's sign.  Contact: the Nijenhuis side report,
    and the Blair suite when mu is determined.  Paracontact: the canonical connection's
    suite and the integrability residuals."""
    if c.s.eps < 0:
        found = kmgeom.integrability_and_parasasaki(c.s, c.tol)
        return {**kmgeom.canonical_connection(c.s, c.tol)[1].entries,
                "nijenhuis_d_component": found["nijenhuis_d_residual"],
                "pc_parallel_phi": found["pc_parallel_phi_residual"]}
    blair = {} if c.fit.mu is None else kmgeom.blair_identity_suite(c.s, c.tol).entries
    return {**kmgeom.nijenhuis_norm(c.s, c.tol)[1].entries, **blair}


def _construction(c, build, **kwargs) -> dict:
    """The report of the construction ``build`` (a public function of the package) on the
    structure, or the reason it does not apply."""
    try:
        return build(c.s, tol=c.tol, **kwargs).to_dict()
    except (InternalInconsistency, InvalidPangPair, InvariantTooSmall, NotNullity,
            SasakianDegenerate) as exc:
        return {"error": str(exc)}


def _no_contact(c) -> None:
    if c.s is None or c.s.eps < 0:
        raise _Stop(EXIT_INVALID, "error: derive requires a contact structure")


def _walk(c) -> None:
    """Derive's tower, walked right after the fit and left on the run state as
    ``c.nodes``.  A structure that is not a nullity space gets its report written and
    then ends the command; the walk maps no error of ``sequence``, which leaves through
    :func:`_run` like every engine error of a run."""
    if c.fit is None:
        _write_outputs(c.report, c.json)
        raise _Stop(EXIT_INVALID, "error: the structure is not a nullity space (residual "
                    f"{_fmt(c.report['nullity']['residual'])}): no derived structures")
    c.nodes = kmgeom.sequence(c.s, c.steps, c.tol)


def _analyzed(c) -> bool:
    return c.command != "validate" and c.report["valid"] and c.s is not None


def _fitted(c) -> bool:
    return c.fit is not None


def _contact(c) -> bool:
    return c.fit is not None and c.s.eps > 0


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
    # the worst residual (a NaN first), ties to the smallest name: the line follows from
    # the sorted JSON
    worst = kmgeom.ResidualReport(entries=dict(sorted(identities.items()))).worst
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


# (key, applies, run, human), run in this order; each key is stored by one row.  A row
# with key None stores nothing in the report: it may end the command by raising _Stop, or
# leave a value on the run state for a later row (derive's tower, walked right after the
# fit, before the rows that read the fit).
_STAGES = (
    ("model", _always, _model, _human_model),
    ("tol", _always, lambda c: c.tol, None),
    ("structure", _always, _structure, _human_structure),
    ("valid", _always, _valid, None),
    (None, _derive_gate, _no_contact, None),
    ("expected", lambda c: _analyzed(c) and c.doc.expected, lambda c: c.doc.expected, None),
    ("nullity", _analyzed, _nullity, _human_nullity),
    (None, _derive_gate, _walk, None),
    ("nullity.class_pang_checked", _contact, _pang_class, None),
    ("flags", _fitted, lambda c: kmgeom.classification_flags(c.s, c.tol), _human_flags),
    ("nullity.nijenhuis_norm", _contact, lambda c: kmgeom.nijenhuis_norm(c.s, c.tol)[0], None),
    ("identities", _fitted, _identities, _human_identities),
    ("sasakian_construction", lambda c: _contact(c) and c.sasakian,
     lambda c: _construction(c, kmgeom.sasakian_structure),
     _human_construction("sasakian construction",
                         lambda sas: f"sign {sas['sign']}, valid = {sas['checks']['valid']}")),
    ("legendre3", lambda c: _contact(c) and c.legendre3,
     lambda c: _construction(c, kmgeom.second_bilegendrian_analysis, a=c.a, b=c.b),
     _human_construction("second bi-Legendrian pair", lambda leg: (
         f"lambda~ = {leg['lambda_tilde']:.6g}, (a, b) = ({leg['a']:.6g}, {leg['b']:.6g}), "
         f"new constants ({leg['kappa_new']:.6g}, {leg['mu_new']:.6g})"))),
    ("tower", _derive_gate, lambda c: [node.to_dict() for node in c.nodes], _human_tower),
)


def _print_human(report: dict) -> None:
    for key, _, _, human in _STAGES:
        if human and report.get(key) is not None:
            human(report[key], report)


def _write_outputs(report: dict, json_path: str | None) -> None:
    _print_human(report)
    if json_path:
        try:
            text = modelfile.render_json(report)
        except ValueError as exc:  # a value of the model file nested too deeply to write back
            raise _Stop(EXIT_PARSE, f"error: cannot write the report: {exc}") from exc
        _write(None if json_path == "-" else json_path, text)


def _run(args, path: str, label: str) -> tuple[dict | None, int]:
    """Load ``path`` and run the stages that apply: (report, exit code), or (None,
    exit code) after an error line.  This is the one door for the errors of a run: a
    model file that is not usable exits 2, an engine error of a stage 3 when the
    invariant is degenerate (class IV or V) and 1 otherwise.  A stage may also end the
    command by raising _Stop."""
    try:
        doc = modelfile.load(path)
        c = argparse.Namespace(**vars(args), doc=doc, s=doc.structure, report={}, fit=None)
        for key, applies, run, _ in _STAGES:
            if not applies(c):
                continue
            value = run(c)
            if key is not None:
                parent, _, leaf = key.rpartition(".")
                (c.report[parent] if parent else c.report)[leaf] = value
    except ModelFormatError as exc:
        print(f"error: {label}{exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except GeometryError as exc:  # an error line, not a traceback
        print(f"error analyzing {path}: {exc}" if args.command == "analyze" else f"error: {exc}",
              file=sys.stderr)
        return None, EXIT_DEGENERATE if isinstance(exc, DegenerateInvariant) else EXIT_INVALID
    return c.report, EXIT_OK if c.report["valid"] else EXIT_INVALID


def cmd_run(args) -> int:
    """``validate``, ``analyze`` or ``derive`` of ``args.path``, or ``analyze`` of each
    model file of ``--batch`` (each report under a ``== path`` line); the worst exit code."""
    if args.batch and (args.path or args.json):
        raise _Stop(EXIT_PARSE, f"error: --batch takes no {'model file' if args.path else '--json'}")
    if (args.a is not None or args.b is not None) and not args.legendre3:
        raise _Stop(EXIT_PARSE, "error: --a and --b apply only with --legendre3")
    if args.command == "derive" and args.steps < 1:
        raise _Stop(EXIT_PARSE, f"error: --steps takes a count >= 1, not {args.steps}")
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
        report, code = _run(args, path, f"{path}: " if args.batch else "")
        if args.batch:
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
    takes = {"tangent-bundle-constants": ("c",), "family-3d": ("lam", "d")}.get(args.name, ())
    ignored = [f"--{k}" for k in ("lam", "d", "c") if k not in takes and getattr(args, k) is not None]
    if ignored and (takes or args.name in catalog_mod.list_entries()):  # an unknown name says so
        raise _Stop(EXIT_PARSE, f"error: {args.name} does not take {', '.join(ignored)}")
    if args.name == "family-3d" and (args.lam is None or args.d is None):
        raise _Stop(EXIT_PARSE, "error: family-3d requires --lambda and --d")
    if args.name == "tangent-bundle-constants":
        if args.c is None:
            raise _Stop(EXIT_PARSE, "error: tangent-bundle-constants requires --c")
        kappa, mu, inv = catalog_mod.tangent_bundle_constants(args.c)
        text = modelfile.render_json({"c": args.c, "kappa": kappa, "mu": mu, "boeckx": inv})
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

    def number(text: str, least: float = -math.inf) -> float:
        """The value of a number option: a finite number (>= ``least``), or a usage
        error (exit 2)."""
        x = float(text)
        if not (math.isfinite(x) and x >= least):
            bound = f" >= {least:g}" if math.isfinite(least) else ""
            raise argparse.ArgumentTypeError(f"not a finite number{bound}: {text!r}")
        return x

    def tolerance(text: str) -> float:
        """The value of ``--tol``: a finite number >= 0."""
        return number(text, 0.0)

    def add_common(p):
        p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL, help="residual tolerance")
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
    p_ana.add_argument("--a", type=number, default=None, help="Pang coefficient a for --legendre3")
    p_ana.add_argument("--b", type=number, default=None, help="Pang coefficient b for --legendre3")
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
    p_emit.add_argument("--lam", "--lambda", dest="lam", type=number, default=None)
    p_emit.add_argument("--d", type=number, default=None)
    p_emit.add_argument("--c", type=number, default=None, help="tangent bundle curvature parameter")
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


def run() -> None:
    """The process entry: :func:`main` on ``sys.argv``, then the ``atexit`` handlers, as
    the interpreter's own exit runs them, and stdout and stderr flushed; the process then
    ends with main's exit code, without the teardown of numpy and the engine.  A
    ``SystemExit`` of argparse (a usage error, ``--help``), an uncaught exception and a
    failed flush (a closed pipe, a missing stream) take the interpreter's exit instead,
    which reports them as it always has."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # noqa: BLE001 - the interpreter's exit flushes and reports again
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
