"""Check that the CLI's output is unchanged: run one fixed set of calls on two source
trees and compare, call by call, the exit code, stdout, stderr and each file written.

    python tools/equiv.py --against REV
    python tools/equiv.py

``--against REV`` extracts ``git archive REV src`` into a temporary directory and
compares it with the working tree's ``src``.  Without it the working tree is compared
with itself run a second time with a memo that never hits: every structure's store
(``MetricStructure._cache``) is a dict whose ``in`` is always False
(:func:`patch_never_hit`), so every kept entry is rebuilt on every read.  That shows
any output that depends on what was kept, and any output that is not reproducible.

Both trees run in this process, the base first, each imported anew right before its
run (:func:`load_tree`; the never-hit patch goes on the head's copy alone).  Each call
is one ``kmgeom.cli.main(argv)`` (:func:`run_call`) with stdout and stderr captured and
``COLUMNS=80``, in the same work directories of inputs, so that the paths in the
messages match; an exception that escapes ``main`` is recorded as exit ``"uncaught"``
with its type and message on stderr.  After each run the tool checks that the state the
trees share (numpy's print options and error state, the warnings filters) is as it was,
and exits 1 naming the tree when it is not; before it returns it gives back the caller's
``kmgeom`` modules, working directory and environment.  The input model files (the
catalog entries, the ``family_3d`` points, and H_d without its expected block) are
written by the working tree's ``catalog`` (:func:`write_inputs`, which ``tools/cost.py``
uses too), so a change to the catalog shows only in the ``catalog emit`` calls of the
edge set, which each tree runs.

For each call the tool prints ``identical`` or the first stream that differs and its
byte offset, then a summary count; it exits 1 when a call differs.  Under each call that
differs it prints the class of the move (:func:`classify`): ``verdict`` when the exit
code, stderr, a human line with its numbers masked, or a JSON value other than a finite
float changed (a key on one side only, a bool, a string, null against a number, a NaN on
one side), with the first place that shows it; ``digits`` when only finite floats moved,
with the largest relative move and its path, and apart from it that of the residuals.
The gate stays byte-exact: the class tells a reader what a move is, and excuses none.

Against REV, ``tests/data/equiv_moves.json`` declares the calls a change moves on
purpose: a JSON object ``{"parent": "<commit>", "moves": {"<call>": "<reason>", ...}}``.
A listed call that differs prints ``MOVED`` and its reason, and the tool exits 1 only
when a call differs that the file does not list.  The moves hold against their parent
commit alone: when REV is another commit, the file allows nothing, so a list left over
from an earlier change never excuses a new move.

The set: every catalog entry, eleven ``family_3d`` points (I_M - 1 = 3e-9,
lambda = 1e-5 and I_M = 0 among them), the twisted non-nullity model and contact and
paracontact H_d at d = 5, 11, 21 and 41, each through ``analyze --sasakian --legendre3``,
``derive --steps 7`` and ``validate`` with ``--json -``; each ``family_3d`` point also
through ``derive --steps 64 --json -``, many periods of its tower; then the edge calls:
malformed and missing files (structure tensors with a NaN, an infinite entry or the
wrong shape among them, a file that is not UTF-8, one nested past the recursion limit, a
class-I model whose expected block nests 900 deep, and the dim-1 models of both kinds,
n = 0), usage errors, non-finite number options (``--tol``, ``--c``, ``--lam``, ``--a``
and ``--b``), Pang coefficients that ``--legendre3`` rejects (of the wrong sign in
classes I and III among them), ``--help``, ``catalog list``/``emit``, ``--batch``,
``derive`` on a paracontact model, on models without a structure and on the Sasakian
contact H_3 with one and two nodes, failed writes and options that do not go together,
and ``analyze --sasakian --legendre3`` of three models that reach the designated errors
no other call raises (:data:`CONTRACT`): ``family_3d(1, 1 + 2e-9)``, whose tower node
2's fit raises ``DegenerateMetric`` in both construction rows,
``d_homothetic(family_3d(0.01, 0.01 (1 + 1e-8)), 100)``, whose Pang-based class I
disagrees with its invariant-based class IV (``ClassificationMismatch``, exit 1), and
``d_homothetic(family_3d(0.01, 0.01 (1 + 3e-9)), 100)``, whose tower node 2 misses its
predicted mu (``InternalInconsistency``, in both construction rows);
last, every step of every op of the benchmark's three workloads
(``perfbench/workloads.py``) at seeds 1 and 2, each workload and seed in a directory of
its own, with the ``out.json`` it writes.  Standard library only, besides the numpy
that kmgeom imports and whose state the tool checks.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
MOVES = os.path.join("tests", "data", "equiv_moves.json")  # under ROOT

# (lambda, d) of the family_3d points: I_M = d / lambda
# (1.0, 0.0) is I_M = 0, where tower node 2 is node 0
FAMILY = [(1.0, 2.0), (1.0, 0.5), (1.0, -2.0), (1.0, 1.0), (1.0, -1.0), (1.0, 1.0 + 3e-9),
          (1.0, 1.0 - 3e-9), (1e-5, 2e-5), (1e-5, 0.0), (2.5, -4.0), (1.0, 0.0)]
HEISENBERG_DIMS = (5, 11, 21, 41)
PERFBENCH_SEEDS = (1, 2)
UNWRITABLE = os.path.join(os.sep, "nonexistent", "dir", "x.json")
# the designated errors that only the edge calls on contract/<name>.json raise
CONTRACT = ("DegenerateMetric", "ClassificationMismatch", "InternalInconsistency")


PHI_3D = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
FRAME_3D = {"kind": "contact", "phi": PHI_3D, "xi": [0, 0, 1], "eta": [0, 0, 1],
            "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
H3_BRACKETS = [{"i": 1, "j": 2, "coeffs": {"3": 2.0}}]
# family_3d(1, 2), class I: [X, Y] = 2 xi, [xi, X] = 3 Y, [xi, Y] = -X
CLASS_I_BRACKETS = [*H3_BRACKETS, {"i": 3, "j": 1, "coeffs": {"2": 3.0}},
                    {"i": 3, "j": 2, "coeffs": {"1": -1.0}}]
# [X, Y] = 2 xi + X, [xi, Y] = X: a valid contact metric structure, not a nullity space
TWISTED = {"name": "twisted-contact-3d", "dim": 3, "structure": FRAME_3D, "brackets": [
    {"i": 1, "j": 2, "coeffs": {"3": 2.0, "1": 1.0}}, {"i": 3, "j": 2, "coeffs": {"1": 1.0}}]}
MALFORMED = {
    "not-json": "this is not json",
    "truncated": '{"dim": 3, "brackets": [',
    "not-object": "[1, 2]",
    "dim-float": '{"dim": 3.5, "brackets": []}',
    "dim-bool": '{"dim": true, "brackets": []}',
    "bracket-range": '{"dim": 3, "brackets": [{"i": 1, "j": 4, "coeffs": {"3": 1.0}}]}',
    "coeff-bool": '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": true}}]}',
    "coeff-nan": '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": NaN}}]}',
    "inconsistent": '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1.0}}, '
                    '{"i": 2, "j": 1, "coeffs": {"3": 1.0}}]}',
    "labels-length": '{"dim": 3, "basis_labels": ["X", "Y"], "brackets": []}',
    "structure-shape": json.dumps({"dim": 3, "brackets": H3_BRACKETS, "structure": {
        **FRAME_3D, "phi": [[0.0, -1.0], [1.0, 0.0]]}}),
    "structure-kind": json.dumps({"dim": 3, "brackets": H3_BRACKETS, "structure": {
        **FRAME_3D, "kind": "almost-contact"}}),
    "structure-phi-nan": json.dumps({"dim": 3, "brackets": H3_BRACKETS, "structure": {
        **FRAME_3D, "phi": [[float("nan"), -1.0, 0.0], *PHI_3D[1:]]}}),
    "structure-g-inf": json.dumps({"dim": 3, "brackets": H3_BRACKETS, "structure": {
        **FRAME_3D, "g": [[1, 0, 0], [0, float("inf"), 0], [0, 0, 1]]}}),
    "structure-g-2x2": json.dumps({"dim": 3, "brackets": H3_BRACKETS, "structure": {
        **FRAME_3D, "g": [[1, 0], [0, 1]]}}),
    # no dim here is one whose structure constants numpy could allocate
    "coeffs-list": '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [1]}]}',
    "coeff-beyond-float": '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1'
                          + "0" * 400 + '}}]}',
    "brackets-int": '{"dim": 3, "brackets": 5}',
    "labels-int": '{"dim": 3, "basis_labels": 5, "brackets": []}',
    "dim-too-large": '{"dim": 2000000000000, "brackets": []}',
    # bytes that are not UTF-8, and JSON nested past the interpreter's recursion limit
    "bom-utf16": b'\xff\xfe{"dim": 3}',
    "nested-too-deep": '{"dim": 3, "expected": ' + "[" * 100000 + "]" * 100000 + "}",
    # a class-I model whose expected block nests deeper than a report can write back
    "expected-nested-900": json.dumps({"dim": 3, "brackets": CLASS_I_BRACKETS,
                                       "structure": FRAME_3D})[:-1]
                           + ', "expected": ' + "[" * 900 + "]" * 900 + "}",
}


def _dump(work: str, rel: str, doc) -> None:
    """Write ``doc`` (bytes, text, or a JSON document, at indent 1) to ``work/rel``."""
    text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc, indent=1)
    with open(os.path.join(work, rel), "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode())


def _kmgeom_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "kmgeom"}


def _drop_kmgeom() -> None:
    for name in _kmgeom_modules():
        del sys.modules[name]


def load_tree(src: str) -> dict:
    """Every module of the ``kmgeom`` under ``src``, imported anew and left in
    ``sys.modules``: {name: module}."""
    _drop_kmgeom()
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("kmgeom")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"kmgeom.{info.name}")
    finally:
        sys.path.remove(src)
    return _kmgeom_modules()


@contextlib.contextmanager
def kept_caller_state():
    """After the block, the caller's ``kmgeom`` modules, working directory and
    environment are back, whatever the block did to them."""
    modules, cwd, environ = _kmgeom_modules(), os.getcwd(), dict(os.environ)
    try:
        yield
    finally:
        os.chdir(cwd)
        _drop_kmgeom()
        sys.modules.update(modules)
        os.environ.clear()
        os.environ.update(environ)


def write_inputs(work: str) -> tuple[list[str], list[str]]:
    """Write the inputs under ``work``; the model files of the main set, and the
    catalog's entry names.  The model files are built and serialized by the working
    tree, imported anew: each catalog entry but family-3d and each ``FAMILY`` point, as
    ``catalog emit`` writes them, and H_d of both kinds, d in HEISENBERG_DIMS, and
    contact H_3 (an edge input), less the expected block that the CLI would check; and
    the inputs of the :data:`CONTRACT` calls."""
    for sub in ("models", "bad", "contract", "batch-mixed", "batch-one", "empty"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    modules = load_tree(os.path.join(ROOT, "src"))
    catalog, dumps_entry = modules["kmgeom.catalog"], modules["kmgeom.modelfile"].dumps_entry
    names = catalog.list_entries()
    entries = {f"models/cat-{n}.json": catalog.get_entry(n) for n in names if n != "family-3d"}
    entries.update((f"models/fam-{i}.json", catalog.family_3d(*p)) for i, p in enumerate(FAMILY))
    for rel, entry in entries.items():
        _dump(work, rel, dumps_entry(entry) + "\n")
    _dump(work, "models/twisted.json", TWISTED)
    heisenberg = [(d, kind) for d in HEISENBERG_DIMS for kind in ("contact", "paracontact")]
    for dim, kind in [(3, "contact"), *heisenberg]:
        doc = json.loads(dumps_entry(catalog.heisenberg(dim, kind)))
        del doc["expected"]
        _dump(work, f"models/h{dim}-{kind}.json", doc)
    models = [*entries, "models/twisted.json", *(f"models/h{d}-{k}.json" for d, k in heisenberg)]
    for name, text in MALFORMED.items():
        _dump(work, f"bad/{name}.json", text)
    # class I: tower node 2's fit finds its metric singular, in both construction rows;
    # Pang-based class I against invariant-based IV, which ends the run; class I, whose
    # tower node 2 misses its predicted mu, in both construction rows
    contract = [catalog.family_3d(1.0, 1.0 + 2e-9),
                catalog.d_homothetic(catalog.family_3d(0.01, 0.01 * (1 + 1e-8)), 100.0),
                catalog.d_homothetic(catalog.family_3d(0.01, 0.01 * (1 + 3e-9)), 100.0)]
    for name, entry in zip(CONTRACT, contract):
        _dump(work, f"contract/{name}.json", dumps_entry(entry) + "\n")
    _dump(work, "bad/no-structure.json", {"dim": 3, "brackets": H3_BRACKETS})
    _dump(work, "bad/no-structure-broken-jacobi.json", {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"3": 2.0}}, {"i": 1, "j": 3, "coeffs": {"1": -1.0}},
        {"i": 2, "j": 3, "coeffs": {"1": 1.0}}]})
    _dump(work, "bad/degenerate-metric.json", {"dim": 3, "brackets": H3_BRACKETS, "structure": {
        **FRAME_3D, "g": [[1, 0, 0], [0, 0, 0], [0, 0, 1]]}})
    for kind in ("contact", "paracontact"):
        _dump(work, f"bad/dim-1-{kind}.json", {"dim": 1, "brackets": [], "structure": {
            "kind": kind, "phi": [[0]], "xi": [1], "eta": [1], "g": [[1]]}})
    for i in (0, 1, 3):
        _dump(work, f"batch-mixed/fam-{i}.json", _read(os.path.join(work, f"models/fam-{i}.json")))
    _dump(work, "batch-mixed/truncated.json", MALFORMED["truncated"])
    _dump(work, "batch-one/fam-0.json", _read(os.path.join(work, "models/fam-0.json")))
    return models, names


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def call_set(models: list[str], names: list[str]) -> list[dict]:
    """Each call: ``name``, ``argv`` and the ``files`` it may write (read, then removed)."""
    calls = []

    def add(name, *argv, files=()):
        calls.append({"name": name, "argv": list(argv), "files": list(files)})

    for path in models:
        model = os.path.basename(path)[:-5]
        add(f"analyze:{model}", "analyze", path, "--sasakian", "--legendre3", "--json", "-")
        add(f"derive:{model}", "derive", path, "--steps", "7", "--json", "-")
        add(f"validate:{model}", "validate", path, "--json", "-")
    for i in range(len(FAMILY)):  # many periods of the tower
        add(f"derive-long:fam-{i}", "derive", f"models/fam-{i}.json", "--steps", "64", "--json", "-")
    for bad in [*MALFORMED, "no-structure", "no-structure-broken-jacobi", "degenerate-metric",
                "dim-1-contact", "dim-1-paracontact"]:
        for command in (["validate"], ["analyze"], ["derive", "--steps", "3"]):
            add(f"edge-{command[0]}:{bad}", command[0], f"bad/{bad}.json", *command[1:], "--json", "-")
    for command in (["validate"], ["analyze"], ["derive", "--steps", "3"]):
        add(f"edge-{command[0]}:missing", command[0], "missing.json", *command[1:])
    fam_i, fam_iv, h5p = "models/fam-0.json", "models/fam-3.json", "models/h5-paracontact.json"
    for argv in (["--help"], ["analyze", "--help"], ["derive", "--help"], ["validate", "--help"],
                 ["catalog", "--help"], ["catalog", "emit", "--help"]):
        add(f"edge-help:{' '.join(argv)}", *argv)
    for argv in ([], ["bogus"], ["analyze"], ["validate"], ["derive", fam_i],
                 ["derive", fam_i, "--steps", "x"], ["analyze", fam_i, "--bogus"], ["catalog"],
                 ["catalog", "emit"]):
        add(f"edge-usage:{' '.join(argv) or '(none)'}", *argv)
    add("edge-catalog:list", "catalog", "list")
    for name in names:
        add(f"edge-catalog:emit {name}", "catalog", "emit", name)
    for extra in (["family-3d", "--lam", "2", "--d", "-1"], ["family-3d", "--lam", "-1", "--d", "0"],
                  ["nope"], ["tangent-bundle-constants", "--c", "4"],
                  ["tangent-bundle-constants", "--c", "nan"],
                  ["family-3d", "--lam", "nan", "--d", "0"]):
        add(f"edge-catalog:emit {' '.join(extra)}", "catalog", "emit", *extra)
    add("edge-catalog:emit --out", "catalog", "emit", "heisenberg-3d", "--out", "out.json",
        files=["out.json"])
    add("edge-batch:mixed", "analyze", "--batch", "batch-mixed")
    add("edge-batch:one", "analyze", "--batch", "batch-one", "--sasakian")
    add("edge-batch:empty", "analyze", "--batch", "empty")
    add("edge-derive:paracontact", "derive", h5p, "--steps", "3")
    for steps in ("1", "2"):  # a Sasakian structure stops at the tower's guard whatever N is
        add(f"edge-derive:h3-contact-steps-{steps}", "derive", "models/h3-contact.json", "--steps",
            steps, "--json", "-")
    add("edge-derive:steps-0", "derive", fam_i, "--steps", "0", "--json", "-")
    add("edge-derive:class-IV-steps-2", "derive", fam_iv, "--steps", "2", "--json", "-")
    add("edge-derive:class-IV-steps-3", "derive", fam_iv, "--steps", "3", "--json", "-")
    add("edge-derive:json-file", "derive", fam_i, "--steps", "4", "--json", "out.json",
        files=["out.json"])
    add("edge-analyze:json-file", "analyze", h5p, "--json", "out.json", files=["out.json"])
    for name in CONTRACT:
        add(f"edge-contract:{name}", "analyze", f"contract/{name}.json", "--sasakian", "--legendre3",
            "--json", "-")
    add("edge-analyze:tol", "analyze", fam_iv, "--tol", "1e-6", "--json", "-")
    add("edge-analyze:tol nan", "analyze", fam_i, "--tol", "nan", "--json", "-")
    # the last three: Pang coefficients whose generated constants pass the float range,
    # or whose generated invariant is 1
    for pair in (["--a", "1", "--b", "12"], ["--a", "-1", "--b", "-12"], ["--a", "1"],
                 ["--a", "inf", "--b", "inf"], ["--a", "1e155", "--b", "1e155"],
                 ["--a", "1e200", "--b", "1e-200"], ["--a", "1", "--b", "1e-20"]):
        add(f"edge-analyze:legendre3 {' '.join(pair)}", "analyze", fam_i, "--legendre3", *pair,
            "--json", "-")
    add("edge-analyze:legendre3 class-III --a 1 --b 12", "analyze", "models/fam-2.json",
        "--legendre3", "--a", "1", "--b", "12", "--json", "-")  # a positive pair, I_M < -1
    # a failed write (exit 2 with an error line) and options that do not go together
    for argv in (["analyze", fam_i], ["validate", fam_i], ["derive", fam_i, "--steps", "3"]):
        add(f"edge-write:{argv[0]} --json", *argv, "--json", UNWRITABLE)
    add("edge-write:catalog emit --out", "catalog", "emit", "heisenberg-3d", "--out", UNWRITABLE)
    add("edge-options:path and --batch", "analyze", fam_i, "--batch", "batch-mixed")
    add("edge-options:--batch and --json", "analyze", "--batch", "batch-one", "--json", "out.json",
        files=["out.json"])
    add("edge-options:--a without --legendre3", "analyze", fam_i, "--a", "1", "--b", "12")
    add("edge-options:--b without --legendre3", "analyze", fam_i, "--b", "12")
    return calls


def perfbench_calls(work: str) -> list[dict]:
    """The steps of the benchmark's ops, their model files written under ``work/perf``;
    a call's ``cwd`` is its directory relative to ``work``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    calls = []
    for workload in workloads.WORKLOADS:
        for seed in PERFBENCH_SEEDS:
            cwd = os.path.join("perf", f"{workload}-{seed}")
            os.makedirs(os.path.join(work, cwd))
            for i, op in enumerate(workloads.build(workload, seed, os.path.join(work, cwd))):
                calls += [{"name": f"perf:{workload}:{seed}:{i}.{j} {op.kind}", "argv": step.argv,
                           "files": ["out.json"], "cwd": cwd} for j, step in enumerate(op.steps)]
    return calls


class _NeverHit(dict):
    """A memo store that never reports a hit: the memo rebuilds every entry on every read."""

    def __contains__(self, key):
        return False


def patch_never_hit(set_attr=setattr) -> None:
    """Give every ``MetricStructure`` built from now on a :class:`_NeverHit` store, by
    wrapping its ``__init__`` through ``set_attr`` (a test passes its monkeypatch's, which
    undoes the patch)."""
    from kmgeom import contact

    init = contact.MetricStructure.__init__

    def never_hit_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._cache = _NeverHit()

    set_attr(contact.MetricStructure, "__init__", never_hit_init)


def run_call(cli, call: dict) -> dict:
    """The record of one call of ``cli.main`` in the current directory: its exit code,
    stdout, stderr and the ``files`` it wrote (read, then removed)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(call["argv"])
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, as a traceback would show it
            code = "uncaught"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    files = {}
    for name in call.get("files", []):
        if os.path.exists(name):
            files[name] = _read(name)
            os.remove(name)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def run_tree(src: str, work: str, calls: list[dict], never_hit: bool = False) -> list[dict]:
    """The record of each call, run in ``work`` by the tree ``src``, imported anew (with
    a memo that never hits, if ``never_hit``)."""
    cli = load_tree(src)["kmgeom.cli"]
    if never_hit:
        patch_never_hit()
    records = []
    for call in calls:
        os.chdir(os.path.join(work, call.get("cwd", "")))
        records.append(run_call(cli, call))
    return records


SHARED = ("numpy's print options", "numpy's error state", "the warnings filters")


def shared_state() -> tuple:
    """The state both trees share that a run could leave changed, as ``SHARED`` names it."""
    import numpy as np

    return np.get_printoptions(), np.geterr(), list(warnings.filters)


def first_difference(base: dict, head: dict) -> str | None:
    """The first stream of two records that differs and its byte offset, or None."""
    if base["exit"] != head["exit"]:
        return f"exit {base['exit']!r} -> {head['exit']!r}"
    streams = [("stdout", base["stdout"], head["stdout"]), ("stderr", base["stderr"], head["stderr"])]
    streams += [(f"file {name}", base["files"].get(name), head["files"].get(name))
                for name in sorted({*base["files"], *head["files"]})]
    for stream, a, b in streams:
        if a != b:
            if a is None or b is None:
                return f"{stream} {'written' if a is None else 'not written'}"
            a, b = a.encode(), b.encode()
            offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            return f"{stream} at byte {offset}"
    return None


# a number of the human text: not a piece of a word such as "family-3d" or "h5"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")
CHECK_ROW = re.compile(r" +\w+ +\S+")  # a residual entry of the human text: name and value


def _split(text: str) -> tuple[list[str], object]:
    """The human lines of a stream, and the JSON document that starts at its first line
    that opens with ``{`` and runs to its end (None if there is none, or it does not
    parse)."""
    lines = text.split("\n")
    start = next((i for i, line in enumerate(lines) if line.startswith("{")), len(lines))
    try:
        return lines[:start], json.loads("\n".join(lines[start:])) if lines[start:] else None
    except json.JSONDecodeError:
        return lines, None


def _show(a, b) -> str:
    """Two sides of a verdict move, each cut to 50 characters."""
    return " -> ".join(s if len(s) <= 50 else s[:47] + "..." for s in (repr(a), repr(b)))


def _relative(a: float, b: float) -> float | None:
    """0 for the same float (NaN alike), the relative move of two finite floats, and
    None, a verdict, for a NaN or an infinity on one side only."""
    if a == b or a != a and b != b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else None


def _json_moves(a, b, path: str, residual: bool = False):
    """(path, relative move, residual) of each value of two JSON documents: None, a
    verdict, for a key on one side only, a list of another length, another type, or
    any value other than a float that changed (a bool, a string, an int, null).  A
    residual is an entry under a key that names a residual, ends in ``_delta`` or is
    ``identities``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            below = residual or "residual" in key or key.endswith("_delta") or key == "identities"
            if key in a and key in b:
                yield from _json_moves(a[key], b[key], f"{path}.{key}", below)
            else:
                yield f"{path}.{key} ({'added' if key in b else 'removed'})", None, below
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_moves(x, y, f"{path}[{i}]", residual)
    elif type(a) is float and type(b) is float and _relative(a, b) is not None:
        yield path, _relative(a, b), residual
    elif type(a) is not type(b) or a != b:
        yield f"{path} ({_show(a, b)})", None, residual


def _stream_moves(stream: str, a: str | None, b: str | None):
    """(path, relative move, residual) of each value of two sides of a stream (stdout
    or a file): its human lines must match with their numbers masked, each number is
    then compared as a float, and its JSON documents go to :func:`_json_moves`.  A
    text number's path names its line and the words before it; it is a residual when
    those name a residual or the worst check, or the line is a check row."""
    if a is None or b is None:
        yield stream, None, False
        return
    (lines_a, doc_a), (lines_b, doc_b) = _split(a), _split(b)
    if len(lines_a) != len(lines_b) or (doc_a is None) != (doc_b is None):
        yield stream, None, False
        return
    for no, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            yield f"{stream} line {no} ({_show(x, y)})", None, False
            continue
        end = 0
        for mx, my in zip(NUMBER.finditer(x), NUMBER.finditer(y)):
            label, end = x[end:mx.start()].strip(" ,:()="), mx.end()
            residual = "residual" in label or "worst" in label or bool(CHECK_ROW.fullmatch(x))
            yield f"{stream} line {no} {label!r}", _relative(float(mx[0]), float(my[0])), residual
    if doc_a is not None:
        yield from _json_moves(doc_a, doc_b, f"{stream} $")


def classify(base: dict, head: dict) -> tuple[str, str]:
    """The class of the move between two records of one call, and what shows it.  A
    ``verdict`` move (the exit code, stderr, a human line with its numbers masked, or a
    JSON value other than a finite float) names its first place; a ``digits`` move,
    where only finite floats moved, gives the largest relative move and its path, and
    apart from it that of the residuals."""
    if base["exit"] != head["exit"]:
        return "verdict", f"exit {base['exit']!r} -> {head['exit']!r}"
    if base["stderr"] != head["stderr"]:
        return "verdict", "stderr"
    streams = [("stdout", base["stdout"], head["stdout"])]
    streams += [(f"file {name}", base["files"].get(name), head["files"].get(name))
                for name in sorted({*base["files"], *head["files"]})]
    moves = [move for stream in streams for move in _stream_moves(*stream) if move[1] != 0.0]
    verdict = next((path for path, rel, _ in moves if rel is None), None)
    if verdict is not None:
        return "verdict", verdict
    largest = {}
    for path, rel, residual in moves:
        group = "residuals" if residual else "largest"
        largest[group] = max(largest.get(group, (0.0, "")), (rel, path))
    parts = [f"{group} {rel:.2g} at {path}" for group, (rel, path) in sorted(largest.items())]
    return "digits", "; ".join(parts) or "no value moved"


def extract(rev: str, dest: str) -> str:
    """``src`` of the git revision ``rev``, extracted under ``dest``."""
    proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                          capture_output=True, check=True, timeout=120)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return os.path.join(dest, "src")


def allowed_moves(path: str, rev: str) -> dict:
    """The moved calls, with their reasons, that ``path`` (under ROOT) declares, if its
    parent is the commit ``rev`` names; none otherwise."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        doc = json.load(fh)
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True, timeout=60)
    if doc["parent"] != proc.stdout.strip():
        print(f"{path} declares moves against {doc['parent']}, not {rev}: none allowed")
        return {}
    return doc["moves"]


def main(argv: list[str] | None = None, keep=None) -> int:
    """The command line; ``keep``, a predicate on a call's name, leaves out the calls it
    rejects (a test runs a subset)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    allowed = allowed_moves(MOVES, args.against) if args.against else {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, kept_caller_state():
        head = os.path.join(ROOT, "src")
        base = extract(args.against, os.path.join(tmp, "base")) if args.against else head
        work = os.path.join(tmp, "work")
        calls = call_set(*write_inputs(work)) + perfbench_calls(work)
        calls = [c for c in calls if keep is None or keep(c["name"])]
        os.environ["COLUMNS"] = "80"
        records = []
        for tree, src in (("base", base), ("head", head)):
            state = shared_state()
            records.append(run_tree(src, work, calls, never_hit=tree == "head" and base == head))
            changed = [what for what, was, now in zip(SHARED, state, shared_state()) if was != now]
            if changed:
                print(f"the {tree} tree changed {' and '.join(changed)}")
                return 1
    differ = undeclared = verdicts = 0
    for call, a, b in zip(calls, *records):
        diff = first_difference(a, b)
        differ += diff is not None
        moved = diff is not None and call["name"] in allowed
        undeclared += diff is not None and not moved
        status = "identical" if diff is None else "MOVED" if moved else "DIFFERS"
        print(f"{status}  {call['name']}" + ("" if diff is None else f": {diff}")
              + (f" ({allowed[call['name']]})" if moved else ""))
        if diff is not None:
            kind, detail = classify(a, b)
            verdicts += kind == "verdict"
            print(f"    {kind}: {detail}")
    print(f"{len(calls)} calls against {args.against or 'the working tree with a never-hit memo'}: "
          f"{len(calls) - differ} identical, {differ} differ"
          + (f" ({differ - undeclared} declared in {MOVES})" if args.against else "")
          + (f", {verdicts} of them verdict moves" if differ else "")
          + f" ({time.perf_counter() - start:.1f} s)")
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
