"""Count what fixed CLI ops cost: the Python-level calls and the ``np.linalg`` calls by
name of each op.  Unlike wall times, these counts repeat exactly from run to run and
from process to process on one Python and numpy pair.

    python tools/cost.py [--against REV]

Each op is one ``kmgeom.cli.main(argv)`` call in this process, with stdout and stderr
captured, in a temporary work directory.  The ops (:data:`OPS`) are the sweep-3d op
kinds on the five class points of the catalog (``family-3d-class-I`` to ``-V``), the
3-dim and 5-dim catalog models and the rejects, contact and paracontact H_d
``analyze`` at d = 5, 21 and 41, and ``derive --steps 64`` on class II.  The working
tree writes their model files: the catalog's through ``catalog emit``, H_d through
``kmgeom.heisenberg`` and ``kmgeom.modelfile.dumps_entry``, and the model that is
not a nullity space is ``tools/equiv.py``'s.

After :data:`WARMUP` passes over the whole list, each op runs twice more.  The first
run is under ``cProfile``: its total call count (Python functions and builtins) is
the op's ``calls``, and under each op's row the :data:`TOP` functions of ``kmgeom``
with the most calls follow, ties by name.  A function is named ``module.function``; the
functions of one module that share a name (its lambdas, its generator expressions) are
summed.  The second runs with every public function of ``np.linalg``
replaced by a counting wrapper, as ``tests/test_compute_once.py`` spies them: those
are the op's ``np.linalg`` counts, the calls the engine makes itself.  The header names
the Python and numpy versions the counts hold for.

``--against REV`` extracts ``git archive REV src`` as ``tools/equiv.py`` does, loads
that tree and the working tree's ``src`` in this process as ``tools/ab.py`` does, and
prints each op's counts for both, REV (base) first, with head - base in calls, and
in each of head's function rows head - base in that function's calls.  Under head's
row of an op whose calls moved, the function rows also list every ``kmgeom`` function
whose calls moved, one that head no longer calls included (with 0 calls).  The
tool exits 1 when an op ends with another exit code than :data:`OPS` expects.
Standard library only; numpy is the one kmgeom imports.
"""

import argparse
import contextlib
import cProfile
import inspect
import io
import json
import os
import platform
import pstats
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import ab  # noqa: E402
import equiv  # noqa: E402

WARMUP = 2
TOP = 3  # kmgeom functions listed under each op's row
HEISENBERG_DIMS = (5, 21, 41)
FULL = ["--sasakian", "--legendre3", "--json", "out.json"]
# (op, argv, exit code); the model files are named in write_inputs
OPS = [
    *[(f"analyze-full-{c}", ["analyze", f"class-{c}.json", *FULL], 0)
      for c in ("I", "II", "III", "IV", "V")],
    *[(f"derive-{c}", ["derive", f"class-{c}.json", "--steps", "6", "--json", "out.json"], 0)
      for c in ("I", "II", "III")],
    ("analyze-nilpotent-5d", ["analyze", "nilpotent-h-5d.json", *FULL], 0),
    ("analyze-heisenberg-3d", ["analyze", "heisenberg-3d.json", *FULL], 0),
    ("reject-not-nullity", ["analyze", "twisted.json", *FULL], 0),
    ("reject-metric", ["analyze", "scaled-metric-3d.json", *FULL], 1),
    ("reject-jacobi", ["analyze", "broken-jacobi-3d.json", "--json", "out.json"], 1),
    ("reject-derive-edge", ["derive", "class-IV.json", "--steps", "6"], 3),
    *[(f"analyze-h{d}-{kind}", ["analyze", f"h{d}-{kind}.json", "--json", "out.json"], 0)
      for d in HEISENBERG_DIMS for kind in ("contact", "paracontact")],
    ("derive-II-steps-64", ["derive", "class-II.json", "--steps", "64", "--json", "out.json"], 0),
]


def write_inputs(work: str) -> None:
    """The model files of :data:`OPS`, written under ``work`` by the working tree."""
    from kmgeom import cli, heisenberg, modelfile

    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("nilpotent-h-5d", "heisenberg-3d", "broken-jacobi-3d", "scaled-metric-3d"):
            cli.main(["catalog", "emit", name, "--out", os.path.join(work, f"{name}.json")])
        for c in ("I", "II", "III", "IV", "V"):
            cli.main(["catalog", "emit", f"family-3d-class-{c}", "--out",
                      os.path.join(work, f"class-{c}.json")])
    texts = {"twisted.json": json.dumps(equiv.TWISTED)}
    for d in HEISENBERG_DIMS:
        for kind in ("contact", "paracontact"):
            texts[f"h{d}-{kind}.json"] = modelfile.dumps_entry(heisenberg(d, kind))
    for name, text in texts.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_op(cli, argv: list) -> int:
    """The exit code of ``cli.main(argv)``, its output captured and its JSON file removed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if os.path.exists("out.json"):
        os.remove("out.json")
    return code


@contextlib.contextmanager
def linalg_spy(np, counts: dict):
    """Within the block, every public function of ``np.linalg`` counts its calls into
    ``counts``."""
    originals = {name: fn for name, fn in vars(np.linalg).items()
                 if not name.startswith("_") and name != "test" and inspect.isroutine(fn)}

    def counting(name, fn):
        def spy(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return spy

    for name, fn in originals.items():
        setattr(np.linalg, name, counting(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)


def function_calls(stats: pstats.Stats) -> dict:
    """{module.function: calls} of the ``kmgeom`` functions that ``stats`` profiled."""
    calls = {}
    for (path, _, func), (_, ncalls, *_) in stats.stats.items():
        if os.path.basename(os.path.dirname(path)) == "kmgeom":
            name = f"{os.path.splitext(os.path.basename(path))[0]}.{func}"
            calls[name] = calls.get(name, 0) + ncalls
    return calls


def measure(modules: dict) -> list[tuple]:
    """(op, exit code, calls, {np.linalg name: calls}, {kmgeom function: calls}) of each
    op on the tree of ``modules``, after the warm-up; the work directory is the current
    one."""
    import numpy as np

    ab._drop_kmgeom()
    sys.modules.update(modules)
    cli = modules["kmgeom.cli"]
    for _ in range(WARMUP):
        for _, argv, _ in OPS:
            run_op(cli, argv)
    rows = []
    for op, argv, _ in OPS:
        profile = cProfile.Profile()
        profile.enable()
        code = run_op(cli, argv)
        profile.disable()
        stats = pstats.Stats(profile)
        linalg = {}
        with linalg_spy(np, linalg):
            run_op(cli, argv)
        rows.append((op, code, stats.total_calls, linalg, function_calls(stats)))
    return rows


def table(results: dict) -> list[str]:
    """The lines of each op's counts, per tree, with head - base in calls when both ran;
    under each, the tree's :data:`TOP` kmgeom functions with the most calls, and under
    head's row of an op whose calls moved, every kmgeom function whose calls moved."""
    lines = [f"{'op':24s} {'tree':4s} {'exit':>4s} {'calls':>7s} {'change':>7s}  np.linalg"]
    base = results.get("base")
    for i, (op, *_) in enumerate(OPS):
        for tree, rows in results.items():
            _, code, calls, linalg, functions = rows[i]
            change = f"{calls - base[i][2]:+d}" if base and tree == "head" else ""
            counts = " ".join(f"{name}={n}" for name, n in sorted(linalg.items())) or "-"
            lines.append(f"{op:24s} {tree:4s} {code:4d} {calls:7d} {change:>7s}  {counts}")
            ranked = sorted(functions.items(), key=lambda kv: (-kv[1], kv[0]))
            shown = {name for name, _ in ranked[:TOP]}
            if base and tree == "head" and calls != base[i][2]:
                # under an op whose total moved, every function whose count moved, a gone one too
                was = base[i][4]
                shown |= {name for name in functions.keys() | was.keys()
                          if functions.get(name, 0) != was.get(name, 0)}
            for name in sorted(shown, key=lambda name: (-functions.get(name, 0), name)):
                n = functions.get(name, 0)
                change = f"{n - base[i][4].get(name, 0):+d}" if base and tree == "head" else ""
                lines.append(f"  {name:33s}{n:7d} {change:>7s}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision of the base tree")
    args = parser.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        head = os.path.join(ROOT, "src")
        trees = {"head": ab.load_tree(head)}
        if args.against:
            trees = {"base": ab.load_tree(equiv.extract(args.against, os.path.join(tmp, "base"))),
                     **trees}
        work = os.path.join(tmp, "work")
        os.makedirs(work)
        sys.modules.update(trees["head"])
        write_inputs(work)
        os.chdir(work)  # the ops' paths are relative to it
        try:
            results = {tree: measure(modules) for tree, modules in trees.items()}
        finally:
            os.chdir(cwd)
            ab._drop_kmgeom()
    import numpy as np

    print(f"{len(OPS)} ops, {WARMUP} warm-up passes, base {args.against or '(none)'}, head the "
          f"working tree; Python {platform.python_version()}, numpy {np.__version__}")
    print("\n".join(table(results)))
    failed = 0
    for tree, rows in results.items():
        for (op, code, *_), (_, _, want) in zip(rows, OPS):
            if code != want:
                print(f"FAILED {tree} {op}: exit {code}, expected {want}")
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
