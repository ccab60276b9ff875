"""Count what fixed CLI ops cost: the Python-level calls and the ``np.linalg`` calls by
name of each op.  Unlike wall times, these counts repeat exactly from run to run and
from process to process on one Python and numpy pair.

    python tools/cost.py [--against REV]

Each op is one ``kmgeom.cli.main(argv)`` call in this process, run by
``tools/equiv.py``'s ``run_call`` (stdout and stderr captured, ``out.json`` read and
removed), in a temporary work directory.  The ops (:data:`OPS`) are the sweep-3d op
kinds on the five class points of the catalog (``family-3d-class-I`` to ``-V``), the
3-dim and 5-dim catalog models and the rejects, contact and paracontact H_d
``analyze`` at d = 5, 21 and 41, and ``derive --steps 64`` on class II.  Their model
files are ``tools/equiv.py``'s inputs, which ``equiv.write_inputs`` writes by the
working tree: the catalog entries as ``catalog emit`` writes them, H_d without its
expected block, and the model that is not a nullity space.

After :data:`WARMUP` passes over the whole list, each op runs twice more.  The first
run is under ``cProfile``: its total call count (Python functions and builtins), summed
over every code object the profiler saw (``Profile.getstats``; ``pstats`` keeps one of
two code objects that share a file, line and name, such as two comprehensions on one
line), is the op's ``calls``, and under each op's row the :data:`TOP` functions of
``kmgeom`` with the most calls follow, ties by name.  A function is named
``module.function``; the functions of one module that share a name (its lambdas, its
comprehensions) are summed.  The second runs with every public function of ``np.linalg``
replaced by a counting wrapper, as ``tests/test_compute_once.py`` spies them: those
are the op's ``np.linalg`` counts, the calls the engine makes itself.  The header names
the Python and numpy versions the counts hold for.

``--against REV`` extracts ``git archive REV src`` as ``tools/equiv.py`` does, imports
that tree and then the working tree's ``src`` anew in this process
(``equiv.load_tree``), each right before its ops, and prints each op's counts for both,
REV (base) first, with head - base in calls, and in each of head's function rows
head - base in that function's calls.  Under head's row of an op whose calls moved, the
function rows also list every ``kmgeom`` function whose calls moved, one that head no
longer calls included (with 0 calls).  The tool exits 1 when an op ends with another
exit code than :data:`OPS` expects.  Standard library only; numpy is the one kmgeom
imports.
"""

import argparse
import contextlib
import cProfile
import inspect
import os
import platform
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import equiv  # noqa: E402

WARMUP = 2
TOP = 3  # kmgeom functions listed under each op's row
HEISENBERG_DIMS = (5, 21, 41)
FULL = ["--sasakian", "--legendre3", "--json", "out.json"]
# (op, argv, exit code); the model files are tools/equiv.py's inputs
OPS = [
    *[(f"analyze-full-{c}", ["analyze", f"models/cat-family-3d-class-{c}.json", *FULL], 0)
      for c in ("I", "II", "III", "IV", "V")],
    *[(f"derive-{c}", ["derive", f"models/cat-family-3d-class-{c}.json", "--steps", "6",
                       "--json", "out.json"], 0) for c in ("I", "II", "III")],
    ("analyze-nilpotent-5d", ["analyze", "models/cat-nilpotent-h-5d.json", *FULL], 0),
    ("analyze-heisenberg-3d", ["analyze", "models/cat-heisenberg-3d.json", *FULL], 0),
    ("reject-not-nullity", ["analyze", "models/twisted.json", *FULL], 0),
    ("reject-metric", ["analyze", "models/cat-scaled-metric-3d.json", *FULL], 1),
    ("reject-jacobi", ["analyze", "models/cat-broken-jacobi-3d.json", "--json", "out.json"], 1),
    ("reject-derive-edge", ["derive", "models/cat-family-3d-class-IV.json", "--steps", "6"], 3),
    *[(f"analyze-h{d}-{kind}", ["analyze", f"models/h{d}-{kind}.json", "--json", "out.json"], 0)
      for d in HEISENBERG_DIMS for kind in ("contact", "paracontact")],
    ("derive-II-steps-64", ["derive", "models/cat-family-3d-class-II.json", "--steps", "64",
                            "--json", "out.json"], 0),
]


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


def call_counts(profile: cProfile.Profile) -> tuple[int, dict]:
    """(calls, {module.function: calls}) of ``profile``: the calls of every code object it
    saw, and of the ``kmgeom`` ones by name."""
    total, functions = 0, {}
    for entry in profile.getstats():
        total += entry.callcount
        path = getattr(entry.code, "co_filename", "")  # a builtin's code is its name
        if os.path.basename(os.path.dirname(path)) == "kmgeom":
            name = f"{os.path.splitext(os.path.basename(path))[0]}.{entry.code.co_name}"
            functions[name] = functions.get(name, 0) + entry.callcount
    return total, functions


def measure(modules: dict) -> list[tuple]:
    """(op, exit code, calls, {np.linalg name: calls}, {kmgeom function: calls}) of each
    op on the tree of ``modules``, after the warm-up; the work directory is the current
    one."""
    import numpy as np

    cli = modules["kmgeom.cli"]
    ops = [(op, {"argv": argv, "files": ["out.json"]}) for op, argv, _ in OPS]
    for _ in range(WARMUP):
        for _, call in ops:
            equiv.run_call(cli, call)
    rows = []
    for op, call in ops:
        profile = cProfile.Profile()
        profile.enable()
        code = equiv.run_call(cli, call)["exit"]
        profile.disable()
        calls, functions = call_counts(profile)
        linalg = {}
        with linalg_spy(np, linalg):
            equiv.run_call(cli, call)
        rows.append((op, code, calls, linalg, functions))
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
            lines.append(f"{op:24s} {tree:4s} {code:>4} {calls:7d} {change:>7s}  {counts}")
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
    with tempfile.TemporaryDirectory() as tmp, equiv.kept_caller_state():
        trees = {"base": equiv.extract(args.against, os.path.join(tmp, "base"))} if args.against else {}
        trees["head"] = os.path.join(ROOT, "src")
        work = os.path.join(tmp, "work")
        equiv.write_inputs(work)
        os.chdir(work)  # the ops' paths are relative to it
        results = {tree: measure(equiv.load_tree(src)) for tree, src in trees.items()}
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
