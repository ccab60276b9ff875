"""The contract scan: ``analyze --sasakian --legendre3`` and ``derive --steps 6`` of 252
``family_3d`` points near and far from |I_M| = 1, with the failures counted per
D-homothety scale and gap.

    python tools/accuracy.py

The points: lambda in :data:`LAMBDAS`, I_M = +-(1 +- e) for e in :data:`GAPS`, each as
given (a = 1) and D-homothetically deformed by the other a in :data:`SCALES`:
3 x 4 x 7 x 3 = 252.  Every point lies outside the class band (|I_M| within tol of 1,
tol = 1e-9), so each is a valid class I, II or III nullity space.  On such a space the
CLI's contract is a report from ``analyze`` (exit 0; a construction that cannot be built
is its ``{"error": ...}`` row) and a tower of six nodes from ``derive`` (exit 0).  A
point fails the scan when either command exits non-zero.

The model files are written by the working tree's ``kmgeom.catalog`` (``family_3d``,
``d_homothetic``) as ``catalog emit`` writes them, and each command is one in-process
``kmgeom.cli.main`` call, run by ``tools/equiv.py``'s ``run_tree``.  Per point the tool
prints lambda, I_M and a; the class of the working tree's ``nullity_fit`` (the
invariant-based class, or the name of the error the fit raised); ``near`` when the
exact | |I_M| - 1 | lies within 10 tol of the band edge tol; both exit codes; the
number of construction rows of the analyze report that read an error; and the first
error line (analyze's, else derive's).  Then it prints, for each a and for e >= 1e-6
and e <= 1e-8, how many points analyze fails, how many derive fails, and how many fail;
and, since a construction's error is a row and shows in no exit code, how many of the
points whose fit reads class I or III (where both constructions are defined) have a
construction row that reads an error.

The tool exits 0 whatever it finds: it is a log, not a gate.  It runs the public library
of the working tree's ``src``, and needs no scipy.
"""

import json
import os
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import equiv  # noqa: E402

LAMBDAS = (1.0, 0.5, 0.01)
GAPS = (1e-2, 1e-4, 1e-6, 1e-8, 3e-9, 2e-9, 1.5e-9)
SCALES = (1.0, 0.01, 100.0)
TOL = 1e-9  # the CLI's default --tol, which every call uses
CONSTRUCTIONS = ("sasakian_construction", "legendre3")


def points() -> list[tuple[float, float, float, float]]:
    """(lambda, e, I_M, a) of each point, in scan order."""
    return [(lam, e, sign * (1.0 + side * e), a) for a in SCALES for lam in LAMBDAS
            for e in GAPS for sign in (1.0, -1.0) for side in (1.0, -1.0)]


def write_points(work: str) -> list[str]:
    """Write each point's model file under ``work`` with the working tree's catalog; the
    class of each point's fit."""
    modules = equiv.load_tree(os.path.join(ROOT, "src"))
    catalog, kmgeom = modules["kmgeom.catalog"], modules["kmgeom"]
    classes = []
    for i, (lam, _, inv, a) in enumerate(points()):
        entry = catalog.family_3d(lam, inv * lam)  # I_M = d / lambda
        if a != 1.0:
            entry = catalog.d_homothetic(entry, a)
        with open(os.path.join(work, f"p{i}.json"), "w", encoding="utf-8") as fh:
            fh.write(modules["kmgeom.modelfile"].dumps_entry(entry) + "\n")
        try:
            classes.append(kmgeom.nullity_fit(entry.structure, TOL).class_tag)
        except kmgeom.GeometryError as exc:
            classes.append(type(exc).__name__)
    return classes


def calls() -> list[dict]:
    """The two calls of each point, analyze first."""
    return [call for i in range(len(points())) for call in (
        {"argv": ["analyze", f"p{i}.json", "--sasakian", "--legendre3", "--json", "report.json"],
         "files": ["report.json"]},
        {"argv": ["derive", f"p{i}.json", "--steps", "6"]})]


def outcomes(records: list[dict]) -> list[dict]:
    """Each point's exit codes, construction rows that read an error and first error
    line, from its two records."""
    found = []
    for analyze, derive in zip(records[::2], records[1::2]):
        report = json.loads(analyze["files"].get("report.json", "{}"))
        lines = (analyze["stderr"] + derive["stderr"]).splitlines()
        found.append({"analyze": analyze["exit"], "derive": derive["exit"],
                      "rows": sum("error" in report.get(key, {}) for key in CONSTRUCTIONS),
                      "error": lines[0] if lines else ""})
    return found


def summary(classes: list[str], found: list[dict]) -> list[str]:
    """The failure counts per scale a and gap group, and over all points; and of the
    points whose fit reads class I or III, how many have a construction error row."""
    lines = [f"{'a':>6} {'gaps':>10} {'points':>7} {'analyze':>8} {'derive':>7} {'failed':>7} "
             f"{'I/III rows':>10}"]
    groups = [(a, label, near) for a in SCALES for label, near in (("e >= 1e-6", False),
                                                                   ("e <= 1e-8", True))]
    for a, label, near in [*groups, (None, "all", None)]:
        rows = [(cls, out) for (_, e, _, scale), cls, out in zip(points(), classes, found)
                if a in (None, scale) and near in (None, e <= 1e-8)]
        bad = [(out["analyze"] != 0, out["derive"] != 0) for _, out in rows]
        large = [out["rows"] > 0 for cls, out in rows if cls in ("I", "III")]
        lines.append(f"{'all' if a is None else f'{a:g}':>6} {label:>10} {len(rows):>7} "
                     f"{sum(x for x, _ in bad):>8} {sum(y for _, y in bad):>7} "
                     f"{sum(x or y for x, y in bad):>7} {f'{sum(large)} of {len(large)}':>10}")
    return lines


def scan() -> tuple[list[str], list[dict]]:
    """The class of each point, and each point's outcomes on the working tree."""
    with tempfile.TemporaryDirectory() as tmp, equiv.kept_caller_state():
        classes = write_points(tmp)
        return classes, outcomes(equiv.run_tree(os.path.join(ROOT, "src"), tmp, calls()))


def main() -> int:
    start = time.perf_counter()
    classes, found = scan()
    for (lam, _, inv, a), cls, out in zip(points(), classes, found):
        near = abs(abs(abs(inv) - 1.0) - TOL) <= 10 * TOL
        print(f"lambda {lam:<5g} I_M {inv:+.10f} a {a:<5g} class {cls:<6} {'near' if near else 'far ':4} "
              f"analyze {out['analyze']} ({out['rows']} rows) derive {out['derive']}  {out['error']}")
    print("\npoints whose analyze, derive or either exits non-zero")
    print("\n".join(summary(classes, found)))
    print(f"\n{len(points())} points, {2 * len(points())} calls ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
