"""Time two source trees against each other on one benchmark workload, interleaved in one
interpreter, and print the median op time of each per op kind.

    python tools/ab.py [--against REV] [--workload W] [--cycles N]

``--against REV`` extracts ``git archive REV src`` into a temporary directory, as
``tools/equiv.py`` does, and times it as the base against the working tree's ``src``,
the head; without it the working tree is timed against itself, which shows what the
method reads when nothing changed (a null run).  Each tree's ``kmgeom`` is imported in
full under its own ``sys.modules`` entries (``equiv.load_tree``), and those entries are
swapped in before each op, so both trees run in the same process, on the same numpy and
the same warm caches, as in ``tools/equiv.py`` and ``tools/cost.py``.

The op cycle is the workload's at seed 1, from ``perfbench/workloads.build``;
every op runs in process here, as ``kmgeom.cli.main(argv)`` calls through
``perfbench/execute.run_inprocess`` (cli-cold's ops too), and an op's time is the sum of
its steps' ``cli.main`` times.  After two warm-up cycles, each of the ``N`` measured
cycles runs every op on both trees back to back, the base first in even cycles and the
head first in odd ones, so that host drift and the order within a pair fall on both
trees alike.  Every step of every run is checked with ``workloads.check_step``.

The tool prints, per op kind and then for the accepted ops and the rejects pooled, the
number of samples per tree, the median op time of each tree and head / base - 1; it
exits 1 when a step fails its check.  The figures are wall times on this host, with no
host-speed scaling: compare them only within one run.
"""

import argparse
import os
import statistics
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tools")]

import equiv  # noqa: E402
import execute  # noqa: E402
import workloads  # noqa: E402

WARMUP_CYCLES = 2
SEED = 1


def run_op(modules: dict, op, workdir: str) -> tuple[float, str | None]:
    """(seconds, the first failed check or None) of ``op`` on the tree of ``modules``."""
    equiv._drop_kmgeom()
    sys.modules.update(modules)
    seconds, failure = 0.0, None
    for step in op.steps:
        result = execute.run_inprocess(modules["kmgeom.cli"], step, workdir)
        seconds += result.seconds
        failure = failure or workloads.check_step(result.rc, result.report, result.stdout, step)
    return seconds, failure


def measure(trees: dict, cycle: list, cycles: int, workdir: str) -> tuple[dict, list]:
    """({tree: {op kind: [seconds]}}, [failure lines]) of the warm-up and measured cycles."""
    names = list(trees)
    times = {name: {} for name in names}
    failures = []
    for c in range(-WARMUP_CYCLES, cycles):
        order = names if c % 2 == 0 else names[::-1]
        for op in cycle:
            for name in order:
                seconds, failure = run_op(trees[name], op, workdir)
                if failure is not None:
                    failures.append(f"{name} {op.kind}: {failure}")
                if c >= 0:
                    times[name].setdefault(op.kind, []).append(seconds)
    return times, failures


def table(times: dict, cycle: list) -> list[str]:
    """The lines of the per-kind and pooled medians, base and head, in milliseconds."""
    reject = {op.kind: op.reject for op in cycle}
    rows = [(kind, [kind]) for kind in reject]
    rows += [("accepted", [k for k, r in reject.items() if not r]),
             ("reject", [k for k, r in reject.items() if r])]
    lines = [f"{'op kind':28s} {'n':>4s} {'base ms':>9s} {'head ms':>9s} {'change':>8s}"]
    for label, kinds in rows:
        base, head = ([t for k in kinds for t in times[name][k]] for name in ("base", "head"))
        if not base:
            continue
        b, h = statistics.median(base) * 1e3, statistics.median(head) * 1e3
        lines.append(f"{label:28s} {len(base):4d} {b:9.3f} {h:9.3f} {100.0 * (h / b - 1.0):+7.1f}%")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision of the base tree")
    parser.add_argument("--workload", default="sweep-3d", choices=workloads.WORKLOADS)
    parser.add_argument("--cycles", type=int, default=8, help="measured cycles (default 8)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp, equiv.kept_caller_state():
        head = os.path.join(ROOT, "src")
        base = equiv.extract(args.against, os.path.join(tmp, "base")) if args.against else head
        trees = {"base": equiv.load_tree(base), "head": equiv.load_tree(head)}
        workdir = os.path.join(tmp, "work")
        os.makedirs(workdir)
        cycle = workloads.build(args.workload, SEED, workdir)
        os.chdir(workdir)  # the steps' paths are relative to it
        times, failures = measure(trees, cycle, args.cycles, workdir)
    print(f"{args.workload}, seed {SEED}: {args.cycles} cycles of {len(cycle)} ops after "
          f"{WARMUP_CYCLES} warm-up, base {args.against or 'the working tree'}, head the working tree")
    print("\n".join(table(times, cycle)))
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
