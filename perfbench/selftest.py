"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the metrics run.py prints, with the same units.
2. The traced counts repeat: one class-I ``analyze --sasakian --legendre3``
   makes 23 Levi-Civita solves and builds canonical_paracontact and
   derive_next twice each; ``derive --steps 6`` on class II makes 11 solves.
3. Each workload, run briefly with --trace 0 and --trace 1, is correct, has
   no failed op and prints every metric by name with its unit.
4. Without the sources beside it, run.py exits non-zero and prints no result.
5. Seeds 1 to 4 of each workload, one run each of run_seconds, give
   end-to-end figures whose quartile spread over the seeds lies within each
   metric's bound, setup_s included (spread.check, as spread.py uses it).
"""

import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import run
import spread
import tracer
import workloads

BRIEF_SECONDS = 3
SEED_RUNS = 4


def check_names(bench):
    problems = []
    want = {"end_to_end": run.END_TO_END, "per_layer": run.per_layer_units()}
    for key, units in want.items():
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != units:
            problems.append(f"{key}: BENCHMARK.json and run.py differ: "
                            f"{sorted(set(listed.items()) ^ set(units.items()))}")
    return problems


def check_counts():
    import kmgeom.cli as cli

    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.BUILD)
    cwd = os.getcwd()
    problems = []
    try:
        os.chdir(workdir)
        rng = random.Random(0)
        lam, d = workloads.family_point(rng, "I")
        workloads.write_model(workdir, "class-I.json", workloads.family_3d(lam, d))
        lam, d = workloads.family_point(rng, "II")
        workloads.write_model(workdir, "class-II.json", workloads.family_3d(lam, d))
        cases = [
            (["analyze", "class-I.json", "--sasakian", "--legendre3"],
             {"riemann.levi_civita": 23, "tower.canonical_paracontact": 2, "tower.derive_next": 2}),
            (["derive", "class-II.json", "--steps", "6"], {"riemann.levi_civita": 11}),
        ]
        for argv, expected in cases:
            tr = tracer.Tracer()
            tr.install()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
            finally:
                tr.uninstall()
            got = {span: tr.calls.get(span, 0) for span in expected}
            if rc != 0 or got != expected:
                problems.append(f"{' '.join(argv)}: exit {rc}, counts {got}, expected {expected}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_brief(bench):
    problems = []
    units = {0: run.END_TO_END, 1: run.per_layer_units()}
    for w in bench["workloads"]:
        for trace in (0, 1):
            result, detail = spread.run_once(w["name"], 1, BRIEF_SECONDS, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{w['name']} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']} {detail.get('failures')}")
            if got != units[trace]:
                problems.append(f"{label}: metric names or units differ from run.py")
            print(f"{label}: {result['attempted']} ops, {result['failed']} failed", flush=True)
    return problems


def check_without_sources():
    """run.py beside BENCHMARK.json alone must fail without printing a result."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.BUILD)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-3d", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    bench = spread.load_benchmark()
    problems = check_names(bench) + check_counts() + check_brief(bench) + check_without_sources()
    problems += spread.check(bench, SEED_RUNS, bench["run_seconds"])
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
