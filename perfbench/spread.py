"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py [--seeds N]

Runs ``run.py --trace 0`` for run_seconds once per (workload, seed 1..N),
N = 10 by default, one run at a time, and prints for each metric the median
over seeds and the spread: the distance between the first and third
quartiles (``statistics.quantiles(n=4)``) as a share of the median. Every metric, setup_s included, must have its spread
within its bound in BENCHMARK.json; a spread above a third of the bound is
flagged. Exit code 1 if any run is incorrect or any spread exceeds its bound.
selftest.py uses the same check for its seed comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace=0):
    """One benchmark run; returns its parsed result and detail lines."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def check(bench, seeds, seconds):
    """Run seeds 1..seeds of every workload; the problems found, printed as they come."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems = []
    for w in bench["workloads"]:
        workload = w["name"]
        runs = []
        for seed in range(1, seeds + 1):
            result, detail = run_once(workload, seed, seconds)
            runs.append(result["metrics"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: incorrect, failures {detail.get('failures')}")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + " (unit ms: ops {ops[median]:.3g}, cold {cold[median]:.4g})".format(**detail["host_unit_ms"]),
                flush=True)
        for name, bound in bounds.items():
            med, spr = spread([m[name]["value"] for m in runs])
            flag = "" if spr <= bound / 3 else (" ABOVE BOUND/3" if spr <= bound else " ABOVE BOUND")
            if spr > bound:
                problems.append(f"{workload} {name}: spread {spr:.3f} over seeds 1-{seeds} > bound {bound}")
            print(f"  {workload:10s} {name:14s} median {med:10.5g}  spread {spr:6.3f}  bound {bound:.2f}{flag}",
                  flush=True)
    return problems


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    problems = check(bench, args.seeds, bench["run_seconds"])
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
