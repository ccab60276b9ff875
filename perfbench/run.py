"""Benchmark of the kmgeom CLI: end-to-end latency, set-up time and per-layer spans.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark measures from outside the
program: timed ops drive the public CLI, as ``python -m kmgeom.cli``
processes (cli-cold) or as ``kmgeom.cli.main(argv)`` calls in this process
(sweep-3d, scale-heis), and every op's exit code and JSON report are checked
against closed-form expectations at the acceptance tolerance 1e-8.

Workloads (inputs in workloads.py):
  cli-cold    fresh process per CLI call over a fixed 9-op cycle (8 accepted
              calls, then the 4 designated rejects as one op); import dominates.
  sweep-3d    warm, in process: family_3d points of classes I-V, the 5-dim
              nilpotent and 3-dim Heisenberg models, analyze --sasakian
              --legendre3 and derive --steps 6, plus designated rejects.
  scale-heis  warm, in process: both structures of H_21 per op; rejects use
              the doubled metric.

--trace 0 prints the end-to-end metrics:
  setup_s        median of several fresh-interpreter set-ups spread through
                 the run (import kmgeom, write inputs, one warm-up op)
  op_ms.p50      median latency of accepted ops (closed loop, one client)
  op_ms.tail     latency of accepted ops at the workload's fixed tail
                 percentile (TAIL_PERCENTILE); the run spans enough whole
                 cycles that at least 10 samples lie beyond it
  ops_per_s      ops completed (accepted and rejected) per second of op time
  reject_ms.p50  median latency of designated rejections
  peak_rss_mb    peak RSS of the process doing the work (the CLI children
                 for cli-cold)
Every timing is reported at reference host speed (hostspeed.py): a fixed
unit of work is timed between ops, a warm in-process unit every 0.25 s for
in-process ops and a cold fresh-interpreter unit every second for cli-cold
ops and around every set-up sample, and each time is scaled by the unit's
reference time over the median unit time of the marks within a second of
it. This removes the host's speed drift; raw wall times are in the detail
line. The share of ops that failed their check is the result's failed /
attempted.

--trace 1 rebinds every public kmgeom function (tracer.py), alternates traced
and untraced cycles, and prints per-layer figures per op, the import times
from ``python -X importtime``, the tracing overhead and the dimension table
``dimNN.<layer.function>.self_ms`` of one pass of H_{2n+1} at dims 3 to 41.

Bytecode goes to .bench_build/pycache, compiled once before any timed
sample; work files go to a temporary directory under .bench_build.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
PYCACHE = os.path.join(BUILD, "pycache")

# Before any further import: this process's bytecode also lives in the
# benchmark's own cache, and is written there even if the caller disabled it.
sys.pycache_prefix = PYCACHE
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path[:0] = [HERE, SRC]

import execute  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
# Fixed per workload, so the tail does not move with the sample count, and
# away from the edges between op kinds: cli-cold has 8 accepted kinds per
# cycle, so p66 falls in the band of the 6th (62.5-75 %); sweep-3d's p90 lies
# inside its top latency group (see workloads.py); scale-heis accepts one
# kind only. The run spans at least min_cycles() whole cycles.
TAIL_PERCENTILE = {"cli-cold": 66, "sweep-3d": 90, "scale-heis": 60}
TRACE_DIMS = (3, 5, 11, 21, 41)

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "reject_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer figures per traced op, by span name (see the ROADMAP's layers).
LAYER_FIGURES = {
    "riemann.levi_civita": ("calls", "self_ms", "repeat_frac"),
    "riemann.curvature": ("calls", "self_ms"),
    "contact.nullity_fit": ("calls", "self_ms", "raised"),
    "contact.nijenhuis_norm": ("calls", "self_ms"),
    "contact.validate_contact": ("self_ms",),
    "contact.blair_identity_suite": ("self_ms",),
    "paracontact.para_nullity_fit": ("calls", "self_ms"),
    "paracontact.canonical_pc_connection": ("calls", "self_ms"),
    "paracontact.integrability_and_parasasaki": ("self_ms",),
    "paracontact.validate_paracontact": ("self_ms",),
    "lie_model.jacobi_residual": ("self_ms",),
    "legendre.eigendistributions": ("calls", "self_ms"),
    "legendre.classify_class": ("self_ms",),
    "legendre.libermann_map": ("self_ms",),
    "tower.canonical_paracontact": ("calls", "self_ms"),
    "tower.derive_next": ("calls", "self_ms"),
    "tower.sequence": ("self_ms",),
    "tower.sasakian_structure": ("self_ms",),
    "tower.second_bilegendrian_analysis": ("self_ms",),
    "modelfile.load": ("self_ms",),
    "cli.render_json": ("self_ms",),
}
DIM_TABLE_SPANS = (
    "riemann.levi_civita",
    "riemann.curvature",
    "contact.nullity_fit",
    "contact.nijenhuis_norm",
    "paracontact.para_nullity_fit",
    "paracontact.canonical_pc_connection",
    "paracontact.integrability_and_parasasaki",
)
FIGURE_UNITS = {"calls": "count", "self_ms": "ms", "repeat_frac": "ratio", "raised": "count"}
# Spans whose per-op counts are printed per op kind, for the counts the ROADMAP tracks.
KIND_COUNT_SPANS = ("riemann.levi_civita", "tower.canonical_paracontact", "tower.derive_next",
                    "riemann.curvature", "contact.nijenhuis_norm")


def per_layer_units():
    units = {"import.kmgeom_ms": "ms", "import.scipy_ms": "ms"}
    for span, figures in LAYER_FIGURES.items():
        for fig in figures:
            units[f"{span}.{fig}"] = FIGURE_UNITS[fig]
    units["trace.overhead_frac"] = "ratio"
    for dim in TRACE_DIMS:
        for span in DIM_TABLE_SPANS:
            units[f"dim{dim:02d}.{span}.self_ms"] = "ms"
    return units


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def percentile(values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_cycles(accepted_per_cycle, p):
    """Fewest whole cycles that leave TAIL_BEYOND accepted samples beyond percentile p."""
    cycles = 1
    while percentile(range(cycles * accepted_per_cycle), p)[1] < TAIL_BEYOND:
        cycles += 1
    return cycles


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.in_process = workload != "cli-cold"
        self.env = child_env()
        os.makedirs(BUILD, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
        self.cycle = workloads.build(workload, seed, self.workdir)
        self.cli = None
        self.tracer = tracer.Tracer() if trace else None
        self.trace_totals = {}
        self.traced_ops = 0
        self.kind_counts = {}
        # Fresh processes are scaled by the cold unit, in-process ops by the warm one.
        self.cold = hostspeed.cold_meter(self.env)
        self.op_meter = hostspeed.warm_meter() if self.in_process else self.cold
        # Untraced, checked ops as (kind, reject, raw ms, start, end).
        self.timed = []
        self.plain_cycles, self.traced_cycles = [], []
        self.setup_raw = []  # (raw seconds, start, end)
        self.attempted = self.failed = 0
        self.failures = {}
        self.child_maxrss_kb = 0
        self.checks_ok = True

    # ------------------------------------------------------------ set-up

    def setup_sample(self):
        """One set-up sample, between two marks of the cold unit."""
        self.cold.mark()
        t0 = perf_counter()
        elapsed = self.probe()
        self.setup_raw.append((elapsed, t0, perf_counter()))
        self.cold.mark()

    def probe(self):
        """Spawn a fresh interpreter and time it to ``ready``."""
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=BUILD)
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup", self.workload, str(self.seed), probe_dir]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.wait(timeout=execute.CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
            shutil.rmtree(probe_dir, ignore_errors=True)
        if line != "ready":
            self.checks_ok = False
            self.failures.setdefault("setup", line or "probe printed nothing")
        return elapsed

    def warm_up(self):
        """Untimed: compile bytecode into the cache, then one op of the workload."""
        self.probe()
        os.chdir(self.workdir)
        if self.in_process or self.trace:
            import kmgeom.cli

            self.cli = kmgeom.cli
        self.run_op(self.cycle[0], traced=False, record=False)
        if self.trace:
            self.run_op(self.cycle[0], traced=True, record=False)

    # -------------------------------------------------------------- ops

    def run_step(self, step, traced):
        if self.in_process:
            return execute.run_inprocess(self.cli, step, self.workdir)
        if not traced:
            return execute.run_subprocess([sys.executable, "-m", "kmgeom.cli"], step, self.workdir, self.env)
        snap_path = os.path.join(self.workdir, "spans.json")
        prefix = [sys.executable, os.path.join(HERE, "probe.py"), "traced-cli", snap_path]
        res = execute.run_subprocess(prefix, step, self.workdir, self.env)
        with open(snap_path, encoding="utf-8") as fh:
            self.op_snapshot = tracer.merge(self.op_snapshot, json.load(fh))
        return res

    def run_op(self, op, traced, record=True):
        if record and not traced:
            self.op_meter.mark_if_due()
        if traced and self.in_process:
            self.tracer.install()
            self.tracer.new_op()
            before = self.tracer.snapshot()
        self.op_snapshot = {}
        total, reason = 0.0, None
        start = perf_counter()
        try:
            for step in op.steps:
                res = self.run_step(step, traced)
                total += res.seconds
                self.child_maxrss_kb = max(self.child_maxrss_kb, res.maxrss_kb)
                reason = reason or workloads.check_step(res.rc, res.report, res.stdout, step)
        finally:
            if traced and self.in_process:
                self.tracer.uninstall()
                self.op_snapshot = _delta(self.tracer.snapshot(), before)
        if not record:
            return
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(op.kind, reason)
        elif not traced:
            self.timed.append((op.kind, op.reject, total * 1e3, start, perf_counter()))
        if traced:
            self.traced_ops += 1
            tracer.merge(self.trace_totals, self.op_snapshot)
            calls = self.op_snapshot.get("calls", {})
            self.kind_counts.setdefault(op.kind, {s: calls.get(s, 0) for s in KIND_COUNT_SPANS})

    # ------------------------------------------------------------- loop

    def measure(self):
        """Whole cycles until the window is spent, and at least enough of them
        for the tail; set-up samples at their scheduled times, between ops."""
        start = perf_counter()
        deadline = start + self.seconds
        probe_at = [] if self.trace else [start + self.seconds * (k + 0.5) / SETUP_SAMPLES
                                          for k in range(SETUP_SAMPLES)]
        accepted_per_cycle = sum(not op.reject for op in self.cycle)
        least = 2 if self.trace else min_cycles(accepted_per_cycle, TAIL_PERCENTILE[self.workload])
        done = 0
        while done < least or perf_counter() + 0.5 * statistics.median(self.plain_cycles) <= deadline:
            traced = self.trace and done % 2 == 1
            t0 = perf_counter()
            for op in self.cycle:
                if probe_at and perf_counter() >= probe_at[0]:
                    probe_at.pop(0)
                    self.setup_sample()
                self.run_op(op, traced)
            (self.traced_cycles if traced else self.plain_cycles).append(perf_counter() - t0)
            done += 1
        self.op_meter.mark()
        for _ in probe_at:
            self.setup_sample()

    # ----------------------------------------------------------- traced

    def import_times(self):
        """Cumulative import time of kmgeom and of scipy, from ``-X importtime``."""
        kmgeom_ms, scipy_ms = [], []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kmgeom"],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=execute.CHILD_TIMEOUT_S, check=False)
            km, sp = parse_importtime(proc.stderr)
            kmgeom_ms.append(km)
            scipy_ms.append(sp)
        return statistics.median(kmgeom_ms), statistics.median(scipy_ms)

    def dimension_table(self):
        """One traced pass of both H_{2n+1} structures per dimension; also the spans absent."""
        table, absent = {}, set()
        for dim in TRACE_DIMS:
            op = workloads.heis_op(workloads.heis_files(None, self.workdir, dim))
            tr = tracer.Tracer()
            tr.install()
            tr.new_op()
            try:
                for step in op.steps:
                    res = execute.run_inprocess(self.cli, step, self.workdir)
                    reason = workloads.check_step(res.rc, res.report, res.stdout, step)
                    if reason is not None:
                        self.failures.setdefault(f"dim{dim:02d}", reason)
                        self.failed += 1
                    self.attempted += 1
            finally:
                tr.uninstall()
            for span in DIM_TABLE_SPANS:
                table[f"dim{dim:02d}.{span}.self_ms"] = tr.self_s.get(span, 0.0) * 1e3
            absent.update(s for s in DIM_TABLE_SPANS if s not in tr.wrapped)
        return table, absent

    # ---------------------------------------------------------- results

    def end_to_end(self):
        accepted, rejected, kinds = [], [], {}
        for kind, reject, ms, t0, t1 in self.timed:
            scaled = ms * self.op_meter.scale(t0, t1)
            (rejected if reject else accepted).append((scaled, ms))
            kinds.setdefault(kind, []).append(scaled)
        setup = [s * self.cold.scale(t0, t1) for s, t0, t1 in self.setup_raw]
        p = TAIL_PERCENTILE[self.workload]
        scaled = [a for a, _ in accepted]
        tail, beyond = percentile(scaled, p) if scaled else (0.0, 0)
        if beyond < TAIL_BEYOND:
            self.checks_ok = False
            self.failures.setdefault("tail", f"{beyond} samples beyond op_ms.p{p}, fewer than {TAIL_BEYOND}")
        op_seconds = sum(a for a, _ in accepted + rejected) / 1e3
        maxrss_kb = (self.child_maxrss_kb if not self.in_process
                     else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = {
            "setup_s": median_or_zero(setup),
            "op_ms.p50": median_or_zero(scaled),
            "op_ms.tail": tail,
            "ops_per_s": len(self.timed) / op_seconds if op_seconds > 0 else 0.0,
            "reject_ms.p50": median_or_zero([a for a, _ in rejected]),
            "peak_rss_mb": maxrss_kb / 1024.0,
        }
        detail = {
            "tail": {"name": f"op_ms.p{p}", "percentile": p, "samples": len(scaled), "beyond": beyond},
            "samples": {"accepted": len(accepted), "rejected": len(rejected), "setup": len(setup),
                        "cycles": len(self.plain_cycles), "unit_marks": len(self.op_meter.marks)},
            "host_unit_ms": {name: {"reference": m.ref_ms, "median": statistics.median(m.unit_times()),
                                    "min": min(m.unit_times()), "max": max(m.unit_times())}
                             for name, m in (("ops", self.op_meter), ("cold", self.cold))},
            "raw": {
                "setup_s": median_or_zero([s for s, _, _ in self.setup_raw]),
                "op_ms.p50": median_or_zero([r for _, r in accepted]),
                "op_ms.tail": percentile([r for _, r in accepted], p)[0] if accepted else 0.0,
                "reject_ms.p50": median_or_zero([r for _, r in rejected]),
            },
            "setup_samples_s": setup,
            "setup_raw_s": [s for s, _, _ in self.setup_raw],
            "kind_ms_p50": {k: statistics.median(v) for k, v in sorted(kinds.items())},
            "cycle_s": self.plain_cycles,
        }
        return values, detail

    def per_layer(self):
        totals, n = self.trace_totals, max(self.traced_ops, 1)
        calls, self_s, raised = (totals.get(k, {}) for k in ("calls", "self_s", "raised"))
        wrapped = set(totals.get("wrapped", []))
        values, absent = {}, set()
        for span, figures in LAYER_FIGURES.items():
            if span not in wrapped:
                absent.add(span)
            for fig in figures:
                if fig == "calls":
                    val = calls.get(span, 0) / n
                elif fig == "self_ms":
                    val = self_s.get(span, 0.0) * 1e3 / n
                elif fig == "raised":
                    val = raised.get(span, 0) / n
                else:
                    c = calls.get(span, 0)
                    val = totals.get("lc_repeats", 0) / c if c else 0.0
                values[f"{span}.{fig}"] = val
        values["import.kmgeom_ms"], values["import.scipy_ms"] = self.import_times()
        plain, traced = median_or_zero(self.plain_cycles), median_or_zero(self.traced_cycles)
        values["trace.overhead_frac"] = traced / plain - 1.0 if plain > 0 else 0.0
        table, table_absent = self.dimension_table()
        values.update(table)
        absent |= table_absent
        detail = {
            "traced_ops": self.traced_ops,
            "absent": sorted(absent),
            "per_kind_calls": self.kind_counts,
            "all_spans_per_op": {
                s: {"calls": calls.get(s, 0) / n, "self_ms": self_s.get(s, 0.0) * 1e3 / n}
                for s in sorted(wrapped)
            },
        }
        return values, detail

    def close(self):
        os.chdir(ROOT)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _delta(after, before):
    out = {"lc_repeats": after["lc_repeats"] - before["lc_repeats"], "wrapped": after["wrapped"]}
    for key in ("calls", "self_s", "raised"):
        out[key] = {k: v - before[key].get(k, 0) for k, v in after[key].items() if v != before[key].get(k, 0)}
    return out


def parse_importtime(text):
    """(kmgeom ms, scipy ms) from ``-X importtime`` output.

    Lines come in post-order: a module's line follows its children. scipy's
    time is the sum of cumulative times of scipy modules whose importer is
    not itself a scipy module.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), cumulative))
    kmgeom_us = next((c for d, name, c in rows if name == "kmgeom"), 0)
    scipy_us = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            scipy_us += cumulative
    return kmgeom_us / 1e3, scipy_us / 1e3


def provenance(run):
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
    }
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    return info


def blas_threads(numpy):
    """OpenBLAS's own thread count, as found (never set here)."""
    import ctypes

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": fn()}
    return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "kmgeom", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Terminated(BaseException):
    """SIGTERM, raised past the in-process op runner, which catches SystemExit."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description="kmgeom CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kmgeom", "cli.py")):
        print(f"error: no kmgeom sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # A terminated run still stops its children and removes its work files.
    signal.signal(signal.SIGTERM, _terminate)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.warm_up()
        run.measure()
        if run.trace:
            values, detail = run.per_layer()
            units = per_layer_units()
        else:
            values, detail = run.end_to_end()
            units = END_TO_END
    finally:
        run.close()

    correct = run.failed == 0 and run.checks_ok
    detail.update(
        provenance=provenance(run),
        counts={"attempted": run.attempted, "accepted": sum(not t[1] for t in run.timed),
                "rejected": sum(t[1] for t in run.timed), "failed": run.failed,
                "fail_frac": run.failed / run.attempted if run.attempted else 1.0},
        failures=run.failures,
    )
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if not run.trace:
        tail = detail["tail"]
        print(f"{tail['name']} = {values['op_ms.tail']:.6g} ms ({tail['samples']} samples, {tail['beyond']} beyond)")
    print(f"fail_frac = {detail['counts']['fail_frac']:.6g} ({run.failed} of {run.attempted} ops)")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
