"""Run one CLI call and collect what the checks need: exit code, JSON report,
standard output and wall time.

In process, the call goes through ``kmgeom.cli.main(argv)``; otherwise it is
a fresh ``python -m kmgeom.cli`` process. Both run in the work directory, so
argv paths are relative to it.
"""

import io
import json
import os
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

# No single CLI call of any workload comes near this; a hung child is killed.
CHILD_TIMEOUT_S = 120.0


@dataclass
class StepResult:
    rc: int
    report: dict | None
    stdout: str
    seconds: float
    maxrss_kb: int = 0


def _clear_report(workdir):
    path = os.path.join(workdir, "out.json")
    if os.path.exists(path):
        os.remove(path)
    return path


def _read_report(path, step):
    if not step.json_out or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            return None


def run_inprocess(cli, step, workdir):
    """One call of ``cli.main``; the module attribute is looked up per call so
    that a traced rebinding of ``main`` is used."""
    out_path = _clear_report(workdir)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(step.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, reported and counted, not fatal
            rc = -1
            traceback.print_exc(file=sys.__stderr__)
        seconds = perf_counter() - t0
    return StepResult(rc, _read_report(out_path, step), out.getvalue(), seconds)


def run_subprocess(prefix, step, workdir, env):
    """One child process ``prefix + argv``; its own peak RSS comes from wait4."""
    out_path = _clear_report(workdir)
    t0 = perf_counter()
    proc = subprocess.Popen(
        prefix + list(step.argv), cwd=workdir, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = stdout.decode("utf-8", "replace")
    return StepResult(proc.returncode, _read_report(out_path, step), text, seconds, usage.ru_maxrss)
