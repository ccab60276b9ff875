"""Scale past dim 41: a cold dim-81 analyze in its own process stays small.

The Jacobi check runs on the support of the structure constants, so H_81
(80 nonzero constants out of 81^3) no longer needs the d^4 product (344 MB).
"""

import json
import os
import subprocess
import sys

import pytest

import kmgeom
from kmgeom import modelfile
from kmgeom.catalog import heisenberg


# ROADMAP gate for a dim-81 analyze; the dense Jacobi product alone is 344 MB
PEAK_RSS_MB = 150


# A child's ru_maxrss starts at the RSS of the process that forked it (Linux
# carries it over through exec), and this test process may hold hundreds of MB
# by now.  So the CLI is started from a small relay interpreter, which reads
# the CLI's own peak through os.wait4, as perfbench/execute.py does.
_RELAY = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(proc.returncode)
"""


def _run_child(argv):
    """(exit code, stdout, peak RSS in MB) of ``python -m kmgeom.cli argv``."""
    src = os.path.dirname(os.path.dirname(kmgeom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _RELAY, sys.executable, "-m", "kmgeom.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, int(proc.stderr.split()[-1]) / 1024  # ru_maxrss in KB


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux only")
@pytest.mark.parametrize("kind", ["contact", "paracontact"])
def test_dim_81_analyze_peak_rss(tmp_path, kind):
    path = tmp_path / f"heisenberg-81-{kind}.json"
    path.write_text(modelfile.dumps_entry(heisenberg(81, kind)))
    rc, out, peak_mb = _run_child(["analyze", str(path), "--sasakian", "--legendre3", "--json", "-"])
    assert rc == 0
    report = json.loads(out[out.index("\n{") + 1:])  # the JSON report follows the human one
    assert report["valid"]
    assert report["model"]["jacobi_residual"] == 0.0
    assert peak_mb < PEAK_RSS_MB, f"peak RSS {peak_mb:.0f} MB"
