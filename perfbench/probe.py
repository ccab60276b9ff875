"""Child-process entry points of the benchmark (started by run.py).

    probe.py setup <workload> <seed> <workdir>
        One set-up sample in a fresh interpreter: import kmgeom, write the
        workload's input files, run one untimed warm-up op and check it, then
        print ``ready`` (or ``fail <reason>``). The parent times from spawn to
        that line.

    probe.py traced-cli <snapshot.json> <kmgeom argv...>
        One CLI call with every public kmgeom function traced; the span totals
        go to <snapshot.json> and the CLI's exit code is this process's.
"""

import json
import os
import sys


def setup(workload, seed, workdir):
    import kmgeom.cli as cli

    import execute
    import workloads

    op = workloads.build(workload, int(seed), workdir)[0]
    os.chdir(workdir)
    for step in op.steps:
        res = execute.run_inprocess(cli, step, workdir)
        reason = workloads.check_step(res.rc, res.report, res.stdout, step)
        if reason is not None:
            print(f"fail {op.kind}: {reason}", flush=True)
            return 1
    print("ready", flush=True)
    return 0


def traced_cli(snapshot_path, argv):
    import kmgeom.cli as cli

    import tracer

    tr = tracer.Tracer()
    tr.install()
    tr.new_op()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        tr.uninstall()
        sys.stdout.flush()
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump(tr.snapshot(), fh)
    return rc


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 5:
        sys.exit(setup(*sys.argv[2:]))
    if mode == "traced-cli" and len(sys.argv) >= 4:
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
