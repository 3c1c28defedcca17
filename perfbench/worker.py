"""Run one workload once in this fresh interpreter and print one JSON line.

    python3 perfbench/worker.py NAME SEED SPAWNED MODE PARAMS_JSON

SPAWNED is the CLOCK_MONOTONIC time (system-wide on Linux) at which the
parent started this process, so ``setup_s`` runs from the process's start
to the end of ``Workload.setup``, imports included.  MODE is ``setup``
(set-up only), ``run`` (set-up, workload, check) or ``trace`` (the same,
with the layer functions wrapped by ``tracer.Tracer``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    name, seed, spawned, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    params = json.loads(argv[5])

    import tracer
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(params, seed)
    t_setup = now()
    out = {"setup_s": t_setup - spawned}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tr = tracer.Tracer() if mode == "trace" else None
    if tr is not None:
        tr.install()
    try:
        report = wl.execute(inputs)
    except Exception as exc:  # a crash of the program fails every operation
        traceback.print_exc()
        report = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tr is not None:
            tr.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed = wl.check(report, inputs)
    out.update(wall_s=now() - t_setup, peak_rss_mb=rss_kb / 1024,
               attempted=attempted, failed=failed)
    if tr is not None:
        out["layers"] = tr.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
