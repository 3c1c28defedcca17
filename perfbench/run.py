"""Benchmark of the polyptych verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement is one execution of the workload in a fresh interpreter
(``worker.py``), so nothing cached in one execution reaches the next.

--trace 0  executes the workload in one interpreter after another until S
           seconds have passed, with ``SETUP_PROBES`` set-up-only
           interpreters spread among them, and prints the medians of
           setup_s, wall_s and peak_rss_mb.
--trace 1  executes the workload untraced and traced, pair after pair,
           until S seconds have passed, and prints the medians of the
           per-layer metrics over the traced executions, with
           trace.overhead_s = median traced wall_s - median untraced wall_s.
           correct is false if the traced counts differ between executions.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Progress goes to standard error.  Without
the package source beside the benchmark it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
NAMES = ("acceptance-quick", "transfer-a3", "lattice-c3", "valuation-c2")

SETUP_PROBES = 8      # cold set-ups sampled per run, besides the executions
BUDGET_S = 170        # a run ends well inside 180 seconds

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
COUNTS = (".calls", ".points", ".rays", ".found", ".charts")  # exact counts


class BenchError(Exception):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, name, seed, params):
        self.name, self.seed, self.params = name, seed, params
        self.started = now()

    def spawn(self, mode):
        timeout = BUDGET_S - (now() - self.started)
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        spawned = now()
        proc = subprocess.run(
            [sys.executable, WORKER, self.name, str(self.seed), repr(spawned),
             mode, json.dumps(self.params)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        sys.stderr.write(proc.stderr)
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise BenchError(f"worker ({mode}) printed no result") from exc


def repeat(runner, seconds, step):
    """Call ``step`` until ``seconds`` have passed, at least once, and stop
    early when one more call could overrun the run's time budget."""
    t0 = now()
    while True:
        start = now()
        step()
        took = now() - start
        if now() - t0 >= seconds:
            return
        if now() - runner.started + 1.5 * took > BUDGET_S:
            return


def measure(runner, seconds):
    runner.spawn("setup")  # writes the bytecode cache; not counted
    setups = []
    samples = []

    def step():
        # spread the set-up probes over the run, one before each execution
        if len(setups) < SETUP_PROBES:
            setups.append(runner.spawn("setup")["setup_s"])
        samples.append(runner.spawn("run"))
        print(f"{runner.name}: wall_s {samples[-1]['wall_s']:.4f}",
              file=sys.stderr)

    repeat(runner, seconds, step)
    while len(setups) < SETUP_PROBES:
        setups.append(runner.spawn("setup")["setup_s"])
    setups += [s["setup_s"] for s in samples]
    values = {"setup_s": setups,
              "wall_s": [s["wall_s"] for s in samples],
              "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
    metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
               for name, unit in END_TO_END}
    return samples, metrics


def measure_traced(runner, seconds):
    """Pairs of one untraced and one traced execution until ``seconds``
    have passed.  Returns the samples, the per-layer medians over the traced
    executions, and whether their counts agreed."""
    import tracer

    runner.spawn("setup")  # writes the bytecode cache; not counted
    plain, traced = [], []

    def step():
        plain.append(runner.spawn("run"))
        traced.append(runner.spawn("trace"))

    repeat(runner, seconds, step)
    layers = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(p["wall_s"] for p in plain))
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _ in tracer.per_layer_metrics()}
    counts = [{k: v for k, v in t["layers"].items() if k.endswith(COUNTS)}
              for t in traced]
    return plain + traced, metrics, all(c == counts[0] for c in counts)


def run(name, seed, seconds, trace, small=False):
    """Measure one workload; returns the result object that main prints."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads

    wl = workloads.WORKLOADS[name]
    runner = Runner(name, seed, wl.small if small else wl.full)
    if trace:
        samples, metrics, repeatable = measure_traced(runner, seconds)
    else:
        samples, metrics = measure(runner, seconds)
        repeatable = True
    attempted = [s["attempted"] for s in samples]
    return {"correct": repeatable and len(set(attempted)) == 1,
            "attempted": sum(attempted),
            "failed": sum(s["failed"] for s in samples),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "polyptych")):
        print(f"perfbench: no package source under {ROOT}/src/polyptych",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
