"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  A spread is steady when it is below a
third of the bound.  ``--compare`` prints, per workload and metric, how much
the second set's median is worse than the first's, as a share of the first.
Results go to ``--out`` (default ``perfbench/out/steady.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            ok = s < bound / 3
            steady = steady and (ok or name == "setup_s")
            print(f"  {name:12s} median {statistics.median(values):10.4f}"
                  f"  spread {s:6.2%}  bound {bound:.0%}"
                  f"  {'steady' if ok else 'NOT steady'}")
    return steady


def compare(spec, first, second):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    within = True
    for workload in first:
        for name, bound in bounds.items():
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            worse = (b - a) / a
            within = within and worse <= bound
            print(f"{workload:17s} {name:12s} {a:10.4f} -> {b:10.4f}"
                  f"  {worse:+7.2%}  bound {bound:.0%}")
    return within


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads")
    ap.add_argument("--out", default=os.path.join(HERE, "out", "steady.json"))
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        return 0 if compare(spec, *sets) else 1
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    results = {}
    for workload in names:
        results[workload] = []
        for seed in args.seeds:
            r = run_once(spec, workload, seed)
            results[workload].append(r)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in r["metrics"].items()),
                file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
    return 0 if summarize(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
