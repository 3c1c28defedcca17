"""Tests of the benchmark itself: the Weyl oracle, the output checkers, one
end-to-end run per workload at reduced size, and the repeatability of the
traced counts.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache

import pytest

import run
import tracer
import weyl
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


# ---------------------------------------------------------------------------
# the Weyl oracle against brute-force pattern counts

def _gt_patterns(top):
    """Gelfand-Tsetlin patterns below a weakly decreasing top row."""
    @lru_cache(maxsize=None)
    def count(row):
        if len(row) == 1:
            return 1
        total = 0
        for below in _interlacing(row, len(row) - 1):
            total += count(below)
        return total
    return count(tuple(top))


def _interlacing(row, length, floor=None):
    """Rows r with row[i] >= r[i] >= row[i+1]; with ``floor`` set, the row
    has the same length and its last entry lies in [floor, row[-1]]."""
    def rec(i, acc):
        if i == length:
            yield tuple(acc)
            return
        lo = row[i + 1] if i + 1 < len(row) else floor
        for v in range(lo, row[i] + 1):
            yield from rec(i + 1, acc + [v])
    return rec(0, [])


def _symplectic_patterns(top):
    """Symplectic patterns: a full row of length m is followed by a half row
    of length m bounded below by 0, then a full row of length m-1."""
    @lru_cache(maxsize=None)
    def full(row):
        return sum(half(h) for h in _interlacing(row, len(row), floor=0))

    @lru_cache(maxsize=None)
    def half(row):
        if len(row) == 1:
            return 1
        return sum(full(r) for r in _interlacing(row, len(row) - 1))
    return full(tuple(top))


@pytest.mark.parametrize("lam,k", [((0, 2, 4), 1), ((0, 2, 4), 2),
                                   ((0, 1, 2, 4), 1), ((0, 0, 3), 2),
                                   ((1, 1, 1), 1), ((0, 2, 4, 6), 1)])
def test_gl_dimension_counts_patterns(lam, k):
    top = sorted((k * v for v in lam), reverse=True)
    assert weyl.gl_dimension(lam, k) == _gt_patterns(top)


@pytest.mark.parametrize("lam,k", [((2, 4), 1), ((2, 4), 2), ((2, 2), 1),
                                   ((0, 3), 1), ((1, 2, 3), 1),
                                   ((2, 4, 6), 1)])
def test_sp_dimension_counts_patterns(lam, k):
    top = sorted((k * v for v in lam), reverse=True)
    assert weyl.sp_dimension(lam, k) == _symplectic_patterns(top)


def test_weyl_reference_values():
    assert weyl.gl_dimension((0, 2, 4, 6), 2) == 5 ** 6
    assert weyl.gl_dimension((0, 2, 4)) == 27
    assert weyl.sp_dimension((2, 4)) == 81
    assert weyl.unmarked_count("A", 3) == 6
    assert weyl.unmarked_count("C", 3) == 9


# ---------------------------------------------------------------------------
# checkers reject tampered reports

@lru_cache(maxsize=None)
def _genuine(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(wl.small, 3)
    return wl, inputs, wl.execute(inputs)


def _failed(name, tamper=None):
    wl, inputs, report = _genuine(name)
    report = copy.deepcopy(report)
    if tamper is not None:
        tamper(report)
    return wl.check(report, inputs)[1]


def _criterion(report, number):
    return next(c for c in report["criteria"] if c["criterion"] == number)


def _drop_criterion_14(report):
    report["criteria"] = [c for c in report["criteria"]
                          if c["criterion"] != 14]


def _set(path, value):
    """A tamper that sets report[path[0]][path[1]]... to value."""
    def tamper(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return tamper


def _first_chart(report):
    return next(iter(report["charts"].values()))


TAMPERS = {
    "acceptance-quick": [
        lambda r: _criterion(r, 5).update({"pass": False}),
        lambda r: _criterion(r, 1)["k"]["1"].update({"counts": [28]}),
        lambda r: _criterion(r, 2)["k"]["1"].update({"counts": [80]}),
        lambda r: _criterion(r, 9)["details"]["C"]["dimensions"].__setitem__(
            1, 82),
        _drop_criterion_14,
        _set(["ok"], False),
    ],
    "transfer-a3": [
        lambda r: _first_chart(r).update({"count": _first_chart(r)["count"]
                                          + 1}),
        lambda r: _first_chart(r).update({"image_count": 1}),
        lambda r: _first_chart(r).update({"match": False}),
        lambda r: r["charts"].pop(next(iter(r["charts"]))),
        _set(["ok"], False),
    ],
    "lattice-c3": [
        lambda r: r.update({"charts": r["charts"] - 1}),
        lambda r: r["axiom"][0].update({"ok": False}),
        lambda r: r["axiom"].pop(),
        _set(["strict_dual", "ok"], False),
        lambda r: r["strict_dual"]["charts"].popitem(),
        lambda r: r["upsilon"][0][0].pop(
            r["upsilon"][0][0].index(_order_sum(0))),
        lambda r: r["upsilon"][1][1].pop(),
    ],
    "valuation-c2": [
        _set(["control_equal"], True),
        _set(["valuation", "ok"], False),
        lambda r: r["valuation"].update({"pairs": r["valuation"]["pairs"]
                                         - 1}),
    ],
}


def _order_sum(k):
    _, inputs, _ = _genuine("lattice-c3")
    m1, m2 = inputs["pairs"][k]
    return tuple(a + b for a, b in zip(m1.coord0, m2.coord0))


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_checker_accepts_genuine_report(name):
    assert _failed(name) == 0


@pytest.mark.parametrize("name,index", [
    (name, i) for name in sorted(TAMPERS) for i in range(len(TAMPERS[name]))])
def test_checker_rejects_tampered_report(name, index):
    assert _failed(name, TAMPERS[name][index]) >= 1


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_crashed_workload_fails_every_operation(name):
    wl, inputs, _ = _genuine(name)
    attempted, failed = wl.check({"error": "RuntimeError: boom"}, inputs)
    assert attempted == failed >= 1


# ---------------------------------------------------------------------------
# end to end at reduced size

def _metric_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.NAMES)
def test_end_to_end_reduced(name):
    result = run.run(name, 5, 0, trace=False, small=True)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == _metric_units("end_to_end"))
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_counts_repeat_across_hash_seeds(name, monkeypatch):
    counts = []
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        result = run.run(name, 5, 0, trace=True, small=True)
        assert result["correct"] is True and result["failed"] == 0
        assert ({k: v["unit"] for k, v in result["metrics"].items()}
                == _metric_units("per_layer"))
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(run.COUNTS)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line

def test_benchmark_json_matches_the_code():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracer.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transfer-a3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
