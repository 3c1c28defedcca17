"""The four benchmark workloads.

Each workload has three steps:

* ``setup(params, seed)`` builds the inputs (family, poset, shift vector,
  lattice and the seeded samples).  It is timed as set-up.
* ``execute(inputs)`` makes the calls into polyptych and returns their raw
  outputs as a report.  It is timed as the workload.
* ``check(report, inputs)`` compares the report with computations made apart
  from the program (``weyl``, plain tuple arithmetic) and returns
  ``(attempted, failed)``.  A wrong or missing output is a failed operation.
  The number attempted depends only on the parameters, never on the report.

``full`` holds the parameters the benchmark measures; ``small`` holds a
reduced size of the same workload for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from polyptych import acceptance, algebra, families, lattice, mco, semialgebra
from polyptych.posets import choose_u

import weyl


@dataclass(frozen=True)
class Workload:
    setup: object
    execute: object
    check: object
    full: dict
    small: dict


def _family(params):
    return families.GTFamily(params["family"], params["n"],
                             tuple(params["lam"]))


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# acceptance-quick: acceptance.run_suite, both passes

ACCEPTANCE_A = (0, 2, 4)   # the type A family of criteria 1 and 9
ACCEPTANCE_C = (2, 4)      # the type C family of criteria 2 and 9
ACCEPTANCE_CRITERIA = 14


def acceptance_setup(params, seed):
    profile = params["profile"]
    if params.get("overrides"):
        # a reduced copy of the profile, registered under its own name
        base = acceptance.PROFILES[profile]
        profile = f"{profile}-reduced"
        acceptance.PROFILES[profile] = dict(base, **params["overrides"])
    return {"profile": profile, "seed": seed,
            "cfg": dict(acceptance.PROFILES[profile])}


def acceptance_execute(inputs):
    return acceptance.run_suite(inputs["profile"], inputs["seed"])


def _counts_agree(criterion, cfg):
    """Chart counts and graded dimensions of criteria 1, 2 and 9 against
    the Weyl dimension."""
    number = criterion["criterion"]
    if number == 1:
        return all(criterion["k"][str(k)]["counts"]
                   == [weyl.gl_dimension(ACCEPTANCE_A, k)]
                   for k in range(1, cfg["c1_kmax"] + 1))
    if number == 2:
        return all(criterion["k"][str(k)]["counts"]
                   == [weyl.sp_dimension(ACCEPTANCE_C, k)]
                   for k in range(1, cfg["c2_kmax"] + 1))
    if number == 9:
        ks = range(cfg["c9_kmax"] + 1)
        return (criterion["details"]["A"]["dimensions"]
                == [weyl.gl_dimension(ACCEPTANCE_A, k) for k in ks]
                and criterion["details"]["C"]["dimensions"]
                == [weyl.sp_dimension(ACCEPTANCE_C, k) for k in ks])
    return True


def acceptance_check(report, inputs):
    attempted = ACCEPTANCE_CRITERIA
    if "error" in report:
        return attempted, attempted
    by_number = {c.get("criterion"): c for c in report["criteria"]}
    failed = 0
    for number in range(1, ACCEPTANCE_CRITERIA + 1):
        criterion = by_number.get(number)
        try:
            good = (criterion is not None and criterion["pass"] is True
                    and _counts_agree(criterion, inputs["cfg"]))
        except (KeyError, TypeError):
            good = False
        failed += not good
    if report.get("ok") is not True and failed == 0:
        failed = 1  # the verdict disagrees with its own criteria
    return attempted, failed


# ---------------------------------------------------------------------------
# transfer-a3: mco.verify_transfer_bijection

def transfer_setup(params, seed):
    fam = _family(params)
    u = choose_u(fam.poset)
    return {"params": params, "poset": fam.poset, "u": u}


def transfer_execute(inputs):
    return mco.verify_transfer_bijection(inputs["poset"], inputs["u"],
                                         inputs["params"]["k"])


def transfer_check(report, inputs):
    """One operation per chart: its count and its mu-image count must both
    equal the Weyl dimension, and the image must match."""
    p = inputs["params"]
    attempted = 2 ** weyl.unmarked_count(p["family"], p["n"])
    if "error" in report or len(report["charts"]) != attempted:
        return attempted, attempted
    expect = weyl.dimension(p["family"], p["lam"], p["k"])
    failed = sum(1 for e in report["charts"].values()
                 if not (e["match"] is True and e["count"] == expect
                         and e["image_count"] == expect))
    if report["ok"] is not True and failed == 0:
        failed = 1
    return attempted, failed


# ---------------------------------------------------------------------------
# lattice-c3: lattice.verify_point_axiom and lattice.verify_strict_dual

def lattice_setup(params, seed):
    rng = random.Random(seed)
    fam = _family(params)
    lat = lattice.PolyptychLattice(fam.poset)
    functionals = list(lattice.structural_points(fam.poset))
    functionals += [lattice.dual_point(fam, lattice.random_dual(fam, rng))
                    for _ in range(params["duals"])]

    def element():
        return lat.element(tuple(rng.randint(-4, 4) for _ in lat.axis))

    pairs = [(element(), element()) for _ in range(params["pairs"])]
    return {"params": params, "fam": fam, "lat": lat,
            "functionals": functionals, "pairs": pairs,
            "dual_rng": random.Random(rng.randrange(2 ** 32))}


def lattice_execute(inputs):
    lat, pairs, p = inputs["lat"], inputs["pairs"], inputs["params"]
    axiom = []
    for phi in inputs["functionals"]:
        try:
            axiom.append(lattice.verify_point_axiom(lat, phi, pairs))
        except lattice.AxiomFail as exc:
            axiom.append({"ok": False, "error": _error(exc)})
    try:
        dual = lattice.verify_strict_dual(
            inputs["fam"], inputs["dual_rng"], pairs=p["dual_pairs"],
            chart_samples=p["chart_samples"])
    except lattice.DualFail as exc:
        dual = {"ok": False, "error": _error(exc)}
    ups = [([s.coord0 for s in lat.upsilon(m1, m2)],
            [s.coord0 for s in lat.upsilon(m2, m1)]) for m1, m2 in pairs]
    return {"charts": len(lat.charts()), "axiom": axiom,
            "strict_dual": dual, "upsilon": ups}


def lattice_check(report, inputs):
    """Operations: the chart count, one point-axiom check per functional,
    the strict dual, and one upsilon check per pair."""
    p, pairs = inputs["params"], inputs["pairs"]
    n_func = len(inputs["functionals"])
    attempted = 1 + n_func + 1 + len(pairs)
    if "error" in report:
        return attempted, attempted
    charts = 2 ** weyl.unmarked_count(p["family"], p["n"])
    failed = report["charts"] != charts
    axiom = report["axiom"]
    failed += n_func - sum(1 for a in axiom[:n_func]
                           if a.get("ok") is True
                           and a.get("pairs") == len(pairs))
    dual = report["strict_dual"]
    failed += not (dual.get("ok") is True
                   and dual.get("symmetry") == p["dual_pairs"]
                   and dual.get("injectivity") is True
                   and len(dual.get("charts", ())) == charts)
    ups = report["upsilon"]
    for k, (m1, m2) in enumerate(pairs):
        if k >= len(ups):
            failed += 1
            continue
        forward, backward = ups[k]
        order_sum = tuple(a + b for a, b in zip(m1.coord0, m2.coord0))
        failed += not (order_sum in {tuple(s) for s in forward}
                       and sorted(map(tuple, forward))
                       == sorted(map(tuple, backward)))
    return attempted, failed


# ---------------------------------------------------------------------------
# valuation-c2: algebra.verify_valuation in EXACT mode, plus a control

def valuation_setup(params, seed):
    rng = random.Random(seed)
    fam = _family(params)
    lat = lattice.PolyptychLattice(fam.poset)
    point = tuple(rng.randint(-4, 4) for _ in lat.axis)
    axis = rng.randrange(len(lat.axis))
    moved = tuple(c + (i == axis) for i, c in enumerate(point))
    return {"params": params, "fam": fam,
            "control": (semialgebra.SemialgebraElement(lat, [lat.element(point)]),
                        semialgebra.SemialgebraElement(lat, [lat.element(moved)])),
            "rng": random.Random(rng.randrange(2 ** 32))}


def valuation_execute(inputs):
    fam = inputs["fam"]
    try:
        rep = algebra.verify_valuation(fam, inputs["rng"],
                                       samples=inputs["params"]["samples"],
                                       mode="EXACT")
    except algebra.ValuationFail as exc:
        rep = {"ok": False, "error": _error(exc)}
    return {"valuation": rep,
            "control_equal": semialgebra.equal_exact(fam, *inputs["control"])}


def valuation_check(report, inputs):
    """Operations: the valuation check over all its samples, and the
    control, whose two elements differ by a unit vector."""
    attempted = 2
    if "error" in report:
        return attempted, attempted
    rep = report["valuation"]
    failed = not (rep.get("ok") is True
                  and rep.get("pairs") == inputs["params"]["samples"])
    failed += report["control_equal"] is not False
    return attempted, failed


WORKLOADS = {
    "acceptance-quick": Workload(
        acceptance_setup, acceptance_execute, acceptance_check,
        full={"profile": "quick"},
        small={"profile": "quick", "overrides": {
            "c1_kmax": 1, "c3_pairs": 2, "c4_samples": 5, "c5_nmax": 1,
            "c5_duals": 2, "c5_pairs": 2, "c6_pairs": 5,
            "c6_chart_samples": 2, "c7_pairs": 1,
            "c13_points": 2}}),
    "transfer-a3": Workload(
        transfer_setup, transfer_execute, transfer_check,
        full={"family": "A", "n": 3, "lam": [0, 2, 4, 6], "k": 2},
        small={"family": "A", "n": 2, "lam": [0, 2, 4], "k": 1}),
    "lattice-c3": Workload(
        lattice_setup, lattice_execute, lattice_check,
        full={"family": "C", "n": 3, "lam": [2, 4, 6], "duals": 8,
              "pairs": 10, "dual_pairs": 50, "chart_samples": 4},
        small={"family": "C", "n": 2, "lam": [2, 4], "duals": 2,
               "pairs": 3, "dual_pairs": 5, "chart_samples": 2}),
    "valuation-c2": Workload(
        valuation_setup, valuation_execute, valuation_check,
        full={"family": "C", "n": 2, "lam": [2, 4], "samples": 20},
        small={"family": "C", "n": 2, "lam": [2, 4], "samples": 2}),
}
