"""Acceptance suite: the fourteen structural checks, each returning a
JSON-serializable report with a single pass/fail verdict.  All randomness
flows from one seed; reports contain no timestamps so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import random
from functools import cache

from . import (algebra, cox, degeneration, families, geometry, lattice, mco,
               semialgebra)
from .posets import (MarkedPoset, SpadeViolation, basic_pi1, basic_pi2,
                     choose_u, classify_spade, gt_type_A, gt_type_C)

PROFILES = {
    "quick": {
        "c1_kmax": 2, "c2_kmax": 1,
        "c5_nmax": 2, "c5_duals": 20, "c5_pairs": 20,
        "c6_pairs": 100, "c6_chart_samples": 10,
        "c7_pairs": 10,
        "c9_kmax": 2,
        "c10_kmax": 1,
    },
    "full": {
        "c1_kmax": 3, "c2_kmax": 2,
        "c5_nmax": 3, "c5_duals": 200, "c5_pairs": 200,
        "c6_pairs": 500, "c6_chart_samples": 50,
        "c7_pairs": 100,
        "c9_kmax": 3,
        "c10_kmax": 2,
    },
}


# The two families most criteria share, built once per run_once, which
# clears them first so that the two passes of run_suite share no family.
@cache
def _fam_A2():
    return families.GTFamily("A", 2, (0, 2, 4))


@cache
def _fam_C2():
    return families.GTFamily("C", 2, (2, 4))


def _transfer_bijection(number, fam, kmax, expected_k1):
    """Transfer bijection on a triangular family: at each k <= kmax every
    chart has the same lattice-point count, which is expected_k1 at k = 1."""
    u = choose_u(fam.poset)
    ks = {}
    ok = True
    for k in range(1, kmax + 1):
        rep = mco.verify_transfer_bijection(fam.poset, u, k)
        counts = sorted({e["count"] for e in rep["charts"].values()})
        ks[str(k)] = {"ok": rep["ok"], "counts": counts}
        ok = ok and rep["ok"] and len(counts) == 1
    ok = ok and ks["1"]["counts"] == [expected_k1]
    return {"criterion": number,
            "name": f"transfer bijection {fam.family}{fam.n}", "k": ks,
            "expected_k1": expected_k1, "pass": ok}


def criterion_1(rng, cfg):
    return _transfer_bijection(1, _fam_A2(), cfg["c1_kmax"], 27)


def criterion_2(rng, cfg):
    return _transfer_bijection(2, _fam_C2(), cfg["c2_kmax"], 81)


def criterion_3(rng, cfg):
    """The mutations mu_C2 o mu_C1^{-1} satisfy the identity, inverse and
    cocycle axioms on all of Q^d: mu_inverse inverts every mu_C on both
    sides when the full mu plan is triangular (see the transfer-maps
    comment in mco), certified for each poset."""
    posets = {"A1": gt_type_A(1, (0, 2)), "A2": _fam_A2().poset,
              "C1": gt_type_C(1, (2,)), "C2": _fam_C2().poset}
    triangular = {name: mco._triangular(mco._plans(p, frozenset(p.axis))[1])
                  for name, p in posets.items()}
    return {"criterion": 3, "name": "polyptych axioms",
            "triangular": triangular, "pass": all(triangular.values())}


def criterion_4(rng, cfg):
    """mu_C(a) = phi_C(a + u) - phi_C(u) for every chart C and every a,
    certified by mco.linear_at on each family."""
    linear = {fam.family: mco.linear_at(fam.poset, choose_u(fam.poset))
              for fam in (_fam_A2(), _fam_C2())}
    return {"criterion": 4, "name": "mu/transfer compatibility",
            "linear_at_u": linear, "pass": all(linear.values())}


def criterion_5(rng, cfg):
    ok = True
    details = {}
    for n in range(1, cfg["c5_nmax"] + 1):
        fam = _fam_C2() if n == 2 else families.GTFamily(
            "C", n, tuple(2 * i for i in range(1, n + 1)))
        lat = lattice.PolyptychLattice(fam.poset)
        functionals = semialgebra.sample_functionals(fam, rng,
                                                     cfg["c5_duals"])
        pairs = [(lat.element(lattice.randints(rng, -4, 4, lat.dim)),
                  lat.element(lattice.randints(rng, -4, 4, lat.dim)))
                 for _ in range(cfg["c5_pairs"])]
        try:
            lattice.verify_point_axioms(lat, functionals, pairs)
        except lattice.AxiomFail:
            ok = False
        details[str(n)] = {"functionals": len(functionals),
                           "pairs": len(pairs)}
    return {"criterion": 5, "name": "point axioms", "details": details,
            "pass": ok}


def criterion_6(rng, cfg):
    fam = _fam_C2()
    rep = lattice.verify_strict_dual(
        fam, rng, pairs=cfg["c6_pairs"],
        chart_samples=cfg["c6_chart_samples"])
    return {"criterion": 6, "name": "strict dual pairing",
            "symmetry_pairs": rep["symmetry"],
            "injectivity": rep["injectivity"],
            "charts_checked": len(rep["charts"]), "pass": rep["ok"]}


def criterion_7(rng, cfg):
    ok = True
    details = {}
    for fam in (_fam_C2(), _fam_A2()):
        poset = fam.poset
        tails = algebra.build_relations(poset)
        lat = lattice.PolyptychLattice(poset)
        rep = algebra.verify_valuation(fam, rng, samples=cfg["c7_pairs"],
                                       mode="EXACT")
        star_ok = True
        for (i, j), name in sorted(fam.positions.items()):
            nx = algebra.valuation({algebra.x_var(name): 1}, lat)
            ny = algebra.valuation({algebra.y_var(name): 1}, lat)
            lhs = semialgebra.star(nx, ny)
            one_plus_tail = algebra.add(
                {algebra.ONE: 1},
                algebra.tail_element(tails[name]))
            rhs = algebra.valuation(one_plus_tail, lat)
            if not semialgebra.equal_exact(fam, lhs, rhs):
                star_ok = False
        details[fam.family] = {"pairs": rep["pairs"], "star_ok": star_ok}
        ok = ok and rep["ok"] and star_ok
    return {"criterion": 7, "name": "detropicalization", "details": details,
            "pass": ok}


def _basis_certificate(poset):
    """``(injective, hits_radius2)`` for the adapted-basis maps of poset.

    A standard monomial is fixed by its signed exponents c_p = a_p - b_p.
    Both maps are linear in them by construction: ``monomial_to_m`` is the
    signed exponent sum over each basis index set, and ``m_to_monomial``
    reads c_p as a coordinate difference.  So B, whose column p is
    ``monomial_to_m(X_p)``, and B', whose column i is the signed exponents
    of ``m_to_monomial(e_i)``, are the two maps.  det B != 0 makes
    ``monomial_to_m`` injective.  B B' = I in integers makes B unimodular
    with inverse B', a bijection of standard monomials onto Z^d; and then
    each z with |z|_inf <= 2 has the preimage B'z, with
    |c_p| <= 2 sum_i |B'[p][i]| <= 4 when every row of B' has absolute sum
    at most 2: inside the radius-4 box.
    """
    axis = poset.axis
    d = len(axis)
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rows = list(zip(*(algebra.monomial_to_m(poset, algebra.x_var(p))
                      for p in axis)))                       # B, by rows
    cols = []                                                # B', by columns
    for e in units:
        signed = {p: a - b for p, a, b in algebra.m_to_monomial(poset, e)}
        cols.append([signed.get(p, 0) for p in axis])
    inverse = [tuple(geometry.dot(row, col) for row in rows) for col in cols]
    bounded = all(2 * sum(abs(col[p]) for col in cols) <= 4
                  for p in range(d))
    return geometry.det(rows) != 0, inverse == units and bounded


def criterion_8(rng, cfg):
    """The adapted basis identifies the standard monomials with Z^d on C2,
    certified exactly (see ``_basis_certificate``); ``box_size`` counts the
    radius-4 box of signed exponents that the verdict covers."""
    poset = _fam_C2().poset
    injective, hits = _basis_certificate(poset)
    return {"criterion": 8, "name": "adapted basis bijection",
            "box_size": 9 ** len(poset.axis), "injective": injective,
            "hits_radius2": hits, "pass": injective and hits}


def criterion_9(rng, cfg):
    ok = True
    details = {}
    for fam in (_fam_A2(), _fam_C2()):
        u = choose_u(fam.poset)
        rep = degeneration.hilbert_vs_ehrhart(fam.poset, u, cfg["c9_kmax"])
        details[fam.family] = {
            "dimensions": [r["dimension"] for r in rep["rows"]],
            "all_charts_agree": all(r["agree"] for r in rep["rows"]),
            "generation_gaps": sum(len(g["gap"]) for g in rep["generation"]),
        }
        ok = ok and rep["ok"]
    return {"criterion": 9, "name": "Hilbert equals Ehrhart",
            "details": details, "pass": ok}


def criterion_10(rng, cfg):
    fam = _fam_A2()
    u = choose_u(fam.poset)
    charts = mco.charts_of(fam.poset)
    sampled = [charts[rng.randrange(len(charts))] for _ in range(3)]
    ok = True
    details = []
    for chart in sampled:
        spec = degeneration.default_chart_valuation_spec(fam, chart)
        rep = degeneration.no_body_sample(fam, u, spec, cfg["c10_kmax"])
        details.append({"chart": mco.chart_str(chart), "ok": rep["ok"],
                        "levels": rep["levels"]})
        ok = ok and rep["ok"]
    return {"criterion": 10, "name": "value-body desk check",
            "charts": details, "pass": ok}


def criterion_11(rng, cfg):
    ok = True
    counts = {}
    for n in range(1, 5):
        if n == 2:
            pC, pA = _fam_C2().poset, _fam_A2().poset
        else:
            pC = gt_type_C(n, tuple(2 * i for i in range(1, n + 1)))
            pA = gt_type_A(n, tuple(2 * i for i in range(n + 1)))
        cC, cA = cox.cox_counts(pC), cox.cox_counts(pA)
        counts[str(n)] = {"C": cC.variables, "A": cA.variables}
        ok = ok and cC.variables == 2 * n * n
        ok = ok and cA.variables == n * (n + 1)
    famC = _fam_C2()
    certs = 0
    for eps in cox.all_sign_vectors(famC):
        rep = cox.semigroup_generators(famC, eps)
        certs += rep["ok"] and rep["unit_vector_bijection"]
    ok = ok and certs == 4
    elim = {}
    for fam, expect in ((famC, 8), (_fam_A2(), 6)):
        pres = cox.cox_presentation(fam)
        elim[fam.family] = len(pres.free_variables)
        ok = ok and len(pres.free_variables) == expect
    return {"criterion": 11, "name": "Cox counts",
            "variables": counts, "certificates": certs,
            "free_variables": elim, "pass": ok}


def _three_fan_poset():
    elements = ["a", "p1", "p2", "p3", "q", "b"]
    covers = [("a", "p1"), ("a", "p2"), ("a", "p3"),
              ("p1", "q"), ("p2", "q"), ("p3", "q"), ("q", "b")]
    return MarkedPoset(elements, covers, {"a": 0, "b": 3})


def criterion_12(rng, cfg):
    posets = [basic_pi1(2), basic_pi2(2, 2)] + [
        build(n, marking) for n in range(1, 5) for build, marking in (
            (gt_type_A, tuple(range(n + 1))),
            (gt_type_C, tuple(range(1, n + 1))))]
    accepted = 0
    for poset in posets:
        try:
            classify_spade(poset)
            accepted += 1
        except SpadeViolation:
            pass
    try:
        classify_spade(_three_fan_poset())
        rejected = False
    except SpadeViolation:
        rejected = True
    return {"criterion": 12, "name": "zigzag classifier",
            "accepted": accepted, "rejects_three_fan": rejected,
            "pass": accepted == len(posets) and rejected}


def criterion_13(rng, cfg):
    """The Jacobian has full rank n on C2's variety: on the torus part by
    the certificate algebra.torus_triangular, and at degenerate_point_gt,
    the stratum point where one X_p Y_p pair vanishes.  That point is
    solved in rank order, which needs the certificate's tails too."""
    fam = _fam_C2()
    torus = algebra.torus_triangular(fam.poset)
    points = [algebra.degenerate_point_gt(fam)] if torus else []
    rank = algebra.jacobian_rank_at(fam.poset, points)
    return {"criterion": 13, "name": "Jacobian rank",
            "torus_triangular": torus, "stratum_points": len(points),
            "rank": rank, "pass": torus}


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13]


def run_once(profile, seed):
    cfg = PROFILES[profile]
    rng = random.Random(seed)
    _fam_A2.cache_clear()
    _fam_C2.cache_clear()
    out = []
    for fn in CRITERIA:
        try:
            out.append(fn(rng, cfg))
        except Exception as exc:  # honest failure with witness
            out.append({"criterion": len(out) + 1,
                        "name": fn.__name__, "pass": False,
                        "error": f"{type(exc).__name__}: {exc}"})
    return out


def run_suite(profile="quick", seed=0):
    """Criteria 1-13 plus the determinism criterion: a second, fresh run
    must serialize to identical bytes."""
    first = run_once(profile, seed)
    blob1 = json.dumps(first, sort_keys=True).encode()
    blob2 = json.dumps(run_once(profile, seed), sort_keys=True).encode()
    deterministic = blob1 == blob2
    criteria = first + [{"criterion": 14, "name": "determinism",
                         "bytes": len(blob1), "pass": deterministic}]
    return {"profile": profile, "seed": seed, "criteria": criteria,
            "ok": all(c["pass"] for c in criteria)}
