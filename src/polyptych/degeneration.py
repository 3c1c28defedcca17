"""Graded pieces of the polytope-filtered algebra, Hilbert-versus-Ehrhart
comparisons, chart valuations from dual-cone bases, desk-scale value-body
samples, and divisor-order additivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import algebra, geometry, lattice, mco, semialgebra
from .geometry import UnimodularityFail


class OrdFail(Exception):
    pass


@dataclass(frozen=True)
class GradedPiece:
    degree: int
    basis: tuple  # standard monomial keys, sorted
    points: tuple  # the chart-0 point of each basis monomial, in basis order

    @property
    def dimension(self):
        return len(self.basis)


def gamma(poset, u, k):
    """Degree-k graded piece: the standard monomials whose lattice element
    lies in the k-dilated centered polytope.  Membership is decided in
    chart 0, where the adapted-basis bijection identifies standard
    monomials with integer vectors; the piece keeps each monomial's point,
    so that no caller maps the monomial back."""
    points = mco.lattice_points_of_hat_delta(poset, u, frozenset(), k)
    basis = [algebra.m_to_monomial(poset, z) for z in points]
    order = sorted(range(len(basis)), key=basis.__getitem__)
    return GradedPiece(k, tuple(map(basis.__getitem__, order)),
                       tuple(map(points.__getitem__, order)))


def hilbert_vs_ehrhart(poset, u, kmax):
    """Per degree k <= kmax: the graded dimension against the lattice-point
    count of every chart polytope; plus the degree-1 generation shadow at
    every k from 2 to kmax."""
    tails = algebra.build_relations(poset)
    report = {"kmax": kmax, "rows": [], "ok": True, "generation": []}
    pieces = {}
    charts = mco.charts_of(poset)[1:]  # chart 0's points are gamma's basis
    for k in range(kmax + 1):
        piece = pieces[k] = gamma(poset, u, k)
        counts = {"": piece.dimension}
        for chart, count in zip(charts, mco.count_charts(poset, u, charts, k)):
            counts[mco.chart_str(chart)] = count
        agree = all(c == piece.dimension for c in counts.values())
        report["rows"].append({"k": k, "dimension": piece.dimension,
                               "chart_counts": counts, "agree": agree})
        report["ok"] = report["ok"] and agree
        if k >= 2:  # a piece above degree 1 is needed only for its own k
            gap = _generation_gap(poset, tails, u, pieces, k)
            del pieces[k]
            report["generation"].append({"k": k,
                                         "gap": [str(g) for g in gap]})
            report["ok"] = report["ok"] and not gap
    return report


def _generation_gap(poset, tails, u, pieces, k):
    """Degree-k basis monomials missing from the normal form of the product
    of their floor decomposition's degree-1 monomials (expected empty)."""
    deg1 = dict(zip(pieces[1].points, pieces[1].basis))
    shift = u.vector(poset)
    return [b for b, z in zip(pieces[k].basis, pieces[k].points)
            if not _reachable(tails, deg1, shift, b, z, k)]


def _reachable(tails, deg1, shift, target, z, k):
    for parts in _decompositions(deg1, shift, z, k):
        prod = {algebra.ONE: 1}
        for zi in parts:
            prod = algebra.multiply(prod, {deg1[zi]: 1}, tails)
        if target in prod:
            return True
    return False


def _decompositions(deg1, shift, z, k):
    """The floor decomposition of z into k degree-1 points, as a one-element
    list, or [] when some part is not a key of ``deg1``.

    With x = z + k * shift, part j < k is floor((x + j) / k) - shift.  The
    parts sum to z by Hermite's identity and grow with j, so come sorted.
    Every target is decomposed: each chart-0 row is alcoved, x_b - x_a >= c
    or +-x_p >= c with an integer c, and u is integral, so floor carries x's
    rows at kc to each part's rows at c (Lam and Postnikov, "Alcoved
    polytopes I", Discrete Comput. Geom. 38, 2007).  Each adapted-basis
    exponent is such a difference or one coordinate, so across the parts it
    takes two consecutive values, never both strict signs: the parts'
    standard monomials multiply to the target's without rewriting.
    """
    parts = tuple(tuple((zi + k * s + j) // k - s for zi, s in zip(z, shift))
                  for j in range(k))
    return [parts] if all(p in deg1 for p in parts) else []


def verify_semigroup_property(poset, u, k1, k2):
    """Products of basis elements of degrees k1, k2 land in degree k1+k2."""
    tails = algebra.build_relations(poset)
    p1 = gamma(poset, u, k1)
    p2 = gamma(poset, u, k2)
    target = set(gamma(poset, u, k1 + k2).basis)
    for b1 in p1.basis:
        for b2 in p2.basis:
            prod = algebra.multiply({b1: 1}, {b2: 1}, tails)
            if not set(prod) <= target:
                return {"ok": False, "witness": (b1, b2)}
    return {"ok": True, "pairs": p1.dimension * p2.dimension}


# ---------------------------------------------------------------------------
# chart valuations

@dataclass(frozen=True)
class ChartValuationSpec:
    chart: frozenset
    rho: tuple          # ordered DualElements, a unimodular basis in the cone
    certificate: dict   # determinant and membership record


def default_chart_valuation_spec(fam, chart):
    """Ordered basis from the dual-cone generators, completed greedily to
    the first unimodular subset (in generator order)."""
    chart = frozenset(chart)
    duals = lattice.chart_cone_duals(fam, chart)
    dim = len(fam.axis)
    signs = lattice.chart_sign_vector(fam, chart)
    for combo in combinations(range(len(duals)), dim):
        determinant = geometry.det([duals[i].y for i in combo])
        if abs(determinant) == 1:
            chosen = [duals[i] for i in combo]
            if not all(lattice.dual_in_cone(fam, d, signs) for d in chosen):
                continue
            cert = {"determinant": determinant,
                    "generator_indices": list(combo),
                    "in_cone": True}
            return ChartValuationSpec(chart, tuple(chosen), cert)
    raise UnimodularityFail(
        f"no unimodular generator subset for chart {mco.chart_str(chart)}")


def rho_value(fam, spec, m):
    """The rho-coordinate vector of a lattice element."""
    return tuple(lattice.eval_w(fam, d, m.coord0) for d in spec.rho)


def chart_valuation(fam, spec, f, k):
    """v(f t^k): lexicographic minimum of the rho-values over the valuation
    generators of f, paired with the degree."""
    nu = algebra.valuation(f, lattice.PolyptychLattice(fam.poset))
    if nu is semialgebra.INFINITY:
        return None
    return (min(rho_value(fam, spec, m) for m in nu.gens), k)


def no_body_sample(fam, u, spec, kmax):
    """Degree-normalized value sets against the chart polytope's lattice
    points under the rho identification, per degree k <= kmax."""
    lat = lattice.PolyptychLattice(fam.poset)
    covs = semialgebra.chart_covectors(fam, spec.chart, spec.rho)
    report = {"chart": mco.chart_str(spec.chart), "levels": [], "ok": True}
    for k in range(kmax + 1):
        piece = gamma(fam.poset, u, k)
        values = {rho_value(fam, spec, lat.element(z)) for z in piece.points}
        points = mco.lattice_points_of_hat_delta(fam.poset, u, spec.chart, k)
        images = {tuple(sum(c * z for c, z in zip(cov, p)) for cov in covs)
                  for p in points}
        ok = values == images
        report["levels"].append({"k": k, "values": len(values),
                                 "points": len(images), "match": ok})
        report["ok"] = report["ok"] and ok
    return report


def verify_chart_valuation_additive(fam, spec, rng, samples=50):
    """v(fg) = v(f) + v(g) on sampled pairs whose valuations have one-term
    hulls; larger hulls are recorded as superadditive observations."""
    tails = algebra.build_relations(fam.poset)
    report = {"additive_pairs": 0, "observed_pairs": 0, "ok": True}
    for idx in range(samples):
        terms = 1 if idx % 2 == 0 else 2
        f = algebra.normal_form(
            algebra.random_sparse(rng, fam.poset, terms=terms), tails)
        g = algebra.normal_form(
            algebra.random_sparse(rng, fam.poset, terms=terms), tails)
        if not f or not g:
            continue
        vf = chart_valuation(fam, spec, f, 1)
        vg = chart_valuation(fam, spec, g, 1)
        vfg = chart_valuation(fam, spec, algebra.multiply(f, g, tails), 2)
        one_term = len(f) == 1 and len(g) == 1
        expected = tuple(a + b for a, b in zip(vf[0], vg[0]))
        if one_term:
            if vfg[0] != expected:
                raise OrdFail(f"valuation not additive on {f}, {g}")
            report["additive_pairs"] += 1
        else:
            report["observed_pairs"] += 1
    return report


# ---------------------------------------------------------------------------
# divisor orders

def ord_along(phi, nu):
    """ord(f) for the divisor functional phi: min over the valuation hull."""
    return min(phi(m) for m in nu.gens)


def ord_divisor_check(fam, rng, samples=100):
    """Additivity ord(fg) = ord(f) + ord(g) for every structural-point
    functional, on seeded normal-form pairs."""
    tails = algebra.build_relations(fam.poset)
    lat = lattice.PolyptychLattice(fam.poset)
    points = lattice.structural_points(fam.poset)
    checked = 0
    for _ in range(samples):
        f = algebra.normal_form(algebra.random_sparse(rng, fam.poset), tails)
        g = algebra.normal_form(algebra.random_sparse(rng, fam.poset), tails)
        if not f or not g:
            continue
        nf = algebra.valuation(f, lat)
        ng = algebra.valuation(g, lat)
        nfg = algebra.valuation(algebra.multiply(f, g, tails), lat)
        for phi in points:
            if ord_along(phi, nfg) != ord_along(phi, nf) + ord_along(phi, ng):
                raise OrdFail(
                    f"ord not additive at {phi.label()} on {f}, {g}")
        checked += 1
    return {"pairs": checked, "functionals": len(points), "ok": True}
