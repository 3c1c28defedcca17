"""Graded pieces of the polytope-filtered algebra, Hilbert-versus-Ehrhart
comparisons with the degree-one generation check, chart-valuation bases
from the dual-cone generators, and desk-scale value-body samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import algebra, geometry, lattice, mco, semialgebra
from .geometry import UnimodularityFail


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
        prod = {deg1[parts[0]]: 1}  # degree-1 monomials are standard
        for zi in parts[1:]:
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


def no_body_sample(fam, u, spec, kmax):
    """Per degree k <= kmax: the rho-values of gamma's basis against the
    chart polytope's lattice points under the rho identification.  A basis
    monomial is read at its chart-0 point, so no basis is built."""
    covs = semialgebra.chart_covectors(fam, spec.chart, spec.rho)
    report = {"chart": mco.chart_str(spec.chart), "levels": [], "ok": True}
    for k in range(kmax + 1):
        values = {tuple(lattice.eval_w(fam, d, z) for d in spec.rho)
                  for z in mco.lattice_points_of_hat_delta(
                      fam.poset, u, frozenset(), k)}
        images = {tuple(sum(c * z for c, z in zip(cov, p)) for cov in covs)
                  for p in mco.lattice_points_of_hat_delta(
                      fam.poset, u, spec.chart, k)}
        ok = values == images
        report["levels"].append({"k": k, "values": len(values),
                                 "points": len(images), "match": ok})
        report["ok"] = report["ok"] and ok
    return report
