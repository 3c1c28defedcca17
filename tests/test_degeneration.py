from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from polyptych import algebra, degeneration, families, geometry, lattice, mco
from polyptych.posets import ShiftVector, choose_u, gt_type_C


# ---------------------------------------------------------------------------
# the per-target generation check, the oracle of _certify_generation

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


def _generation_gap(poset, tails, u, pieces, k):
    """Degree-k basis monomials missing from the normal form of the product
    of their floor decomposition's degree-1 monomials (expected empty)."""
    deg1 = dict(zip(pieces[1].points, pieces[1].basis))
    shift = u.vector(poset)
    return [b for b, z in zip(pieces[k].basis, pieces[k].points)
            if not degeneration._reachable(tails, deg1, shift, b, z, k)]


def test_hilbert_vs_ehrhart_a2(fam_A2):
    u = choose_u(fam_A2.poset)
    rep = degeneration.hilbert_vs_ehrhart(fam_A2.poset, u, 2)
    assert rep["ok"]
    assert [r["dimension"] for r in rep["rows"]] == [1, 27, 125]
    assert all(not g["gap"] for g in rep["generation"])


def test_hilbert_vs_ehrhart_c2(fam_C2):
    u = choose_u(fam_C2.poset)
    rep = degeneration.hilbert_vs_ehrhart(fam_C2.poset, u, 1)
    assert rep["ok"]
    assert [r["dimension"] for r in rep["rows"]] == [1, 81]


def test_graded_piece_monomials_standard(fam_C2):
    u = choose_u(fam_C2.poset)
    piece = gamma(fam_C2.poset, u, 1)
    assert piece.dimension == 81
    assert all(min(a, b) == 0 for m in piece.basis for _, a, b in m)


def test_semigroup_property_degree_one(fam_A2):
    """Products of degree-1 basis monomials land in degree 2."""
    poset = fam_A2.poset
    u = choose_u(poset)
    tails = algebra.build_relations(poset)
    basis = gamma(poset, u, 1).basis
    target = set(gamma(poset, u, 2).basis)
    for b1 in basis:
        for b2 in basis:
            assert set(algebra.multiply({b1: 1}, {b2: 1}, tails)) <= target


def test_chart_valuation_spec_certificate(fam_A2):
    for chart in [frozenset(), frozenset({"q21"})]:
        spec = degeneration.default_chart_valuation_spec(fam_A2, chart)
        assert abs(spec.certificate["determinant"]) == 1
        assert spec.certificate["in_cone"]
        matrix = [[d.y[fam_A2.axis_index(*ij)]
                   for ij in sorted(fam_A2.positions)] for d in spec.rho]
        assert abs(geometry.det(matrix)) == 1


def test_no_body_sample(fam_A2):
    u = choose_u(fam_A2.poset)
    spec = degeneration.default_chart_valuation_spec(
        fam_A2, frozenset({"q21"}))
    rep = degeneration.no_body_sample(fam_A2, u, spec, 2)
    assert rep["ok"]
    assert rep["levels"][1]["points"] == 27


def test_chart_valuation_additive(fam_C2, rng):
    """The chart valuation, the least rho-value over the valuation's
    generators, adds on products of one-term normal forms."""
    poset = fam_C2.poset
    spec = degeneration.default_chart_valuation_spec(fam_C2, frozenset())
    tails = algebra.build_relations(poset)
    lat = lattice.PolyptychLattice(poset)

    def value(f):
        return min(tuple(lattice.eval_w(fam_C2, d, m.coord0) for d in spec.rho)
                   for m in algebra.valuation(f, lat).gens)

    checked = 0
    for _ in range(10):
        f, g = (algebra.normal_form(
            algebra.random_sparse(rng, poset, terms=1), tails)
            for _ in range(2))
        if len(f) == len(g) == 1:
            assert value(algebra.multiply(f, g, tails)) == tuple(
                a + b for a, b in zip(value(f), value(g)))
            checked += 1
    assert checked


def test_hilbert_vs_ehrhart_enumerates_each_chart_once(fam_A2, monkeypatch):
    # nothing is listed; every chart, chart 0 included, is counted once per k
    poset = fam_A2.poset
    u = choose_u(poset)
    listed, counted = Counter(), Counter()
    enumerate_ = geometry.lattice_points
    count_ = mco.count_charts
    monkeypatch.setattr(geometry, "lattice_points",
                        lambda poly, box: listed.update([poly.dim])
                        or enumerate_(poly, box))
    monkeypatch.setattr(mco, "count_charts",
                        lambda p, u, charts, k: counted.update(
                            (chart, k) for chart in charts)
                        or count_(p, u, charts, k))
    rep = degeneration.hilbert_vs_ehrhart(poset, u, 2)
    assert rep["ok"]
    charts = mco.charts_of(poset)
    assert not listed
    assert set(counted) == {(c, k) for c in charts for k in range(3)}
    assert set(counted.values()) == {1}


def test_small_family_hilbert():
    p = gt_type_C(1, (2,))
    u = choose_u(p)
    rep = degeneration.hilbert_vs_ehrhart(p, u, 3)
    assert rep["ok"]
    assert [r["dimension"] for r in rep["rows"]] == [1, 3, 5, 7]


def _deg1(fam):
    """Degree-1 points of a family keyed to their basis monomials, and u."""
    u = choose_u(fam.poset)
    piece = gamma(fam.poset, u, 1)
    return {algebra.monomial_to_m(fam.poset, b): b for b in piece.basis}, u


@pytest.fixture(scope="module")
def deg1_A2(fam_A2):
    return _deg1(fam_A2)


def _brute_decompositions(points, k):
    """Every multiset of k points, keyed by its sum."""
    by_sum = defaultdict(list)
    for combo in combinations_with_replacement(points, k):
        by_sum[tuple(map(sum, zip(*combo)))].append(combo)
    return by_sum


@pytest.mark.parametrize("k", [2, 3])
def test_decompositions_match_brute_force(fam_A2, fam_C2, k):
    """Every target of the k-dilated polytope gets exactly one floor
    decomposition, sorted and among the brute-force decompositions of its
    sum; a point outside gets none."""
    for fam in (fam_A2, fam_C2):
        deg1, u = _deg1(fam)
        shift = u.vector(fam.poset)
        points = sorted(deg1)
        brute = _brute_decompositions(points, k)
        targets = mco.lattice_points_of_hat_delta(fam.poset, u, frozenset(),
                                                  k)
        assert {tuple(z) for z in targets} == set(brute)
        for z in targets:
            found = degeneration._decompositions(deg1, shift, z, k)
            assert len(found) == 1
            parts = found[0]
            assert list(parts) == sorted(parts)
            assert parts in brute[tuple(z)]
        # (k+1)v lies outside k * hat-delta for a vertex v != 0
        v = points[0]
        outside = tuple((k + 1) * c for c in v)
        hd = mco.hat_delta(fam.poset, u, frozenset())
        assert not hd.dilate(k).contains(outside)
        assert degeneration._decompositions(deg1, shift, outside, k) == []


def test_generation_gap_reports_dropped_vertex(fam_A2, deg1_A2):
    """Without the monomial of a vertex v in degree 1, the degree-2 monomial
    of 2v is unreachable: 2v has no other decomposition."""
    poset = fam_A2.poset
    deg1, u = deg1_A2
    points = sorted(deg1)
    v = points[0]   # lexicographic minimum of a lattice polytope: a vertex
    two_v = tuple(2 * c for c in v)
    assert _brute_decompositions(points, 2)[two_v] == [(v, v)]
    kept = sorted((b, z) for z, b in deg1.items() if z != v)
    pieces = {1: GradedPiece(1, tuple(b for b, _ in kept),
                             tuple(z for _, z in kept)),
              2: gamma(poset, u, 2)}
    tails = algebra.build_relations(poset)
    gap = _generation_gap(poset, tails, u, pieces, 2)
    assert algebra.m_to_monomial(poset, two_v) in gap
    for b in gap:   # only monomials that need v go missing
        z = algebra.monomial_to_m(poset, b)
        assert tuple(c - d for c, d in zip(z, v)) in deg1


def test_generation_gap_needs_the_product_to_reach_the_target(
        fam_A2, deg1_A2, monkeypatch):
    """A target is reached only when the product of its parts' monomials
    contains it: with a product that drops every term, each degree-2
    monomial is a gap, though each still has its decomposition."""
    poset = fam_A2.poset
    _, u = deg1_A2
    pieces = {k: gamma(poset, u, k) for k in (1, 2)}
    tails = algebra.build_relations(poset)
    assert _generation_gap(poset, tails, u, pieces, 2) == []
    monkeypatch.setattr(algebra, "multiply", lambda f, g, tails: {})
    gap = _generation_gap(poset, tails, u, pieces, 2)
    assert gap == list(pieces[2].basis)


@pytest.mark.parametrize("k", [2, 3])
def test_generation_makes_k_minus_1_products_per_target(
        fam_A2, deg1_A2, monkeypatch, k):
    """The product starts at the first part's monomial, which is standard,
    so a degree-k target costs k - 1 calls of multiply."""
    poset = fam_A2.poset
    _, u = deg1_A2
    pieces = {j: gamma(poset, u, j) for j in (1, k)}
    tails = algebra.build_relations(poset)
    calls = Counter()
    multiply = algebra.multiply

    def counting(f, g, tails):
        calls["multiply"] += 1
        return multiply(f, g, tails)

    monkeypatch.setattr(algebra, "multiply", counting)
    assert _generation_gap(poset, tails, u, pieces, k) == []
    assert calls["multiply"] == (k - 1) * pieces[k].dimension


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_generation_gap_empty_at_degree_three(request, name):
    fam = request.getfixturevalue(f"fam_{name}")
    u = choose_u(fam.poset)
    rep = degeneration.hilbert_vs_ehrhart(fam.poset, u, 3)
    assert rep["ok"]
    assert [g["k"] for g in rep["generation"]] == [2, 3]
    assert all(not g["gap"] for g in rep["generation"])


@pytest.mark.parametrize("family, n, lam, kmax", [
    ("A", 2, (0, 2, 4), 3), ("C", 2, (2, 4), 3), ("A", 3, (0, 2, 4, 6), 3)])
def test_generation_certificate_agrees_with_the_per_target_check(
        family, n, lam, kmax):
    """The per-target check finds no gap at any k <= kmax, where the report,
    which lists nothing, has empty generation entries and the listed
    pieces' dimensions."""
    poset = families.GTFamily(family, n, lam).poset
    u = choose_u(poset)
    rep = degeneration.hilbert_vs_ehrhart(poset, u, kmax)
    tails = algebra.build_relations(poset)
    pieces = {1: gamma(poset, u, 1)}
    assert rep["generation"] == [{"k": k, "gap": []}
                                 for k in range(2, kmax + 1)]
    for k in range(2, kmax + 1):
        pieces[k] = gamma(poset, u, k)
        assert _generation_gap(poset, tails, u, pieces, k) == []
        assert rep["rows"][k]["dimension"] == pieces.pop(k).dimension
    assert rep["ok"]


def test_generation_certificate_refuses_a_chain_row(fam_A2, monkeypatch):
    """A chain chart's row, with two -1 coefficients, added to chart 0."""
    poset = fam_A2.poset
    build = mco.build_mco
    row = next((a, b) for chart in mco.charts_of(poset)
               for a, b in build(poset, chart).rows
               if sorted(c for c in a if c) == [-1, -1])

    def with_row(p, chart):
        poly = build(p, chart)
        if chart:
            return poly
        return geometry.HPolyhedron.integral(poly.dim, poly.rows + [row])

    monkeypatch.setattr(mco, "build_mco", with_row)
    with pytest.raises(geometry.UnimodularityFail,
                       match="generation certificate: a chart-0 row"):
        degeneration.hilbert_vs_ehrhart(poset, choose_u(poset), 2)


def test_generation_certificate_refuses_a_fractional_shift(fam_A2):
    poset = fam_A2.poset
    u = choose_u(poset)
    p = poset.axis[0]
    half = ShiftVector({**u.u, p: u.u[p] + Fraction(1, 2)}, u.strict)
    with pytest.raises(geometry.UnimodularityFail,
                       match="generation certificate: an entry of u"):
        degeneration.hilbert_vs_ehrhart(poset, half, 2)
