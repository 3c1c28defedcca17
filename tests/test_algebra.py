import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyptych import acceptance, algebra, cox, lattice, semialgebra
from polyptych.posets import (basic_pi1, basic_pi2, chain_poset,
                              graded_structure, gt_type_A, gt_type_C)


def tails_of(fam):
    return algebra.build_relations(fam.poset)


def test_relations_c2(fam_C2):
    assert tails_of(fam_C2) == {
        "q11": ("Y", "q21"), "q12": None,
        "q21": ("Y", "q31"), "q31": None}


def test_relations_a2(fam_A2):
    assert tails_of(fam_A2) == {
        "q12": None, "q21": ("Y", "q31"), "q31": None}


def test_relations_c3_has_product_tail():
    p = gt_type_C(3, (2, 4, 6))
    tails = algebra.build_relations(p)
    assert any(t and t[0] == "XY" for t in tails.values())


def test_normal_form_oracle_c2(fam_C2):
    tails = tails_of(fam_C2)
    f = {algebra.mono({"q11": (1, 1), "q21": (1, 1)}): Fraction(1)}
    nf = algebra.normal_form(f, tails)
    expect = {
        algebra.ONE: Fraction(1),
        algebra.mono({"q21": (0, 1)}): Fraction(1),
        algebra.mono({"q31": (0, 1)}): Fraction(1),
        algebra.mono({"q21": (0, 1), "q31": (0, 1)}): Fraction(1)}
    assert nf == expect


def test_normal_form_terminates_and_standard(fam_C2, rng):
    tails = tails_of(fam_C2)
    for _ in range(20):
        f = algebra.random_sparse(rng, fam_C2.poset, terms=3)
        nf = algebra.normal_form(f, tails)
        for m in nf:
            assert all(min(a, b) == 0 for _, a, b in m)


def test_normal_form_coefficients_are_python_ints(fam_A2, fam_C2, rng):
    # the inputs verify_valuation draws, and their products
    for fam in (fam_A2, fam_C2):
        tails = tails_of(fam)
        for _ in range(10):
            f, g = (algebra.normal_form(
                algebra.random_sparse(rng, fam.poset), tails)
                for _ in range(2))
            fg = algebra.multiply(f, g, tails)
            assert all(type(c) is int
                       for h in (f, g, fg) for c in h.values())


def test_multiply_associative(fam_C2, rng):
    tails = tails_of(fam_C2)
    for _ in range(10):
        f, g, h = (algebra.normal_form(
            algebra.random_sparse(rng, fam_C2.poset), tails)
            for _ in range(3))
        lhs = algebra.multiply(algebra.multiply(f, g, tails), h, tails)
        rhs = algebra.multiply(f, algebra.multiply(g, h, tails), tails)
        assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_adapted_basis_roundtrip(vec):
    p = gt_type_C(2, (2, 4))
    m = algebra.m_to_monomial(p, tuple(vec))
    assert all(min(a, b) == 0 for _, a, b in m)
    assert algebra.monomial_to_m(p, m) == tuple(vec)


def test_valuation_multiplicative_exact(fam_C2, rng):
    rep = algebra.verify_valuation(fam_C2, rng, samples=15, mode="EXACT")
    assert rep["ok"]


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_valuation_multiplicative_sampled(request, rng, name):
    # the structural points are among the functionals: the order of a
    # product along each boundary divisor is the sum of the factors' orders
    fam = request.getfixturevalue(f"fam_{name}")
    rep = algebra.verify_valuation(fam, rng, samples=15, mode="SAMPLED")
    assert rep["ok"] and rep["pairs"] > 0


def test_sampled_valuation_sees_a_lost_monomial(fam_C2, rng, monkeypatch):
    multiply = algebra.multiply

    def lossy(f, g, tails):
        prod = multiply(f, g, tails)
        del prod[min(prod)]
        return prod

    monkeypatch.setattr(algebra, "multiply", lossy)
    with pytest.raises(algebra.ValuationFail):
        algebra.verify_valuation(fam_C2, rng, samples=15, mode="SAMPLED")


def test_valuation_star_identity(fam_C2):
    tails = tails_of(fam_C2)
    lat = lattice.PolyptychLattice(fam_C2.poset)
    for p, tail in tails.items():
        nx = algebra.valuation({algebra.x_var(p): Fraction(1)}, lat)
        ny = algebra.valuation({algebra.y_var(p): Fraction(1)}, lat)
        rhs = algebra.valuation(
            algebra.add({algebra.ONE: Fraction(1)},
                        algebra.tail_element(tail)), lat)
        assert semialgebra.equal_exact(fam_C2, semialgebra.star(nx, ny), rhs)


def test_unit_report(fam_C2):
    tails = tails_of(fam_C2)
    units = sorted(p for p in fam_C2.axis if tails[p] is None)
    assert units == ["q12", "q31"]
    assert len(units) == cox.cox_counts(fam_C2.poset).U


# ---------------------------------------------------------------------------
# criterion 13: the torus certificate against sampled variety points

def solve_variety_point(poset, tails, xvals):
    """Given nonzero X values, the unique Y values on the variety,
    solved from the top rank downwards."""
    rank = graded_structure(poset).rank
    y = {}
    for p in sorted(poset.axis, key=lambda p: -rank[p]):
        y[p] = (1 + algebra._tail_value(tails, xvals, y, p)) / xvals[p]
    return y


def torus_points(poset, rng, count):
    """The oracle's points: count variety points whose X values are seeded
    nonzero rationals, with numerators up to 9 and denominators up to 4."""
    tails = algebra.build_relations(poset)
    points = []
    for _ in range(count):
        xvals = {p: Fraction(rng.randint(1, 9) * rng.choice([-1, 1]),
                             rng.randint(1, 4)) for p in poset.axis}
        points.append((xvals, solve_variety_point(poset, tails, xvals)))
    return points


def test_jacobian_rank(fam_C2, rng):
    points = torus_points(fam_C2.poset, rng, 8)
    points.append(algebra.degenerate_point_gt(fam_C2))
    assert algebra.jacobian_rank_at(fam_C2.poset, points) == 4


def test_jacobian_rank_rejects_a_supplied_point_off_the_variety(fam_C2, rng):
    xv, yv = algebra.degenerate_point_gt(fam_C2)
    yv = dict(yv, q21=Fraction(1))
    points = torus_points(fam_C2.poset, rng, 2) + [(xv, yv)]
    with pytest.raises(algebra.RankFail, match="not on the variety") as exc:
        algebra.jacobian_rank_at(fam_C2.poset, points)
    assert str(xv) in str(exc.value)


TORUS_POSETS = {
    **{f"A{n}": gt_type_A(n, tuple(range(0, 2 * n + 1, 2)))
       for n in range(1, 7)},
    **{f"C{n}": gt_type_C(n, tuple(range(2, 2 * n + 1, 2)))
       for n in range(1, 7)},
    "pi1(1)": basic_pi1(1), "pi1(3)": basic_pi1(3),
    "pi2(2,2)": basic_pi2(2, 2), "pi2(3,1)": basic_pi2(3, 1),
    "chain(3,0,4)": chain_poset(3, 0, 4)}


@pytest.mark.parametrize("name", sorted(TORUS_POSETS))
def test_torus_certificate_holds(name):
    assert algebra.torus_triangular(TORUS_POSETS[name])


@pytest.mark.parametrize("name", ["A2", "C2", "A3", "C3"])
def test_oracle_finds_full_rank_on_the_torus(name):
    poset = TORUS_POSETS[name]
    points = torus_points(poset, random.Random(0), 20)
    assert algebra.jacobian_rank_at(poset, points) == len(poset.axis)


def test_same_rank_tail_fails_the_certificate_and_criterion_13(
        fam_C2, monkeypatch):
    """q11's tail pointed at Y_q11 itself: the Y block is no longer
    triangular in rank order."""
    build = algebra.build_relations
    monkeypatch.setattr(algebra, "build_relations", lambda poset: dict(
        build(poset), q11=("Y", "q11")))
    assert algebra.torus_triangular(fam_C2.poset) is False
    report = acceptance.criterion_13(random.Random(0),
                                     acceptance.PROFILES["quick"])
    assert report["torus_triangular"] is False
    assert report["pass"] is False


def test_zeroed_x_block_is_refused_only_at_the_stratum_point(
        fam_C2, rng, monkeypatch):
    """With the Jacobian's X block zeroed, the Y block still has full rank
    wherever every X_p is nonzero: the certificate and 50 torus points
    pass.  Only the stratum point, where X_q21 = Y_q21 = 0, sees the rank
    drop; this is why criterion 13 keeps that point, and it refuses the
    zeroed block there."""
    matrix = algebra.jacobian_matrix
    n = len(fam_C2.axis)
    monkeypatch.setattr(algebra, "jacobian_matrix", lambda *args: [
        [0] * n + row[n:] for row in matrix(*args)])
    assert algebra.torus_triangular(fam_C2.poset)
    points = torus_points(fam_C2.poset, rng, 50)
    assert algebra.jacobian_rank_at(fam_C2.poset, points) == n
    with pytest.raises(algebra.RankFail, match="rank drop"):
        algebra.jacobian_rank_at(fam_C2.poset,
                                 [algebra.degenerate_point_gt(fam_C2)])
    with pytest.raises(algebra.RankFail, match="rank drop"):
        acceptance.criterion_13(random.Random(0),
                                acceptance.PROFILES["quick"])


def test_degenerate_point_solves_relations(fam_C2):
    tails = tails_of(fam_C2)
    xv, yv = algebra.degenerate_point_gt(fam_C2)
    vals = algebra.evaluate_relations(fam_C2.poset, tails, xv, yv)
    assert all(v == 0 for v in vals)
    assert xv["q21"] == 0 and yv["q21"] == 0
