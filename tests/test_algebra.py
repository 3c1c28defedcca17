from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyptych import algebra, cox, lattice, semialgebra
from polyptych.posets import gt_type_C


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


def test_jacobian_rank(fam_C2, rng):
    extra = [algebra.degenerate_point_gt(fam_C2)]
    rep = algebra.jacobian_rank_at_samples(fam_C2.poset, rng, count=8,
                                           extra_points=extra)
    assert rep["ok"]


def test_jacobian_rank_rejects_a_supplied_point_off_the_variety(fam_C2, rng):
    xv, yv = algebra.degenerate_point_gt(fam_C2)
    yv = dict(yv, q21=Fraction(1))
    with pytest.raises(algebra.RankFail, match="not on the variety") as exc:
        algebra.jacobian_rank_at_samples(fam_C2.poset, rng, count=2,
                                         extra_points=[(xv, yv)])
    assert str(xv) in str(exc.value)


def test_degenerate_point_solves_relations(fam_C2):
    tails = tails_of(fam_C2)
    xv, yv = algebra.degenerate_point_gt(fam_C2)
    vals = algebra.evaluate_relations(fam_C2.poset, tails, xv, yv)
    assert all(v == 0 for v in vals)
    assert xv["q21"] == 0 and yv["q21"] == 0
