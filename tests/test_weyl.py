"""Lattice-point counts against the Weyl dimension formula.

The integer points of k times the chart-0 polytope of a triangular family
are the Gelfand-Tsetlin patterns (type A) or symplectic patterns (type C)
with top row k*lam, so their number is the dimension of the GL_{n+1} or
Sp_{2n} representation with highest weight k*lam.  The formula below is a
closed form that shares no code with the enumeration.
"""

from fractions import Fraction
from math import prod

import pytest

from polyptych import acceptance, degeneration, families, mco
from polyptych.posets import choose_u


def weyl_dimension(family, lam, k=1):
    """dim V(k*lam) for GL_{n+1} (family "A") or Sp_{2n} (family "C"):
    the product over positive roots a of <k*lam + rho, a> / <rho, a>."""
    mu = sorted((k * v for v in lam), reverse=True)
    r = len(mu)
    rho = [r - i for i in range(r)]
    # (i, j, s) is the root e_i + s*e_j; type C adds e_i + e_j and 2e_i
    signs = (-1,) if family == "A" else (-1, 1)
    roots = [(i, j, s) for i in range(r) for j in range(i + 1, r)
             for s in signs]
    if family == "C":
        roots += [(i, i, 1) for i in range(r)]
    shifted = [m + p for m, p in zip(mu, rho)]

    def pair(v, root):
        i, j, s = root
        return v[i] + s * v[j]

    out = prod(Fraction(pair(shifted, a), pair(rho, a)) for a in roots)
    assert out.denominator == 1
    return int(out)


def test_formula_small_values():
    # GL_2 at weight (m, 0): m + 1; Sp_2 = SL_2 at weight m: m + 1
    assert [weyl_dimension("A", (0, m)) for m in range(4)] == [1, 2, 3, 4]
    assert [weyl_dimension("C", (m,)) for m in range(4)] == [1, 2, 3, 4]
    # Sp_4 at the fundamental weights: the standard 4 and the 5
    assert weyl_dimension("C", (1, 1)) == 5
    assert weyl_dimension("C", (0, 1)) == 4


@pytest.mark.parametrize("family, n, lam, ks", [
    ("A", 2, (0, 2, 4), (1, 2, 3)),
    ("C", 2, (2, 4), (1, 2, 3)),
    ("A", 3, (0, 2, 4, 6), (1,)),
])
def test_chart_zero_counts_are_weyl_dimensions(family, n, lam, ks):
    poset = families.GTFamily(family, n, lam).poset
    u = choose_u(poset)
    for k in ks:
        points = mco.lattice_points_of_hat_delta(poset, u, frozenset(), k)
        assert len(points) == weyl_dimension(family, lam, k)


@pytest.mark.parametrize("family, n, lam", [
    ("A", 2, (0, 2, 4)), ("C", 2, (2, 4))])
def test_every_chart_count_is_weyl_dimension(family, n, lam):
    poset = families.GTFamily(family, n, lam).poset
    rep = mco.verify_transfer_bijection(poset, choose_u(poset), 1)
    assert len(rep["charts"]) == 2 ** len(poset.axis)
    expect = weyl_dimension(family, lam)
    assert {e["count"] for e in rep["charts"].values()} == {expect}


def test_acceptance_expected_counts_are_weyl_dimensions():
    cfg = dict(acceptance.PROFILES["quick"], c1_kmax=1, c2_kmax=1)
    expected_1 = acceptance.criterion_1(None, cfg)["expected_k1"]
    expected_2 = acceptance.criterion_2(None, cfg)["expected_k1"]
    assert expected_1 == weyl_dimension("A", (0, 2, 4)) == 27
    assert expected_2 == weyl_dimension("C", (2, 4)) == 81


@pytest.mark.parametrize("family, n, lam, ks", [
    ("A", 3, (0, 2, 4, 6), (3,)),
    ("C", 2, (2, 4), (0, 1, 2, 3)),
])
def test_every_chart_count_is_weyl_dimension_without_listing(family, n, lam,
                                                             ks):
    poset = families.GTFamily(family, n, lam).poset
    u = choose_u(poset)
    for k in ks:
        expect = weyl_dimension(family, lam, k)
        assert set(mco.count_charts(poset, u, mco.charts_of(poset), k)
                   ) == {expect}


def test_every_c3_chart_count_is_weyl_dimension():
    # all 512 charts of C3 at k = 2, counted in one batch
    poset = families.GTFamily("C", 3, (2, 4, 6)).poset
    counts = mco.count_charts(poset, choose_u(poset), mco.charts_of(poset), 2)
    assert len(counts) == 512
    assert set(counts) == {weyl_dimension("C", (2, 4, 6), 2)}


@pytest.mark.parametrize("family, n, lam, kmax", [
    ("A", 3, (0, 2, 4, 6), 3), ("C", 3, (2, 4, 6), 2)])
def test_hilbert_dimensions_are_weyl_dimensions(family, n, lam, kmax):
    # the graded dimensions are chart 0's counts, taken from the counter
    poset = families.GTFamily(family, n, lam).poset
    rep = degeneration.hilbert_vs_ehrhart(poset, choose_u(poset), kmax)
    assert rep["ok"]
    assert [r["dimension"] for r in rep["rows"]] == [
        weyl_dimension(family, lam, k) for k in range(kmax + 1)]
