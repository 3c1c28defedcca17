"""The enumeration kernel against a brute-force filter of the box, and the
counting kernel against the enumeration."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyptych import geometry, mco
from polyptych.posets import choose_u, gt_type_A, gt_type_C


def brute_force(poly, box):
    ranges = [range(lo, hi + 1) for lo, hi in box]
    return [x for x in product(*ranges) if poly.contains(x)]


@st.composite
def systems(draw):
    """A system a.x >= b of 0-6 rows in d <= 4 variables and a box that may
    be empty; coefficients are often zero and right-hand sides rational."""
    dim = draw(st.integers(1, 4))
    box = [tuple(draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2)))
           for _ in range(dim)]
    if not draw(st.booleans()):  # mostly nonempty boxes
        box = [(min(b), max(b)) for b in box]
    coeff = st.one_of(st.just(0), st.integers(-3, 3))
    rhs = st.fractions(min_value=-8, max_value=8, max_denominator=4)
    rows = draw(st.lists(
        st.tuples(st.lists(coeff, min_size=dim, max_size=dim), rhs),
        max_size=6))
    return geometry.HPolyhedron(dim, rows), box


@settings(max_examples=400, deadline=None)
@given(systems())
@example((geometry.HPolyhedron(2, [((0, 0), Fraction(1))]), [(0, 2), (0, 2)]))
@example((geometry.HPolyhedron(2, [((0, 0), Fraction(-1, 2))]),
          [(0, 2), (0, 2)]))
@example((geometry.HPolyhedron(3, [((0, 0, 1), Fraction(1, 3)),
                                   ((0, 0, -2), Fraction(-5, 2))]),
          [(-2, 2), (-1, 1), (-3, 3)]))
@example((geometry.HPolyhedron(2, [((1, 1), 0)]), [(0, 2), (3, 1)]))
def test_kernel_matches_brute_force(system):
    poly, box = system
    assert geometry.lattice_points(poly, box) == brute_force(poly, box)


def test_all_zero_row_with_positive_rhs_is_empty():
    poly = geometry.HPolyhedron(3, [((1, 0, 0), 0), ((0, 0, 0), Fraction(1, 2))])
    assert geometry.lattice_points(poly, [(0, 5)] * 3) == []


def test_points_are_python_ints():
    poly = geometry.HPolyhedron(2, [((2, -1), Fraction(-3, 2))])
    pts = geometry.lattice_points(poly, [(-1, 1), (0, 2)])
    assert pts and all(type(c) is int for p in pts for c in p)


def test_budget_counts_search_nodes(monkeypatch):
    # no rows: the search visits 10 + 100 + 1000 nodes of the 10^3 box
    poly = geometry.HPolyhedron(3)
    box = [(0, 9)] * 3
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 1110)
    assert len(geometry.lattice_points(poly, box)) == 1000
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 1109)
    with pytest.raises(geometry.BoxTooLarge):
        geometry.lattice_points(poly, box)


def test_rational_coefficient_is_scaled_not_truncated():
    # x/2 >= 1 is x >= 2; truncating the coefficient 1/2 to 0 would store
    # the infeasible 0 >= 1
    poly = geometry.HPolyhedron(1, [((Fraction(1, 2),), 1)])
    assert poly.rows == [((1,), 2)]
    assert geometry.lattice_points(poly, [(-3, 3)]) == [(2,), (3,)]


@settings(max_examples=300, deadline=None)
@given(systems())
@example((geometry.HPolyhedron(0), []))
@example((geometry.HPolyhedron(0, [((), 0)]), []))
@example((geometry.HPolyhedron(0, [((), Fraction(1, 2))]), []))
@example((geometry.HPolyhedron(2, [((0, 0), Fraction(1))]), [(0, 2), (0, 2)]))
@example((geometry.HPolyhedron(2, [((1, -1), 1), ((0, 1), -1)]),
          [(0, 2), (3, 1)]))
@example((geometry.HPolyhedron(4, [((1, 0, 0, -1), 0), ((0, 1, -1, 0), 0),
                                   ((1, 1, 1, 1), 3)]),
          [(-2, 2)] * 4))
def test_count_is_the_number_of_listed_points(system):
    poly, box = system
    assert geometry.count_lattice_points_batch([system]) == [len(
        geometry.lattice_points(poly, box))]


@pytest.mark.parametrize("poset, ks", [
    (gt_type_A(2, (0, 2, 4)), (0, 1, 2)),
    (gt_type_C(2, (2, 4)), (0, 1, 2)),
    (gt_type_A(3, (0, 2, 4, 6)), (1, 2)),
], ids=["A2", "C2", "A3"])
def test_count_is_the_number_of_listed_points_on_every_chart(poset, ks):
    u = choose_u(poset)
    charts = mco.charts_of(poset)
    for k in ks:
        assert mco.count_charts(poset, u, charts, k) == [
            len(mco.lattice_points_of_hat_delta(poset, u, chart, k))
            for chart in charts]


def test_count_budget_counts_visited_nodes(monkeypatch):
    # no rows: every subtree below the root has the same key, so the
    # counter visits 10 root children, then 10 + 100 nodes of one subtree
    poly = geometry.HPolyhedron(3)
    box = [(0, 9)] * 3
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 120)
    assert geometry.count_lattice_points_batch([(poly, box)]) == [1000]
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 119)
    with pytest.raises(geometry.BoxTooLarge,
                       match="enumeration budget 119 exceeded"):
        geometry.count_lattice_points_batch([(poly, box)])


@settings(max_examples=150, deadline=None)
@given(st.lists(systems(), min_size=1, max_size=3), st.integers(0, 2),
       st.integers(0, 3))
@example([(geometry.HPolyhedron(2), [(0, 3), (0, 3)]),
          (geometry.HPolyhedron(2), [(0, 1), (0, 1)])], 0, 0)
@example([(geometry.HPolyhedron(2, [((1, 1), 2)]), [(0, 3), (0, 3)]),
          (geometry.HPolyhedron(2, [((1, -1), 2)]), [(0, 3), (0, 3)])], 0, 0)
@example([(geometry.HPolyhedron(2, [((1, 1), 0), ((1, 1), 2)]),
           [(0, 3), (0, 3)]),
          (geometry.HPolyhedron(2, [((1, 1), 0)]), [(0, 3), (0, 3)])], 0, 0)
def test_batch_counts_each_system_as_listed(batch, repeat, at):
    # unrelated systems of mixed dimension share one memo; a repeated
    # system is answered from it.  The examples differ only in the box,
    # in a row's coefficients, or in a second row on one suffix.
    batch.insert(at % (len(batch) + 1), batch[repeat % len(batch)])
    assert geometry.count_lattice_points_batch(batch) == [
        len(geometry.lattice_points(poly, box)) for poly, box in batch]


def test_batch_budget_is_charged_once_per_batch(monkeypatch):
    # the 120 nodes of test_count_budget_counts_visited_nodes; a repeat of
    # the same system is one memo hit at the root and costs nothing, and
    # x_0 >= 5 visits only its 5 root children, the subtree below being
    # the same as before
    box = [(0, 9)] * 3
    free = (geometry.HPolyhedron(3), box)
    half = (geometry.HPolyhedron(3, [((1, 0, 0), 5)]), box)
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 120)
    assert geometry.count_lattice_points_batch([free, free]) == [1000, 1000]
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 125)
    assert geometry.count_lattice_points_batch([free, half, free]) == [
        1000, 500, 1000]
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 124)
    assert geometry.count_lattice_points_batch([half]) == [500]
    with pytest.raises(geometry.BoxTooLarge,
                       match="enumeration budget 124 exceeded"):
        geometry.count_lattice_points_batch([free, half])
