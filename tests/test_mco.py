from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyptych import geometry, mco
from polyptych.posets import MarkedPoset, choose_u, gt_type_A, gt_type_C

FAMILIES = {"A2": ("A", 2, (0, 2, 4)), "A3": ("A", 3, (0, 2, 4, 6)),
            "C1": ("C", 1, (2,)), "C2": ("C", 2, (2, 4))}


@cache
def _poset(name):
    kind, n, lam = FAMILIES[name]
    return (gt_type_A if kind == "A" else gt_type_C)(n, lam)


def _oracle_report(poset, u, k):
    """The transfer-bijection report with one mu call per point and chart,
    each chart's image mapped with that chart's own plan."""
    base = mco.lattice_points_of_hat_delta(poset, u, frozenset(), k)
    report = {"k": k, "charts": {}, "ok": True}
    for chart in mco.charts_of(poset):
        direct = mco.lattice_points_of_hat_delta(poset, u, chart, k)
        image = sorted(mco.mu(poset, chart, z) for z in base)
        ok = image == direct
        report["charts"][mco.chart_str(chart)] = {
            "count": len(direct), "image_count": len(set(image)), "match": ok}
        report["ok"] = report["ok"] and ok and len(direct) == len(base)
    return report


def test_chart_enumeration_size(fam_C2):
    charts = mco.charts_of(fam_C2.poset)
    assert len(charts) == 2 ** len(fam_C2.poset.axis)
    assert frozenset() in charts


def test_transfer_bijection_counts_a2(fam_A2):
    u = choose_u(fam_A2.poset)
    rep = mco.verify_transfer_bijection(fam_A2.poset, u, 1)
    assert rep["ok"]
    counts = {e["count"] for e in rep["charts"].values()}
    assert counts == {27}


def test_transfer_bijection_counts_c2(fam_C2):
    u = choose_u(fam_C2.poset)
    rep = mco.verify_transfer_bijection(fam_C2.poset, u, 1)
    assert rep["ok"]
    counts = {e["count"] for e in rep["charts"].values()}
    assert counts == {81}


def test_small_c1_count():
    p = gt_type_C(1, (2,))
    u = choose_u(p)
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep["ok"]
    assert {e["count"] for e in rep["charts"].values()} == {3}


def test_transfer_bijection_with_every_element_marked():
    # d = 0: one chart, whose only point is the empty tuple
    p = MarkedPoset(["a", "b"], [("a", "b")], {"a": 0, "b": 3})
    rep = mco.verify_transfer_bijection(p, choose_u(p), 2)
    assert rep == {"k": 2, "ok": True, "charts": {
        "": {"count": 1, "image_count": 1, "match": True}}}


@pytest.mark.parametrize("name,k", [("A2", 1), ("A2", 2), ("C2", 1),
                                    ("C2", 2), ("C1", 1), ("A3", 1)])
def test_transfer_bijection_equals_the_per_chart_oracle(name, k):
    p = _poset(name)
    u = choose_u(p)
    assert mco.verify_transfer_bijection(p, u, k) == _oracle_report(p, u, k)


def test_dropped_point_fails_with_the_distinct_image_count(fam_A2,
                                                           monkeypatch):
    # a count that misses one point: the image no longer matches, and its
    # count is that of the distinct image points, not the chart's count
    p = fam_A2.poset
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    spoiled_rows = mco.hat_delta(p, u, spoiled).rows
    counted = geometry.count_lattice_points_batch

    def short(systems):
        return [count - 1 if poly.rows == spoiled_rows else count
                for (poly, _), count in zip(systems, counted(systems))]

    monkeypatch.setattr(geometry, "count_lattice_points_batch", short)
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep["ok"] is False
    entries = rep["charts"]
    assert entries.pop(mco.chart_str(spoiled)) == {
        "count": 26, "image_count": 27, "match": False}
    assert all(e == {"count": 27, "image_count": 27, "match": True}
               for e in entries.values())


def _raise_one_row(monkeypatch, spoiled):
    """Make hat_delta of the spoiled chart demand one more of its third row,
    so that some image points leave it."""
    built = mco.hat_delta

    def raised(poset, u, chart):
        poly = built(poset, u, chart)
        if chart != spoiled:
            return poly
        rows = list(poly.rows)
        a, b = rows[2]
        rows[2] = (a, b + 1)
        return geometry.HPolyhedron(poly.dim, rows)

    monkeypatch.setattr(mco, "hat_delta", raised)


def test_raised_row_fails_the_containment(fam_A2, monkeypatch):
    p = fam_A2.poset
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    _raise_one_row(monkeypatch, spoiled)
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep == _oracle_report(p, u, 1)
    assert rep["ok"] is False
    entries = rep["charts"]
    assert entries.pop(mco.chart_str(spoiled)) == {
        "count": 21, "image_count": 27, "match": False}
    assert all(e["match"] for e in entries.values())


def test_containment_alone_fails_a_raised_row(fam_A2, monkeypatch):
    # the raised chart's count is reported as the chart-0 count, so only
    # the image leaving the polytope can fail the chart
    p = fam_A2.poset
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    _raise_one_row(monkeypatch, spoiled)
    monkeypatch.setattr(geometry, "count_lattice_points_batch",
                        lambda systems: [27] * len(systems))
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep["ok"] is False
    entries = rep["charts"]
    assert entries.pop(mco.chart_str(spoiled)) == {
        "count": 27, "image_count": 27, "match": False}
    assert all(e["match"] for e in entries.values())


def test_plan_reading_a_later_axis_falls_back_to_distinct_images(
        monkeypatch):
    # the first entry of the full mu plan reads the axis placed second, so
    # mu need not be injective and the distinct image points are counted
    p = gt_type_A(2, (0, 2, 4))  # a fresh poset: the plan memo is spoiled
    u = choose_u(p)
    full = frozenset(p.axis)
    plans = mco._plans

    def cyclic(poset, chart):
        transfer_plan, mu_plan = plans(poset, chart)
        if chart == full:
            (i, _, _), *rest = mu_plan
            mu_plan = ((i, (rest[0][0],), None), *rest)
        return transfer_plan, mu_plan

    monkeypatch.setattr(mco, "_plans", cyclic)
    assert not mco._triangular(mco._plans(p, full)[1])
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep == _oracle_report(p, u, 1)
    assert rep["ok"] is False
    assert rep["charts"]["q12,q21"] == {
        "count": 27, "image_count": 12, "match": False}


def test_full_mu_plans_are_triangular():
    for name in FAMILIES:
        p = _poset(name)
        assert mco._triangular(mco._plans(p, frozenset(p.axis))[1])


def test_one_mu_call_per_chart_0_point(fam_C2, monkeypatch):
    # each chart-0 point is mapped once with the full chart, not once per
    # chart; mu is reached through the module attribute
    p = fam_C2.poset
    u = choose_u(p)
    charts = []
    full = mco.mu
    monkeypatch.setattr(mco, "mu", lambda *a: charts.append(a[1]) or full(*a))
    mco.verify_transfer_bijection(p, u, 1)
    base = mco.lattice_points_of_hat_delta(p, u, frozenset(), 1)
    assert len(charts) == len(base) == 81
    assert set(charts) == {frozenset(p.axis)}


@pytest.mark.parametrize("name", ["C2", "A3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mu_in_a_chart_is_the_full_mu_on_the_chart(name, data):
    p = _poset(name)
    d = len(p.axis)
    x = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=d,
                                 max_size=d)))
    full = mco.mu(p, frozenset(p.axis), x)
    for chart in mco.charts_of(p):
        assert mco.mu(p, chart, x) == tuple(
            f if a in chart else c for a, c, f in zip(p.axis, x, full))


def test_dilation_count_a2(fam_A2):
    u = choose_u(fam_A2.poset)
    pts = mco.lattice_points_of_hat_delta(fam_A2.poset, u, frozenset(), 2)
    assert len(pts) == 125


def test_enumeration_builds_its_polytope_through_hat_delta(fam_A2,
                                                          monkeypatch):
    # a per-layer tracer wraps the module attribute mco.hat_delta, so the
    # enumeration must reach the polytope through it
    u = choose_u(fam_A2.poset)
    built = []
    full = mco.hat_delta
    monkeypatch.setattr(mco, "hat_delta",
                        lambda *a: built.append(a[2]) or full(*a))
    for chart in mco.charts_of(fam_A2.poset):
        mco.lattice_points_of_hat_delta(fam_A2.poset, u, chart, 1)
    assert built == mco.charts_of(fam_A2.poset)


def test_hat_delta_rows_are_python_ints(fam_A2, fam_C2):
    for fam in (fam_A2, fam_C2):
        u = choose_u(fam.poset)
        for chart in mco.charts_of(fam.poset):
            rows = mco.hat_delta(fam.poset, u, chart).rows
            assert rows and all(type(c) is int
                                for a, b in rows for c in (*a, b))


def test_hat_delta_contains_origin(fam_C2):
    u = choose_u(fam_C2.poset)
    for chart in mco.charts_of(fam_C2.poset):
        hd = mco.hat_delta(fam_C2.poset, u, chart)
        assert hd.contains((0,) * len(fam_C2.poset.axis))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.integers(0, 15))
def test_transfer_roundtrip(vec, chart_bits):
    p = gt_type_C(2, (2, 4))
    chart = frozenset(e for i, e in enumerate(p.axis)
                      if chart_bits >> i & 1)
    image = mco.transfer(p, chart, tuple(vec))
    back = mco.transfer_inverse(p, chart, image)
    assert tuple(back) == tuple(vec)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
       st.integers(0, 7))
def test_mu_roundtrip(vec, chart_bits):
    p = gt_type_A(2, (0, 2, 4))
    chart = frozenset(e for i, e in enumerate(p.axis)
                      if chart_bits >> i & 1)
    image = mco.mu(p, chart, tuple(vec))
    back = mco.mu_inverse(p, chart, image)
    assert tuple(back) == tuple(vec)


def test_chart_str_sorted():
    assert mco.chart_str(frozenset()) == ""
    assert mco.chart_str(frozenset({"q21", "q11"})) == "q11,q21"
