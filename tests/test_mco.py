from hypothesis import given, settings
from hypothesis import strategies as st

from polyptych import mco
from polyptych.posets import choose_u, gt_type_A, gt_type_C


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
        mco.lattice_points_of_hat_delta(fam_A2.poset, u, chart)
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
