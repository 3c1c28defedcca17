import random
from collections import Counter
from functools import cache
from operator import add

import click
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyptych import cli, families, geometry, lattice, mco
from polyptych.posets import (MarkedPoset, ShiftVector, choose_u, gt_type_A,
                              gt_type_C)

from test_lattice import random_dag

FAMILIES = {"A2": ("A", 2, (0, 2, 4)), "A3": ("A", 3, (0, 2, 4, 6)),
            "C1": ("C", 1, (2,)), "C2": ("C", 2, (2, 4)),
            "A2w": ("A", 2, (0, 4, 8))}


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


@pytest.mark.parametrize("name,k", [("A2", 1), ("A2", 2), ("A2", 3),
                                    ("C2", 1), ("C2", 2), ("C2", 3),
                                    ("C1", 1), ("A3", 1)])
def test_transfer_bijection_equals_the_per_chart_oracle(name, k):
    p = _poset(name)
    u = choose_u(p)
    assert mco.verify_transfer_bijection(p, u, k) == _oracle_report(p, u, k)


def test_dropped_point_fails_with_the_distinct_image_count(fam_A2,
                                                           monkeypatch):
    # a count that misses one point: the image no longer matches, and its
    # count is that of the distinct image points, not the chart's count
    # (the batch holds the charts in charts_of order, each system's axes
    # permuted, so the spoiled chart is picked by its position)
    p = fam_A2.poset
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    at = mco.charts_of(p).index(spoiled)
    counted = geometry.count_lattice_points_batch

    def short(systems):
        counts = counted(systems)
        counts[at] -= 1
        return counts

    monkeypatch.setattr(geometry, "count_lattice_points_batch", short)
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep["ok"] is False
    entries = rep["charts"]
    assert entries.pop(mco.chart_str(spoiled)) == {
        "count": 26, "image_count": 27, "match": False}
    assert all(e == {"count": 27, "image_count": 27, "match": True}
               for e in entries.values())


def _move_one_row(monkeypatch, spoiled, by=1):
    """Make hat_delta of the spoiled chart demand by more of its third row:
    raised (by > 0), some image points leave it; lowered, it gains points
    that are no image."""
    built = mco.hat_delta

    def moved(poset, u, chart):
        poly = built(poset, u, chart)
        if chart != spoiled:
            return poly
        rows = list(poly.rows)
        a, b = rows[2]
        rows[2] = (a, b + by)
        return geometry.HPolyhedron(poly.dim, rows)

    monkeypatch.setattr(mco, "hat_delta", moved)


def test_raised_row_fails_the_containment(fam_A2, monkeypatch):
    p = fam_A2.poset
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    _move_one_row(monkeypatch, spoiled)
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
    _move_one_row(monkeypatch, spoiled)
    monkeypatch.setattr(geometry, "count_lattice_points_batch",
                        lambda systems: [27] * len(systems))
    rep = mco.verify_transfer_bijection(p, u, 1)
    assert rep["ok"] is False
    entries = rep["charts"]
    assert entries.pop(mco.chart_str(spoiled)) == {
        "count": 27, "image_count": 27, "match": False}
    assert all(e["match"] for e in entries.values())


@pytest.mark.parametrize("name,k", [("A2", 2), ("A2", 3), ("A2w", 2)])
def test_raised_row_fails_at_every_k_as_the_oracle(name, k, monkeypatch):
    # chart 0 is listed at k = 1 only; the raised row is refused all the
    # same, by its count and by containment alone, against the row at k = 1
    # (on A2w it reads -1 there and -2 at k = 2, where the k = 1 points
    # would meet it)
    p = _poset(name)
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    _move_one_row(monkeypatch, spoiled)
    rep = mco.verify_transfer_bijection(p, u, k)
    assert rep == _oracle_report(p, u, k)
    assert rep["ok"] is False
    entries = rep["charts"]
    assert entries.pop(mco.chart_str(spoiled))["match"] is False
    assert all(e["match"] for e in entries.values())
    n = entries[""]["count"]
    monkeypatch.setattr(geometry, "count_lattice_points_batch",
                        lambda systems: [n] * len(systems))
    rep = mco.verify_transfer_bijection(p, u, k)
    assert [c for c, e in rep["charts"].items() if not e["match"]] == [
        mco.chart_str(spoiled)]


def test_lowered_row_is_refused_by_the_count(fam_A2, monkeypatch):
    # a lowered row keeps every image inside, so containment passes; the
    # chart's count exceeds chart 0's and refuses it
    p = fam_A2.poset
    u = choose_u(p)
    spoiled = frozenset(p.axis[1:])
    _move_one_row(monkeypatch, spoiled, by=-1)
    rep = mco.verify_transfer_bijection(p, u, 2)
    assert rep == _oracle_report(p, u, 2)
    entry = rep["charts"][mco.chart_str(spoiled)]
    assert entry["count"] > entry["image_count"] == 125
    assert entry["match"] is False
    monkeypatch.setattr(geometry, "count_lattice_points_batch",
                        lambda systems: [125] * len(systems))
    assert mco.verify_transfer_bijection(p, u, 2)["ok"] is True


def _counting_mu(monkeypatch):
    """Record the chart of every mu call, reached through the module."""
    charts = []
    full = mco.mu
    monkeypatch.setattr(mco, "mu", lambda *a: charts.append(a[1]) or full(*a))
    return charts


def test_non_alcoved_chart_0_row_fails_the_certificate(fam_C2,
                                                       monkeypatch):
    # the sum of two chart-0 rows is redundant but not of the form +-e_i or
    # e_i - e_j, so the certificate refuses before any point is mapped
    p = fam_C2.poset
    u = choose_u(p)
    built = mco.hat_delta

    def redundant(poset, u, chart):
        poly = built(poset, u, chart)
        if chart:
            return poly
        (a1, b1), (a2, b2), *_ = poly.rows
        row = (tuple(map(add, a1, a2)), b1 + b2)
        return geometry.HPolyhedron(poly.dim, [*poly.rows, row])

    monkeypatch.setattr(mco, "hat_delta", redundant)
    charts = _counting_mu(monkeypatch)
    with pytest.raises(geometry.UnimodularityFail, match="chart-0 row"):
        mco.verify_transfer_bijection(p, u, 2)
    assert charts == []


def test_transfer_plan_in_place_of_mu_fails_the_certificate(monkeypatch):
    # the transfer plan's marked covers give -lam, not 0: transfer is not
    # homogeneous, so the k = 1 points cannot stand for k
    p = gt_type_A(2, (0, 2, 4))  # a fresh poset: the plan memo is spoiled
    u = choose_u(p)
    plans = mco._plans
    monkeypatch.setattr(mco, "_plans",
                        lambda poset, chart: (plans(poset, chart)[0],) * 2)
    charts = _counting_mu(monkeypatch)
    with pytest.raises(geometry.UnimodularityFail, match="constant"):
        mco.verify_transfer_bijection(p, u, 2)
    assert charts == []


def _later_axis_plans(monkeypatch, p):
    """Spoil the full mu plan of p: its first entry reads the axis placed
    second, so the plan is not triangular and mu need not be injective."""
    full = frozenset(p.axis)
    plans = mco._plans

    def cyclic(poset, chart):
        transfer_plan, mu_plan = plans(poset, chart)
        if poset is p and chart == full:
            (i, _, _), *rest = mu_plan
            mu_plan = ((i, (rest[0][0],), None), *rest)
        return transfer_plan, mu_plan

    monkeypatch.setattr(mco, "_plans", cyclic)
    assert not mco._triangular(mco._plans(p, full)[1])


def test_plan_reading_a_later_axis_fails_the_certificate(monkeypatch):
    # the oracle finds only 12 distinct images on chart {q12, q21} at k = 1
    p = gt_type_A(2, (0, 2, 4))  # a fresh poset: the plan memo is spoiled
    u = choose_u(p)
    _later_axis_plans(monkeypatch, p)
    assert _oracle_report(p, u, 1)["charts"]["q12,q21"] == {
        "count": 27, "image_count": 12, "match": False}
    for k in (1, 2):
        with pytest.raises(geometry.UnimodularityFail, match="triangular"):
            mco.verify_transfer_bijection(p, u, k)


def test_strict_dual_injectivity_is_refused_on_a_non_triangular_plan(
        monkeypatch):
    # the INNER values are mu(full, x); with the full mu plan's first entry
    # reading a later axis, injectivity is not certified (a fresh family:
    # the plan memo is spoiled)
    fam = families.GTFamily("C", 2, (2, 4))
    _later_axis_plans(monkeypatch, fam.poset)
    rep = lattice.verify_strict_dual(fam, random.Random(0), pairs=0,
                                     chart_samples=1)
    assert rep["injectivity"] is False and rep["ok"] is False
    assert all(entry["ok"] for entry in rep["charts"].values())
    # such a mu also breaks pairing symmetry, which the samples refuse
    with pytest.raises(lattice.DualFail, match="inconsistent"):
        lattice.verify_strict_dual(fam, random.Random(0), pairs=5,
                                   chart_samples=1)


@pytest.mark.parametrize("poset", [
    gt_type_A(2, (0, 2, 4)), gt_type_A(3, (0, 2, 4, 6)),
    gt_type_A(4, (0, 2, 4, 6, 8)), gt_type_C(2, (2, 4)),
    gt_type_C(3, (2, 4, 6)), gt_type_C(4, (2, 4, 6, 8))],
    ids=["A2", "A3", "A4", "C2", "C3", "C4"])
def test_the_transfer_certificate_holds_on_the_families(poset):
    # hat_delta's chart-0 rows are build_mco's, translated
    mco._certify(mco._plans(poset, frozenset(poset.axis))[1],
                 mco.build_mco(poset, frozenset()).rows)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_the_transfer_certificate_holds_on_random_dags(size):
    # most of these posets are not graded, so they have no shift vector
    # and no transfer check; the certificate reads no shift vector.  Seven
    # draws at size 2 and one at size 3 mark no middle element.
    rng = random.Random(size)
    for _ in range(40):
        poset = random_dag(rng, size)
        mco._certify(mco._plans(poset, frozenset(poset.axis))[1],
                     mco.build_mco(poset, frozenset()).rows)


@pytest.mark.parametrize("poset", [
    gt_type_A(2, (0, 2, 4)), gt_type_A(3, (0, 2, 4, 6)),
    gt_type_A(4, (0, 2, 4, 6, 8)), gt_type_C(2, (2, 4)),
    gt_type_C(3, (2, 4, 6)), gt_type_C(4, (2, 4, 6, 8))],
    ids=["A2", "A3", "A4", "C2", "C3", "C4"])
def test_the_tie_certificate_holds_at_the_chosen_u_on_the_families(poset):
    assert mco.linear_at(poset, cli._shift(poset))


def test_the_tie_certificate_holds_at_the_chosen_u_on_random_dags():
    # choose_u is constant on each rank, and a graded poset's covers join
    # adjacent ranks, so every candidate of an entry reads one value; every
    # draw is kept, and the CLI refuses a non-graded one
    found = Counter()
    for size in range(2, 7):
        rng = random.Random(size)
        for _ in range(40):
            poset = random_dag(rng, size)
            try:
                u = cli._shift(poset)
            except click.UsageError as exc:
                assert "NOT_GRADED" in str(exc)
                found["not graded", size] += 1
                continue
            found["strict" if u.strict else "non-strict", size] += 1
            assert mco.linear_at(poset, u)
    assert sum(found.values()) == 200
    assert [found[kind, size] for kind in ("strict", "non-strict")
            for size in range(2, 7)] == [27, 24, 10, 9, 1, 13, 13, 13, 5, 5]


def test_full_mu_plans_are_triangular():
    for name in FAMILIES:
        p = _poset(name)
        assert mco._triangular(mco._plans(p, frozenset(p.axis))[1])


def test_one_mu_call_per_chart_0_point(monkeypatch):
    # each chart-0 point is mapped once with the full chart, not once per
    # chart; past k = 1 the certificate lets the k = 1 points stand for k
    charts = _counting_mu(monkeypatch)
    for name, k, points in [("C2", 1, 81), ("A2", 2, 27)]:
        p = _poset(name)
        u = choose_u(p)
        charts.clear()
        mco.verify_transfer_bijection(p, u, k)
        base = mco.lattice_points_of_hat_delta(p, u, frozenset(), 1)
        assert len(charts) == len(base) == points
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
    back = mco._inverse(mco._plans(p, chart)[0], image)
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


# ---------------------------------------------------------------------------
# the top-down search order against the lister and the axis-order batch

def _axis_order_counts(poset, u, charts, k):
    return geometry.count_lattice_points_batch(
        [mco._dilated(poset, u, chart, k) for chart in charts])


def _assert_counts_agree(poset, u, ks):
    charts = mco.charts_of(poset)
    for k in ks:
        listed = [len(mco.lattice_points_of_hat_delta(poset, u, chart, k))
                  for chart in charts]
        assert _axis_order_counts(poset, u, charts, k) == listed
        assert mco.count_charts(poset, u, charts, k) == listed
        report = mco.verify_transfer_bijection(poset, u, k)
        assert [e["count"] for e in report["charts"].values()] == listed


@pytest.mark.parametrize("name, ks", [("A2", (0, 1, 2)), ("C2", (0, 1, 2)),
                                      ("A3", (1, 2))])
def test_top_down_counts_equal_the_lister_and_the_axis_order(name, ks):
    p = _poset(name)
    _assert_counts_agree(p, choose_u(p), ks)


def test_top_down_counts_equal_the_lister_on_random_dags():
    # most of these posets are not graded, so the shift vector is drawn
    # (every box holds its polytope whatever the shift); the markings are
    # cut to 0..3 to keep the lister small
    rng = random.Random(28)
    for trial in range(50):
        dag = random_dag(rng, 2 + trial % 5)
        marking = {a: v // 3 for a, v in dag.marking.items()}
        poset = MarkedPoset(dag.elements, dag.covers, marking)
        u = ShiftVector({e: marking.get(e, rng.randint(0, 3))
                         for e in poset.elements}, False)
        _assert_counts_agree(poset, u, (1, 2))


def test_a_box_permuted_without_its_rows_changes_a_count():
    # negative control: the permutation must reach rows and box alike (on
    # A2 the reversed order maps every chart system onto itself; C2's
    # charts show it)
    p = _poset("C2")
    u = choose_u(p)
    order = [i for i, _, _ in reversed(mco._plans(p, frozenset(p.axis))[1])]
    charts = mco.charts_of(p)
    systems = [mco._dilated(p, u, chart, 1) for chart in charts]
    box_only = [(poly, [box[i] for i in order]) for poly, box in systems]
    rows_only = [(geometry.HPolyhedron.integral(
        poly.dim, [(tuple(a[i] for i in order), b) for a, b in poly.rows]),
        box) for poly, box in systems]
    counts = mco.count_charts(p, u, charts, 1)
    for half in (box_only, rows_only):
        assert geometry.count_lattice_points_batch(half) != counts


def test_every_c3_chart_is_counted_within_a_small_budget(monkeypatch):
    # top down, the 512 C3 charts at k = 1 charge 2,283 nodes; in axis
    # order they charge 20,376, over this budget
    p = gt_type_C(3, (2, 4, 6))
    u = choose_u(p)
    charts = mco.charts_of(p)
    listed = len(mco.lattice_points_of_hat_delta(p, u, frozenset(), 1))
    monkeypatch.setattr(geometry, "ENUM_BUDGET", 5000)
    assert mco.count_charts(p, u, charts, 1) == [listed] * len(charts)
    with pytest.raises(geometry.BoxTooLarge):
        _axis_order_counts(p, u, charts, 1)
