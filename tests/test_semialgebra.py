import random

import pytest

from polyptych import families, geometry, lattice, mco, semialgebra


def small_fam_lat(fam):
    return lattice.PolyptychLattice(fam.poset)


def rand_elem(lat, rng, gens=2):
    return semialgebra.SemialgebraElement(
        lat, [lat.element(tuple(rng.randint(-2, 2) for _ in range(lat.dim)))
              for _ in range(gens)])


def test_infinity_identities(fam_C2, rng):
    lat = small_fam_lat(fam_C2)
    a = rand_elem(lat, rng)
    assert semialgebra.oplus(a, semialgebra.INFINITY) is a
    assert semialgebra.oplus(semialgebra.INFINITY, a) is a
    assert semialgebra.star(a, semialgebra.INFINITY) is semialgebra.INFINITY


def test_oplus_idempotent_exact(fam_C2, rng):
    lat = small_fam_lat(fam_C2)
    for _ in range(5):
        a = rand_elem(lat, rng)
        assert semialgebra.equal_exact(fam_C2, semialgebra.oplus(a, a), a)


def test_oplus_commutative_sampled(fam_C2, rng):
    lat = small_fam_lat(fam_C2)
    fns = semialgebra.sample_functionals(fam_C2, rng, count=30)
    for _ in range(10):
        a, b = rand_elem(lat, rng), rand_elem(lat, rng)
        assert semialgebra.equal_sampled(semialgebra.oplus(a, b),
                                         semialgebra.oplus(b, a), fns)


def test_star_singletons_add(fam_C2, rng):
    lat = small_fam_lat(fam_C2)
    for _ in range(10):
        x = tuple(rng.randint(-2, 2) for _ in range(lat.dim))
        y = tuple(rng.randint(-2, 2) for _ in range(lat.dim))
        prod = semialgebra.star(
            semialgebra.SemialgebraElement(lat, [lat.element(x)]),
            semialgebra.SemialgebraElement(lat, [lat.element(y)]))
        fns = semialgebra.sample_functionals(fam_C2, rng, count=20)
        expect = semialgebra.SemialgebraElement(
            lat, [lat.element(tuple(a + b for a, b in zip(x, y)))])
        assert semialgebra.equal_sampled(prod, expect, fns) or \
            semialgebra.equal_exact(
                fam_C2, semialgebra.oplus(prod, expect), prod)


def test_star_distributes_over_oplus(fam_C2, rng):
    lat = small_fam_lat(fam_C2)
    fns = semialgebra.sample_functionals(fam_C2, rng, count=40)
    for _ in range(5):
        a, b, c = (rand_elem(lat, rng) for _ in range(3))
        lhs = semialgebra.star(a, semialgebra.oplus(b, c))
        rhs = semialgebra.oplus(semialgebra.star(a, b),
                                semialgebra.star(a, c))
        assert semialgebra.equal_sampled(lhs, rhs, fns)


def test_equal_exact_agrees_with_sampled_on_small_family(rng):
    fam = families.GTFamily("C", 1, (2,))
    lat = small_fam_lat(fam)
    fns = semialgebra.sample_functionals(fam, rng, count=40)
    for _ in range(8):
        a, b = rand_elem(lat, rng), rand_elem(lat, rng)
        if semialgebra.equal_exact(fam, a, b):
            assert semialgebra.equal_sampled(a, b, fns)


def test_leq_reflexive_and_sum_is_lower_bound(fam_C2, rng):
    lat = small_fam_lat(fam_C2)
    a, b = rand_elem(lat, rng), rand_elem(lat, rng)
    assert semialgebra.equal_exact(fam_C2, semialgebra.oplus(a, a), a)
    s = semialgebra.oplus(a, b)
    assert semialgebra.equal_exact(fam_C2, semialgebra.oplus(s, a), s)
    assert semialgebra.equal_exact(fam_C2, semialgebra.oplus(s, b), s)


# ---------------------------------------------------------------------------
# equality over one chart per dual cone, against the all-chart loop

def minkowski_sum_hull(points, cone_covectors, dim):
    """conv(points) + K* where K* = {x : w.x >= 0 for each covector w}."""
    lin, rays = geometry.cone_rays([tuple(w) for w in cone_covectors], dim)
    return geometry.VPolyhedron(dim, points, rays, lin)


def _chart_equal(fam, chart, a, b):
    """The hull test on one chart, with K-dual rebuilt from the chart's cone
    covectors."""
    covectors = semialgebra.chart_cone_covectors(fam, chart)
    ha = minkowski_sum_hull([m.chart(chart) for m in a.gens],
                            covectors, len(fam.axis))
    hb = minkowski_sum_hull([m.chart(chart) for m in b.gens],
                            covectors, len(fam.axis))
    return geometry.polyhedron_equal(ha, hb)


def equal_all_charts(fam, a, b):
    """Oracle: the hull test on every chart of the poset."""
    return all(_chart_equal(fam, chart, a, b)
               for chart in mco.charts_of(fam.poset))


def _unequal_cones(fam, a, b):
    """The cones (as C ∩ E) of the charts C on which the hulls differ."""
    above = {fam.positions[(i + 1, j)] for (i, j) in fam.pihat}
    return {chart & above for chart in mco.charts_of(fam.poset)
            if not _chart_equal(fam, chart, a, b)}


SMALL_FAMILIES = [("C", 1, (2,)), ("A", 2, (0, 2, 4)), ("C", 2, (2, 4))]


def _oracle_pairs(lat, rng, kinds):
    """Pairs of three kinds.  "equal": star is associative up to equality,
    so oplus(a, star(a, c)) with c = c1 * c2 can be formed with either
    bracketing, giving equal elements with different generating sets.
    "random": two random elements.  "near": oplus(a, star(a, c)) against
    itself with one generator dropped."""
    for kind in kinds:
        a, c1, c2 = (rand_elem(lat, rng, gens=1) for _ in range(3))
        if kind == "equal":
            yield (semialgebra.oplus(
                       a, semialgebra.star(a, semialgebra.star(c1, c2))),
                   semialgebra.oplus(
                       a, semialgebra.star(semialgebra.star(a, c1), c2)))
        elif kind == "random":
            yield rand_elem(lat, rng), semialgebra.oplus(c1, c2)
        else:
            x = semialgebra.oplus(a, semialgebra.star(a, c1))
            drop = rng.randrange(len(x.gens))
            yield x, semialgebra.SemialgebraElement(
                lat, x.gens[:drop] + x.gens[drop + 1:] or a.gens)


# (family, n, lambda, equal pairs, random pairs, near misses): the oracle
# walks all 2^d charts of an equal pair, so most equal pairs go to C1
ORACLE_MIX = [("C", 1, (2,), 60, 30, 30), ("A", 2, (0, 2, 4), 30, 40, 40),
              ("C", 2, (2, 4), 15, 50, 50)]


def test_equal_exact_matches_all_chart_oracle():
    rng = random.Random(20)
    verdicts = []
    for family, n, lam, equal, rand, near in ORACLE_MIX:
        fam = families.GTFamily(family, n, lam)
        lat = small_fam_lat(fam)
        kinds = ["equal"] * equal + ["random"] * rand + ["near"] * near
        rng.shuffle(kinds)
        for x, y in _oracle_pairs(lat, rng, kinds):
            expect = equal_all_charts(fam, x, y)
            assert semialgebra.equal_exact(fam, x, y) == expect, (fam, x, y)
            verdicts.append(expect)
    assert len(verdicts) >= 300
    assert sum(verdicts) >= 100 and len(verdicts) - sum(verdicts) >= 100


@pytest.mark.parametrize("family, n, lam, x, y, drops", [
    ("C", 2, (2, 4), (2, -1, -2, 0), (-1, 0, 1, -2), {
        (1, -1, -1, -2): set(),
        (1, -1, -2, -2): {"q21"},
        (1, -1, -1, -3): {"q31"},
        (1, -1, -2, -3): {"q21", "q31"}}),
    ("A", 2, (0, 2, 4), (-2, -2, -2), (1, 2, 0), {
        (-1, 0, -2): set(),
        (-1, 0, -4): {"q31"}}),
])
def test_pair_unequal_on_one_cone_is_unequal(family, n, lam, x, y, drops):
    """Negative control: each pair differs on exactly one cone chart, so a
    search that skips that cone would call it equal."""
    fam = families.GTFamily(family, n, lam)
    lat = small_fam_lat(fam)
    gens = lat.upsilon(lat.element(x), lat.element(y))
    full = semialgebra.SemialgebraElement(lat, gens)
    assert sorted(m.coord0 for m in gens) == sorted(drops)
    for dropped, cone in drops.items():
        rest = semialgebra.SemialgebraElement(
            lat, [m for m in gens if m.coord0 != dropped])
        assert _unequal_cones(fam, full, rest) == {frozenset(cone)}
        assert not semialgebra.equal_exact(fam, full, rest)
        assert not semialgebra.equal_exact(fam, rest, full)


@pytest.mark.parametrize("family, n, lam", SMALL_FAMILIES + [
    ("A", 3, (0, 2, 4, 6)), ("C", 3, (2, 4, 6))])
def test_cone_charts_one_per_sign_vector(family, n, lam):
    fam = families.GTFamily(family, n, lam)
    charts = semialgebra.cone_charts(fam)
    assert len(charts) == 2 ** len(fam.pihat)

    def key(chart):
        return tuple(sorted(lattice.chart_sign_vector(fam, chart).items()))

    signs = [key(chart) for chart in charts]
    assert len(set(signs)) == len(signs)
    assert set(signs) == {key(chart) for chart in mco.charts_of(fam.poset)}


# ---------------------------------------------------------------------------
# which step of equal_exact decides a pair

def _element(lat, *points):
    return semialgebra.SemialgebraElement(lat, [lat.element(p) for p in points])


def _counted(monkeypatch, owner, name):
    """Replace owner.<name> by a wrapper that records each call."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("family, n, lam, x, y, equal, dd", [
    # step 1: the same generators, listed in another order with a repeat
    ("C", 2, (2, 4), [(1, 0, 2, -1), (0, 0, 0, 0)],
     [(0, 0, 0, 0), (1, 0, 2, -1), (0, 0, 0, 0)], True, 0),
    # step 2: a unit vector apart, so the covector of that axis has two
    # different least values
    ("C", 2, (2, 4), [(0, 0, 0, 0)], [(0, 0, 0, 1)], False, 0),
    # step 3: (0,0,1) lies in (0,0,0) + K* on some cone charts and in
    # (0,0,2) + K* on the others
    ("A", 2, (0, 2, 4), [(0, 0, 0), (0, 0, 2)],
     [(0, 0, 0), (0, 0, 1), (0, 0, 2)], True, 0),
    # step 4: (0,0,1,1) is the midpoint of the other two generators; on the
    # two cone charts whose K* is an orthant in the last two axes neither of
    # them dominates it
    ("C", 2, (2, 4), [(0, 0, 1, 1), (0, 0, 0, 2), (0, 0, 2, 0)],
     [(0, 0, 0, 2), (0, 0, 2, 0)], True, 2),
])
def test_equal_exact_decision_step(monkeypatch, family, n, lam, x, y, equal,
                                   dd):
    fam = families.GTFamily(family, n, lam)
    lat = small_fam_lat(fam)
    a, b = _element(lat, *x), _element(lat, *y)
    calls = _counted(monkeypatch, geometry, "polyhedron_equal")
    assert semialgebra.equal_exact(fam, a, b) is equal
    assert semialgebra.equal_exact(fam, b, a) is equal
    assert len(calls) == 2 * dd
    assert equal_all_charts(fam, a, b) is equal


def test_same_generators_compute_no_cone(monkeypatch):
    """Regression guard: equal generating sets are decided before any chart
    work, so a fresh family computes neither covectors nor K*."""
    fam = families.GTFamily("C", 2, (2, 4))
    a = _element(small_fam_lat(fam), (1, 0, 2, -1), (0, 0, 0, 0))
    rays = _counted(monkeypatch, geometry, "cone_rays")
    covectors = _counted(monkeypatch, semialgebra, "chart_cone_covectors")
    assert semialgebra.equal_exact(fam, a, a)
    assert rays == [] and covectors == []


def test_fallback_computes_k_dual_once_per_cone(monkeypatch):
    """K* is computed for the two cone charts that fall back, once each; the
    hull tests themselves run double description one dimension up."""
    fam = families.GTFamily("C", 2, (2, 4))
    lat = small_fam_lat(fam)
    a = _element(lat, (0, 0, 1, 1), (0, 0, 0, 2), (0, 0, 2, 0))
    b = _element(lat, (0, 0, 0, 2), (0, 0, 2, 0))
    calls = _counted(monkeypatch, geometry, "cone_rays")
    for _ in range(3):
        assert semialgebra.equal_exact(fam, a, b)
    assert len([c for c in calls if c[1] == len(fam.axis)]) == 2
