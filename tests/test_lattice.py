import hashlib
import itertools
import json
import random
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

from polyptych import cox, geometry, lattice, mco
from polyptych.families import GTFamily
from polyptych.posets import (MarkedPoset, basic_pi1, basic_pi2, chain_poset,
                              choose_u)


def lat_of(fam):
    return lattice.PolyptychLattice(fam.poset)


def test_chart_memoization_consistency(fam_C2):
    lat = lat_of(fam_C2)
    m = lat.element((1, -2, 3, 0))
    for chart in lat.charts():
        vec = m.chart(chart)
        assert lat.from_chart(chart, vec) == m


def verify_mutation_axioms(lat, vectors, chart_pairs):
    """The oracle of acceptance criterion 3: the definition axioms of the
    mutations (identity, inverse, cocycle) on samples, exactly.  Returns a
    report; raises AxiomFail on the first violation."""
    checked = 0
    for c1, c2 in chart_pairs:
        for v in vectors:
            if lat.mutate(c1, c1, v) != tuple(v):
                raise lattice.AxiomFail(
                    f"identity fails on chart {sorted(c1)}")
            w = lat.mutate(c1, c2, v)
            if lat.mutate(c2, c1, w) != tuple(v):
                raise lattice.AxiomFail(
                    f"inverse fails {sorted(c1)}->{sorted(c2)} at {v}")
            checked += 1
    charts = [c for pair in chart_pairs for c in pair]
    for c1, c2, c3 in zip(charts, charts[1:], charts[2:]):
        for v in vectors[:20]:
            w = lat.mutate(c2, c3, lat.mutate(c1, c2, v))
            if w != lat.mutate(c1, c3, v):
                raise lattice.AxiomFail("cocycle fails")
            checked += 1
    return {"checked": checked, "ok": True}


def test_mutation_axioms(fam_C2, rng):
    lat = lat_of(fam_C2)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(lat.dim))
               for _ in range(12)]
    pairs = list(itertools.combinations(lat.charts(), 2))
    rng.shuffle(pairs)
    rep = verify_mutation_axioms(lat, vectors, pairs[:30])
    assert rep["ok"] and rep["checked"] > 0


def test_point_axiom_structural(fam_C2, rng):
    lat = lat_of(fam_C2)
    pts = lattice.structural_points(fam_C2.poset)
    assert pts
    pairs = [(lat.element(tuple(rng.randint(-3, 3) for _ in range(lat.dim))),
              lat.element(tuple(rng.randint(-3, 3) for _ in range(lat.dim))))
             for _ in range(10)]
    for phi in pts:
        assert lattice.verify_point_axiom(lat, phi, pairs)["ok"]


def test_linearity_directions(fam_A2, rng):
    """Every mutation is affine along the full row sums at the unit rows,
    which span the linearity space in chart 0, and along two integer
    combinations of them: mu_C(x + v) - mu_C(x) = mu_C(v)."""
    poset = fam_A2.poset
    dirs = [tuple(int(fam_A2.pos_of[p][0] == i) for p in poset.axis)
            for i in sorted({i for i, _ in fam_A2.units})]
    assert len(dirs) == 2
    dirs += [tuple(a - 2 * b for a, b in zip(*dirs)),
             tuple(map(sum, zip(*dirs)))]
    vectors = [tuple(rng.randint(-3, 3) for _ in poset.axis)
               for _ in range(8)]
    for chart in mco.charts_of(poset):
        for v in dirs:
            shift = mco.mu(poset, chart, v)
            for x in vectors:
                assert mco.mu(poset, chart, tuple(map(add, x, v))) == tuple(
                    map(add, mco.mu(poset, chart, x), shift))


def _pl_half_spaces(poset, u):
    """The piecewise-linear description of the centered polytope, as
    (structural point, bound) pairs: phi_p >= u_q - u_p (any lower cover q)
    and phi_{p,p'} >= u_{p'} - lam_p."""
    uval = dict(u.u)
    uval.update(poset.marking)
    return [(phi, uval[phi.pprime if phi.kind == "CORNER"
                       else poset.lower_covers(phi.p)[0]] - uval[phi.p])
            for phi in lattice.structural_points(poset)]


def _chart0_rows(poset, half_spaces):
    """The chart-0 image of the half-spaces, expanded to linear rows:
    phi_p >= a is x_p - x_q >= a per unmarked lower cover q, and x_p >= a
    when p has a marked lower cover; phi_{p,p'} >= a is -x_{p'} >= a."""
    def row(*terms):
        e = [0] * len(poset.axis)
        for c, p in terms:
            e[poset.index(p)] = c
        return tuple(e)

    rows = []
    for phi, bound in half_spaces:
        if phi.kind == "CORNER":
            rows.append((row((-1, phi.pprime)), bound))
            continue
        covers = poset.lower_covers(phi.p)
        rows += [(row((1, phi.p), (-1, q)), bound)
                 for q in covers if not poset.is_marked(q)]
        if any(map(poset.is_marked, covers)):
            rows.append((row((1, phi.p)), bound))
    return geometry.HPolyhedron(len(poset.axis), rows)


def _pl_mismatches(lat, u, half_spaces, samples=()):
    """The charts on which the half-spaces cut out another set than the
    chart polytope: chart 0 is compared exactly as H-polyhedra, every other
    chart pointwise on chart 0's lattice points and the samples."""
    poset = lat.poset
    charts = mco.charts_of(poset)
    bad = [] if geometry.polyhedron_equal(
        _chart0_rows(poset, half_spaces),
        mco.hat_delta(poset, u, charts[0])) else [""]
    probes = [lat.element(z) for z in itertools.chain(
        mco.lattice_points_of_hat_delta(poset, u, charts[0], 1), samples)]
    for chart in charts[1:]:
        hrep = mco.hat_delta(poset, u, chart)
        if any(all(phi(m) >= bound for phi, bound in half_spaces)
               != hrep.contains(m.chart(chart)) for m in probes):
            bad.append(mco.chart_str(chart))
    return bad


def test_pl_description(fam_C2, rng):
    lat = lat_of(fam_C2)
    u = choose_u(fam_C2.poset)
    samples = [tuple(rng.randint(-4, 4) for _ in range(lat.dim))
               for _ in range(40)]
    assert _pl_mismatches(lat, u, _pl_half_spaces(fam_C2.poset, u),
                          samples) == []


@pytest.mark.parametrize("drop", range(6))
def test_pl_description_without_a_half_space_fails(fam_C2, drop):
    u = choose_u(fam_C2.poset)
    half_spaces = _pl_half_spaces(fam_C2.poset, u)
    assert len(half_spaces) == 6
    del half_spaces[drop]
    assert _pl_mismatches(lat_of(fam_C2), u, half_spaces)


def test_dual_completion_determines_values(fam_C2, rng):
    d = lattice.random_dual(fam_C2, rng)
    d2 = lattice.DualElement(fam_C2, d.y)
    assert (d2.y, d2.yp) == (d.y, d.yp)
    assert d2 == d and hash(d2) == hash(d)


def test_eval_w_linear_in_x(fam_C2, rng):
    d = lattice.random_dual(fam_C2, rng)
    x1 = tuple(rng.randint(-3, 3) for _ in fam_C2.axis)
    x2 = tuple(rng.randint(-3, 3) for _ in fam_C2.axis)
    s = tuple(a + b for a, b in zip(x1, x2))
    assert (lattice.eval_w(fam_C2, d, s)
            == lattice.eval_w(fam_C2, d, x1) + lattice.eval_w(fam_C2, d, x2))


def test_strict_dual_report(fam_C2, rng):
    rep = lattice.verify_strict_dual(fam_C2, rng, pairs=80, chart_samples=12)
    assert rep["ok"]


def test_strict_dual_report_is_pinned():
    """A2 with one sample per chart sends seven of its eight charts into the
    targeted search, so this pins the rng draws of both sampling loops."""
    rep = lattice.verify_strict_dual(GTFamily("A", 2, (0, 2, 4)),
                                     random.Random(0), pairs=5,
                                     chart_samples=1)
    # a chart searched on exactly when its one sample drew no failure
    assert sum(c["inside"] + c["outside"] > 1
               for c in rep["charts"].values()) == 7
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()
                          ).hexdigest() == (
        "a7ba0aedcff19db502e32d1bee73112ab6dc431ace72f93f719a13aba08dcc05")


def not_a_point(m):
    """|x_0|: homogeneous, but not min-additive across charts."""
    return abs(m.coord0[0])


def test_point_axioms_refuse_a_functional_that_is_not_a_point(fam_C2):
    lat = lat_of(fam_C2)
    pairs = _seeded_pairs(lat, random.Random(7), 10)
    points = lattice.structural_points(fam_C2.poset)
    assert lattice.verify_point_axioms(lat, points, pairs) == {
        "pairs": 10, "ok": True}
    with pytest.raises(lattice.AxiomFail, match="^additivity"):
        lattice.verify_point_axioms(lat, [*points, not_a_point], pairs)
    with pytest.raises(lattice.AxiomFail, match="^additivity"):
        lattice.verify_point_axiom(lat, not_a_point, pairs)


def test_structural_point_labels(fam_C2):
    labels = {cox.divisor_label(p)
              for p in lattice.structural_points(fam_C2.poset)}
    assert len(labels) == len(lattice.structural_points(fam_C2.poset))


def test_scale_distributes(fam_A2, rng):
    lat = lat_of(fam_A2)
    m = lat.element(tuple(rng.randint(-3, 3) for _ in range(lat.dim)))
    for chart in list(lat.charts())[:4]:
        assert m.scale(3).chart(chart) == tuple(
            3 * c for c in m.chart(chart))


def test_linear_extension_value():
    rows = [((2, 0, 1), 3), ((0, 1, 1), -1), ((2, 1, 2), 2), ((0, 0, 2), 4)]
    assert lattice._linear_extension(rows, (1, 0, 0)) == Fraction(1, 2)
    assert lattice._linear_extension(rows, (2, 2, 3)) == 1


def test_linear_extension_inconsistent_values():
    rows = [((1, 0), 1), ((0, 1), 2), ((1, 1), 4)]
    with pytest.raises(lattice.DualFail, match="inconsistent"):
        lattice._linear_extension(rows, (1, 0))


def test_linear_extension_target_outside_span():
    rows = [((1, 1, 0), 1), ((2, 2, 0), 2)]
    with pytest.raises(lattice.DualFail, match="outside"):
        lattice._linear_extension(rows, (1, 0, 0))


# ---------------------------------------------------------------------------
# upsilon against the all-chart loop

def upsilon_all_charts(lat, m1, m2):
    """Reference: add in every chart, drop repeats, sort by chart-0 coord."""
    return sorted({lat.add_in_chart(m1, m2, c).coord0 for c in lat.charts()})


def chart_sums_all_charts(poset, x1, x2):
    """The same reference through the chart maps, for posets that are not
    graded and so have no PolyptychLattice."""
    return sorted({mco.mu_inverse(poset, c, tuple(
        a + b for a, b in zip(mco.mu(poset, c, x1), mco.mu(poset, c, x2))))
        for c in mco.charts_of(poset)})


def random_dag(rng, size=6):
    """Hasse diagram of a random poset, usually not graded: marked bottom
    and top, elements each above one to three earlier ones, the top
    covering every maximal element, and, when some element other than the
    bottom is covered by one other than the top, one such element marked
    as well.  Redundant relations are dropped."""
    names = [f"e{k}" for k in range(size)]
    below = {}  # element -> every element below it
    covers = set()
    for k, p in enumerate(names):
        earlier = ["bot"] + names[:k]
        chosen = rng.sample(earlier, min(len(earlier), rng.randint(1, 3)))
        below[p] = set(chosen).union(*(below.get(q, ()) for q in chosen))
        covers.update((q, p) for q in chosen)
    maximal = [p for p in names if not any(q == p for q, _ in covers)]
    covers.update((p, "top") for p in maximal)
    covers = [(q, p) for q, p in covers if not any(
        q in below.get(r, ()) for r, pp in covers if pp == p)]
    marking = {"bot": 0, "top": 9}
    middle = sorted(q for q, p in covers if p != "top" and q != "bot")
    if middle:  # at size 3 there may be none
        marking[rng.choice(middle)] = rng.randint(0, 9)
    return MarkedPoset(["bot", "top", *names], covers, marking)


def _seeded_pairs(lat, rng, count):
    def element():
        return lat.element(tuple(rng.randint(-9, 9) for _ in lat.axis))
    return [(element(), element()) for _ in range(count)]


@pytest.mark.parametrize("poset, count", [
    (GTFamily("A", 2, (0, 2, 4)).poset, 40),
    (GTFamily("C", 2, (2, 4)).poset, 40),
    (GTFamily("A", 3, (0, 1, 3, 5)).poset, 20),
    (GTFamily("C", 3, (2, 4, 6)).poset, 3),
    (chain_poset(3, 0, 4), 20),
    (basic_pi1(2), 20),
    (basic_pi2(2, 1), 20),
], ids=["A2", "C2", "A3", "C3", "chain", "pi1", "pi2"])
def test_upsilon_matches_all_charts(poset, count):
    lat = lattice.PolyptychLattice(poset)
    for m1, m2 in _seeded_pairs(lat, random.Random(7), count):
        assert ([s.coord0 for s in lat.upsilon(m1, m2)]
                == upsilon_all_charts(lat, m1, m2))


@pytest.mark.parametrize("seed", range(8))
def test_chart_sums_match_all_charts_on_random_dags(seed):
    rng = random.Random(seed)
    poset = random_dag(rng)
    for _ in range(10):
        x1, x2 = (tuple(rng.randint(-9, 9) for _ in poset.axis)
                  for _ in range(2))
        assert (mco.chart_sums(poset, x1, x2)
                == chart_sums_all_charts(poset, x1, x2))


def test_upsilon_visits_no_chart(monkeypatch):
    fam = GTFamily("C", 3, (2, 4, 6))
    lat = lat_of(fam)
    pairs = _seeded_pairs(lat, random.Random(1), 4)

    def visited(*args):
        raise AssertionError("upsilon visited a chart")

    monkeypatch.setattr(lattice.PolyptychLattice, "add_in_chart", visited)
    monkeypatch.setattr(mco, "mu_inverse", visited)
    for m1, m2 in pairs:
        sums = lat.upsilon(m1, m2)
        assert tuple(a + b for a, b in zip(m1.coord0, m2.coord0)) in {
            s.coord0 for s in sums}
    for phi in lattice.structural_points(fam.poset):
        assert lattice.verify_point_axiom(lat, phi, pairs)["ok"]


# ---------------------------------------------------------------------------
# eval_w against the row expansion through fam.coord

def eval_w_reference(fam, dual, x):
    total = 0
    for (i, j) in fam.positions:
        c = fam.coord(x, i, j) - fam.coord(x, i, j + 1)
        k = fam.axis_index(i, j)
        total += c * (dual.y[k] if c >= 0 else dual.yp[k])
    return total


FAMILIES = pytest.mark.parametrize("fam", [
    GTFamily("A", 2, (0, 2, 4)), GTFamily("C", 2, (2, 4)),
    GTFamily("A", 3, (0, 1, 3, 5)), GTFamily("C", 3, (2, 4, 6))],
    ids=["A2", "C2", "A3", "C3"])


@FAMILIES
def test_eval_w_matches_row_expansion(fam):
    rng = random.Random(5)
    index = fam._axis_index
    ties = 0
    for _ in range(30):
        dual = lattice.random_dual(fam, rng)
        for _ in range(6):
            x = [rng.randint(-9, 9) for _ in fam.axis]
            # make x_{i,j} = x_{i,j+1} (0 past the row end) at some
            # positions, right to left: the c = 0 edge between the y branch
            # and the y' branch
            for (i, j), k in sorted(index.items(), key=lambda e: -e[0][1]):
                if rng.random() < 0.4:
                    x[k] = fam.coord(x, i, j + 1)
            x = tuple(x)
            ties += sum(fam.coord(x, i, j) == fam.coord(x, i, j + 1)
                        for (i, j) in index)
            assert (lattice.eval_w(fam, dual, x)
                    == eval_w_reference(fam, dual, x))
    assert ties > 0


# ---------------------------------------------------------------------------
# the y' solver of DualElement against the closed forms

def by_position(fam, vec):
    return {fam.pos_of[name]: v for name, v in zip(fam.axis, vec)}


def eps_closed_form(fam, i, j):
    """(y, y') of the generator on rows i and i-1, written out."""
    y, yp = {}, {}
    for (k, l) in fam.positions:
        y[(k, l)] = yp[(k, l)] = 0
        if k == i and l >= j:
            y[(k, l)] = yp[(k, l)] = 1
        elif k == i - 1 and l >= j:
            y[(k, l)] = -1
            yp[(k, l)] = -1 if l >= j + 1 else 0
    return y, yp


def eps_prime_closed_form(fam, i, j):
    y = {(k, l): -1 if k == i and l >= j else 0 for (k, l) in fam.positions}
    return y, dict(y)


@FAMILIES
def test_dual_generators_match_closed_form(fam):
    ys = lattice._generator_ys(fam)
    for (i, j) in fam.positions:
        for positive, closed in ((True, eps_closed_form),
                                 (False, eps_prime_closed_form)):
            d = lattice.DualElement(fam, ys[(i, j, positive)])
            assert (by_position(fam, d.y), by_position(fam, d.yp)) == closed(
                fam, i, j), (positive, i, j)


def test_eval_v_builds_no_dual_element(monkeypatch):
    """eval_v reads the generator y-vectors from the family's table, built
    without a DualElement, and agrees with eval_w."""
    fam = GTFamily("C", 2, (2, 4))
    rng = random.Random(3)
    samples = [(tuple(rng.randint(-4, 4) for _ in fam.axis),
                lattice.random_dual(fam, rng)) for _ in range(20)]

    def forbidden(self, fam, y):
        raise AssertionError("eval_v built a DualElement")

    monkeypatch.setattr(lattice.DualElement, "__init__", forbidden)
    for x, n in samples:
        assert lattice.eval_v(fam, x, n) == lattice.eval_w(fam, n, x)


# ---------------------------------------------------------------------------
# randints against randint, draw for draw

RANGES = [(-4, 4), (-3, 3), (-6, 6), (-12, 12), (1, 4), (0, 2), (5, 5),
          (0, 7), (0, 8), (1, 5), (1, 9)]


def _draws_match(sampler):
    """Whether sampler(rng, lo, hi, n) returns the next n values of
    rng.randint(lo, hi) and leaves rng in the same state, on every range
    above, several seeds and several lengths.  randint's algorithm is not
    promised across Python versions; this is what holds it."""
    for lo, hi in RANGES:
        for seed in range(6):
            for n in (0, 1, 9, 40):
                ours, theirs = random.Random(seed), random.Random(seed)
                if (sampler(ours, lo, hi, n)
                        != [theirs.randint(lo, hi) for _ in range(n)]
                        or ours.getstate() != theirs.getstate()):
                    return False
    return True


def test_randints_is_randint_draw_for_draw():
    assert _draws_match(lattice.randints)


def test_sampler_drawing_one_bit_more_is_caught():
    def wide(rng, lo, hi, n):
        width = hi - lo + 1
        out = []
        while len(out) < n:
            r = rng.getrandbits(width.bit_length() + 1)
            if r < width:
                out.append(lo + r)
        return out

    assert not _draws_match(wide)


def test_the_package_draws_integers_through_randints():
    package = Path(lattice.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if ".randint(" in p.read_text()] == []


# ---------------------------------------------------------------------------
# y', the gaps, dual_in_cone and eval_v against the per-position oracles

def _dual_gap(fam, y, yp, i, j):
    """The argument -y'_{i+1,j} + y_{i+1,j-1} of the min-equation at (i,j)."""
    left = fam._axis_index.get((i + 1, j - 1))
    return -yp[fam.axis_index(i + 1, j)] + (0 if left is None else y[left])


def chart_coord(fam, x, i, j):
    """The (i,j)-coordinate of the chart {q_{i,j}} image of x."""
    name = fam.positions[(i, j)]
    return mco.mu(fam.poset, frozenset({name}), x)[fam.axis_index(i, j)]


def _sample_duals(fam, count=40):
    ys = lattice._generator_ys(fam)
    rng = random.Random(7)
    return ([lattice.DualElement(fam, y) for y in ys.values()]
            + [lattice.random_dual(fam, rng) for _ in range(count)])


def _solve_mismatches(fam, duals):
    """The duals whose y' breaks a min-equation or whose gaps differ from
    the oracle's, read at the final y'."""
    bad = []
    for d in duals:
        y, yp = by_position(fam, d.y), by_position(fam, d.yp)
        equations = all(
            y[(i, j)] - yp[(i, j)] == (
                min(0, -yp[(i + 1, j)] + y.get((i + 1, j - 1), 0))
                if (i + 1, j) in fam.positions else 0)
            for (i, j) in fam.positions)
        gaps = tuple(_dual_gap(fam, d.y, d.yp, i, j) for i, j in fam.pihat)
        if not equations or d.gaps != gaps:
            bad.append(d)
    return bad


@FAMILIES
def test_random_duals_satisfy_min_equations(fam):
    """y' and the gaps of every generator and of 40 random duals."""
    assert _solve_mismatches(fam, _sample_duals(fam)) == []


@pytest.mark.parametrize("family, n, lam", [
    ("A", 3, (0, 1, 3, 5)), ("C", 3, (2, 4, 6))], ids=["A3", "C3"])
def test_plan_without_a_left_index_is_caught(family, n, lam):
    fam = GTFamily(family, n, lam)
    plan = fam.yp_plan
    spoiled = [e for e, (_, _, left) in enumerate(plan) if left is not None]
    assert spoiled
    for e in spoiled:
        fam.yp_plan = (*plan[:e], (*plan[e][:2], None), *plan[e + 1:])
        assert _solve_mismatches(fam, _sample_duals(fam)), e


@FAMILIES
def test_dual_in_cone_matches_the_oracle_on_every_chart(fam):
    duals = _sample_duals(fam, 10)
    inside = 0
    for chart in mco.charts_of(fam.poset):
        signs = lattice.chart_sign_vector(fam, chart)
        for d in duals:
            expect = all(s * _dual_gap(fam, d.y, d.yp, i, j) <= 0
                         for (i, j), s in signs.items())
            assert lattice.dual_in_cone(fam, d, signs) == expect
            inside += expect
    assert 0 < inside < len(duals) * 2 ** len(fam.axis)


@FAMILIES
def test_eval_v_rows_match_chart_coord(fam, monkeypatch):
    """eval_v reads every chart-{q_{i,j}} coordinate from one full-chart mu
    call; its rows equal those built from one chart_coord per generator."""
    rng = random.Random(13)
    samples = [(tuple(rng.randint(-9, 9) for _ in fam.axis), d)
               for d in _sample_duals(fam, 10)]
    ys = lattice._generator_ys(fam)
    extend = lattice._linear_extension
    seen = []

    def recorded(rows, target):
        seen.append(rows)
        return extend(rows, target)

    monkeypatch.setattr(lattice, "_linear_extension", recorded)
    calls = []
    mu = mco.mu
    monkeypatch.setattr(mco, "mu", lambda *a: calls.append(a) or mu(*a))
    for x, d in samples:
        signs = {(i, j): 1 if _dual_gap(fam, d.y, d.yp, i, j) <= 0 else -1
                 for (i, j) in fam.pihat}
        expect = [(ys[(i, j, positive)], chart_coord(fam, x, i, j)
                   if positive else -fam.coord(x, i, j))
                  for i, j, positive in lattice._cone_generators(fam, signs)]
        calls.clear()
        assert lattice.eval_v(fam, x, d) == lattice.eval_w(fam, d, x)
        assert seen.pop() == expect and len(calls) == 1
