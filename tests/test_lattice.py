import itertools
from fractions import Fraction

import pytest

from polyptych import lattice
from polyptych.posets import choose_u


def lat_of(fam):
    return lattice.PolyptychLattice(fam.poset)


def test_chart_memoization_consistency(fam_C2):
    lat = lat_of(fam_C2)
    m = lat.element((1, -2, 3, 0))
    for chart in lat.charts():
        vec = m.chart(chart)
        assert lat.from_chart(chart, vec) == m


def test_mutation_axioms(fam_C2, rng):
    lat = lat_of(fam_C2)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(lat.dim))
               for _ in range(12)]
    pairs = list(itertools.combinations(lat.charts(), 2))
    rng.shuffle(pairs)
    rep = lattice.verify_mutation_axioms(lat, vectors, pairs[:30])
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
    lat = lat_of(fam_A2)
    dirs = lattice.gt_linearity_directions(fam_A2)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(lat.dim))
               for _ in range(8)]
    assert lattice.verify_linearity_space(lat, dirs, vectors)["ok"]


def test_pl_description(fam_C2, rng):
    lat = lat_of(fam_C2)
    u = choose_u(fam_C2.poset)
    samples = [tuple(rng.randint(-4, 4) for _ in range(lat.dim))
               for _ in range(40)]
    assert lattice.verify_pl_description(lat, u, samples)["ok"]


@pytest.mark.parametrize("drop", range(6))
def test_pl_description_without_a_half_space_fails(fam_C2, monkeypatch,
                                                   drop):
    u = choose_u(fam_C2.poset)
    full = lattice.pl_hat_delta
    assert len(full(fam_C2.poset, u)) == 6
    monkeypatch.setattr(lattice, "pl_hat_delta", lambda poset, u: tuple(
        hs for k, hs in enumerate(full(poset, u)) if k != drop))
    assert lattice.verify_pl_description(lat_of(fam_C2), u)["ok"] is False


def test_dual_completion_determines_values(fam_C2, rng):
    d = lattice.random_dual(fam_C2, rng)
    d2 = lattice.dual_complete(fam_C2, dict(d.y))
    assert d2.key() == d.key()


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


def test_structural_point_labels(fam_C2):
    labels = {p.label() for p in lattice.structural_points(fam_C2.poset)}
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
