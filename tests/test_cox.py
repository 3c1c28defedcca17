import pytest

from polyptych import cox, families, lattice
from polyptych.geometry import UnimodularityFail
from polyptych.posets import chain_poset, gt_type_A, gt_type_C


def test_counts_type_c():
    for n in range(1, 5):
        lam = tuple(2 * i for i in range(1, n + 1))
        cc = cox.cox_counts(gt_type_C(n, lam))
        assert cc.variables == 2 * n * n


def test_counts_type_a():
    for n in range(1, 5):
        lam = tuple(2 * i for i in range(n + 1))
        cc = cox.cox_counts(gt_type_A(n, lam))
        assert cc.variables == n * (n + 1)


def test_counts_single_segment():
    cc = cox.cox_counts(chain_poset(1, 0, 2))
    assert (cc.U, cc.L, cc.variables) == (1, 2, 2)


def test_divisor_layout(fam_C2):
    points = lattice.structural_points(fam_C2.poset)
    kinds = [pt.kind for pt in points]
    assert kinds == sorted(kinds, key=lambda k: k != "INNER")
    # the element divisor of p sits at poset.index(p)
    assert [pt.p for pt in points if pt.kind == "INNER"] == list(fam_C2.axis)
    labels = [cox.divisor_label(pt) for pt in points]
    assert len(set(labels)) == len(labels)


def test_divisor_functionals_integral_and_homogeneous(fam_C2, rng):
    lat = lattice.PolyptychLattice(fam_C2.poset)
    m = lat.element(tuple(rng.randint(-3, 3) for _ in fam_C2.axis))
    for phi in lattice.structural_points(fam_C2.poset):
        v = phi(m)
        assert v == int(v)
        assert phi(m.scale(3)) == 3 * v


def test_f_pair_identity(fam_A2, fam_C2):
    """f_{q,+1} + f_{q,-1} equals the divisor unit vector of the element
    above q: x parts cancel, r parts add to e_{t above q}."""
    for fam in (fam_A2, fam_C2):
        points = lattice.structural_points(fam.poset)
        plus, minus = ({label: (x, r) for label, x, r in cox.generator_vectors(
            fam, dict.fromkeys(fam.pihat, e), points)} for e in (1, -1))
        for (i, j) in fam.pihat:
            name = fam.positions[(i, j)]
            xp, rp = plus[f"f_{name},+1"]
            xm, rm = minus[f"f_{name},-1"]
            assert [a + b for a, b in zip(xp, xm)] == [0] * len(xp)
            above = fam.positions[(i + 1, j)]
            assert [a + b for a, b in zip(rp, rm)] == [
                int(pt.kind == "INNER" and pt.p == above) for pt in points]


def test_all_sign_vectors_count(fam_C2):
    assert len(cox.all_sign_vectors(fam_C2)) == 2 ** len(fam_C2.pihat)


@pytest.mark.parametrize("family,n,lam", [
    ("A", 2, (0, 2, 4)), ("C", 2, (2, 4))])
def test_semigroup_generator_certificates(family, n, lam):
    fam = families.GTFamily(family, n, lam)
    for eps in cox.all_sign_vectors(fam):
        rep = cox.semigroup_generators(fam, eps)
        assert rep["ok"]
        assert abs(rep["determinant"]) == 1


def test_presentation_free_counts():
    expected = {("A", 2, (0, 2, 4)): 6, ("C", 2, (2, 4)): 8,
                ("A", 3, (0, 2, 4, 6)): 12, ("C", 3, (2, 4, 6)): 18}
    for (family, n, lam), free in expected.items():
        pres = cox.cox_presentation(families.GTFamily(family, n, lam))
        assert len(pres.free_variables) == free
        assert len(pres.free_variables) == cox.cox_counts(
            families.GTFamily(family, n, lam).poset).variables


@pytest.mark.parametrize("family,n,lam", [
    ("A", 2, (0, 2, 4)), ("C", 2, (2, 4))])
def test_spoiled_unit_pattern_fails_membership(family, n, lam, monkeypatch):
    """v_1's r is minus the boundary-unit exponent pattern; moving its
    corner divisor to another corner breaks phi(m) + r = 0."""
    fam = families.GTFamily(family, n, lam)
    corner = cox._corner_index

    def other_corner(fam, points, i, j):
        if (i, j) == fam.units[0]:
            return corner(fam, points, *fam.units[1])
        return corner(fam, points, i, j)

    monkeypatch.setattr(cox, "_corner_index", other_corner)
    for eps in cox.all_sign_vectors(fam):
        with pytest.raises(UnimodularityFail, match="generator v_1 fails"):
            cox.semigroup_generators(fam, eps)
