from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyptych import geometry

from test_semialgebra import minkowski_sum_hull


def square(side):
    h = geometry.HPolyhedron(2)
    h.add((1, 0), 0)
    h.add((-1, 0), -side)
    h.add((0, 1), 0)
    h.add((0, -1), -side)
    return h


def test_det_known_values():
    assert geometry.det([[1, 2], [3, 4]]) == -2
    assert geometry.det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert geometry.det([[1]]) == 1


def test_unimodular_detection():
    assert abs(geometry.det([[1, 1], [0, 1]])) == 1
    assert abs(geometry.det([[2, 0], [0, 1]])) != 1


def leibniz(m):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[a] > perm[b]
                         for a, b in combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def largest_nonzero_minor(m):
    """Rank as the size of the largest square submatrix with a nonzero
    Leibniz determinant."""
    for size in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), size):
            for cols in combinations(range(len(m[0])), size):
                if leibniz([[m[i][j] for j in cols] for i in rows]):
                    return size
    return 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_matches_leibniz(m):
    assert geometry.det(m) == leibniz(m)


ENTRIES = st.sampled_from([Fraction(0), Fraction(0), Fraction(1),
                           Fraction(-1), Fraction(1, 2), Fraction(-3, 2),
                           Fraction(2, 3)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=4)))
def test_rank_matches_largest_nonzero_minor(m):
    assert geometry.rank(m) == largest_nonzero_minor(m)


def test_square_lattice_points():
    pts = geometry.lattice_points(square(3), [(0, 3), (0, 3)])
    assert len(pts) == 16


def test_dilate_scales_counts():
    poly = square(1)
    for k in range(4):
        pts = geometry.lattice_points(poly.dilate(k), [(0, k), (0, k)])
        assert len(pts) == (k + 1) ** 2


def test_translate_preserves_membership():
    poly = square(2)
    moved = poly.translate((5, -1))
    assert moved.contains((5, -1)) and moved.contains((7, 1))
    assert not moved.contains((4, 0))


@pytest.mark.parametrize("k, t", [
    (3, (5, -1)),
    (Fraction(3, 2), (Fraction(1, 2), -1)),
    (Fraction(4), (2, Fraction(-3)))])
def test_moved_rows_equal_the_constructor_path(k, t):
    """translate and dilate keep int rows as they are and send any other
    scalar through add; the rows are those that the constructor makes."""
    poly = geometry.HPolyhedron(2, [((1, 0), 0), ((0, Fraction(1, 2)), 1),
                                    ((-1, -1), Fraction(-7, 2))])
    moved = geometry.HPolyhedron(
        2, [(a, b + geometry.dot(a, t)) for a, b in poly.rows])
    dilated = geometry.HPolyhedron(2, [(a, k * b) for a, b in poly.rows])
    assert poly.translate(t).rows == moved.rows
    assert poly.dilate(k).rows == dilated.rows
    for rows in (poly.translate(t).rows, poly.dilate(k).rows):
        assert all(type(x) is int for a, b in rows for x in (*a, b))


def test_h_v_roundtrip_square():
    poly = square(1)
    v = geometry.h_to_v(poly)
    assert sorted(v.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    back = geometry.v_to_h(v)
    assert geometry.polyhedron_equal(poly, back)


def _simplex(dim):
    """{x >= 0, sum x <= 1}: dim + 1 vertices."""
    rows = [(tuple(int(i == j) for j in range(dim)), 0) for i in range(dim)]
    return geometry.HPolyhedron(dim, rows + [((-1,) * dim, -1)])


def test_h_to_v_dimension_cap():
    # the homogenized cone has one dimension more than the polyhedron, and
    # the cap applies to the polyhedron
    cap = geometry.DIM_CAP
    assert len(geometry.h_to_v(_simplex(cap)).vertices) == cap + 1
    with pytest.raises(geometry.DimCapExceeded):
        geometry.h_to_v(_simplex(cap + 1))


def test_minkowski_sum_hull_segment():
    trivial_cone = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    hull = geometry.v_to_h(
        minkowski_sum_hull([(0, 0), (1, 1)], trivial_cone, 2))
    assert hull.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not hull.contains((1, 0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_translation_equivariance(t, x):
    poly = square(3)
    assert poly.contains(x) == poly.translate(t).contains(
        tuple(a + b for a, b in zip(x, t)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_transpose_invariant(m):
    mt = [[m[j][i] for j in range(3)] for i in range(3)]
    assert geometry.det(m) == geometry.det(mt)


def test_cone_rays_scales_a_rational_halfspace():
    # x/2 - y/3 >= 0 is the half-plane 3x - 2y >= 0, not the whole plane
    lin, rays = geometry.cone_rays([(Fraction(1, 2), Fraction(-1, 3))], 2)
    assert lin == [(2, 3)] and rays == [(1, 0)]


def test_v_to_h_rows_are_python_ints():
    poly = geometry.v_to_h(geometry.VPolyhedron(
        2, [(0, 0), (2, 1)], rays=[(1, 3)], lineality=[(1, 1)]))
    assert poly.rows and all(type(c) is int
                             for a, b in poly.rows for c in (*a, b))


def test_polyhedron_equal_builds_second_hrep_only_after_first_inclusion(
        monkeypatch):
    built = []
    v_to_h = geometry.v_to_h
    monkeypatch.setattr(geometry, "v_to_h",
                        lambda *a, **kw: built.append(a) or v_to_h(*a, **kw))
    long = geometry.VPolyhedron(2, [(0, 0), (2, 0)])
    short = geometry.VPolyhedron(2, [(0, 0), (1, 0)])
    assert not geometry.polyhedron_equal(long, short)
    assert len(built) == 1
    built.clear()
    assert not geometry.polyhedron_equal(short, long)
    assert len(built) == 2
