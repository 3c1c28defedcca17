"""Idempotent semialgebra on finite generating sets of lattice elements.

Addition is union of generating sets; multiplication combines generators
through all charts.  Two generating sets represent the same element exactly
when their point-convex hulls agree on every dual cone.  On a chart C the
points linear there are induced by the duals of the cone matched to C; their
covectors W, in C's coordinates, cut out the cone K* = {x : w.x >= 0}, and
the hulls agree on C when conv(generators) + K* agree as honest polyhedra.
The matched cone depends only on C ∩ E, where E holds the elements q_{i+1,j}
above the interior positions (i,j), so one chart C ⊆ E per cone suffices.

``equal_exact`` decides a pair in this order, each step exact:
1. the same generators give the same element;
2. a covector w with different least values over the two generating sets
   refutes equality: w >= 0 on K*, so min_a w.a is w's minimum on the hull;
3. a chart where each generator lies in some generator of the other side
   plus K* (w.a >= w.b for all w) is equal: each hull holds the other's;
4. any chart left goes to double description (``polyhedron_equal``), with
   K*'s rays computed on first need and cached per family and cone.
"""

from __future__ import annotations

from itertools import combinations

from . import geometry, lattice


class Infinity:
    """Additive identity (absorbing for multiplication)."""

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


class SemialgebraElement:
    __slots__ = ("lattice", "gens")

    def __init__(self, lat, gens):
        self.lattice = lat
        seen = {}
        for m in gens:
            seen[m.coord0] = m
        if not seen:
            raise ValueError("a finite element needs at least one generator")
        self.gens = tuple(seen[c] for c in sorted(seen))

    def __repr__(self):
        return f"SemialgebraElement({[m.coord0 for m in self.gens]})"


def oplus(a, b):
    if a is INFINITY:
        return b
    if b is INFINITY:
        return a
    return SemialgebraElement(a.lattice, a.gens + b.gens)


def star(a, b):
    if a is INFINITY or b is INFINITY:
        return INFINITY
    out = []
    for m1 in a.gens:
        for m2 in b.gens:
            out.extend(a.lattice.upsilon(m1, m2))
    return SemialgebraElement(a.lattice, out)


# ---------------------------------------------------------------------------
# equality via per-chart hulls

def chart_covectors(fam, chart, duals):
    """Covectors, in chart coordinates, of the points induced by ``duals``:
    each dual paired with the lattice elements of the chart's unit basis."""
    lat = lattice.PolyptychLattice(fam.poset)
    dim = len(fam.axis)
    basis = [lat.from_chart(chart, tuple(1 if l == k else 0
                                         for l in range(dim)))
             for k in range(dim)]
    return [tuple(lattice.eval_w(fam, n, m.coord0) for m in basis)
            for n in duals]


def chart_cone_covectors(fam, chart):
    """Covectors (in chart coordinates) of the generating points of the dual
    cone matched to the chart; their min over a generating set computes the
    point-convex hull restricted to this chart."""
    return chart_covectors(fam, chart, lattice.chart_cone_duals(fam, chart))


def cone_charts(fam):
    """One chart per dual cone: every subset of the elements q_{i+1,j} above
    the interior positions (i,j), ordered by size then name."""
    above = sorted(fam.positions[(i + 1, j)] for (i, j) in fam.pihat)
    return [frozenset(c) for size in range(len(above) + 1)
            for c in combinations(above, size)]


def _dual_cones(fam):
    """[chart, covectors, K*] for each of the 2^|pihat| cone charts, built once
    per family under the DD dimension cap; K* is set on a chart's first DD."""
    if fam._dual_cones is None:
        dim, cap = len(fam.axis), geometry.DIM_CAP
        if dim > cap:
            raise geometry.DimCapExceeded(f"dimension {dim} exceeds cap {cap}")
        fam._dual_cones = [[chart, chart_cone_covectors(fam, chart), None]
                           for chart in cone_charts(fam)]
    return fam._dual_cones


def _dominated(values, by):
    """Each row of ``values`` is >= some row of ``by`` entrywise."""
    return all(any(all(x >= y for x, y in zip(row, low)) for low in by)
               for row in values)


def equal_exact(fam, a, b):
    if a is INFINITY or b is INFINITY:
        return (a is INFINITY) == (b is INFINITY)
    if a.gens == b.gens:  # deduplicated and sorted by coord0
        return True
    undecided = []
    for cone in _dual_cones(fam):
        chart, covectors, _ = cone
        pa = [m.chart(chart) for m in a.gens]
        pb = [m.chart(chart) for m in b.gens]
        va = [[geometry.dot(w, p) for w in covectors] for p in pa]
        vb = [[geometry.dot(w, p) for w in covectors] for p in pb]
        if any(min(x) != min(y) for x, y in zip(zip(*va), zip(*vb))):
            return False
        if not (_dominated(va, vb) and _dominated(vb, va)):
            undecided.append((cone, pa, pb))
    dim = len(fam.axis)
    for cone, pa, pb in undecided:
        if cone[2] is None:
            cone[2] = geometry.cone_rays(cone[1], dim)
        lineality, rays = cone[2]
        if not geometry.polyhedron_equal(
                geometry.VPolyhedron(dim, pa, rays, lineality),
                geometry.VPolyhedron(dim, pb, rays, lineality)):
            return False
    return True


def equal_sampled(a, b, functionals):
    """min-agreement over the supplied point functionals; equality up to the
    sampled family only."""
    if a is INFINITY or b is INFINITY:
        return (a is INFINITY) == (b is INFINITY)
    for phi in functionals:
        if min(phi(m) for m in a.gens) != min(phi(m) for m in b.gens):
            return False
    return True


def sample_functionals(fam, rng, count=60):
    out = list(lattice.structural_points(fam.poset))
    for _ in range(count):
        out.append(lattice.dual_point(fam, lattice.random_dual(fam, rng)))
    return out
