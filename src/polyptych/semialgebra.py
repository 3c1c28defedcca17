"""Idempotent semialgebra on finite generating sets of lattice elements.

Addition is union of generating sets; multiplication combines generators
through all charts.  Two generating sets represent the same element exactly
when their point-convex hulls agree, which is decided by exact hull equality
per dual cone.  On a chart C the points linear there are induced by the duals
of the cone matched to C; they form a cone of covectors K in C's coordinates,
and the hulls agree on C when conv(generators) + K-dual agree as honest
polyhedra.  The matched cone depends only on C ∩ E, where E holds the
elements q_{i+1,j} above the interior positions (i,j), so one chart C ⊆ E
per cone suffices, and K-dual is computed once per family and cone.
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
    """(chart, lineality, rays) of K-dual for each cone chart, computed once
    per family by double description over the chart's cone covectors."""
    if fam._dual_cones is None:
        dim = len(fam.axis)
        fam._dual_cones = [
            (chart, *geometry.cone_rays(chart_cone_covectors(fam, chart), dim))
            for chart in cone_charts(fam)]
    return fam._dual_cones


def equal_exact(fam, a, b):
    if a is INFINITY or b is INFINITY:
        return (a is INFINITY) == (b is INFINITY)
    dim = len(fam.axis)
    for chart, lineality, rays in _dual_cones(fam):
        ha = geometry.VPolyhedron(dim, [m.chart(chart) for m in a.gens],
                                  rays, lineality)
        hb = geometry.VPolyhedron(dim, [m.chart(chart) for m in b.gens],
                                  rays, lineality)
        if not geometry.polyhedron_equal(ha, hb):
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
    out = [phi for phi in lattice.structural_points(fam.poset)]
    for _ in range(count):
        out.append(lattice.dual_point(fam, lattice.random_dual(fam, rng)))
    return out
