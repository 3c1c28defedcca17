"""Polyptych lattice of a marked poset: charts glued by the linearized
transfer maps, chart-wise addition, structural points, a check of the point
axioms, and (for the triangular families) the dual lattice with its strict
pairing.

An element is stored by its coordinate in the all-order chart (chart 0);
coordinates in other charts are computed on demand by ``mco.mu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import geometry, mco
from .posets import graded_structure


def randints(rng, lo, hi, n):
    """The next n values of randint(lo, hi) on rng, drawn as CPython's
    randint draws them (lo + _randbelow(width): getrandbits of width's bit
    length until a value below width), so ``rng`` ends in the same state."""
    width = hi - lo + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    while len(out) < n:
        r = getrandbits(bits)
        if r < width:
            out.append(lo + r)
    return out


class AxiomFail(Exception):
    """A sampled functional violates the point axioms."""


class DualFail(Exception):
    """The strict dual pairing is inconsistent on a sample."""


class MElement:
    """Lattice element, identified by its chart-0 coordinate vector."""

    __slots__ = ("lattice", "coord0")

    def __init__(self, lattice, coord0):
        self.lattice = lattice
        self.coord0 = tuple(coord0)

    def chart(self, chart):
        return mco.mu(self.lattice.poset, frozenset(chart), self.coord0)

    def scale(self, k):
        if k < 0:
            raise ValueError("scaling is defined for k >= 0 only")
        return self.lattice.element(tuple(k * c for c in self.coord0))

    def __eq__(self, other):
        return isinstance(other, MElement) and self.coord0 == other.coord0

    def __hash__(self):
        return hash(self.coord0)

    def __repr__(self):
        return f"MElement{self.coord0}"


class PolyptychLattice:
    def __init__(self, poset):
        graded_structure(poset)  # raises NotGraded on a non-graded poset
        self.poset = poset
        self.axis = poset.axis
        self.dim = len(poset.axis)

    def charts(self):
        return mco.charts_of(self.poset)

    def element(self, coord0):
        return MElement(self, coord0)

    def from_chart(self, chart, vec):
        return self.element(
            mco.mu_inverse(self.poset, frozenset(chart), vec))

    def mutate(self, chart1, chart2, vec):
        """mu_{C1,C2}: the chart-C1 coordinate change to chart C2."""
        base = mco.mu_inverse(self.poset, frozenset(chart1), vec)
        return mco.mu(self.poset, frozenset(chart2), base)

    def add_in_chart(self, m1, m2, chart):
        chart = frozenset(chart)
        total = tuple(a + b for a, b in zip(m1.chart(chart), m2.chart(chart)))
        return self.from_chart(chart, total)

    def upsilon(self, m1, m2):
        """The distinct chart sums of m1 and m2 over all charts, sorted by
        chart-0 coordinate (see mco.chart_sums)."""
        return tuple(self.element(z) for z in
                     mco.chart_sums(self.poset, m1.coord0, m2.coord0))


# ---------------------------------------------------------------------------
# structural points

@dataclass(frozen=True)
class StructuralPoint:
    """Evaluation functional on the lattice: INNER(p) reads the p-coordinate
    in the chart {p}; CORNER(p, p') reads minus the chart-0 p'-coordinate."""

    kind: str                 # "INNER" or "CORNER"
    p: str
    pprime: str | None = None

    def __call__(self, m):
        poset = m.lattice.poset
        if self.kind == "INNER":
            return m.chart(frozenset({self.p}))[poset.index(self.p)]
        return -m.coord0[poset.index(self.pprime)]


def structural_points(poset):
    """INNER(p) for each p in axis order, then CORNER(p, p') for each marked
    p and unmarked lower cover p', both by name.  The Cox ring has one
    boundary divisor per point, in this order."""
    points = [StructuralPoint("INNER", p) for p in poset.axis]
    for p in sorted(poset.marking):
        for pp in poset.lower_covers(p):
            if not poset.is_marked(pp):
                points.append(StructuralPoint("CORNER", p, pp))
    return points


def verify_point_axioms(lattice, functionals, pairs):
    """Exact check, for each functional, of min-additivity across charts
    and positive homogeneity (at the scalars 0, 1, 2, 3).

    ``pairs`` is an iterable of (m1, m2) MElement pairs; each pair's
    upsilon and scalings are built once for all functionals.  Returns a
    report; raises AxiomFail with a witness on the first violation.
    """
    prepared = [(m1, m2, lattice.upsilon(m1, m2),
                 [m1.scale(k) for k in range(4)]) for m1, m2 in pairs]
    for phi in functionals:
        for m1, m2, ups, scaled in prepared:
            v1 = phi(m1)
            lhs = v1 + phi(m2)
            rhs = min(phi(s) for s in ups)
            if lhs != rhs:
                raise AxiomFail(f"additivity: {m1}, {m2}: {lhs} != {rhs}")
            for k, mk in enumerate(scaled):
                if phi(mk) != k * v1:
                    raise AxiomFail(f"homogeneity: {m1}, k={k}")
    return {"pairs": len(prepared), "ok": True}


def verify_point_axiom(lattice, phi, pairs):
    """verify_point_axioms for the one functional phi."""
    return verify_point_axioms(lattice, [phi], pairs)


# ---------------------------------------------------------------------------
# dual lattice of the triangular families

class DualElement:
    """Element of the dual lattice: the integer vector y over the unmarked
    grid positions, in axis order.  Its partner y' is solved from the
    triangular min-equations, from the top row downwards:
    y'_{i,j} = y_{i,j} - min(0, -y'_{i+1,j} + y_{i+1,j-1}) at the interior
    positions and y'_{i,j} = y_{i,j} elsewhere.  ``gaps`` holds the
    arguments -y'_{i+1,j} + y_{i+1,j-1} of those mins in ``pihat`` order."""

    __slots__ = ("y", "yp", "gaps", "rows")

    def __init__(self, fam, y):
        self.y = y = tuple(y)
        yp = list(y)
        gaps = []
        for k, above, left in fam.yp_plan:
            gap = -yp[above] if left is None else y[left] - yp[above]
            gaps.append(gap)
            if gap < 0:
                yp[k] -= gap
        self.gaps = tuple(reversed(gaps))
        self.yp = tuple(yp)
        # the pairing rows eval_w reads: (axis index of (i,j), that of
        # (i,j+1) or None, y, y')
        self.rows = tuple(zip(range(len(yp)), fam.right, self.y, self.yp))

    def __eq__(self, other):
        return isinstance(other, DualElement) and self.y == other.y

    def __hash__(self):
        return hash(self.y)

    def __repr__(self):
        return f"DualElement(y={self.y})"


def _row_tail(fam, i, j):
    """Axis-ordered indicator of row i from column j on."""
    return [int(k == i and l >= j) for k, l in map(fam.pos_of.get, fam.axis)]


def _generator_ys(fam):
    """The y-vectors of the 2 * dim dual generators, built once per family:
    (i, j, True) -> row i minus row i-1, both from column j on, and
    (i, j, False) -> minus row i from column j on."""
    if fam._dual_generators is None:
        table = {}
        for i, j in fam.positions:
            tail = _row_tail(fam, i, j)
            table[(i, j, True)] = tuple(
                a - b for a, b in zip(tail, _row_tail(fam, i - 1, j)))
            table[(i, j, False)] = tuple(-a for a in tail)
        fam._dual_generators = table
    return fam._dual_generators


def eval_w(fam, dual, x):
    """Pairing w(n)(m) via the telescoping row expansion of the chart-0
    coordinate of m: the coefficient of the row prefix sum through (i,j) is
    x_{i,j} - x_{i,j+1}, paired with y (nonnegative side) or y' (negative)."""
    total = 0
    for k, right, y, yp in dual.rows:
        c = x[k] if right is None else x[k] - x[right]
        total += c * (y if c >= 0 else yp)
    return total


def _cone_generators(fam, signs):
    """The generators of the dual cone with the given interior signs, as
    keys (i, j, positive) of _generator_ys: one above
    each interior position, by its sign, then both at each position that
    sits directly above no interior position."""
    pihat = fam.pihat
    gens = [(i + 1, j, signs[(i, j)] > 0) for (i, j) in pihat]
    for (i, j) in sorted(fam.positions):
        if (i - 1, j) not in pihat:
            gens += [(i, j, True), (i, j, False)]
    return gens


def _linear_extension(rows, target):
    """Value at ``target`` of the linear functional fixed by the given
    (vector, value) pairs; raises DualFail on inconsistent values or when
    ``target`` lies outside the span of the vectors."""
    echelon, pivots, _ = geometry.row_echelon(
        [[*vec, val] for vec, val in rows])
    n = len(target)
    if pivots and pivots[-1] == n:
        raise DualFail("inconsistent generator values")
    t, scale = [*target, 0], 1
    for row, col in zip(echelon, pivots):
        f = t[col]
        if f:
            piv = row[col]
            t = [piv * a - f * b for a, b in zip(t, row)]
            scale *= piv
    if any(t[:n]):
        raise DualFail("evaluation outside the generator span")
    return Fraction(-t[n], scale)


def eval_v(fam, x, dual):
    """Pairing v(m)(n): locate the dual cone containing n, determine the
    linear functional of m on that cone from its generator values, and
    evaluate at the y-vector of n.  The chart-{q_{i,j}} coordinate (i,j) of
    x is that of the full chart's image (see the transfer maps in mco)."""
    signs = {ij: 1 if gap <= 0 else -1
             for ij, gap in zip(fam.pihat, dual.gaps)}
    ys = _generator_ys(fam)
    image = mco.mu(fam.poset, frozenset(fam.axis), x)
    rows = []
    for i, j, positive in _cone_generators(fam, signs):
        k = fam.axis_index(i, j)
        rows.append((ys[(i, j, positive)], image[k] if positive else -x[k]))
    return _linear_extension(rows, dual.y)


def chart_sign_vector(fam, chart):
    """Sign vector of the dual cone matched to a chart: positive at an
    interior position exactly when the element above it is in the chart."""
    return {(i, j): (1 if fam.positions[(i + 1, j)] in chart else -1)
            for (i, j) in fam.pihat}


def chart_cone_duals(fam, chart):
    """Generating dual elements of the cone matched to a chart: one signed
    generator per interior position, both signs at the free positions."""
    ys = _generator_ys(fam)
    return [DualElement(fam, ys[g])
            for g in _cone_generators(fam, chart_sign_vector(fam, chart))]


def dual_in_cone(fam, dual, signs):
    return all(signs[ij] * gap <= 0 for ij, gap in zip(fam.pihat, dual.gaps))


def dual_point(fam, dual):
    """The point of the primal lattice induced by a dual element."""
    def phi(m):
        return eval_w(fam, dual, m.coord0)
    return phi


def random_dual(fam, rng):
    """A dual element with entries drawn from [-4, 4], in position order."""
    y = [0] * len(fam.axis)
    for k, v in zip(fam._axis_index.values(), randints(rng, -4, 4, len(y))):
        y[k] = v
    return DualElement(fam, y)


def verify_strict_dual(fam, rng, pairs=500, chart_samples=50):
    """Desk-scale strict-duality report for a triangular family.

    Checks, exactly on samples: pairing symmetry (the two evaluation routes
    agree) and the chart-to-dual-cone correspondence (duals inside a chart's
    cone induce points additive on that chart; each chart also exhibits an
    outside dual failing additivity, unless its cone holds every dual, as
    when no position is interior).  Injectivity of the element-to-point
    assignment is certified: the INNER values of x are mu(full, x) (see
    eval_v), which is injective when the full mu plan is triangular.
    """
    poset, d = fam.poset, len(fam.axis)
    injective = mco._triangular(mco._plans(poset, frozenset(fam.axis))[1])
    report = {"symmetry": 0, "injectivity": injective, "charts": {},
              "ok": injective}
    for _ in range(pairs):
        x = tuple(randints(rng, -4, 4, d))
        n = random_dual(fam, rng)
        if eval_w(fam, n, x) != eval_v(fam, x, n):
            raise DualFail(f"pairing symmetry fails at {x}, {n}")
        report["symmetry"] += 1

    def additive(n, chart):
        """Draw x1, x2 and say whether the point of n adds them on chart."""
        x1 = randints(rng, -3, 3, d)
        x2 = randints(rng, -3, 3, d)
        total = tuple(map(add, mco.mu(poset, chart, x1),
                          mco.mu(poset, chart, x2)))
        return (eval_w(fam, n, mco.mu_inverse(poset, chart, total))
                == eval_w(fam, n, x1) + eval_w(fam, n, x2))

    for chart in mco.charts_of(fam.poset):
        signs = chart_sign_vector(fam, chart)
        inside = outside_fail = outside_seen = 0
        for _ in range(chart_samples):
            n = random_dual(fam, rng)
            adds = additive(n, chart)
            if dual_in_cone(fam, n, signs):
                inside += 1
                if not adds:
                    raise DualFail(
                        f"in-cone dual not additive on chart {sorted(chart)}")
            else:
                outside_seen += 1
                outside_fail += not adds
        if outside_fail == 0 and signs:
            # targeted search: some dual outside the cone must break
            # additivity on this chart
            for _ in range(200):
                n = random_dual(fam, rng)
                if dual_in_cone(fam, n, signs):
                    continue
                outside_seen += 1
                if not additive(n, chart):
                    outside_fail += 1
                    break
        entry = {"inside": inside, "outside": outside_seen,
                 "outside_failures": outside_fail}
        entry["ok"] = outside_fail > 0 or not signs
        report["charts"][mco.chart_str(chart)] = entry
        report["ok"] = report["ok"] and entry["ok"]
    return report
