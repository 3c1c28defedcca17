"""Marked chain-order polytopes, transfer maps and their linearizations.

Coordinates are indexed by the unmarked elements in ``poset.axis`` order.
A chart is the subset C of unmarked elements treated chain-style; the rest
(O) stay order-style.  The transfer map is a piecewise-affine bijection from
the marked order polytope (chart 0) onto the chart-C polytope; its
translation-free linearization ``mu`` glues the charts of the polyptych
lattice.

The chart polytopes of one dilation are counted in one batch, searched from
the top of the poset down (``_count_top_down``).  The transfer check lists
no point: it certifies row by row that mu_C maps chart 0 into each chart C,
from chart 0's rows and box (``_contained``).
"""

from __future__ import annotations

from itertools import combinations, product
from operator import add

from . import geometry, posets
from .posets import PosetError


def charts_of(poset):
    """All chain/order partitions, deterministically ordered by size then name."""
    axis = poset.axis
    out = []
    for size in range(len(axis) + 1):
        for combo in combinations(axis, size):
            out.append(frozenset(combo))
    return out


def chart_str(chart):
    return ",".join(sorted(chart))


def build_mco(poset, chart):
    """H-description of the chart's marked chain-order polytope.

    One inequality per saturated chain a < p_1 < ... < p_l < b running
    through chain elements with endpoints marked or order-style (l >= 0):
    sum x_{p_i} <= y_b - y_a, plus x_p >= 0 for chain-style p.
    """
    chart = frozenset(chart)
    if not chart <= set(poset.axis):
        raise ValueError("chart contains marked or unknown elements")
    axis = poset.axis
    index = {p: i for i, p in enumerate(axis)}
    dim = len(axis)
    endpoints = set(poset.elements) - chart
    rows = []
    for p in sorted(chart):
        e = [0] * dim
        e[index[p]] = 1
        rows.append((tuple(e), 0))
    for a in sorted(endpoints):
        stack = [(a, ())]
        while stack:
            cur, chain = stack.pop()
            for b in poset.upper_covers(cur):
                if b in chart:
                    stack.append((b, chain + (b,)))
                else:
                    rows.append(_chain_row(poset, index, dim, a, chain, b))
    # markings are integers, so the rows are integral as they stand
    return geometry.HPolyhedron(dim, rows)


def _chain_row(poset, index, dim, a, chain, b):
    coeffs = [0] * dim
    rhs = 0
    for p in chain:
        coeffs[index[p]] -= 1
    if poset.is_marked(b):
        rhs -= poset.marking[b]
    else:
        coeffs[index[b]] += 1
    if poset.is_marked(a):
        rhs += poset.marking[a]
    else:
        coeffs[index[a]] -= 1
    return (tuple(coeffs), rhs)


# ---------------------------------------------------------------------------
# transfer maps
#
# The maps change only the chart coordinates, p in C:
#   forward  x'_p = x_p + min(-x_q over unmarked lower covers q, m),
#   inverse  x_p = x'_p - min(-x_q over unmarked lower covers q, m),
# where the inverse reads the already inverted x_q, so it runs in rank order
# (mu_inverse; no caller needs the transfer map's inverse).
# A marked lower cover contributes m = min(-lam_q) to the transfer map and
# m = 0 to its linearization mu.  Each chart is compiled once per poset into
# a transfer plan and a mu plan, memoized on the poset; the plans of a chart
# are the full chart's plans restricted to it, so all charts share entries.
# The forward maps read only their input x, so for every chart C
#   mu(poset, C, x)[i] = mu(poset, full, x)[i] if axis[i] in C, else x[i].
# The full mu plan is triangular: each entry reads only x_q of lower covers
# q, which sort before it.  So is every chart's plan, a restriction of it,
# and mu_C is injective on Z^d: given y = mu_C(x), walking the plan in
# order recovers x_p as y_p - m_p(x) from the x_q already recovered
# (x_q = y_q for q not in C), which is what mu_inverse does.  For any y,
# the x so built has x_p + m_p(x) = y_p, so mu_C(mu_inverse(y)) = y as
# well: mu_C is a bijection of Z^d (and Q^d) with inverse mu_inverse.
# Every mutation mu_C2 o mu_C1^{-1} then satisfies the identity, inverse
# and cocycle axioms, which is how acceptance criterion 3 certifies them.
#
# mu is the transfer map linearized at a shift vector u: for every chart C
# and every a in Q^d, mu(C, a) = transfer(C, a + u) - transfer(C, u) exactly
# when every min of the full transfer plan ties at u, that is, when at each
# entry the candidates -u_q and m all equal one value c (linear_at).  If
# they do, min(c - a_q, ..., c) - c = min(-a_q, ..., 0), mu's entry.  If a
# candidate -u_q' exceeds the min at u, a large a_q' makes the two sides
# differ at p by -u_q' - c; if m does, a large -a_q on every unmarked cover
# makes them differ by m - c.


def _plans(poset, chart):
    """(transfer plan, mu plan) of a frozenset chart: rank-ordered tuples of
    (axis index, unmarked lower-cover indices, marked-cover value or None)
    over the chart elements."""
    plans = poset._chart_plans.get(chart)
    if plans is None:
        plans = poset._chart_plans[chart] = _compile(poset, chart)
    return plans


def _compile(poset, chart):
    axis = poset.axis
    full = frozenset(axis)
    if chart != full:
        return tuple(tuple(e for e in plan if axis[e[0]] in chart)
                     for plan in _plans(poset, full))
    order = posets._topological(poset)
    if order is None:
        raise PosetError("cover relation contains a cycle")
    height = posets._heights(poset, order)
    entries = []
    for i, p in enumerate(axis):
        lower = poset.lower_covers(p)
        entries.append((height[p], i, tuple(
            poset.index(q) for q in lower if not poset.is_marked(q)),
            [-poset.marking[q] for q in lower if poset.is_marked(q)]))
    entries.sort()
    return (tuple((i, lower, min(marked, default=None))
                  for _, i, lower, marked in entries),
            tuple((i, lower, 0 if marked else None)
                  for _, i, lower, marked in entries))


def linear_at(poset, u):
    """Whether mu(poset, C, a) = transfer(poset, C, a + u) - transfer(poset,
    C, u) for every chart C and every rational a: exactly when every min of
    the full transfer plan ties at the shift vector u (see the
    transfer-maps comment)."""
    x = u.vector(poset)
    for _, lower, m in _plans(poset, frozenset(poset.axis))[0]:
        candidates = {-x[j] for j in lower}
        if m is not None:
            candidates.add(m)
        if len(candidates) > 1:
            return False
    return True


# _forward and _inverse inline the min loop that _cover_max also holds.
# They run once per chart-map call, and calling _cover_max from them made
# one mu + mu_inverse pair on C3 35-45% slower (2.4 -> 3.2 us, in process
# on a 2-vCPU machine), so keep the copies.
def _forward(plan, x):
    out = list(x)
    for i, lower, m in plan:
        for j in lower:
            v = -x[j]
            if m is None or v < m:
                m = v
        out[i] = x[i] + m
    return tuple(out)


def _inverse(plan, xp):
    out = list(xp)
    for i, lower, m in plan:
        for j in lower:
            v = -out[j]
            if m is None or v < m:
                m = v
        out[i] -= m
    return tuple(out)


def _cover_max(x, lower, m):
    """M(x)_p of a mu-plan entry: the largest x_q over the unmarked lower
    covers q, and 0 when p has a marked lower cover; mu subtracts it."""
    for j in lower:
        v = -x[j]
        if m is None or v < m:
            m = v
    return -m


def chart_sums(poset, x1, x2):
    """The distinct chart sums mu_C^{-1}(mu_C(x1) + mu_C(x2)) over all
    charts C, sorted, found without visiting a chart.

    The sum in chart C is S + D with S = x1 + x2, D_p = 0 for p not in C
    and D_p = M(S + D)_p - M(x1)_p - M(x2)_p for p in C, filled in rank
    order.  One walk of the full chart's mu plan keeps, at each element p,
    every partial sum (its "p not in C" child) and adds the "p in C" child
    only when its deviation is nonzero.  Partial sums that differ at a
    walked coordinate never meet again, so each chart sum appears once.
    """
    sums = [[a + b for a, b in zip(x1, x2)]]
    for i, lower, m in _plans(poset, frozenset(poset.axis))[1]:
        base = _cover_max(x1, lower, m) + _cover_max(x2, lower, m)
        for k in range(len(sums)):
            dev = _cover_max(sums[k], lower, m) - base
            if dev:
                z = sums[k].copy()
                z[i] += dev
                sums.append(z)
    return sorted(map(tuple, sums))


def transfer(poset, chart, x):
    """phi: x'_p = x_p + min(-x_q / -lam_q over lower covers) for p in chart."""
    return _forward(_plans(poset, chart)[0], x)


def mu(poset, chart, x):
    """Linearized transfer: marked lower covers contribute 0 instead of -lam."""
    return _forward(_plans(poset, chart)[1], x)


def mu_inverse(poset, chart, xp):
    return _inverse(_plans(poset, chart)[1], xp)


# ---------------------------------------------------------------------------
# centered polytopes

def hat_delta(poset, u, chart):
    """The chart polytope translated by -phi_{C,O}(u), so that the origin
    is the image of the shift vector."""
    chart = frozenset(chart)
    shift = transfer(poset, chart, u.vector(poset))
    return build_mco(poset, chart).translate(tuple(-t for t in shift))


def _box(poset, u, chart, k):
    """Integer bounding box of the k-fold dilation of hat_delta's polytope."""
    lam = list(poset.marking.values())
    lo, hi = min(lam), max(lam)
    box = []
    for p, t in zip(poset.axis, transfer(poset, chart, u.vector(poset))):
        if p in chart:
            plo, phi = 0, hi - lo
        else:
            plo, phi = lo, hi
        box.append((k * (plo - t), k * (phi - t)))
    return box


def _dilated(poset, u, chart, k):
    """The k-fold dilation of hat_delta's polytope and its integer box."""
    chart = frozenset(chart)
    return hat_delta(poset, u, chart).dilate(k), _box(poset, u, chart, k)


def lattice_points_of_hat_delta(poset, u, chart, k):
    """The integer points of the k-fold dilation of hat_delta's polytope."""
    return geometry.lattice_points(*_dilated(poset, u, chart, k))


def count_charts(poset, u, charts, k):
    """The number of those points for each of the charts, in order, counted
    top down in one batch that shares its memo and its budget."""
    return _count_top_down(poset, (_dilated(poset, u, chart, k)
                                   for chart in charts))


def _count_top_down(poset, systems):
    """geometry.count_lattice_points_batch of the (poly, box) systems, each
    with its row coefficients and box permuted alike, which keeps every
    count, into the reverse of the full mu plan (sorted by height): the
    search fixes the highest elements first, and the deep subproblems, near
    the bottom of the poset, are shared across far more charts (2,283 nodes
    for the 512 C3 charts at k = 1, 20,376 in axis order)."""
    plan = _plans(poset, frozenset(poset.axis))[1]
    order = [i for i, _, _ in reversed(plan)]
    return geometry.count_lattice_points_batch(
        [(geometry.HPolyhedron(poly.dim, [(tuple([a[i] for i in order]), b)
                                          for a, b in poly.rows]),
          [box[i] for i in order]) for poly, box in systems])


def _triangular(plan):
    """Whether every entry of a plan reads only axes placed before it."""
    placed = set()
    for i, lower, _ in plan:
        if not placed.issuperset(lower):
            return False
        placed.add(i)
    return True


def _refuse(certificate, clauses):
    """Raise geometry.UnimodularityFail naming the first failing clause of
    a certificate, given as (clause, holds) pairs."""
    for clause, holds in clauses:
        if not holds:
            raise geometry.UnimodularityFail(
                f"{certificate} certificate: {clause}")


def _box_rows(box):
    """The bounds lo <= x_i <= hi of a box as rows e_i >= lo and
    -e_i >= -hi."""
    return [(tuple(s * (j == i) for j in range(len(box))), s * bound)
            for i, bounds in enumerate(box)
            for s, bound in zip((1, -1), bounds)]


def _floor(poly, box):
    """Each coefficient vector a among the rows of poly, the bounds of box
    and the sums of two bounds, mapped to its largest right-hand side b
    (the last once sorted): a.z >= b at every point z of poly in box."""
    bounds = _box_rows(box)
    return dict(sorted([*poly.rows, *bounds, *(
        (tuple(map(add, a1, a2)), b1 + b2)
        for (a1, b1), (a2, b2) in combinations(bounds, 2))]))


def _candidates(a, c, lower, m):
    """The candidates of a mu-plan entry that bound c times its min from
    below in a row reading a, as (slot, coefficient) pairs: -z_j is
    (j, -1), and the constant m is (d, m), on a slot past the d axes.
    Every one when c > 0; when c < 0, the one the row also reads (a chain
    row's chain predecessor), else the last one."""
    every = [(j, -1) for j in lower] + ([] if m is None else [(len(a), m)])
    read = [(j, -1) for j in lower if a[j]]
    return every if c > 0 else read[:1] or every[-1:]


def _contained(poset, chart, floor, poly, box):
    """Whether every row (a, b) of a chart C's poly and box holds at
    mu_C(z), a.mu_C(z) >= b, for every point z meeting floor's rows.

    For p in C, mu_C(z)_p = z_p + min(-z_q over p's unmarked lower covers
    q, m).  Bounding a_p times each such min by ``_candidates`` bounds
    a.mu_C(z) from below by the least of the forms L.z + const, one per
    pick of a candidate at each entry of C's mu plan, and each must
    satisfy floor[L] + const >= b.
    """
    plan = _plans(poset, chart)[1]
    for a, b in [*poly.rows, *_box_rows(box)]:
        for picks in product(*[[(j, a[i] * v) for j, v in _candidates(
                a, a[i], lower, m)] for i, lower, m in plan if a[i]]):
            form = [*a, 0]  # L, then const
            for j, v in picks:
                form[j] += v
            least = floor.get(tuple(form[:-1]))
            if least is None or least + form[-1] < b:
                return False
    return True


def verify_transfer_bijection(poset, u, k):
    """Per chart C: the count of k times the chart-C polytope, and whether
    mu_C maps the chart-0 points onto its points; returns a report dict.

    The points of every chart, chart 0 included, are counted at k in one
    batch that shares its memo, searched top down (``_count_top_down``).
    Nothing is listed and nothing is mapped.

    Why the check holds: when the full mu plan is triangular, which the
    transfer certificate checks first, mu_C is injective on Z^d (see the
    transfer-maps comment), so the count_0 points of k times chart 0 have
    count_0 distinct images.  If those images lie inside k times the
    chart-C polytope and its box, they are count_0 of its count points,
    and all of them exactly when count == count_0.  So match <=> inside
    and count == count_0, and image_count is count_0.

    Inside is certified row by row at k itself (``_contained``), against
    the ``_floor`` of chart 0's rows and box at k, so it needs neither
    homogeneity nor lattice vertices.  The certificate is complete when u
    is constant on ranks and equal to the marking there, as every
    ``choose_u`` is: each chain row telescopes through its chain
    predecessors to chart 0's cover row under its top, each x_p >= 0 row
    splits into p's cover rows, the box bounds reduce to chart-0 box
    bounds or sums of two of them, and every right-hand side involved is
    equal.
    """
    _refuse("transfer", [("the mu plan is not triangular", _triangular(
        _plans(poset, frozenset(poset.axis))[1]))])
    charts = charts_of(poset)
    systems = [_dilated(poset, u, chart, k) for chart in charts]
    counts = _count_top_down(poset, systems)
    floor = _floor(*systems[0])
    report = {"k": k, "charts": {}, "ok": True}
    for chart, system, count in zip(charts, systems, counts):
        ok = count == counts[0] and _contained(poset, chart, floor, *system)
        report["charts"][chart_str(chart)] = {
            "count": count, "image_count": counts[0], "match": ok}
        report["ok"] = report["ok"] and ok
    return report
