"""Exact integer linear algebra and small-dimension polyhedral computations.

Polyhedra are integer data, as in Fukuda and Prodon's integer double
description ("Double description method revisited", 1996): an H-polyhedron
keeps the rows (a, b) it is given, with no rescale, and the package gives
it integer rows; the double description works on primitive integer
vectors.  No floating point is used.  ``v_to_h`` is the double description
conversion, a textbook incremental algorithm with the combinatorial
adjacency test, adequate for the dimensions handled here (at most
``DIM_CAP``); ``polyhedron_equal`` compares two V-polyhedra through it.
Determinants, ranks and the dual linear extension all run through one
fraction-free row echelon, ``row_echelon``.

Lattice points are listed by ``lattice_points`` and counted by
``count_lattice_points_batch``, the same search with each subtree's count
memoized.  One memo serves a whole batch of systems: a subtree's key is
the complete subproblem below its depth (the box suffix and, per distinct
row suffix, the largest residual right-hand side among its rows when that
can bind), and such a key names the same lattice points whichever system
it comes from.  The charts of one dilation share most of their rows, and
so most of their subtrees.  The search fixes axis 0 first; how much it
shares depends on that order, so a caller that knows a better one permutes
its systems' axes (``mco`` searches its charts from the top of the poset
down).

The two resource limits are module constants, read where they are enforced:
``DIM_CAP`` by ``cone_rays`` (and ``semialgebra.equal_exact``) and
``ENUM_BUDGET`` by ``lattice_points``, per listing, and by
``count_lattice_points_batch``, per batch.
"""

from __future__ import annotations

from math import gcd, lcm

DIM_CAP = 9
ENUM_BUDGET = 50_000_000


class GeometryError(Exception):
    pass


class BoxTooLarge(GeometryError):
    pass


class DimCapExceeded(GeometryError):
    pass


class NotSquare(GeometryError):
    pass


class UnimodularityFail(GeometryError):
    """A unimodularity certificate fails."""


# ---------------------------------------------------------------------------
# vectors

def dot(a, x):
    return sum(ai * xi for ai, xi in zip(a, x))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def primitive(v):
    """Scale an integer/rational vector to a primitive integer vector: its
    least common denominator times it, divided by the gcd of the entries."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# polyhedra

class HPolyhedron:
    """Finite system of inequalities a.x >= b: the list of (tuple, number)
    rows it is given, kept as they stand."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim, rows=()):
        self.dim = dim
        self.rows = rows

    def contains(self, x):
        return all(dot(a, x) >= b for a, b in self.rows)

    def translate(self, t):
        """The polyhedron shifted by +t: {x : a.(x - t) >= b}."""
        return HPolyhedron(self.dim,
                           [(a, b + dot(a, t)) for a, b in self.rows])

    def dilate(self, k):
        """k-fold dilation about the origin (right-hand sides scaled by k)."""
        return HPolyhedron(self.dim, [(a, k * b) for a, b in self.rows])

    def to_json(self):
        return {"ineqs": [[*a, str(b)] for a, b in self.rows]}

    def __repr__(self):
        return f"HPolyhedron(dim={self.dim}, rows={len(self.rows)})"


class VPolyhedron:
    """conv(vertices) + cone(rays) + span(lineality), with a vertex: the
    package builds one from a nonempty generating set."""

    __slots__ = ("dim", "vertices", "rays", "lineality")

    def __init__(self, dim, vertices=(), rays=(), lineality=()):
        self.dim = dim
        self.vertices = list(vertices)
        self.rays = list(rays)
        self.lineality = list(lineality)

    def __repr__(self):
        return (f"VPolyhedron(dim={self.dim}, V={len(self.vertices)}, "
                f"R={len(self.rays)}, L={len(self.lineality)})")


# ---------------------------------------------------------------------------
# lattice-point enumeration

def _search_table(poly, box):
    """The set-up shared by ``lattice_points`` and the counter of
    ``count_lattice_points_batch``: ``(box, active, need)``, or None when
    the box is empty or some row cannot be met even at its maximum over
    the box.

    ``active[k]`` holds ``(row, a_k, max over the box of sum_{i > k} a_i
    x_i)`` for the rows with a_k != 0, and ``need`` holds the right-hand
    sides b, which the search lowers by a_i x_i as it fixes axis i.
    """
    if len(box) != poly.dim:
        raise GeometryError("box dimension mismatch")
    box = [(int(lo), int(hi)) for lo, hi in box]
    if any(lo > hi for lo, hi in box):
        return None
    active = [[] for _ in box]
    need = [b for _, b in poly.rows]
    for r, (a, _) in enumerate(poly.rows):
        rest = 0
        for k in range(poly.dim - 1, -1, -1):
            if a[k]:
                active[k].append((r, a[k], rest))
                lo, hi = box[k]
                rest += max(a[k] * lo, a[k] * hi)
        # a row is never looked at before its first nonzero axis, so it is
        # decided here when it cannot be met even at its maximum
        if need[r] > rest:
            return None
    return box, active, need


def _bounds(lo, hi, rows, need):
    """The range of x_k within [lo, hi] that the rows active at k allow."""
    for r, ak, rest in rows:
        slack = need[r] - rest
        if ak > 0:
            q = -((-slack) // ak)  # ceil(slack / ak)
            if q > lo:
                lo = q
        else:
            q = slack // ak  # floor(slack / ak) for negative ak
            if q < hi:
                hi = q
    return lo, hi


def lattice_points(poly, box):
    """All integer points of ``poly`` within ``box``, lexicographically sorted.

    ``box`` is a list of inclusive integer bounds (lo, hi) per axis.  The
    search is depth-first with per-axis bound propagation against worst-case
    contributions of the not-yet-fixed coordinates.  Only the rows with a
    nonzero coefficient on an axis are looked at there, and the innermost
    axis emits its whole run of points at once.  Every node of the search
    counts its hi - lo + 1 children; BoxTooLarge is raised when they exceed
    ``ENUM_BUDGET``.
    """
    table = _search_table(poly, box)
    if table is None:
        return []
    if not poly.dim:
        return [()]
    box, active, need = table
    budget = ENUM_BUDGET
    last = poly.dim - 1
    out = []
    nodes = 0

    def descend(k, prefix):
        nonlocal nodes
        rows = active[k]
        lo, hi = _bounds(*box[k], rows, need)
        if lo > hi:
            return
        nodes += hi - lo + 1
        if nodes > budget:
            raise BoxTooLarge(f"enumeration budget {budget} exceeded")
        if k == last:
            out.extend([prefix + (v,) for v in range(lo, hi + 1)])
            return
        saved = [(r, ak, need[r]) for r, ak, _ in rows]
        for v in range(lo, hi + 1):
            for r, ak, base in saved:
                need[r] = base - ak * v
            descend(k + 1, prefix + (v,))
        for r, _, base in saved:
            need[r] = base

    try:
        descend(0, ())
    finally:
        # descend refers to itself through its closure; without this the
        # cycle keeps ``out`` alive until the cyclic garbage collector runs
        del descend
    return out


def count_lattice_points_batch(systems):
    """``[len(lattice_points(poly, box)) for poly, box in systems]``,
    without listing the points, through one memo for the whole batch.

    The search is that of ``lattice_points`` with each subtree's count
    memoized, a dynamic program over the search tree in the spirit of
    LattE's counting (De Loera et al., J. Symb. Comp. 2004).  The subtree
    below depth k counts the integer points y of the box suffix box[k:]
    with a_{>=k}.y >= need for every row whose suffix a_{>=k} is nonzero;
    a row whose suffix is zero was met when its last nonzero axis was
    fixed.  Of the rows sharing one suffix only the largest need binds,
    and a need at or below the suffix's least value over the box suffix
    binds nothing.  So the key is the box suffix and, per distinct row
    suffix (both interned to small ints) whose largest need exceeds that
    least value, the suffix and that need.  The key names the subproblem
    completely, whatever polytope it comes from, so one memo serves
    charts of one poset, polytopes of other dimensions and unrelated
    systems alike.  The nodes the batch visits, memo hits excluded, are
    charged to one ``ENUM_BUDGET``, as each listing is charged in
    ``lattice_points``.
    """
    budget = ENUM_BUDGET
    memo, boxes, suffixes = {}, {}, {}
    nodes = 0
    counts = []

    def charge(n):
        nonlocal nodes
        nodes += n
        if nodes > budget:
            raise BoxTooLarge(f"enumeration budget {budget} exceeded")

    for poly, box in systems:
        table = _search_table(poly, box)
        if table is None or not poly.dim:
            counts.append(0 if table is None else 1)
            continue
        box, active, need = table
        last = poly.dim - 1
        inner, (ilo, ihi) = active[last], box[last]
        if not last:
            lo, hi = _bounds(ilo, ihi, inner, need)
            counts.append(max(hi - lo + 1, 0))
            charge(counts[-1])
            continue
        # per depth k < last: the interned box suffix and, per distinct
        # row suffix in interned order, (its id, its rows, its least value
        # over the box suffix); the least value is built from the last
        # axis down like rest, and rows sharing a suffix share it
        groups = [{} for _ in range(last)]
        for r, (a, _) in enumerate(poly.rows):
            least, started = 0, False
            for k in range(last, -1, -1):
                if a[k]:
                    lo, hi = box[k]
                    least += min(a[k] * lo, a[k] * hi)
                    started = True
                if started and k < last:
                    sid = suffixes.setdefault(a[k:], len(suffixes))
                    groups[k].setdefault(sid, (sid, [], least))[1].append(r)
        # a group of one row, as most are, holds that row's index, which
        # reads its residual with no max
        keys = [(boxes.setdefault(tuple(box[k:]), len(boxes)),
                 [(sid, rows[0] if len(rows) == 1 else rows, least)
                  for sid, rows, least in sorted(groups[k].values())])
                for k in range(last)]
        residual = need.__getitem__

        def count(k):
            bid, suffix_groups = keys[k]
            key = [bid]
            for sid, rows, least in suffix_groups:
                m = (need[rows] if rows.__class__ is int
                     else max(map(residual, rows)))
                if m > least:
                    key += sid, m
            key = tuple(key)
            total = memo.get(key)
            if total is not None:
                return total
            rows = active[k]
            lo, hi = _bounds(*box[k], rows, need)
            total = 0
            if lo <= hi:
                charge(hi - lo + 1)
                saved = [(r, ak, need[r]) for r, ak, _ in rows]
                for v in range(lo, hi + 1):
                    for r, ak, base in saved:
                        need[r] = base - ak * v
                    if k + 1 < last:
                        total += count(k + 1)
                    else:  # the last axis: its run of points, counted
                        a, b = _bounds(ilo, ihi, inner, need)
                        if a <= b:
                            total += b - a + 1
                for r, _, base in saved:
                    need[r] = base
                if k + 1 == last:
                    charge(total)
            memo[key] = total
            return total

        try:
            counts.append(count(0))
        finally:
            # count refers to itself through its closure, as descend does
            del count
    return counts


# ---------------------------------------------------------------------------
# double description (cone {x : h.x >= 0 for h in halfspaces})

def cone_rays(halfspaces, dim, dim_cap=DIM_CAP):
    """V-description (lineality, extreme rays) of an H-described cone; a
    rational halfspace is scaled to its primitive integer multiple."""
    if dim > dim_cap:
        raise DimCapExceeded(f"dimension {dim} exceeds cap {dim_cap}")
    lineality = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # entries: [vector, zeroset frozenset of processed halfspace ids]
    processed = []
    for h in halfspaces:
        h = primitive(h)
        hid = len(processed)
        vals_l = [dot(h, l) for l in lineality]
        pivot = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if pivot is not None:
            l0, v0 = lineality[pivot], vals_l[pivot]
            if v0 < 0:
                l0, v0 = vscale(-1, l0), -v0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                new_lin.append(primitive(vsub(vscale(v0, l), vscale(vals_l[i], l0))))
            lineality = new_lin
            new_rays = []
            for vec, zs in rays:
                v = dot(h, vec)
                adj = primitive(vsub(vscale(v0, vec), vscale(v, l0)))
                if any(x != 0 for x in adj):
                    new_rays.append([adj, zs | {hid}])
            new_rays.append([primitive(l0), frozenset(
                i for i in range(hid) if dot(processed[i], l0) == 0)])
            rays = new_rays
        else:
            plus = [r for r in rays if dot(h, r[0]) > 0]
            zero = [r for r in rays if dot(h, r[0]) == 0]
            minus = [r for r in rays if dot(h, r[0]) < 0]
            for r in zero:
                r[1] = r[1] | {hid}
            new_rays = plus + zero
            for rp in plus:
                for rm in minus:
                    common = rp[1] & rm[1]
                    if not _adjacent(common, rp, rm, rays):
                        continue
                    vp, vm = dot(h, rp[0]), dot(h, rm[0])
                    vec = primitive(vsub(vscale(vp, rm[0]), vscale(vm, rp[0])))
                    if all(x == 0 for x in vec):
                        continue
                    zs = frozenset(
                        i for i in range(hid + 1)
                        if dot((processed + [h])[i], vec) == 0)
                    new_rays.append([vec, zs])
            # dedupe by primitive vector
            seen, rays = set(), []
            for r in new_rays:
                if r[0] not in seen:
                    seen.add(r[0])
                    rays.append(r)
        processed.append(h)
    return lineality, [r[0] for r in rays]


def _adjacent(common, rp, rm, rays):
    for r in rays:
        if r is rp or r is rm:
            continue
        if common <= r[1]:
            return False
    return True


def v_to_h(vpoly):
    """Convert a V-polyhedron to H-form (dual double description)."""
    dim = vpoly.dim
    gens = []
    for v in vpoly.vertices:
        gens.append(tuple(v) + (1,))
    for r in vpoly.rays:
        gens.append(tuple(r) + (0,))
    for l in vpoly.lineality:
        gens.append(tuple(l) + (0,))
        gens.append(tuple(-x for x in l) + (0,))
    # dual cone {y : y.g >= 0} of the homogenization cone
    lin, rays = cone_rays(gens, dim + 1, dim_cap=DIM_CAP + 1)
    rows = []
    for y in rays:
        rows.append((y[:dim], -y[dim]))
    for y in lin:
        rows.append((y[:dim], -y[dim]))
        rows.append((tuple(-x for x in y[:dim]), y[dim]))
    return HPolyhedron(dim, rows)


def polyhedron_equal(P, Q):
    """Exact point-set equality of two V-polyhedra.  The H-form of P is
    built only when P lies in Q."""
    return _included(P, v_to_h(Q)) and _included(Q, v_to_h(P))


def _included(v, h):
    for x in v.vertices:
        if not h.contains(x):
            return False
    for r in v.rays:
        if any(dot(a, r) < 0 for a, _ in h.rows):
            return False
    for l in v.lineality:
        if any(dot(a, l) != 0 for a, _ in h.rows):
            return False
    return True


# ---------------------------------------------------------------------------
# exact linear algebra

def row_echelon(rows):
    """Fraction-free (Bareiss) forward elimination of integer rows.

    Returns ``(echelon, pivots, sign)``: the rows in echelon form, the pivot
    column of each leading row, and the sign of the row swaps.  Every entry
    below the k-th pivot row is a (k+1)-minor of the input, so each division
    is exact and the last pivot of a nonsingular square matrix is its
    determinant up to ``sign``.
    """
    rows = [list(r) for r in rows]
    pivots = []
    sign, prev = 1, 1
    width = len(rows[0]) if rows else 0
    for col in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = piv
        pivots.append(col)
    return rows, pivots, sign


def det(matrix):
    """Exact determinant of an integer square matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotSquare("matrix is not square")
    echelon, pivots, sign = row_echelon(matrix)
    if len(pivots) < n:
        return 0
    return sign * echelon[-1][-1] if n else 1


def rank(rows):
    """Exact rank of a matrix with rational entries."""
    return len(row_echelon([primitive(r) for r in rows])[1])
