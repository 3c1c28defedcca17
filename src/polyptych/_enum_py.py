"""Lattice-point enumeration kernel.

Enumerates the integer points of ``{x : A x >= b}`` intersected with a
coordinate box, in lexicographic order, by depth-first search with per-axis
bound propagation against worst-case contributions of the not-yet-fixed
coordinates.  Only the rows with a nonzero coefficient on an axis are looked
at there, and the innermost axis emits its whole run of points at once.
"""

from __future__ import annotations

__all__ = ["enumerate_lattice_points", "BudgetExceeded"]


class BudgetExceeded(Exception):
    """Raised when the search visits more nodes than the configured budget."""


def enumerate_lattice_points(rows_a, rows_b, box, budget):
    """All integer points of {x : a.x >= b for all rows} inside ``box``.

    ``rows_a``: list of integer coefficient tuples, ``rows_b``: list of
    integer right-hand sides, ``box``: list of (lo, hi) inclusive integer
    bounds per axis.  Returns lexicographically sorted tuples of ints.
    Every node of the search counts its hi - lo + 1 children against
    ``budget``.
    """
    dim = len(box)
    if any(lo > hi for lo, hi in box):
        return []
    # per axis k: (row, a_k, max over the box of sum_{i > k} a_i x_i) for
    # the rows with a_k != 0
    active = [[] for _ in range(dim)]
    need = list(rows_b)   # b_r - sum of a_i x_i over the fixed axes
    for r, a in enumerate(rows_a):
        rest = 0
        for k in range(dim - 1, -1, -1):
            if a[k]:
                active[k].append((r, a[k], rest))
                lo, hi = box[k]
                rest += max(a[k] * lo, a[k] * hi)
        # a row is never looked at before its first nonzero axis, so it is
        # decided here when it cannot be met even at its maximum
        if need[r] > rest:
            return []
    last = dim - 1
    out = []
    nodes = 0

    def descend(k, prefix):
        nonlocal nodes
        lo, hi = box[k]
        rows = active[k]
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
        if lo > hi:
            return
        nodes += hi - lo + 1
        if nodes > budget:
            raise BudgetExceeded(f"enumeration budget {budget} exceeded")
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

    if not dim:
        return [()]
    try:
        descend(0, ())
    finally:
        # descend refers to itself through its closure; without this the
        # cycle keeps ``out`` alive until the cyclic garbage collector runs
        del descend
    return out
