"""The two triangular pattern families (types A and C) with their grid
index metadata.

Unmarked elements are named ``q{i}{j}`` by (row, column); marked elements are
``qs{k}`` plus, in type C, the bottom zeros ``z{j}``.  Two-digit indices would
make names collide ((1, 11) and (11, 1) are both ``q111``), so n is at most
MAX_N = 10.  Grid conventions:

* type C: q_{i,j} exists for 1 <= j <= n, 1 <= i <= 2n+1-2j; marked qs_k sits
  at grid position (2k, n-k+1) with value lam_k; z_j < q_{1,j} at the bottom.
* type A: q_{i,j} exists for 1 <= j <= n, n+1-j <= i <= 2n+1-2j; marked qs_k
  sits at grid position (2k-2, n-k+2) with value lam_k.

Every q_{i,j} covers the grid neighbours (i-1, j) and (i-1, j+1) that exist
(whether unmarked or marked).  The rank of q_{i,j} is i.
"""

from __future__ import annotations

from .posets import MarkedPoset

MAX_N = 10


class GTFamily:
    def __init__(self, family, n, lam):
        if family not in ("A", "C"):
            raise ValueError(f"unknown family {family!r}")
        if n > MAX_N:
            raise ValueError(f"n = {n} exceeds the limit n <= {MAX_N}: "
                             f"position names q{{i}}{{j}} would collide")
        lam = tuple(int(v) for v in lam)
        expect = n + 1 if family == "A" else n
        if len(lam) != expect:
            raise ValueError(f"type {family} needs {expect} marking values")
        if any(a > b for a, b in zip(lam, lam[1:])):
            raise ValueError("marking values must be weakly increasing")
        if family == "C" and lam and lam[0] < 0:
            raise ValueError("type C marking values must be >= 0")
        self.family = family
        self.n = n
        self.positions = {}   # (i, j) -> unmarked name
        for j in range(1, n + 1):
            i_lo = 1 if family == "C" else n + 1 - j
            for i in range(i_lo, 2 * n + 2 - 2 * j):
                self.positions[(i, j)] = f"q{i}{j}"
        self.pos_of = {name: ij for ij, name in self.positions.items()}
        self.marked_positions = {}  # (i, j) -> marked name on the grid
        marking = {}
        if family == "C":
            for k in range(1, n + 1):
                self.marked_positions[(2 * k, n - k + 1)] = f"qs{k}"
                marking[f"qs{k}"] = lam[k - 1]
                marking[f"z{k}"] = 0
        else:
            for k in range(1, n + 2):
                self.marked_positions[(2 * k - 2, n - k + 2)] = f"qs{k}"
                marking[f"qs{k}"] = lam[k - 1]
        covers = []
        for (i, j), name in sorted(self.positions.items()):
            if family == "C" and i == 1:
                covers.append((f"z{j}", name))
                continue
            for below in ((i - 1, j), (i - 1, j + 1)):
                lower = self.grid_name(*below)
                if lower is not None:
                    covers.append((lower, name))
        if family == "A":
            for k in range(2, n + 2):
                lower = self.grid_name(2 * k - 3, n - k + 2)
                covers.append((lower, f"qs{k}"))
        else:
            for k in range(1, n + 1):
                lower = self.grid_name(2 * k - 1, n - k + 1)
                covers.append((lower, f"qs{k}"))
        elements = list(self.positions.values()) + list(marking)
        self.poset = MarkedPoset(elements, covers, marking)
        self.axis = self.poset.axis
        self._axis_index = {ij: self.poset.index(name)
                            for ij, name in self.positions.items()}
        # axis index of each axis position's right neighbour (i, j+1), or None
        self.right = tuple(self._axis_index.get((i, j + 1))
                           for i, j in map(self.pos_of.get, self.axis))
        rows = {}
        for (i, j) in self.positions:
            rows.setdefault(i, []).append(j)
        self.rows = {i: sorted(js) for i, js in rows.items()}
        # interior positions: both q_{i,j} and q_{i+1,j} are unmarked; the
        # other unmarked positions are the units (expected (2s-1, n+1-s))
        self.pihat = tuple(ij for ij in sorted(self.positions)
                           if (ij[0] + 1, ij[1]) in self.positions)
        self.units = tuple(sorted(set(self.positions) - set(self.pihat)))
        # DualElement's y' solve, in reversed pihat order: axis indices of
        # (i, j), (i+1, j) and (i+1, j-1) or None
        index = self._axis_index
        self.yp_plan = tuple((index[(i, j)], index[(i + 1, j)],
                              index.get((i + 1, j - 1)))
                             for i, j in reversed(self.pihat))
        self._dual_cones = None  # cone-chart covectors, filled by semialgebra
        self._dual_generators = None  # generator y-vectors, filled by lattice

    # -- grid helpers -------------------------------------------------------

    def grid_name(self, i, j):
        return self.positions.get((i, j)) or self.marked_positions.get((i, j))

    def row_start(self, i):
        return self.rows[i][0]

    # -- vectors over the unmarked axis ------------------------------------

    def axis_index(self, i, j):
        return self._axis_index[(i, j)]

    def coord(self, x, i, j):
        """x_{i,j} from an axis vector, with missing positions read as 0."""
        k = self._axis_index.get((i, j))
        return 0 if k is None else x[k]
