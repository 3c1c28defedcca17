"""Quotient algebra attached to a classified marked poset: one relation
X_p Y_p = 1 + tail per unmarked element, a standard-monomial normal form,
the induced valuation into the semialgebra, the certificate that the
Jacobian has full rank on the torus part of the variety, and the exact
Jacobian rank at given variety points.  The relation tails and the adapted
basis are built once per poset and kept on it.

Monomials are sparse maps p -> (a_p, b_p) of nonnegative X/Y exponents,
canonically keyed by sorted element name; elements are sparse maps from
monomial keys to nonzero coefficients, ints unless an input is rational.
"""

from __future__ import annotations

from fractions import Fraction

from . import geometry, lattice, semialgebra
from .posets import classify_spade, graded_structure

ONE = ()


class ValuationFail(Exception):
    pass


class RankFail(Exception):
    pass


# ---------------------------------------------------------------------------
# monomials and elements

def mono(pairs):
    """Canonical monomial key from {p: (a, b)}."""
    items = []
    for p, (a, b) in sorted(dict(pairs).items()):
        if a < 0 or b < 0:
            raise ValueError("negative exponent")
        if a or b:
            items.append((p, a, b))
    return tuple(items)


def mono_mul(m1, m2):
    acc = {p: (a, b) for p, a, b in m1}
    for p, a, b in m2:
        a0, b0 = acc.get(p, (0, 0))
        acc[p] = (a0 + a, b0 + b)
    return mono(acc)


def x_var(p):
    return ((p, 1, 0),)


def y_var(p):
    return ((p, 0, 1),)


def element(pairs):
    """Algebra element from an iterable of (monomial key, coefficient)."""
    acc = {}
    for m, c in pairs:
        c = acc.get(m, 0) + c
        if c:
            acc[m] = c
        elif m in acc:
            del acc[m]
    return acc


def add(f, g):
    return element(list(f.items()) + list(g.items()))


# ---------------------------------------------------------------------------
# relations

def build_relations(poset):
    """Tail term of each relation X_p Y_p - 1 - tail, from the level
    component structure: the element above p in its zigzag contributes
    Y (and an extra X when that upper element continues a zigzag one
    level up at an interior position).  Built once per poset."""
    if poset._relations is None:
        classification = classify_spade(poset)
        tails = {}
        for p in poset.axis:
            idx, k = classification.lower_pos[p]
            comp = classification.components[idx]
            if k > comp.n_c:
                tails[p] = None
                continue
            q = comp.upper[k - 1]
            idx2, k2 = classification.lower_pos[q]
            comp2 = classification.components[idx2]
            if 2 <= k2 <= comp2.n_c + 1:
                tails[p] = ("XY", comp2.lower[k2 - 2], q)
            else:
                tails[p] = ("Y", q)
        poset._relations = tails
    return poset._relations


def tail_element(tail):
    if tail is None:
        return {}
    if tail[0] == "Y":
        return {y_var(tail[1]): 1}
    return {mono_mul(x_var(tail[1]), y_var(tail[2])): 1}


def normal_form(f, tails):
    """Rewrite X_p Y_p -> 1 + tail until all monomials are standard.

    Tails only mention strictly higher-rank variables, so the rewriting
    terminates; the result is independent of the rewrite order.
    """
    out = {}
    work = list(f.items())
    while work:
        m, c = work.pop()
        target = next((p for p, a, b in m if a and b), None)
        if target is None:
            c = out.get(m, 0) + c
            if c:
                out[m] = c
            elif m in out:
                del out[m]
            continue
        rest = mono({p: (a - (p == target), b - (p == target))
                     for p, a, b in m})
        work.append((rest, c))
        for tm, tc in tail_element(tails[target]).items():
            work.append((mono_mul(rest, tm), c * tc))
    return out


def multiply(f, g, tails):
    prod = []
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            prod.append((mono_mul(m1, m2), c1 * c2))
    return normal_form(element(prod), tails)


# ---------------------------------------------------------------------------
# standard monomials <-> lattice elements

def _adapted_basis(poset):
    """The adapted basis, built once per poset: for each unmarked p, the
    axis indices where the basis vector hat_e_p is 1, and the axis index
    of the element after p in its zigzag's lower row (None at the end of
    the row, before a marked element, or away from zigzags).  Away from
    zigzags hat_e_p is the unit vector of p; inside the zigzag
    p_1, ..., p_k = p, ... it is the prefix sum e_{p_1} + ... + e_{p_k}."""
    if poset._basis is None:
        classification = classify_spade(poset)
        index = poset.index
        basis = {}
        for p in poset.axis:
            idx, k = classification.lower_pos[p]
            comp = classification.components[idx]
            if comp.n_c == 0:
                basis[p] = ((index(p),), None)
                continue
            nxt = comp.lower[k] if k < len(comp.lower) else None
            basis[p] = (tuple(map(index, comp.lower[:k])),
                        index(nxt) if nxt in poset.axis else None)
        poset._basis = basis
    return poset._basis


def monomial_to_m(poset, m):
    """Chart-0 coordinate of the lattice element attached to a standard
    monomial: the signed exponent sum over the adapted basis."""
    basis = _adapted_basis(poset)
    total = [0] * len(poset.axis)
    for p, a, b in m:
        for i in basis[p][0]:
            total[i] += a - b
    return tuple(total)


def m_to_monomial(poset, vec):
    """Inverse of monomial_to_m on chart-0 coordinates (exact, triangular):
    the exponent of p is its coordinate minus that of the next element."""
    coeff = {p: vec[poset.index(p)] - (0 if nxt is None else vec[nxt])
             for p, (_, nxt) in _adapted_basis(poset).items()}
    return mono({p: (max(c, 0), max(-c, 0)) for p, c in coeff.items()})


# ---------------------------------------------------------------------------
# valuation

def valuation(f, lat):
    if not f:
        return semialgebra.INFINITY
    gens = [lat.element(monomial_to_m(lat.poset, m)) for m in f]
    return semialgebra.SemialgebraElement(lat, gens)


def random_sparse(rng, poset, terms=2):
    out = []
    for _ in range(terms):
        m = mono({p: ((lattice.randints(rng, 0, 2, 1)[0], 0)
                      if rng.random() < 0.5
                      else (0, lattice.randints(rng, 0, 2, 1)[0]))
                  for p in poset.axis if rng.random() < 0.7})
        out.append((m, lattice.randints(rng, 1, 5, 1)[0]))
    return element(out)


def verify_valuation(fam, rng, samples=100, mode="EXACT"):
    """Multiplicativity of the valuation on seeded sparse pairs."""
    poset = fam.poset
    tails = build_relations(poset)
    lat = lattice.PolyptychLattice(poset)
    if mode == "SAMPLED":
        functionals = semialgebra.sample_functionals(fam, rng)
    elif mode != "EXACT":
        raise ValueError(f"unknown mode {mode!r}")
    checked = 0
    for _ in range(samples):
        f = normal_form(random_sparse(rng, poset), tails)
        g = normal_form(random_sparse(rng, poset), tails)
        if not f or not g:
            continue
        lhs = valuation(multiply(f, g, tails), lat)
        rhs = semialgebra.star(valuation(f, lat), valuation(g, lat))
        if mode == "EXACT":
            same = semialgebra.equal_exact(fam, lhs, rhs)
        else:
            same = semialgebra.equal_sampled(lhs, rhs, functionals)
        if not same:
            raise ValuationFail(f"nu(fg) != nu(f)*nu(g) for {f} and {g}")
        checked += 1
    return {"pairs": checked, "ok": True}


# ---------------------------------------------------------------------------
# variety points and the Jacobian

def jacobian_matrix(poset, tails, xvals, yvals):
    """Rows g_p, columns X then Y in axis order, evaluated exactly."""
    axis = poset.axis
    rows = []
    for p in axis:
        dx = {p: yvals[p]}
        dy = {p: xvals[p]}
        tail = tails[p]
        if tail is not None:
            if tail[0] == "Y":
                dy[tail[1]] = dy.get(tail[1], 0) - 1
            else:
                dx[tail[1]] = dx.get(tail[1], 0) - yvals[tail[2]]
                dy[tail[2]] = dy.get(tail[2], 0) - xvals[tail[1]]
        rows.append([dx.get(q, 0) for q in axis]
                    + [dy.get(q, 0) for q in axis])
    return rows


def evaluate_relations(poset, tails, xvals, yvals):
    return [xvals[p] * yvals[p] - 1 - _tail_value(tails, xvals, yvals, p)
            for p in poset.axis]


def torus_triangular(poset):
    """Whether every relation tail reads a Y variable of strictly higher
    rank than p.  Then the Jacobian's Y block, with rows and columns in rank
    order, is triangular with diagonal X_p, so the Jacobian has full rank
    at every variety point whose X_p are all nonzero: the torus part of the
    variety is smooth."""
    rank = graded_structure(poset).rank
    return all(tail is None or rank[tail[-1]] > rank[p]
               for p, tail in build_relations(poset).items())


def jacobian_rank_at(poset, points):
    """The full rank n of the exact Jacobian at each given variety point
    (X values, Y values); raises RankFail at a point off the variety or
    with a rank drop."""
    tails = build_relations(poset)
    n = len(poset.axis)
    for xvals, yvals in points:
        if any(evaluate_relations(poset, tails, xvals, yvals)):
            raise RankFail(f"point {xvals}, {yvals} not on the variety")
        if geometry.rank(jacobian_matrix(poset, tails, xvals, yvals)) != n:
            raise RankFail(f"rank drop at {xvals}, {yvals}")
    return n


def degenerate_point_gt(fam):
    """A variety point where one X_p Y_p pair vanishes (at the top interior
    position), exercising the degenerate branch of the smoothness case
    split.  The relation there then reads 0 = 1 + tail, so the tail value
    is pinned to -1; everything else is solved rank-descending."""
    tails = build_relations(fam.poset)
    p0 = fam.positions[max(fam.pihat)]
    tail0 = tails[p0]
    if tail0 is None:
        raise RankFail("interior position with trivial tail")
    q0 = tail0[-1]
    graded = graded_structure(fam.poset)
    order = sorted(fam.poset.axis, key=lambda p: -graded.rank[p])
    xvals, yvals = {}, {}
    for p in order:
        if p == p0:
            xvals[p] = yvals[p] = Fraction(0)
        elif p == q0:
            yvals[p] = Fraction(-1)
            xvals[p] = (1 + _tail_value(tails, xvals, yvals, p)) / yvals[p]
        else:
            xvals[p] = Fraction(1)
            yvals[p] = 1 + _tail_value(tails, xvals, yvals, p)
    return xvals, yvals


def _tail_value(tails, xvals, yvals, p):
    tail = tails[p]
    if tail is None:
        return 0
    if tail[0] == "Y":
        return yvals[tail[1]]
    return xvals[tail[1]] * yvals[tail[2]]
