"""Cox-ring combinatorics: unit-rank and boundary-divisor counts, semigroup
generators for the per-cone divisor semigroups with unimodularity
certificates, and the binomial-plus-tail presentation with its elimination
to a polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, geometry, lattice
from .geometry import UnimodularityFail
from .posets import classify_spade


class Unsupported(Exception):
    pass


# ---------------------------------------------------------------------------
# counts

@dataclass(frozen=True)
class CoxCounts:
    U: int
    L: int
    variables: int
    per_level: dict


def cox_counts(poset):
    """U = number of fully-unmarked zigzag components per level, summed;
    L = one boundary divisor per structural point; variables = d - U + L."""
    per_level = {}
    for comp in classify_spade(poset).components:
        if comp.counts_as_unmarked_zigzag:
            per_level[comp.level] = per_level.get(comp.level, 0) + 1
    U = sum(per_level.values())
    d = len(poset.axis)
    L = len(lattice.structural_points(poset))
    return CoxCounts(U, L, d - U + L, per_level)


# ---------------------------------------------------------------------------
# divisors: one per structural point, in the order of structural_points, so
# the element divisor of p sits at poset.index(p)

def divisor_label(pt):
    """The Cox variable of the boundary divisor at a structural point."""
    if pt.kind == "INNER":
        return f"t_{pt.p}"
    return f"t_{pt.p},{pt.pprime}"


# ---------------------------------------------------------------------------
# semigroup generators and the unimodular certificate

def _xvec(fam, entries):
    vec = [0] * len(fam.axis)
    for (i, j), c in entries:
        if (i, j) in fam.positions:
            vec[fam.axis_index(i, j)] += c
    return vec


def _corner_index(fam, points, i, j):
    """Index of the corner divisor whose unmarked side is q_{i,j}."""
    name = fam.positions[(i, j)]
    for k, pt in enumerate(points):
        if pt.kind == "CORNER" and pt.pprime == name:
            return k
    raise Unsupported(f"no marked cover over {name}")


def _rvec(fam, points, entries):
    vec = [0] * len(points)
    for key, c in entries:
        if isinstance(key, int):
            vec[key] += c
        elif key in fam.positions:
            vec[fam.axis_index(*key)] += c
    return vec


def _row_positions(fam, i, jmax):
    if i not in fam.rows:
        return []
    return [(i, l) for l in range(fam.row_start(i), jmax + 1)
            if (i, l) in fam.positions]


def generator_vectors(fam, eps, points):
    """Generators of the chart-cone divisor semigroup in Z^d x Z^L:
    the divisor unit vectors, the +-unit directions v_s, and one f per
    interior position chosen by the sign vector eps."""
    gens = []
    for k, pt in enumerate(points):
        gens.append((f"e_{divisor_label(pt)}", _xvec(fam, []),
                     _rvec(fam, points, [(k, 1)])))
    for s, (i, j) in enumerate(fam.units, start=1):
        row = _row_positions(fam, i, j)
        x = _xvec(fam, [(ij, 1) for ij in row])
        r = _rvec(fam, points,
                  [(ij, -1) for ij in row]
                  + [(ij, 1) for ij in _row_positions(fam, i + 1, j - 1)]
                  + [(_corner_index(fam, points, i, j), 1)])
        gens.append((f"v_{s}", x, r))
        gens.append((f"-v_{s}", [-c for c in x], [-c for c in r]))
    for (i, j) in fam.pihat:
        e = eps[(i, j)]
        row = _row_positions(fam, i, j)
        above = _row_positions(fam, i + 1, j if e == 1 else j - 1)
        x = _xvec(fam, [(ij, e) for ij in row])
        r = _rvec(fam, points, [(ij, -e) for ij in row]
                  + [(ij, e) for ij in above])
        gens.append((f"f_{fam.positions[(i, j)]},{e:+d}", x, r))
    return gens


def gamma_matrix(fam, eps, points):
    """The square transformation (x, r) -> (gamma coordinates): the cone
    inequalities and divisor inequalities linearized on the chosen cone,
    completed by the unit-position coordinates."""
    d = len(fam.axis)
    L = len(points)
    above = {fam.positions[(i + 1, j)]: (i, j) for (i, j) in fam.pihat}
    rows = []
    for (i, j) in fam.pihat:
        e = eps[(i, j)]
        row = _xvec(fam, [((i, j), e), ((i, j + 1), -e)])
        rows.append(row + [0] * L)
    for (i, j) in fam.pihat:
        e = eps[(i, j)]
        lower = (i, j) if e == 1 else (i, j + 1)
        row = _xvec(fam, [((i + 1, j), 1), (lower, -1)])
        rrow = [0] * L
        rrow[fam.axis_index(i + 1, j)] = 1
        rows.append(row + rrow)
    for p in sorted(fam.poset.axis):
        if p in above:
            continue
        unmarked_lower = [q for q in fam.poset.lower_covers(p)
                          if not fam.poset.is_marked(q)]
        if len(unmarked_lower) > 1:
            raise Unsupported(f"non-linear divisor functional at {p}")
        row = [0] * d
        row[fam.poset.index(p)] = 1
        if unmarked_lower:
            row[fam.poset.index(unmarked_lower[0])] = -1
        rrow = [0] * L
        rrow[fam.poset.index(p)] = 1
        rows.append(row + rrow)
    for k, pt in enumerate(points):
        if pt.kind != "CORNER":
            continue
        row = [0] * d
        row[fam.poset.index(pt.pprime)] = -1
        rrow = [0] * L
        rrow[k] = 1
        rows.append(row + rrow)
    for (i, j) in fam.units:
        row = [0] * d
        row[fam.axis_index(i, j)] = 1
        rows.append(row + [0] * L)
    return rows


def semigroup_generators(fam, eps):
    """Generator list with the certificate: the gamma transformation is
    unimodular, every generator satisfies all divisor inequalities exactly,
    and the generators map bijectively onto signed unit vectors."""
    points = lattice.structural_points(fam.poset)
    gens = generator_vectors(fam, eps, points)
    matrix = gamma_matrix(fam, eps, points)
    determinant = geometry.det(matrix)
    if abs(determinant) != 1:
        raise UnimodularityFail(
            f"gamma transformation has determinant {determinant}")
    lat = lattice.PolyptychLattice(fam.poset)

    def in_cone(x):
        return all(e * (fam.coord(x, i, j) - fam.coord(x, i, j + 1)) >= 0
                   for (i, j), e in eps.items())

    membership = []
    for label, x, r in gens:
        m = lat.element(x)
        vals = [phi(m) + rk for phi, rk in zip(points, r)]
        if label.startswith(("v_", "-v")):
            ok = all(v == 0 for v in vals)
        else:
            ok = all(v >= 0 for v in vals) and in_cone(x)
        membership.append({"generator": label, "ok": ok})
        if not ok:
            raise UnimodularityFail(f"generator {label} fails membership")
    hit = sorted(_image_support(matrix, x + r) for label, x, r in gens
                 if not label.startswith("-v"))
    bijective = hit == list(range(len(matrix)))
    if not bijective:
        raise UnimodularityFail("generators do not map onto unit vectors")
    return {
        "divisor_layout": [divisor_label(pt) for pt in points],
        "generators": [{"label": lab, "x": list(x), "r": list(r)}
                       for lab, x, r in gens],
        "determinant": determinant,
        "membership": membership,
        "unit_vector_bijection": bijective,
        "ok": True,
    }


def _image_support(matrix, vec):
    image = [sum(row[c] * vec[c] for c in range(len(vec))) for row in matrix]
    support = [k for k, v in enumerate(image) if v != 0]
    if len(support) != 1 or abs(image[support[0]]) != 1:
        raise UnimodularityFail(f"image {image} is not a signed unit vector")
    return support[0]


def all_sign_vectors(fam):
    from itertools import product
    return [dict(zip(fam.pihat, combo))
            for combo in product((1, -1), repeat=len(fam.pihat))]


# ---------------------------------------------------------------------------
# presentation

@dataclass(frozen=True)
class CoxPresentation:
    w_vars: tuple
    z_vars: tuple
    t_vars: tuple
    relations: tuple     # (q, above, w_factor or None) per interior element
    free_variables: tuple


def cox_presentation(fam):
    """W_q Z_q = t_above + W' Z' relations from the algebra tails; the
    eliminated ring keeps the W's, all Z's, and the t's of elements not
    sitting above an interior position."""
    poset = fam.poset
    tails = algebra.build_relations(poset)
    interior = sorted(fam.positions[ij] for ij in fam.pihat)
    relations = []
    eliminated = set()
    for q in interior:
        tail = tails[q]
        if tail is None:
            raise Unsupported(f"interior element {q} with no relation")
        above = tail[-1]
        w_factor = tail[1] if tail[0] == "XY" else None
        if w_factor is not None and w_factor not in interior:
            raise Unsupported(f"relation factor {w_factor} is not a W")
        relations.append((q, above, w_factor))
        eliminated.add(above)
    w_vars = tuple(interior)
    z_vars = tuple(sorted(poset.axis))
    t_vars = tuple(sorted(poset.axis))
    free = (tuple(f"W_{q}" for q in w_vars)
            + tuple(f"Z_{q}" for q in z_vars)
            + tuple(f"t_{q}" for q in t_vars if q not in eliminated))
    return CoxPresentation(w_vars, z_vars, t_vars, tuple(relations), free)
