"""Cox-ring combinatorics: unit-rank and boundary-divisor counts, semigroup
generators for the per-cone divisor semigroups with unimodularity
certificates, the binomial-plus-tail presentation with its elimination to a
polynomial ring, and the boundary-unit exponent patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import algebra, geometry, lattice
from .geometry import UnimodularityFail
from .posets import classify_spade


class PatternFail(Exception):
    pass


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


def cox_counts(poset, classification=None):
    """U = number of fully-unmarked zigzag components per level, summed;
    L = one divisor per unmarked element plus one per marked-over-unmarked
    cover; variables = d - U + L."""
    classification = classification or classify_spade(poset)
    per_level = {}
    for comp in classification.components:
        if comp.counts_as_unmarked_zigzag:
            per_level[comp.level] = per_level.get(comp.level, 0) + 1
    U = sum(per_level.values())
    d = len(poset.axis)
    corners = sum(1 for p in sorted(poset.marking)
                  for pp in poset.lower_covers(p)
                  if not poset.is_marked(pp))
    L = d + corners
    return CoxCounts(U, L, d - U + L, per_level)


# ---------------------------------------------------------------------------
# divisors

@dataclass(frozen=True)
class Divisor:
    kind: str            # "element" or "marked" (marked-over-unmarked cover)
    p: str
    pprime: str = None

    def label(self):
        if self.kind == "element":
            return f"t_{self.p}"
        return f"t_{self.p},{self.pprime}"

    def functional(self):
        if self.kind == "element":
            return lattice.StructuralPoint("INNER", self.p)
        return lattice.StructuralPoint("CORNER", self.p, self.pprime)


def divisors_of(poset):
    """The boundary divisors in the fixed layout: element divisors sorted by
    name, then marked-cover divisors sorted by (marked, unmarked) names."""
    out = [Divisor("element", p) for p in sorted(poset.axis)]
    for p in sorted(poset.marking):
        for pp in sorted(poset.lower_covers(p)):
            if not poset.is_marked(pp):
                out.append(Divisor("marked", p, pp))
    return out


# ---------------------------------------------------------------------------
# semigroup generators and the unimodular certificate

def _xvec(fam, entries):
    vec = [0] * len(fam.axis)
    for (i, j), c in entries:
        if (i, j) in fam.positions:
            vec[fam.axis_index(i, j)] += c
    return vec


def _corner_index(fam, divisors, i, j):
    """Index of the marked-cover divisor whose unmarked side is q_{i,j}."""
    name = fam.positions[(i, j)]
    for k, dv in enumerate(divisors):
        if dv.kind == "marked" and dv.pprime == name:
            return k
    raise Unsupported(f"no marked cover over {name}")


def _rvec(fam, divisors, entries):
    vec = [0] * len(divisors)
    for key, c in entries:
        if isinstance(key, int):
            vec[key] += c
        else:
            (i, j) = key
            if (i, j) in fam.positions:
                name = fam.positions[(i, j)]
                vec[divisors.index(Divisor("element", name))] += c
    return vec


def _row_positions(fam, i, jmax):
    if i not in fam.rows:
        return []
    return [(i, l) for l in range(fam.row_start(i), jmax + 1)
            if (i, l) in fam.positions]


def generator_vectors(fam, eps, divisors=None):
    """Generators of the chart-cone divisor semigroup in Z^d x Z^L:
    the divisor unit vectors, the +-unit directions v_s, and one f per
    interior position chosen by the sign vector eps."""
    divisors = divisors or divisors_of(fam.poset)
    L = len(divisors)
    gens = []
    for k, dv in enumerate(divisors):
        gens.append((f"e_{dv.label()}", _xvec(fam, []),
                     _rvec(fam, divisors, [(k, 1)])))
    for s, (i, j) in enumerate(sorted(fam.units), start=1):
        x = _xvec(fam, [((i, l), 1) for (i, l) in _row_positions(fam, i, j)])
        r = _rvec(fam, divisors,
                  [((i, l), -1) for (i, l) in _row_positions(fam, i, j)]
                  + [((i + 1, l), 1)
                     for (_, l) in _row_positions(fam, i + 1, j - 1)]
                  + [(_corner_index(fam, divisors, i, j), 1)])
        gens.append((f"v_{s}", x, r))
        gens.append((f"-v_{s}", [-c for c in x], [-c for c in r]))
    for (i, j) in sorted(fam.pihat):
        e = eps[(i, j)]
        row = _row_positions(fam, i, j)
        if e == 1:
            x = _xvec(fam, [((i, l), 1) for (i, l) in row])
            r = _rvec(fam, divisors,
                      [((i, l), -1) for (i, l) in row]
                      + [((i + 1, l), 1)
                         for (_, l) in _row_positions(fam, i + 1, j)])
        else:
            x = _xvec(fam, [((i, l), -1) for (i, l) in row])
            r = _rvec(fam, divisors,
                      [((i, l), 1) for (i, l) in row]
                      + [((i + 1, l), -1)
                         for (_, l) in _row_positions(fam, i + 1, j - 1)])
        gens.append((f"f_{fam.positions[(i, j)]},{e:+d}", x, r))
    return gens


def gamma_matrix(fam, eps, divisors=None):
    """The square transformation (x, r) -> (gamma coordinates): the cone
    inequalities and divisor inequalities linearized on the chosen cone,
    completed by the unit-position coordinates."""
    divisors = divisors or divisors_of(fam.poset)
    d = len(fam.axis)
    L = len(divisors)
    above = {fam.positions[(i + 1, j)]: (i, j) for (i, j) in fam.pihat}
    rows = []
    for (i, j) in sorted(fam.pihat):
        e = eps[(i, j)]
        row = _xvec(fam, [((i, j), e), ((i, j + 1), -e)])
        rows.append(row + [0] * L)
    for (i, j) in sorted(fam.pihat):
        e = eps[(i, j)]
        lower = (i, j) if e == 1 else (i, j + 1)
        row = _xvec(fam, [((i + 1, j), 1), (lower, -1)])
        name = fam.positions[(i + 1, j)]
        rrow = [0] * L
        rrow[divisors.index(Divisor("element", name))] = 1
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
        rrow[divisors.index(Divisor("element", p))] = 1
        rows.append(row + rrow)
    for k, dv in enumerate(divisors):
        if dv.kind != "marked":
            continue
        row = [0] * d
        row[fam.poset.index(dv.pprime)] = -1
        rrow = [0] * L
        rrow[k] = 1
        rows.append(row + rrow)
    for (i, j) in sorted(fam.units):
        row = [0] * d
        row[fam.axis_index(i, j)] = 1
        rows.append(row + [0] * L)
    return rows


def semigroup_generators(fam, eps):
    """Generator list with the certificate: the gamma transformation is
    unimodular, every generator satisfies all divisor inequalities exactly,
    and the generators map bijectively onto signed unit vectors."""
    divisors = divisors_of(fam.poset)
    gens = generator_vectors(fam, eps, divisors)
    matrix = gamma_matrix(fam, eps, divisors)
    determinant = geometry.det(matrix)
    if abs(determinant) != 1:
        raise UnimodularityFail(
            f"gamma transformation has determinant {determinant}")
    lat = lattice.PolyptychLattice(fam.poset)
    functionals = [dv.functional() for dv in divisors]
    def in_cone(x):
        return all(e * (fam.coord(x, i, j) - fam.coord(x, i, j + 1)) >= 0
                   for (i, j), e in eps.items())

    membership = []
    for label, x, r in gens:
        m = lat.element(x)
        vals = [phi(m) + rk for phi, rk in zip(functionals, r)]
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
        "divisor_layout": [dv.label() for dv in divisors],
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
    keys = sorted(fam.pihat)
    return [dict(zip(keys, combo))
            for combo in product((1, -1), repeat=len(keys))]


def verify_f_pair_identity(fam):
    """f_{q,+1} + f_{q,-1} equals the divisor unit vector above q."""
    divisors = divisors_of(fam.poset)
    plus = {g[0]: g for g in generator_vectors(
        fam, {ij: 1 for ij in fam.pihat}, divisors)}
    minus = {g[0]: g for g in generator_vectors(
        fam, {ij: -1 for ij in fam.pihat}, divisors)}
    for (i, j) in fam.pihat:
        name = fam.positions[(i, j)]
        _, xp, rp = plus[f"f_{name},+1"]
        _, xm, rm = minus[f"f_{name},-1"]
        expect_r = _rvec(fam, divisors, [((i + 1, j), 1)])
        if [a + b for a, b in zip(xp, xm)] != [0] * len(xp):
            return False
        if [a + b for a, b in zip(rp, rm)] != expect_r:
            return False
    return True


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
    classification = classify_spade(poset)
    tails = algebra.build_relations(poset, classification)
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


# ---------------------------------------------------------------------------
# boundary units

def eta_unit_check(fam):
    """ord exponent pattern of each boundary unit across all divisors:
    +1 along its row, -1 along the row above, -1 at its marked-cover
    divisor, 0 elsewhere."""
    poset = fam.poset
    divisors = divisors_of(poset)
    lat = lattice.PolyptychLattice(poset)
    report = {"divisor_layout": [dv.label() for dv in divisors],
              "units": [], "ok": True}
    for s, (i, j) in enumerate(sorted(fam.units), start=1):
        m = lat.element(fam.eps_leq(i, j))
        corner = _corner_index(fam, divisors, i, j)
        pattern = {}
        for k, dv in enumerate(divisors):
            val = dv.functional()(m)
            expect = 0
            if dv.kind == "element":
                (pi, pj) = next(ij for ij, nm in fam.positions.items()
                                if nm == dv.p)
                if pi == i:
                    expect = 1
                elif pi == i + 1:
                    expect = -1
            elif k == corner:
                expect = -1
            if val != expect:
                raise PatternFail(
                    f"unit s={s}: ord at {dv.label()} is {val}, "
                    f"expected {expect}")
            if val:
                pattern[dv.label()] = val
        report["units"].append({"s": s, "position": [i, j],
                                "exponents": pattern})
    return report
