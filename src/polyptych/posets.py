"""Finite graded marked posets: validation, level decomposition, zigzag
classification, and the shift vector used to center the polytopes.

A marked poset is a finite poset given by its Hasse covers, a marked subset
containing all extremes, and an order-monotone integer marking on the marked
elements.  The zigzag classifier decomposes every "breve" double level into
connected components and matches them against the two admissible shapes
(an all-unmarked zigzag, or a zigzag whose last lower element is marked);
every downstream construction (relations, dual lattices, Cox counts) hangs
off this classification.  The graded structure and the classification
are computed once per poset and kept on it; a poset that fails either
raises again on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush


class PosetError(Exception):
    pass


class NotGraded(PosetError):
    pass


class SpadeViolation(PosetError):
    pass


class NoInteriorU(PosetError):
    pass


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _encode_int(v):
    return v if _INT64_MIN <= v <= _INT64_MAX else str(v)


def _decode_int(v):
    """A marking value read back from JSON: an integer string, as
    _encode_int writes beyond int64, becomes an int; the constructor checks
    every other value."""
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        return int(v)
    return v


def _is_list_of(value, kind):
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


JSON_KEYS = ("elements", "covers", "marked")  # the keys to_json writes


class MarkedPoset:
    """Immutable triple (elements, covers, marking); covers (q, p) mean q < p."""

    __slots__ = ("elements", "covers", "marking", "axis", "_index", "_lower",
                 "_upper", "_chart_plans", "_graded", "_spade", "_relations",
                 "_basis")

    def __init__(self, elements, covers, marking):
        self.elements = tuple(sorted(elements))
        if not self.elements:
            raise PosetError("a marked poset needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate element names")
        for e in self.elements:
            if not e or "," in e:
                raise PosetError(
                    f"element name {e!r} is empty or has a comma")
        self.covers = tuple(sorted((q, p) for q, p in covers))
        for a, b in zip(self.covers, self.covers[1:]):
            if a == b:
                raise PosetError(f"repeated cover {a}")
        for q, p in self.covers:
            if q not in elements or p not in elements:
                raise PosetError(f"cover ({q}, {p}) references unknown element")
        for a, v in marking.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise PosetError(
                    f"marking of {a} must be an integer, not {v!r}")
        self.marking = dict(marking)
        for a in self.marking:
            if a not in elements:
                raise PosetError(f"marked element {a} not in poset")
        self.axis = tuple(e for e in self.elements if e not in self.marking)
        self._index = {p: i for i, p in enumerate(self.axis)}
        self._lower = {e: [] for e in self.elements}
        self._upper = {e: [] for e in self.elements}
        for q, p in self.covers:
            self._lower[p].append(q)
            self._upper[q].append(p)
        self._chart_plans = {}  # compiled chart maps, filled by mco
        # derived structure, each computed on first use and never on failure
        self._graded = None     # graded_structure
        self._spade = None      # classify_spade
        self._relations = None  # relation tails, filled by algebra
        self._basis = None      # adapted basis table, filled by algebra

    def is_marked(self, e):
        return e in self.marking

    def lower_covers(self, p):
        return tuple(self._lower[p])

    def upper_covers(self, q):
        return tuple(self._upper[q])

    def index(self, p):
        return self._index[p]

    def to_json(self):
        data = {
            "elements": list(self.elements),
            "covers": [list(c) for c in self.covers],
            "marked": {a: _encode_int(v) for a, v in sorted(self.marking.items())},
        }
        return data

    @classmethod
    def from_json(cls, data):
        unknown = sorted(set(data) - set(JSON_KEYS))
        if unknown:
            raise PosetError(f"unknown key(s) {', '.join(unknown)}; allowed "
                             f"keys: {', '.join(JSON_KEYS)}")
        marked = data.get("marked", {})
        if not isinstance(marked, dict):
            raise PosetError("marked must map element names to values")
        marking = {a: _decode_int(v) for a, v in marked.items()}
        elements, covers = data.get("elements"), data.get("covers")
        if not _is_list_of(elements, str):
            raise PosetError("elements must be a list of element names")
        if not (isinstance(covers, list) and all(
                _is_list_of(c, str) and len(c) == 2 for c in covers)):
            raise PosetError("covers must be a list of [lower, upper] "
                             "name pairs")
        return cls(elements, [tuple(c) for c in covers], marking)

    def __repr__(self):
        return (f"MarkedPoset({len(self.elements)} elements, "
                f"{len(self.covers)} covers, {len(self.marking)} marked)")


@dataclass(frozen=True)
class GradedStructure:
    rank: dict
    levels: dict  # level -> tuple of elements

    @property
    def max_rank(self):
        return max(self.levels) if self.levels else 0


@dataclass
class Diagnostics:
    ok: bool
    errors: list
    graded: GradedStructure | None

    @property
    def message(self):
        """The errors as one line: CODE (message); CODE (message) ..."""
        return "; ".join(f"{code} ({message})"
                         for code, message in self.errors)


def validate(poset):
    """Check all marked-poset invariants plus gradedness."""
    errors = []
    order = _topological(poset)
    if order is None:
        errors.append(("CYCLE", "cover relation contains a cycle"))
        return Diagnostics(False, errors, None)
    # Hasse minimality: no cover may be implied by a longer chain
    reach = _reachability(poset, order)
    for q, p in poset.covers:
        if any(p in reach[r] for r in poset.upper_covers(q) if r != p):
            errors.append(("BAD_HASSE", f"cover ({q}, {p}) is transitively implied"))
    minimal = [e for e in poset.elements if not poset.lower_covers(e)]
    maximal = [e for e in poset.elements if not poset.upper_covers(e)]
    for e in minimal + maximal:
        if not poset.is_marked(e):
            errors.append(("UNMARKED_EXTREME", f"extreme element {e} is not marked"))
    for a in poset.marking:
        for b in poset.marking:
            if b in reach[a] and poset.marking[a] > poset.marking[b]:
                errors.append(
                    ("NOT_MONOTONE", f"marking decreases along {a} < {b}"))
    graded = None
    rank = _heights(poset, order)
    bad = [c for c in poset.covers if rank[c[1]] != rank[c[0]] + 1]
    top_ranks = {rank[e] for e in maximal}
    if bad:
        errors.append(("NOT_GRADED", f"cover {bad[0]} skips a rank"))
    elif len(top_ranks) > 1:
        errors.append(("NOT_GRADED", "maximal elements at different ranks"))
    else:
        levels = {}
        for e, r in rank.items():
            levels.setdefault(r, []).append(e)
        graded = GradedStructure(rank, {i: tuple(sorted(v)) for i, v in levels.items()})
    return Diagnostics(not errors, errors, graded)


def graded_structure(poset):
    """The ranks and levels of a graded poset, computed once per poset;
    raises NotGraded otherwise."""
    if poset._graded is None:
        diag = validate(poset)
        if diag.graded is None:
            raise NotGraded(diag.message)
        poset._graded = diag.graded
    return poset._graded


def _topological(poset):
    """The elements in the topological order that always takes the least
    available one, or None on a cycle."""
    indeg = {e: len(poset.lower_covers(e)) for e in poset.elements}
    heap = [e for e in poset.elements if indeg[e] == 0]
    heapify(heap)
    out = []
    while heap:
        e = heappop(heap)
        out.append(e)
        for p in poset.upper_covers(e):
            indeg[p] -= 1
            if indeg[p] == 0:
                heappush(heap, p)
    return out if len(out) == len(poset.elements) else None


def _heights(poset, order):
    """Each element's longest-chain rank from below (0 on the minimal
    elements), over a topological order."""
    height = {}
    for e in order:
        height[e] = max((height[q] + 1 for q in poset.lower_covers(e)),
                        default=0)
    return height


def _reachability(poset, order):
    """reach[e] = set of elements strictly above e."""
    reach = {e: set() for e in poset.elements}
    for e in reversed(order):
        for p in poset.upper_covers(e):
            reach[e].add(p)
            reach[e] |= reach[p]
    return reach


# ---------------------------------------------------------------------------
# breve levels and the zigzag classification

@dataclass(frozen=True)
class BreveLevel:
    level: int
    lower: tuple
    upper: tuple        # kept upper elements
    edges: tuple        # covers (q, p) with q in lower, p in upper


def breve_level(poset, i):
    """Double level Pi(i) u Pi(i+1) with marked or single-legged uppers removed."""
    graded = graded_structure(poset)
    lower = graded.levels.get(i, ())
    upper_all = graded.levels.get(i + 1, ())
    kept = [p for p in upper_all if not poset.is_marked(p) and sum(
        q in lower for q in poset.lower_covers(p)) > 1]
    edges = tuple((q, p) for p in kept for q in poset.lower_covers(p) if q in lower)
    return BreveLevel(i, tuple(lower), tuple(kept), edges)


ZIGZAG_UNMARKED = "ZIGZAG_UNMARKED"
ZIGZAG_MARKED_TOP = "ZIGZAG_MARKED_TOP"
TRIVIAL = "TRIVIAL"


@dataclass(frozen=True)
class LevelComponent:
    level: int
    lower: tuple  # p_1 .. p_{n_C + 1} (TRIVIAL: the single element)
    upper: tuple  # q_1 .. q_{n_C}
    shape: str
    lower_marked: tuple  # marked flags parallel to `lower`

    @property
    def n_c(self):
        return len(self.upper)

    @property
    def counts_as_unmarked_zigzag(self):
        """Whether the component contributes to the unit-lattice rank U."""
        if self.shape == ZIGZAG_UNMARKED:
            return True
        return self.shape == TRIVIAL and not self.lower_marked[0]


@dataclass(frozen=True)
class SpadeClassification:
    components: tuple
    lower_pos: dict  # element -> (component index, 1-based position in lower)
    upper_pos: dict  # element -> (component index, 1-based position in upper)


def classify_spade(poset):
    """Classify every breve-level component, once per poset; raise
    SpadeViolation otherwise."""
    if poset._spade is None:
        poset._spade = _classify(poset)
    return poset._spade


def _classify(poset):
    components = []
    lower_pos, upper_pos = {}, {}
    for i in range(graded_structure(poset).max_rank + 1):
        breve = breve_level(poset, i)
        for comp in _components(breve):
            lc = _match_shape(poset, i, comp)
            idx = len(components)
            components.append(lc)
            for k, p in enumerate(lc.lower, start=1):
                lower_pos[p] = (idx, k)
            for k, q in enumerate(lc.upper, start=1):
                upper_pos[q] = (idx, k)
    return SpadeClassification(tuple(components), lower_pos, upper_pos)


def _components(breve):
    parent = {e: e for e in breve.lower + breve.upper}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for q, p in breve.edges:
        parent[find(q)] = find(p)
    groups = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)
    lowers = set(breve.lower)
    out = []
    for root in sorted(groups):
        members = groups[root]
        low = sorted(e for e in members if e in lowers)
        up = sorted(e for e in members if e not in lowers)
        out.append((low, up, [e for e in breve.edges
                              if e[0] in members or e[1] in members]))
    return out


def _match_shape(poset, level, comp):
    low, up, edges = comp
    if not up:
        p = low[0]
        return LevelComponent(level, (p,), (), TRIVIAL, (poset.is_marked(p),))
    legs = {q: sorted(p for p, u in edges if u == q) for q in up}
    degree = {p: sum(p in ps for ps in legs.values()) for p in low}
    for q, ps in legs.items():
        if len(ps) != 2:
            raise SpadeViolation(
                f"level {level}: upper element {q} has {len(ps)} legs, need 2")
    if len(low) != len(up) + 1:
        raise SpadeViolation(
            f"level {level}: component {low}+{up} is not a zigzag path")
    ends = [p for p in low if degree[p] == 1]
    if len(ends) != 2 or any(degree[p] > 2 for p in low):
        raise SpadeViolation(
            f"level {level}: component {low}+{up} is not a zigzag path")
    marked_lower = [p for p in low if poset.is_marked(p)]
    if not marked_lower:
        start = min(ends)
        shape = ZIGZAG_UNMARKED
    elif len(marked_lower) == 1 and marked_lower[0] in ends:
        start = next(e for e in ends if e != marked_lower[0])
        shape = ZIGZAG_MARKED_TOP
    else:
        raise SpadeViolation(
            f"level {level}: marked elements {marked_lower} not a single endpoint")
    lower_seq, upper_seq = _walk_path(start, legs)
    return LevelComponent(level, tuple(lower_seq), tuple(upper_seq), shape,
                          tuple(poset.is_marked(p) for p in lower_seq))


def _walk_path(start, legs):
    lower_seq, upper_seq = [start], []
    used = set()
    current = start
    while len(used) < len(legs):
        q = next(q for q, ps in legs.items() if q not in used and current in ps)
        used.add(q)
        upper_seq.append(q)
        current = next(p for p in legs[q] if p != current)
        lower_seq.append(current)
    return lower_seq, upper_seq


# ---------------------------------------------------------------------------
# shift vector

@dataclass(frozen=True)
class ShiftVector:
    u: dict  # element -> int, agreeing with the marking on marked elements
    strict: bool

    def vector(self, poset):
        return tuple(self.u[p] for p in poset.axis)


def choose_u(poset, strict=True):
    """Rank-constant interior shift vector, strictly increasing if requested.

    Values on ranks containing marked elements equal the marking there;
    unmarked ranks interpolate evenly with left-justified (floor) rounding.
    """
    graded = graded_structure(poset)
    rank_value = {}
    for a, v in poset.marking.items():
        r = graded.rank[a]
        if rank_value.setdefault(r, v) != v:
            raise PosetError(f"marking not constant on rank {r}")
    marked_ranks = sorted(rank_value)
    values = dict(rank_value)
    for r1, r2 in zip(marked_ranks, marked_ranks[1:]):
        v1, v2 = rank_value[r1], rank_value[r2]
        span = r2 - r1
        if strict and v2 - v1 < span:
            raise NoInteriorU(
                f"marking gap {v2 - v1} over {span} ranks admits no strict u")
        for i in range(r1 + 1, r2):
            values[i] = v1 + (v2 - v1) * (i - r1) // span
    u = {e: values[graded.rank[e]] for e in poset.elements}
    if strict:
        for q, p in poset.covers:
            if not u[q] < u[p]:
                raise NoInteriorU(f"u not strict along cover ({q}, {p})")
    return ShiftVector(u, strict)


# ---------------------------------------------------------------------------
# standard builders

def chain_poset(length, lo, hi):
    """Single chain bot < p1 < ... < p_length < top with marked extremes."""
    elements = ["bot"] + [f"p{i}" for i in range(1, length + 1)] + ["top"]
    covers = list(zip(elements, elements[1:]))
    return MarkedPoset(elements, covers, {"bot": lo, "top": hi})


def basic_pi1(n, hi=3):
    """Zigzag p_1..p_{n+1} under q_1..q_n, with a bottom marked 0 and a top
    marked hi added."""
    elements = ["bot", "top"]
    covers = []
    for k in range(1, n + 2):
        elements.append(f"p{k}")
        covers.append(("bot", f"p{k}"))
    for k in range(1, n + 1):
        elements.append(f"q{k}")
        covers.append((f"p{k}", f"q{k}"))
        covers.append((f"p{k + 1}", f"q{k}"))
        covers.append((f"q{k}", "top"))
    return MarkedPoset(elements, covers, {"bot": 0, "top": hi})


def basic_pi2(n, lam):
    """Like basic_pi1 but with the last lower element p_{n+1} marked (value
    lam) and the top marked max(lam, 0) + 2."""
    poset = basic_pi1(n, max(lam, 0) + 2)
    marking = dict(poset.marking)
    marking[f"p{n + 1}"] = lam
    return MarkedPoset(poset.elements, poset.covers, marking)


def gt_type_A(n, lam):
    from .families import GTFamily
    return GTFamily("A", n, lam).poset


def gt_type_C(n, lam):
    from .families import GTFamily
    return GTFamily("C", n, lam).poset
