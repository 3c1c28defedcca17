import json
import random

import pytest

from polyptych import algebra, degeneration, posets
from polyptych.families import GTFamily
from polyptych.posets import (MarkedPoset, NoInteriorU, NotGraded,
                              PosetError, SpadeViolation, basic_pi1,
                              basic_pi2, chain_poset, choose_u,
                              classify_spade, gt_type_A, gt_type_C,
                              graded_structure, validate)

from test_lattice import random_dag


def three_fan():
    elements = ["a", "p1", "p2", "p3", "q", "b"]
    covers = [("a", "p1"), ("a", "p2"), ("a", "p3"),
              ("p1", "q"), ("p2", "q"), ("p3", "q"), ("q", "b")]
    return MarkedPoset(elements, covers, {"a": 0, "b": 3})


def test_chain_poset_validates():
    p = chain_poset(1, 0, 2)
    diag = validate(p)
    assert diag.ok and not diag.errors
    assert p.axis == ("p1",)


def test_builders_validate_and_classify():
    for p in [basic_pi1(2), basic_pi2(2, 2), gt_type_A(2, (0, 2, 4)),
              gt_type_C(2, (2, 4)), gt_type_A(3, (0, 1, 3, 5)),
              gt_type_C(3, (1, 3, 5))]:
        assert validate(p).ok
        classify_spade(p)


def test_gt_element_counts():
    assert len(gt_type_A(2, (0, 2, 4)).axis) == 3
    assert len(gt_type_C(2, (2, 4)).axis) == 4
    assert len(gt_type_C(3, (2, 4, 6)).axis) == 9


def test_classification_c2_shapes(fam_C2, cls_C2):
    shapes = sorted((c.level, c.shape) for c in cls_C2.components)
    assert shapes == [(0, "TRIVIAL"), (0, "TRIVIAL"),
                      (1, "ZIGZAG_UNMARKED"), (2, "ZIGZAG_MARKED_TOP"),
                      (3, "TRIVIAL"), (4, "TRIVIAL")]


def test_classification_positions_consistent(cls_C2):
    for idx, comp in enumerate(cls_C2.components):
        for k, p in enumerate(comp.lower, start=1):
            assert cls_C2.lower_pos[p] == (idx, k)
        for k, q in enumerate(comp.upper, start=1):
            assert cls_C2.upper_pos[q] == (idx, k)


def test_three_fan_rejected():
    p = three_fan()
    assert validate(p).ok
    with pytest.raises(SpadeViolation):
        classify_spade(p)


def test_choose_u_marks_and_interior():
    p = chain_poset(2, 0, 6)
    u = choose_u(p)
    vec = [u.u[e] for e in ("bot",) + p.axis + ("top",)]
    assert vec[0] == 0 and vec[-1] == 6
    assert all(a < b for a, b in zip(vec, vec[1:]))


def test_choose_u_no_strict_room():
    with pytest.raises(NoInteriorU):
        choose_u(chain_poset(3, 0, 3))
    choose_u(chain_poset(3, 0, 3), strict=False)


def test_json_roundtrip():
    p = gt_type_C(2, (2, 4))
    q = MarkedPoset.from_json(p.to_json())
    assert q.elements == p.elements
    assert q.covers == p.covers
    assert q.marking == p.marking
    big = chain_poset(1, 0, 2**70)
    data = json.loads(json.dumps(big.to_json()))
    assert data["marked"]["top"] == str(2**70)
    assert MarkedPoset.from_json(data).marking == {"bot": 0, "top": 2**70}


@pytest.mark.parametrize("value", [2.7, 2.0, "2", True, None])
def test_constructor_rejects_non_integer_marking(value):
    with pytest.raises(PosetError, match="marking of c"):
        MarkedPoset(["a", "p", "c"], [("a", "p"), ("p", "c")],
                    {"a": 0, "c": value})


def test_constructor_rejects_a_repeated_cover():
    with pytest.raises(PosetError, match=r"repeated cover \('a', 'p'\)"):
        MarkedPoset(["a", "p", "c"], [("a", "p"), ("p", "c"), ("a", "p")],
                    {"a": 0, "c": 2})


def test_constructor_rejects_an_empty_poset():
    with pytest.raises(PosetError, match="at least one element"):
        MarkedPoset([], [], {})


def test_graded_structure_ranks():
    g = graded_structure(chain_poset(2, 0, 4))
    assert g.rank["bot"] == 0 and g.rank["top"] == g.max_rank


def test_invalid_cycle_detected():
    p = MarkedPoset(["a", "b"], [("a", "b"), ("b", "a")], {})
    assert not validate(p).ok


def _least_first(poset):
    """The oracle of posets._topological: a topological order that keeps
    the available elements sorted and takes the least."""
    indeg = {e: len(poset.lower_covers(e)) for e in poset.elements}
    queue = sorted(e for e in poset.elements if indeg[e] == 0)
    out = []
    while queue:
        e = queue.pop(0)
        out.append(e)
        for p in poset.upper_covers(e):
            indeg[p] -= 1
            if indeg[p] == 0:
                queue = sorted(queue + [p])
    return out


def test_topological_order_takes_the_least_available_element():
    rng = random.Random(0)
    dags = [random_dag(rng, size) for size in range(2, 9) for _ in range(20)]
    for poset in dags + [gt_type_A(3, (0, 2, 4, 6)), gt_type_C(3, (2, 4, 6)),
                         basic_pi2(3, 1)]:
        order = posets._topological(poset)
        assert order == _least_first(poset)
        heights = posets._heights(poset, order)
        assert all(heights[p] > heights[q] for q, p in poset.covers)


def test_derived_structure_is_computed_once(monkeypatch):
    """choose_u, hilbert_vs_ehrhart and no_body_sample share one graded
    structure on a fresh family: validate runs once in all."""
    seen = []

    def counting(poset):
        seen.append(poset)
        return validate(poset)

    monkeypatch.setattr(posets, "validate", counting)
    fam = GTFamily("A", 2, (0, 2, 4))
    u = choose_u(fam.poset)
    assert degeneration.hilbert_vs_ehrhart(fam.poset, u, 1)["ok"]
    spec = degeneration.default_chart_valuation_spec(fam, frozenset())
    assert degeneration.no_body_sample(fam, u, spec, 1)["ok"]
    assert seen == [fam.poset]
    assert classify_spade(fam.poset) is classify_spade(fam.poset)
    assert (algebra.build_relations(fam.poset)
            is algebra.build_relations(fam.poset))


def test_failures_are_raised_again():
    fan = three_fan()
    for _ in range(2):
        with pytest.raises(SpadeViolation, match="3 legs"):
            classify_spade(fan)
    # bot < p1 < p2 < top and bot < p3 < top: p3 skips a rank
    skew = MarkedPoset(["bot", "p1", "p2", "p3", "top"],
                       [("bot", "p1"), ("p1", "p2"), ("p2", "top"),
                        ("bot", "p3"), ("p3", "top")], {"bot": 0, "top": 3})
    for _ in range(2):
        with pytest.raises(NotGraded):
            graded_structure(skew)
    with pytest.raises(NotGraded):
        classify_spade(skew)
