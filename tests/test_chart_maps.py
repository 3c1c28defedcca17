"""The compiled chart maps against a direct transcription of their
definition, which walks the lower covers by name and the axis by rank."""

import random
from fractions import Fraction

import pytest

from polyptych import families, mco
from polyptych.posets import graded_structure

# -- reference maps ----------------------------------------------------------


def _min_candidates(poset, p, values, marked_value):
    cands = []
    for q in poset.lower_covers(p):
        if poset.is_marked(q):
            cands.append(marked_value(q))
        else:
            cands.append(-values[q])
    return min(cands)


def ref_transfer(poset, chart, x):
    axis = poset.axis
    values = dict(zip(axis, x))
    out = list(x)
    for i, p in enumerate(axis):
        if p in chart:
            out[i] = x[i] + _min_candidates(
                poset, p, values, lambda q: -poset.marking[q])
    return tuple(out)


def ref_transfer_inverse(poset, chart, xp):
    graded = graded_structure(poset)
    axis = poset.axis
    order = sorted(axis, key=lambda p: graded.rank[p])
    values = {}
    out = dict(zip(axis, xp))
    for p in order:
        if p in chart:
            out[p] = out[p] - _min_candidates(
                poset, p, values, lambda q: -poset.marking[q])
        values[p] = out[p]
    return tuple(out[p] for p in axis)


def ref_mu(poset, chart, x):
    axis = poset.axis
    values = dict(zip(axis, x))
    out = list(x)
    for i, p in enumerate(axis):
        if p in chart:
            out[i] = x[i] + _min_candidates(poset, p, values, lambda q: 0)
    return tuple(out)


def ref_mu_inverse(poset, chart, xp):
    graded = graded_structure(poset)
    axis = poset.axis
    order = sorted(axis, key=lambda p: graded.rank[p])
    values = {}
    out = dict(zip(poset.axis, xp))
    for p in order:
        if p in chart:
            out[p] = out[p] - _min_candidates(poset, p, values, lambda q: 0)
        values[p] = out[p]
    return tuple(out[p] for p in axis)


def transfer_inverse(poset, chart, xp):
    """The inverse transfer map: the compiled inverse over the transfer
    plan, as mu_inverse is over the mu plan."""
    return mco._inverse(mco._plans(poset, chart)[0], xp)


PAIRS = [(mco.transfer, ref_transfer),
         (transfer_inverse, ref_transfer_inverse),
         (mco.mu, ref_mu),
         (mco.mu_inverse, ref_mu_inverse)]

FAMILIES = {"A2": ("A", 2, (0, 2, 4)),
            "C2": ("C", 2, (2, 4)),
            "A3": ("A", 3, (0, 2, 4, 6))}


def samples(dim, seed):
    rng = random.Random(seed)
    ints = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(12)]
    fracs = [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                   for _ in range(dim)) for _ in range(12)]
    return ints + fracs


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_compiled_maps_equal_reference(name):
    poset = families.GTFamily(*FAMILIES[name]).poset
    vectors = samples(len(poset.axis), seed=len(name) + sum(map(ord, name)))
    for chart in mco.charts_of(poset):
        for x in vectors:
            for compiled, reference in PAIRS:
                assert compiled(poset, chart, x) == reference(poset, chart, x), (
                    compiled.__name__, sorted(chart), x)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_compiled_maps_round_trip(name):
    poset = families.GTFamily(*FAMILIES[name]).poset
    vectors = samples(len(poset.axis), seed=7)
    for chart in mco.charts_of(poset):
        for x in vectors:
            assert transfer_inverse(
                poset, chart, mco.transfer(poset, chart, x)) == x
            assert mco.transfer(
                poset, chart, transfer_inverse(poset, chart, x)) == x
            assert mco.mu_inverse(poset, chart, mco.mu(poset, chart, x)) == x
            assert mco.mu(poset, chart, mco.mu_inverse(poset, chart, x)) == x

