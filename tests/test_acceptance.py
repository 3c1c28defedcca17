"""Acceptance gate: the quick profile of the criteria suite runs once per
session at seed 0, each criterion is reported as its own pass/fail line, and
the quick and full fingerprints are pinned."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, sub

import pytest

from polyptych import (acceptance, algebra, cli, families, lattice, mco,
                       semialgebra)
from polyptych.posets import ShiftVector, choose_u, gt_type_A, gt_type_C

from test_lattice import verify_mutation_axioms
from test_mco import _later_axis_plans

# sha256 of `polyptych acceptance --profile quick|full --seed 0`; a change
# that moves one must update it and say why.
QUICK_FINGERPRINT = (
    "7ce6e4e3232474dea191b44af237b31716b45ac696bf535dd90a7e2d11d33ae0")
FULL_FINGERPRINT = (
    "a141489409aa859ce575b32386702d97d8b44e544a4acb89b704c9b8d373bdad")


@pytest.fixture(scope="session")
def suite():
    return acceptance.run_suite(profile="quick", seed=0)


def entry(suite, number):
    matches = [c for c in suite["criteria"] if c["criterion"] == number]
    assert len(matches) == 1
    return matches[0]


def test_criterion_01_transfer_bijection_type_a(suite):
    assert entry(suite, 1)["pass"], entry(suite, 1)


def test_criterion_02_transfer_bijection_type_c(suite):
    assert entry(suite, 2)["pass"], entry(suite, 2)


def test_criterion_03_polyptych_axioms(suite):
    assert entry(suite, 3)["pass"], entry(suite, 3)


def test_criterion_04_mutation_transfer_compatibility(suite):
    assert entry(suite, 4)["pass"], entry(suite, 4)


def test_criterion_05_point_axioms(suite):
    assert entry(suite, 5)["pass"], entry(suite, 5)


def test_criterion_06_strict_dual_pairing(suite):
    assert entry(suite, 6)["pass"], entry(suite, 6)


def test_criterion_07_valuation_multiplicativity(suite):
    assert entry(suite, 7)["pass"], entry(suite, 7)


def test_criterion_08_adapted_basis_bijection(suite):
    assert entry(suite, 8)["pass"], entry(suite, 8)


def test_criterion_09_hilbert_equals_ehrhart(suite):
    assert entry(suite, 9)["pass"], entry(suite, 9)


def test_criterion_10_value_body_desk_check(suite):
    assert entry(suite, 10)["pass"], entry(suite, 10)


def test_criterion_11_cox_counts_and_generators(suite):
    assert entry(suite, 11)["pass"], entry(suite, 11)


def test_criterion_12_zigzag_classifier(suite):
    assert entry(suite, 12)["pass"], entry(suite, 12)


def test_criterion_13_jacobian_rank(suite):
    assert entry(suite, 13)["pass"], entry(suite, 13)


def test_criterion_13_draws_nothing_from_the_rng():
    rng = random.Random(0)
    state = rng.getstate()
    report = acceptance.criterion_13(rng, acceptance.PROFILES["quick"])
    assert report == {"criterion": 13, "name": "Jacobian rank",
                      "torus_triangular": True, "stratum_points": 1,
                      "rank": 4, "pass": True}
    assert rng.getstate() == state


def test_criterion_14_determinism(suite):
    assert entry(suite, 14)["pass"], entry(suite, 14)


def test_suite_overall(suite):
    assert suite["ok"]


def fingerprint(suite):
    """sha256 of the stdout of `polyptych acceptance` for this suite."""
    payload = {"tool": "polyptych", "version": cli.VERSION}
    payload.update(suite)
    stdout = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()


def test_quick_fingerprint(suite):
    assert fingerprint(suite) == QUICK_FINGERPRINT


def test_full_fingerprint():
    # criterion 7 at full checks 100 exact valuation pairs per family
    full = acceptance.run_suite(profile="full", seed=0)
    assert fingerprint(full) == FULL_FINGERPRINT


def test_each_pass_builds_the_shared_families_once(monkeypatch):
    built = Counter()
    init = families.GTFamily.__init__

    def counting(self, *args):
        built[args] += 1
        init(self, *args)

    monkeypatch.setattr(families.GTFamily, "__init__", counting)
    acceptance.run_once("quick", 0)
    shared = [("A", 2, (0, 2, 4)), ("C", 2, (2, 4))]
    # criteria 5 and 11 take n = 2 from the shared families too
    assert [built[key] for key in shared] == [1, 1]
    assert sum(built.values()) == 19
    built.clear()
    acceptance.run_suite("quick", 0)   # the second pass builds its own
    assert [built[key] for key in shared] == [2, 2]
    assert sum(built.values()) == 38


# ---------------------------------------------------------------------------
# criterion 8: the unimodularity certificate against the box sweep

def _sweep(poset):
    """The oracle: map every standard monomial whose signed exponents lie in
    the radius-4 box through monomial_to_m.  Returns the box size, whether
    no two images meet, and whether each point of the radius-2 box is an
    image."""
    axis = poset.axis
    images = set()
    count = 0
    for combo in product(range(-4, 5), repeat=len(axis)):
        m = algebra.mono({p: (max(c, 0), max(-c, 0))
                          for p, c in zip(axis, combo)})
        images.add(algebra.monomial_to_m(poset, m))
        count += 1
    hits = all(z in images for z in product(range(-2, 3), repeat=len(axis)))
    return count, len(images) == count, hits


FAMILIES = {"A2": ("A", 2, (0, 2, 4)), "C2": ("C", 2, (2, 4))}


@pytest.fixture(params=sorted(FAMILIES))
def poset(request):
    return families.GTFamily(*FAMILIES[request.param]).poset


def _with_index_sets(monkeypatch, sets):
    """Patch the adapted basis so that ``sets(axis, basis)`` gives each
    element's index set; the next-element entries are kept."""
    original = algebra._adapted_basis

    def patched(poset):
        basis = original(poset)
        new = sets(poset.axis, basis)
        return {p: (new[p], nxt) for p, (_, nxt) in basis.items()}

    monkeypatch.setattr(algebra, "_adapted_basis", patched)


def _run_criterion(number):
    return acceptance.CRITERIA[number - 1](random.Random(0),
                                           acceptance.PROFILES["quick"])


def test_basis_certificate_equals_the_sweep(poset):
    size, injective, hits = _sweep(poset)
    assert size == 9 ** len(poset.axis)
    assert acceptance._basis_certificate(poset) == (injective, hits) == (
        True, True)


def test_singular_basis_is_not_injective(poset, monkeypatch):
    """One entry's index set copied onto another: two columns of B agree."""
    def copied(axis, basis):
        sets = {p: basis[p][0] for p in axis}
        sets[axis[1]] = sets[axis[0]]
        return sets

    _with_index_sets(monkeypatch, copied)
    _, injective, hits = _sweep(poset)
    assert acceptance._basis_certificate(poset) == (injective, hits) == (
        False, False)
    assert not _run_criterion(8)["injective"]


def test_non_unimodular_basis_misses_the_radius_2_box(poset, monkeypatch):
    """Index sets {0, 1}, {1, 2}, {0, 2}, then {i}: det B = 2, so the map is
    injective but e_0 has no integer preimage."""
    def doubled(axis, basis):
        firsts = [(0, 1), (1, 2), (0, 2)]
        return {p: firsts[i] if i < 3 else (i,) for i, p in enumerate(axis)}

    _with_index_sets(monkeypatch, doubled)
    _, injective, hits = _sweep(poset)
    assert acceptance._basis_certificate(poset) == (injective, hits) == (
        True, False)


def test_inverse_leaving_the_radius_4_box_misses_it(poset, monkeypatch):
    """Index sets {0}, {0, 1}, {1, 2}, then {i}: B is unimodular, but row 0
    of its inverse is (1, -1, 1, 0, ...), so z = (2, -2, 2, 0, ...) needs
    the exponent 6 on the first element."""
    _with_index_sets(monkeypatch, lambda axis, basis: {
        p: [(0,), (0, 1), (1, 2)][i] if i < 3 else (i,)
        for i, p in enumerate(axis)})

    def inverse(poset, z):
        c = [z[0] - z[1] + z[2], z[1] - z[2], *z[2:]]
        return algebra.mono({p: (max(x, 0), max(-x, 0))
                             for p, x in zip(poset.axis, c)})

    monkeypatch.setattr(algebra, "m_to_monomial", inverse)
    _, injective, hits = _sweep(poset)
    assert acceptance._basis_certificate(poset) == (injective, hits) == (
        True, False)


def test_off_by_one_inverse_fails_criterion_8(monkeypatch):
    original = algebra.m_to_monomial

    def off_by_one(poset, vec):
        return algebra.mono_mul(original(poset, vec),
                                algebra.x_var(poset.axis[0]))

    monkeypatch.setattr(algebra, "m_to_monomial", off_by_one)
    report = _run_criterion(8)
    assert report["injective"] and not report["hits_radius2"]
    assert not report["pass"]


def test_criterion_8_maps_each_unit_vector_once(monkeypatch):
    """At most d calls of each map, so a sweep cannot come back."""
    calls = Counter()
    for name in ("monomial_to_m", "m_to_monomial"):
        def counting(*args, _fn=getattr(algebra, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(algebra, name, counting)
    assert _run_criterion(8)["pass"]
    d = len(acceptance._fam_C2().poset.axis)
    assert 0 < calls["monomial_to_m"] <= d
    assert 0 < calls["m_to_monomial"] <= d


# ---------------------------------------------------------------------------
# criterion 5 refuses a functional that is not a point

def test_criterion_5_fails_on_a_functional_that_is_not_a_point(monkeypatch):
    sample = semialgebra.sample_functionals

    def with_abs(fam, rng, count):
        return [*sample(fam, rng, count), lambda m: abs(m.coord0[0])]

    cfg = acceptance.PROFILES["quick"]
    honest = acceptance.criterion_5(random.Random(0), cfg)
    assert honest["pass"] is True
    monkeypatch.setattr(semialgebra, "sample_functionals", with_abs)
    report = acceptance.criterion_5(random.Random(0), cfg)
    assert report["pass"] is False
    for entry in honest["details"].values():
        entry["functionals"] += 1
    assert report["details"] == honest["details"]


# ---------------------------------------------------------------------------
# criteria 3 and 4: the chart-map certificates against sampled oracles

def _axiom_samples(lat, rng):
    """50 random chart pairs of lat and 5 rational vectors, with
    denominators up to 4."""
    charts = lat.charts()
    pairs = [(rng.choice(charts), rng.choice(charts)) for _ in range(50)]
    vectors = [tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                     for _ in lat.axis) for _ in range(5)]
    return vectors, pairs


def test_criterion_3_agrees_with_the_sampled_axioms():
    report = _run_criterion(3)
    assert report["triangular"] == dict.fromkeys(("A1", "A2", "C1", "C2"),
                                                 True)
    assert report["pass"] is True
    rng = random.Random(0)
    for poset in (gt_type_A(1, (0, 2)), acceptance._fam_A2().poset,
                  gt_type_C(1, (2,)), acceptance._fam_C2().poset):
        lat = lattice.PolyptychLattice(poset)
        assert verify_mutation_axioms(lat, *_axiom_samples(lat, rng))["ok"]


def test_non_triangular_plan_fails_criterion_3_and_the_oracle(monkeypatch):
    # A2's spoiled full mu plan maps (x, x, 0) to 0 for every x <= 0
    acceptance._fam_A2.cache_clear()  # a fresh poset: its plan memo spoils
    try:
        poset = acceptance._fam_A2().poset
        _later_axis_plans(monkeypatch, poset)
        report = _run_criterion(3)
        assert report["triangular"]["A2"] is False
        assert report["pass"] is False
        lat = lattice.PolyptychLattice(poset)
        with pytest.raises(lattice.AxiomFail):
            verify_mutation_axioms(lat, *_axiom_samples(lat,
                                                        random.Random(0)))
    finally:
        acceptance._fam_A2.cache_clear()


def _compatibility_mismatches(poset, u, rng, draws=100):
    """The oracle of criterion 4: over draws points a of [-6, 6]^d per
    chart C, the number with mu_C(a) != phi_C(a + u) - phi_C(u)."""
    uvec = u.vector(poset)
    bad = 0
    for chart in mco.charts_of(poset):
        shift = mco.transfer(poset, chart, uvec)
        for _ in range(draws):
            a = tuple(rng.randint(-6, 6) for _ in uvec)
            image = mco.transfer(poset, chart, tuple(map(add, a, uvec)))
            bad += mco.mu(poset, chart, a) != tuple(map(sub, image, shift))
    return bad


@pytest.mark.parametrize("spec", [
    ("A", 2, (0, 2, 4)), ("C", 2, (2, 4)), ("A", 3, (0, 2, 4, 6)),
    ("C", 3, (2, 4, 6))], ids=["A2", "C2", "A3", "C3"])
def test_tie_certificate_agrees_with_the_sampled_compatibility(spec):
    poset = families.GTFamily(*spec).poset
    u = choose_u(poset)
    assert mco.linear_at(poset, u)
    assert _compatibility_mismatches(poset, u, random.Random(0)) == 0


# C2's shift vector with one value moved (choose_u gives q11 = 1, q21 = 2),
# and the number of the oracle's 1,600 draws at seed 0 that then mismatch
UNTIED = {
    # q21's lower covers q11 and q12 give the candidates 0 and -1
    "q11": (0, 379),
    # q31's cover q21 gives -1, its marked cover qs1 the constant m = -2
    "q21": (1, 350)}


def _untied_u(poset, name):
    u = choose_u(poset)
    return ShiftVector(dict(u.u, **{name: UNTIED[name][0]}), u.strict)


@pytest.mark.parametrize("name", sorted(UNTIED))
def test_untied_u_fails_the_tie_certificate_and_the_oracle(name):
    poset = families.GTFamily("C", 2, (2, 4)).poset
    assert [choose_u(poset).u[p] for p in ("q11", "q21")] == [1, 2]
    u = _untied_u(poset, name)
    assert not mco.linear_at(poset, u)
    assert (_compatibility_mismatches(poset, u, random.Random(0))
            == UNTIED[name][1])


def test_untied_u_fails_criterion_4(monkeypatch):
    assert _run_criterion(4)["linear_at_u"] == {"A": True, "C": True}
    poset_C2 = acceptance._fam_C2().poset
    untied = _untied_u(poset_C2, "q11")
    monkeypatch.setattr(acceptance, "choose_u", lambda poset: untied
                        if poset is poset_C2 else choose_u(poset))
    report = _run_criterion(4)
    assert report["linear_at_u"] == {"A": True, "C": False}
    assert report["pass"] is False
