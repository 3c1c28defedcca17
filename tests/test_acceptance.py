"""Acceptance gate: the quick profile of the criteria suite runs once per
session at seed 0, each criterion is reported as its own pass/fail line, and
the quick fingerprint is pinned."""

import hashlib
import json

import pytest

from polyptych import acceptance, cli

# sha256 of `polyptych acceptance --profile quick --seed 0`; a change that
# moves it must update it and say why.
QUICK_FINGERPRINT = (
    "eb2bc6096af48d02ed4a867118768e8c272e29113dadccaa51539d40fd8b429c")


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


def test_criterion_14_determinism(suite):
    assert entry(suite, 14)["pass"], entry(suite, 14)


def test_suite_overall(suite):
    assert suite["ok"]


def test_quick_fingerprint(suite):
    payload = {"tool": "polyptych", "version": cli.VERSION}
    payload.update(suite)
    stdout = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == QUICK_FINGERPRINT
