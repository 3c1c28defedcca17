"""Acceptance gate: the quick profile of the criteria suite runs once per
session at seed 0, each criterion is reported as its own pass/fail line, and
the quick and full fingerprints are pinned."""

import hashlib
import json
from collections import Counter

import pytest

from polyptych import acceptance, cli, families

# sha256 of `polyptych acceptance --profile quick|full --seed 0`; a change
# that moves one must update it and say why.
QUICK_FINGERPRINT = (
    "eb2bc6096af48d02ed4a867118768e8c272e29113dadccaa51539d40fd8b429c")
FULL_FINGERPRINT = (
    "4ace3422eedeb24c55dab1b2bc97ad14125c259ae54b254fb61c954fb20053e4")


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
