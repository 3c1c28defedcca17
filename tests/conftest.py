import random

import pytest

from polyptych import families
from polyptych.posets import classify_spade


@pytest.fixture(scope="session")
def fam_A2():
    return families.GTFamily("A", 2, (0, 2, 4))


@pytest.fixture(scope="session")
def fam_C2():
    return families.GTFamily("C", 2, (2, 4))


@pytest.fixture(scope="session")
def cls_C2(fam_C2):
    return classify_spade(fam_C2.poset)


@pytest.fixture()
def rng():
    return random.Random(0)
