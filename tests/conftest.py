import os
import random

import pytest
from hypothesis import settings

from smkit.hardware import Hardware, load_ee_file
from smkit.presentation import emit
from smkit.smachine import Machine

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

SEED = int(os.environ.get("SMW_SEED", "20240811"))

# Property tests draw the same examples on every run and have no deadline
# (a cold memo or the first emit can make one example slow).
settings.register_profile("smkit", deadline=None, derandomize=True)
settings.load_profile("smkit")


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def ee():
    return load_ee_file(os.path.join(DATA, "sample.ee"))


@pytest.fixture(scope="session")
def hw(ee):
    return Hardware(ee, 8)


@pytest.fixture(scope="session")
def strict(hw):
    return Machine(hw, "strict")


@pytest.fixture(scope="session")
def bar(hw):
    return Machine(hw, "bar")


@pytest.fixture(scope="session")
def mixed(hw):
    return Machine(hw, "mixed")


@pytest.fixture(scope="session")
def pres(hw):
    return emit(hw)
