import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from softgait.config import RunConfig
from softgait.controllers import default_gait_lut, default_moment_lut
from softgait.plant import generate_trial


@pytest.fixture(scope="session")
def moment_lut():
    return default_moment_lut()


@pytest.fixture(scope="session")
def gait_lut():
    return default_gait_lut()


@pytest.fixture(scope="session")
def small_tc_trial():
    """A short tibia-controller trial shared by IO / analysis tests."""
    spec = RunConfig(mode="TC", n_strides=45, seed=7).to_trial_spec()
    return generate_trial(spec)


@pytest.fixture(scope="session")
def small_ac_trial():
    spec = RunConfig(mode="AC", K_d=15.0, n_strides=45,
                     seed=7).to_trial_spec()
    return generate_trial(spec)
