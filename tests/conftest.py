import time

import pytest

from qkdsim.config import Config
from qkdsim.session import run_session


@pytest.fixture(scope="session")
def preset() -> Config:
    """The default (calibrated 50 km GHz link) configuration bundle."""
    return Config().validated()


@pytest.fixture(scope="session")
def full_run(preset):
    """The 36-hour stabilized session at the default preset, seed 1, with
    its wall time: run once for the acceptance and README tests."""
    start = time.perf_counter()
    result = run_session(preset, duration=129600.0, seed=1)
    return result, time.perf_counter() - start
