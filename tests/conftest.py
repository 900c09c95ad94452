import numpy as np
import pytest

from jrme.training import BACKEND


def pytest_report_header(config):
    return f"jrme epoch kernel backend: {BACKEND}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
