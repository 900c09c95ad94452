import os

import numpy as np
import pytest

import jrme
from jrme.training import BACKEND

# the directory shows whether an installed copy or src/ ran
BACKEND_LINE = f"jrme epoch kernel backend: {BACKEND} ({os.path.dirname(jrme.__file__)})"


def pytest_report_header(config):
    return BACKEND_LINE


def pytest_terminal_summary(terminalreporter, config):
    # -q prints no header, so the line goes in the summary instead
    if config.get_verbosity() < 0:
        terminalreporter.write_line(BACKEND_LINE)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
