import numpy as np
import pytest

from cfchain import NetworkConfig


@pytest.fixture
def cfg():
    return NetworkConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
