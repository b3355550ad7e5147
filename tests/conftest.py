import numpy as np
import pytest
from hypothesis import settings

from coninv import Matrix

# property tests draw their examples deterministically and carry no time
# deadline: the exact layer's timing varies with the host
settings.register_profile("coninv", derandomize=True, deadline=None)
settings.load_profile("coninv")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0571F)


def random_complex(rng, n, scale=1.0):
    return Matrix.floating(scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))


def well_conditioned(rng, n, cap=100.0, real=False):
    while True:
        arr = rng.standard_normal((n, n))
        if not real:
            arr = arr + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(arr) <= cap:
            return Matrix.floating(arr)


def random_coninvolutory(rng, n, cap=50.0):
    t = well_conditioned(rng, n, cap)
    return t.conj().inverse() @ t
