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


def read_pairs_as_h2(monkeypatch):
    """Make the consimilarity reader take H_2(mu) + H_2(nu) for the frozen
    input tests/data/skew_certificate_miss_n8.json, mu and nu the means of
    the eigenvalues of conj(A) A below and above -1.  Its -1.43 pairs lie
    4.9e-6 apart, so this reading verifies only through cond(S) ~ 7.6e5."""
    from coninv import concanon

    def h2_reading(arr, m, vals, *args):
        sides = (vals.real < -1, vals.real > -1)
        return [concanon.ConCanonicalBlock("H", 2, complex(np.mean(vals[side]).real)) for side in sides]

    monkeypatch.setattr(concanon, "_candidate_blocks", h2_reading)
