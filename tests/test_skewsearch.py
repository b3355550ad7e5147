"""The randomized search of the skew sum evaluates its draws in stacked
chunks; its outcome must be the one of evaluating them one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coninv import Matrix, direct_sum, jordan_block
from coninv.concanon import skew_base
from coninv.matcore import DEFAULT_TOL
from coninv.skewsum import _diagonalize_real, _random_search


def reference_search(a, *, seed, tol, restarts=200):
    """The draw-by-draw search the stacked one replaces."""
    n = a.n
    rng = np.random.default_rng(seed)
    base = skew_base(n // 2).to_array().real
    for trial in range(restarts):
        p = np.eye(n) + 0.6 * rng.standard_normal((n, n))
        if np.linalg.cond(p) > 50:
            continue
        c_arr = p @ base @ np.linalg.inv(p)
        c = Matrix.floating(c_arr)
        diag = _diagonalize_real(a - c, cond_cap=1e6)
        if diag is None:
            continue
        t, values = diag
        residual = (c.conj() @ c + Matrix.identity(n)).frobenius_norm()
        if residual > tol.bound(c.frobenius_norm() ** 2):
            continue
        return c, t, values, trial + 1
    return None


def bidiagonal(blocks):
    """Real direct sum of Jordan blocks J_size(value)."""
    return direct_sum(*[jordan_block(size, float(value)) for value, size in blocks])


def assert_same_outcome(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    c, t, values, trial = got
    c_ref, t_ref, values_ref, trial_ref = want
    assert trial == trial_ref
    assert values == values_ref
    assert np.array_equal(c.to_array(), c_ref.to_array())
    assert np.array_equal(t.to_array(), t_ref.to_array())


VALUES = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]


@st.composite
def forbidden_inputs(draw):
    """A forbidden leading pair (lambda, lambda) without coupling, then
    Jordan blocks up to an even n in 4..12."""
    lam = draw(st.sampled_from(VALUES))
    n = 2 * draw(st.integers(2, 6))
    blocks = [(lam, 1), (lam, 1)]
    while sum(s for _, s in blocks) < n:
        room = n - sum(s for _, s in blocks)
        blocks.append((draw(st.sampled_from(VALUES)), draw(st.integers(1, min(3, room)))))
    return blocks


@settings(max_examples=60)
@given(blocks=forbidden_inputs(), seed=st.integers(0, 2**32 - 1))
def test_stacked_search_matches_the_loop(blocks, seed):
    a = bidiagonal(blocks)
    assert_same_outcome(
        _random_search(a, seed=seed, tol=DEFAULT_TOL),
        reference_search(a, seed=seed, tol=DEFAULT_TOL),
    )


# (blocks, seed) whose search succeeds at the given draw: both ends of
# every chunk of 8, 16, 32, 64 and one inside the last chunk of 80
PINNED = {
    1: ([(2.0, 1), (2.0, 1), (0.5, 2), (-2.0, 2)], 14),
    8: ([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)], 8),
    9: ([(-1.0, 1), (-1.0, 1), (0.0, 1), (-2.0, 1)], 18),
    24: ([(2.0, 1), (2.0, 1), (0.5, 2), (-2.0, 2)], 81),
    25: ([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)], 45),
    56: ([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)], 55),
    57: ([(-1.0, 1), (-1.0, 1), (0.0, 1), (-2.0, 1)], 51),
    120: ([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)], 133),
    121: ([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)], 9),
    189: ([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)], 34),
}


@pytest.mark.parametrize("draw", sorted(PINNED))
def test_pinned_success_draw(draw):
    blocks, seed = PINNED[draw]
    a = bidiagonal(blocks)
    got = _random_search(a, seed=seed, tol=DEFAULT_TOL)
    assert got is not None and got[3] == draw
    assert_same_outcome(got, reference_search(a, seed=seed, tol=DEFAULT_TOL))


def test_pinned_search_uses_every_draw():
    a = bidiagonal([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)])
    assert _random_search(a, seed=0, tol=DEFAULT_TOL) is None
    assert reference_search(a, seed=0, tol=DEFAULT_TOL) is None


def test_restarts_cap_cuts_a_chunk():
    blocks, seed = PINNED[9]
    a = bidiagonal(blocks)
    for restarts in (8, 9, 10):
        assert_same_outcome(
            _random_search(a, seed=seed, tol=DEFAULT_TOL, restarts=restarts),
            reference_search(a, seed=seed, tol=DEFAULT_TOL, restarts=restarts),
        )


def test_failed_search_makes_one_stacked_call_per_chunk(monkeypatch):
    calls = {"eigvals": 0, "cond": 0}

    def counting(name):
        inner = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    a = bidiagonal([(1.0, 1), (1.0, 1), (2.0, 2), (-2.0, 2)])
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    assert _random_search(a, seed=0, tol=DEFAULT_TOL) is None
    assert 1 <= calls["eigvals"] <= 5
    assert 1 <= calls["cond"] <= 5
