"""Closed-form intertwiners from the eigenvectors of conj(A)A and the
batched theta sweep of the coninvolutory factor.

A diagonal block of the target takes its solution basis from one
eigenvector when its eigenvalue of conj(B_j)B_j is isolated in the
spectrum of conj(A)A; every other block keeps the kernel solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coninv import (
    ConCanonicalBlock,
    Matrix,
    build_block,
    concanon,
    concanonical_form,
    coninvolutory_factor,
    coninvolutory_sum,
    consimilar_to_real,
    direct_sum,
    jordan_block,
    solve_consimilarity,
    verify_decomposition,
)
from coninv.concanon import _real_pair_block
from coninv.matcore import DEFAULT_TOL

from conftest import random_coninvolutory, well_conditioned


def refuse_kernel(*args, **kwargs):
    raise AssertionError("the kernel solve ran")


def hide(rng, target):
    t = well_conditioned(rng, target.n)
    return t.conj().inverse() @ target @ t


def assert_intertwines(a, b, s):
    assert s is not None
    res = (a @ s - s.conj() @ b).frobenius_norm()
    assert res <= DEFAULT_TOL.bound(a.frobenius_norm()) * np.sqrt(a.n)
    assert np.linalg.cond(s.to_array()) < 1e8


def complex_gaussian(seed, n):
    rng = np.random.default_rng(seed)
    while True:
        arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(arr) <= 1e3:
            return Matrix.floating(arr)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_generic_complex_form_needs_no_kernel(seed, n):
    a = complex_gaussian(seed, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concanon, "real_linear_nullspace", refuse_kernel)
        form = concanonical_form(a)
    assert_intertwines(a, form.assembled(), form.S)


class TestClosedForms:
    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(concanon, "real_linear_nullspace", refuse_kernel)

    def test_scalars(self, rng):
        # [beta] with beta real, negative and complex: |beta|^2 = 0.25, 2.25, 5
        b = Matrix.diag([0.5, -1.5, 2 + 1j])
        a = hide(rng, b)
        assert_intertwines(a, b, solve_consimilarity(a, b))

    def test_h_blocks(self, rng):
        b = direct_sum(
            build_block(ConCanonicalBlock("H", 1, 1 + 2j)),
            build_block(ConCanonicalBlock("H", 1, -1 - 0.5j)),
        )
        a = hide(rng, b)
        assert_intertwines(a, b, solve_consimilarity(a, b))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_real_pair(self, rng, sign):
        b = direct_sum(_real_pair_block(1, complex(0.5, sign * 0.7)), Matrix.floating([[2.0]]))
        a = hide(rng, b)
        assert_intertwines(a, b, solve_consimilarity(a, b))

    def test_h_to_real_pair(self):
        # conj(A)A = diag(i, -i): the form reads H_1(i), and the solve of A
        # straight onto its real pair is closed-form too
        a = Matrix.floating([[0, 1], [1j, 0]])
        s, b = consimilar_to_real(a)
        x = b.to_array()
        assert b.is_real(0.0) and x[0, 0] == x[1, 1] and x[0, 1] == -x[1, 0] != 0
        assert_intertwines(a, b, s)


class TestKernelFallback:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda rng: Matrix.floating((2 - 1j) * np.eye(6)), id="complex-scalar-identity"),
            pytest.param(lambda rng: hide(rng, Matrix.diag([2.0, 2.0, 2.0, 1.0])), id="hidden-repeated-J1"),
            pytest.param(lambda rng: hide(rng, build_block(ConCanonicalBlock("H", 1, -2.0))), id="H1-negative-mu"),
            pytest.param(lambda rng: hide(rng, direct_sum(jordan_block(3, 0.0), jordan_block(1, 0.0))), id="nilpotent"),
        ],
    )
    def test_calls_the_kernel_and_certifies(self, rng, monkeypatch, make):
        a = make(rng)
        kernel = concanon.real_linear_nullspace
        calls = []

        def recording_kernel(op, tol):
            calls.append(op.shape)
            return kernel(op, tol)

        monkeypatch.setattr(concanon, "real_linear_nullspace", recording_kernel)
        assert verify_decomposition(a, coninvolutory_sum(a)).passed
        assert calls


def sweep_reference(c, sweep=16):
    """The per-theta loop the stacked sweep replaces."""
    arr = c.to_array()
    n = c.n
    best, best_cond = None, np.inf
    for k in range(1, sweep + 1):
        theta = np.pi * k / (sweep + 1)
        s = np.exp(1j * theta) * arr + np.exp(-1j * theta) * np.eye(n)
        cond = np.linalg.cond(s)
        if np.isfinite(cond) and cond < best_cond:
            best, best_cond = s, cond
    return best * (np.sqrt(n) / np.linalg.norm(best, "fro"))


def test_sweep_is_bit_identical_to_the_loop(rng):
    cs = []
    for n in range(2, 9):
        cs += [random_coninvolutory(rng, n) for _ in range(10)]
    for m in range(1, 5):  # involutory blocks with eigenvalues 1 and -1 equally often
        corner = rng.standard_normal((m, m))
        eye, zeros = np.eye(m), np.zeros((m, m))
        cs.append(Matrix.floating(np.block([[eye, zeros], [corner, -eye]])))
        cs.append(Matrix.floating(np.block([[-eye, zeros], [zeros, eye]])))
    for c in cs:
        assert np.array_equal(coninvolutory_factor(c).to_array(), sweep_reference(c))
