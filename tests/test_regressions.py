"""Inputs that once failed.  Complex multiples of the identity and a
well-conditioned 12 x 12 input whose full 288 x 288 operator SVD did not
converge failed before the consimilarity intertwiner was solved one
diagonal block at a time; non-cyclic connected rational inputs failed in the
exact Frobenius layer.  Every entry point must certify on them."""

import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from coninv import (
    ConCanonicalError,
    Matrix,
    coninvolutory_condiagonalizable_split,
    coninvolutory_sum,
    direct_sum,
    frobenius_form,
    involutory_diagonalizable_split,
    matrix_from_json,
    skew_coninvolutory_sum,
    verify_decomposition,
)
from coninv.certify import KIND_CONINV_CONDIAG, Decomposition
from coninv.exactcanon import _components

DATA = Path(__file__).parent / "data"


def _thm1b(a):
    split = coninvolutory_condiagonalizable_split(a)
    return Decomposition(kind=KIND_CONINV_CONDIAG, summands=[split.C, split.D])


@pytest.mark.parametrize("n", [6, 8, 12, 16])
@pytest.mark.parametrize("c", [2 + 1j, -0.5j, 3 - 4j])
@pytest.mark.parametrize("pipeline", [coninvolutory_sum, skew_coninvolutory_sum])
def test_complex_scalar_identity(pipeline, c, n):
    a = Matrix.floating(c * np.eye(n))
    assert verify_decomposition(a, pipeline(a)).passed


@pytest.mark.parametrize("pipeline", [coninvolutory_sum, skew_coninvolutory_sum, _thm1b])
def test_former_svd_nonconvergence_input(pipeline):
    # seed-7 benchmark input (cond 33.8) on which LAPACK's SVD of the full
    # operator reported "SVD did not converge"
    a = matrix_from_json(json.loads((DATA / "svd_nonconvergence_n12.json").read_text()))
    assert a.n == 12
    assert verify_decomposition(a, pipeline(a)).passed


@pytest.mark.parametrize("name", ["small_sigma_n8_seed410.json", "small_sigma_n8_seed510.json"])
@pytest.mark.parametrize("pipeline", [coninvolutory_sum, skew_coninvolutory_sum, _thm1b])
def test_nonsingular_input_with_small_coneigenvalue(pipeline, name):
    # complex-generic benchmark inputs (seed 410 round 2, seed 510 round 4;
    # cond 783 and 925) whose smallest eigenvalue of conj(A) A, 1.7e-4 and
    # 1.2e-4, fell inside the cluster tolerance of 0 and was read as a
    # J(0) block; a nonsingular A has none, and every pipeline raised
    # ConCanonicalError ("1 tried, empty kernel 1")
    a = matrix_from_json(json.loads((DATA / name).read_text()))
    assert a.n == 8 and np.linalg.cond(a.to_array()) < 1e3
    assert verify_decomposition(a, pipeline(a)).passed


# -- non-cyclic connected inputs ----------------------------------------------
# The Krylov chain of length d that `_cyclic_blocks` splits off leaves a
# d x (n - d) coupling block; while that block was carried as a square
# Matrix, frobenius_form, thm1a and the coninvolutory sum raised
# DimensionMismatch on every such input with d != n / 2.


def _jordan(m, lam):
    return Matrix.exact([[F(lam) if i == j else F(int(j == i + 1)) for j in range(m)] for i in range(m)])


def _hidden(blocks, seed):
    """Direct sum of Jordan blocks J_m(lam), hidden by a seeded integer
    unimodular similarity (unit upper times unit lower)."""
    a = direct_sum(*[_jordan(m, lam) for m, lam in blocks])
    rng = np.random.default_rng(seed)
    n = a.n
    upper = [[int(rng.integers(-2, 3)) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    lower = [[int(rng.integers(-2, 3)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    t = Matrix.exact(upper) @ Matrix.exact(lower)
    return t.inverse() @ a @ t


def _assert_thm1a_literally(a, split):
    eye = Matrix.identity(a.n, "exact")
    assert split.V @ split.V == eye
    assert split.V + split.D == a
    assert split.W.inverse() @ split.D @ split.W == Matrix.diag(split.spectrum, "exact")


#: A = U^-1 (J_2(1) + J_1(1)) U: one connected component, chain length 2 of 3
_U = Matrix.exact([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
NONCYCLIC_3 = _U.inverse() @ direct_sum(_jordan(2, 1), _jordan(1, 1)) @ _U


def test_noncyclic_frobenius_form():
    a = NONCYCLIC_3
    assert len(_components(a)) == 1
    form = frobenius_form(a)  # raises unless S A = (direct sum) S exactly
    assert sorted(tuple(f.a) for f in form.blocks) == [(F(1),), (F(2), F(-1))]
    assert form.S @ a == form.companion_sum() @ form.S


def test_noncyclic_thm1a():
    split = involutory_diagonalizable_split(NONCYCLIC_3)
    _assert_thm1a_literally(NONCYCLIC_3, split)
    assert split.spectrum == (F(-1), F(3), F(0))


def test_noncyclic_coninvolutory_sum():
    a = NONCYCLIC_3.to_floating()
    assert verify_decomposition(a, coninvolutory_sum(a)).passed


@pytest.mark.parametrize(
    "blocks",
    [
        [(3, 1), (3, 1), (2, 1), (2, 1), (1, 1), (1, 1)],
        [(2, 0)] * 4 + [(1, 2)] * 4,
    ],
    ids=["J3(1)^2+J2(1)^2+J1(1)^2", "J2(0)^4+J1(2)^4"],
)
def test_noncyclic_hidden_n12_thm1a(blocks):
    a = _hidden(blocks, seed=12)
    assert a.n == 12
    assert len(_components(a)) == 1
    _assert_thm1a_literally(a, involutory_diagonalizable_split(a))


@pytest.mark.parametrize("seed", [200, 201])
def test_hidden_n12_skew_sum_certifies_or_fails_typed(seed):
    # the skew pair tuning once raised a plain ValueError here, which the CLI
    # reported as an input error (exit 2) on a valid input.  Seed 200 reads
    # J3(1)^2 + J2(1)^2 + J1(1)^2 and certifies everywhere; seed 201 finds no
    # candidate whose intertwiner is nonsingular and says so
    a = _hidden([(3, 1), (3, 1), (2, 1), (2, 1), (1, 1), (1, 1)], seed).to_floating()
    for pipeline in (skew_coninvolutory_sum, coninvolutory_sum, _thm1b):
        if seed == 200:
            assert verify_decomposition(a, pipeline(a)).passed
        else:
            with pytest.raises(ConCanonicalError, match="no candidate block assignment verified"):
                pipeline(a)
