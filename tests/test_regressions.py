"""Inputs that failed before the consimilarity intertwiner was solved one
diagonal block at a time: complex multiples of the identity, and a
well-conditioned 12 x 12 input whose full 288 x 288 operator SVD did not
converge.  Every entry point must certify on them."""

import json
from pathlib import Path

import numpy as np
import pytest

from coninv import (
    Matrix,
    coninvolutory_condiagonalizable_split,
    coninvolutory_sum,
    matrix_from_json,
    skew_coninvolutory_sum,
    verify_decomposition,
)
from coninv.certify import KIND_CONINV_CONDIAG, Decomposition

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
