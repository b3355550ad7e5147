"""Certified coninvolutory / skew-coninvolutory matrix decompositions.

A matrix K is coninvolutory when conj(K) K = I and skew-coninvolutory
when conj(K) K = -I.  This package decomposes any complex square matrix
into at most 5 coninvolutory summands (4 when n = 2), any even-size
matrix into at most 5 skew-coninvolutory summands, and any rational
matrix exactly into involutory + diagonalizable; every result ships with
a machine-checkable certificate.
"""

from .certify import (
    Certificate,
    Decomposition,
    is_coninvolutory,
    is_skew_coninvolutory,
    oracle_consim_invariant,
    oracle_involutory_trace,
    verify_decomposition,
)
from .concanon import (
    ConCanonicalBlock,
    ConCanonicalError,
    ConCanonicalForm,
    build_block,
    concanonical_form,
    coninvolutory_factor,
    consimilar_to_real,
    jordan_block,
    skew_base,
    solve_consimilarity,
)
from .conisum import (
    coninvolutory_condiagonalizable_split,
    coninvolutory_plus_real_diagonal,
    coninvolutory_sum,
)
from .exactcanon import (
    FrobeniusForm,
    InvolutorySplit,
    companion,
    frobenius_form,
    involutory_diagonalizable_split,
    involutory_split_companion,
    is_squarefree,
    minimal_polynomial,
    poly_mul,
)
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DESK_SCALE,
    Matrix,
    MatrixError,
    Polynomial,
    Tolerance,
    UnsupportedSize,
    char_poly,
    direct_sum,
    eigenvalues,
    matrix_from_json,
    matrix_to_json,
    real_linear_nullspace,
)
from .skewsum import (
    PairSpec,
    SkewParams,
    choose_pair_params,
    pair_discriminant,
    skew_block,
    skew_coninvolutory_sum,
    skew_sum_jordan,
)

__version__ = "0.1.0"
