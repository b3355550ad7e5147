from fractions import Fraction as F

import numpy as np
import pytest

from coninv import (
    ConCanonicalBlock,
    Matrix,
    build_block,
    coninvolutory_condiagonalizable_split,
    coninvolutory_plus_real_diagonal,
    coninvolutory_sum,
    is_coninvolutory,
    is_skew_coninvolutory,
    jordan_block,
    skew_coninvolutory_sum,
    verify_decomposition,
)
from coninv.conisum import _diagonal_summands, _pad, displayed_pairs, offdiagonal_pair
from coninv.matcore import DEFAULT_TOL, UnsupportedSize

import gaussq
from conftest import random_complex, well_conditioned


def as_gauss(grid):
    return [[(F(re) if not isinstance(re, F) else re, F(im) if not isinstance(im, F) else im) for re, im in row] for row in grid]


def coninvolutory_exactly(k):
    g = as_gauss(k)
    return gaussq.gequal(gaussq.gmul(gaussq.gconj(g), g), gaussq.gid(len(g)))


def real_grids(pair):
    """Real grids as Gaussian grids."""
    return [gaussq.gnorm([[(x, 0) for x in row] for row in k]) for k in pair]


def pair_grids(t, c, s):
    """The four summands of ``displayed_pairs`` as Gaussian grids."""
    re, im = displayed_pairs(t, c, s)
    return [gaussq.gparts(r, i) for r, i in zip(re, im)]


class TestDisplayedPairs:
    @pytest.mark.parametrize("c", [F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(-2)])
    def test_scaled_identity_pair_exact(self, c):
        k1, k2 = pair_grids(F(0), c, 1)[2:]
        assert coninvolutory_exactly(k1) and coninvolutory_exactly(k2)
        total = gaussq.gadd(as_gauss(k1), as_gauss(k2))
        assert gaussq.gequal(total, gaussq.gdiag([2 * c, 2 * c]))

    @pytest.mark.parametrize("c", [F(0), F(1, 2), F(1), F(-3, 2)])
    def test_traceless_pair_exact(self, c):
        k1, k2 = pair_grids(c, F(0), 1)[:2]
        assert coninvolutory_exactly(k1) and coninvolutory_exactly(k2)
        total = gaussq.gadd(as_gauss(k1), as_gauss(k2))
        assert gaussq.gequal(total, gaussq.gdiag([2 * c, -2 * c]))

    def test_nilpotent_pair_exact(self):
        k1, k2 = real_grids(offdiagonal_pair(F(1), F(0)))
        assert coninvolutory_exactly(k1) and coninvolutory_exactly(k2)
        total = gaussq.gadd(as_gauss(k1), as_gauss(k2))
        assert gaussq.gequal(total, as_gauss([[(0, 0), (1, 0)], [(0, 0), (0, 0)]]))

    @pytest.mark.parametrize("b", [F(1), F(2), F(1, 2)])
    def test_rotation_pair_exact(self, b):
        k1, k2 = real_grids(offdiagonal_pair(b, -b))
        assert coninvolutory_exactly(k1) and coninvolutory_exactly(k2)
        total = gaussq.gadd(as_gauss(k1), as_gauss(k2))
        assert gaussq.gequal(total, as_gauss([[(0, 0), (b, 0)], [(-b, 0), (0, 0)]]))


#: the three real canonical shapes at n = 2 (Hong and Horn, LAA 102, 1988)
#: and the class the 2-by-2 route reads from each
TWO_BY_TWO = {
    "diag-distinct": (Matrix.diag([1.5, 0.5]), "diag"),
    "diag-equal": (Matrix.diag([2.0, 2.0]), "diag"),
    "jordan": (jordan_block(2, 1.5), "jordan"),
    "jordan-zero": (jordan_block(2, 0.0), "jordan"),
    "pair-negative": (build_block(ConCanonicalBlock("H", 1, -2.0)), "rotation"),
    "pair-complex": (build_block(ConCanonicalBlock("H", 1, 1 + 2j)), "rotation"),
}


@pytest.mark.parametrize("shape", TWO_BY_TWO)
def test_two_by_two_shapes(shape):
    b, cls = TWO_BY_TWO[shape]
    # A = S B conj(S)^{-1} hides the canonical shape behind a consimilarity
    s = well_conditioned(np.random.default_rng(list(TWO_BY_TWO).index(shape)), 2, cap=10.0)
    a = s @ b @ s.conj().inverse()
    d = coninvolutory_sum(a)
    assert d.count == 4
    assert verify_decomposition(a, d).passed
    (step,) = [e for e in d.log if e["step"] == "real-2x2"]
    assert step["class"] == cls


class TestCondiagSplit:
    def test_real_diagonal(self):
        a = Matrix.diag([2, 5, 9])
        sp = coninvolutory_condiagonalizable_split(a)
        assert is_coninvolutory(sp.C)
        assert (sp.C + sp.D - a).frobenius_norm() < 1e-12
        # witness: D = conj(Q)^{-1} diag(values) Q
        recon = sp.witness.conj().inverse() @ Matrix.diag(list(sp.values)) @ sp.witness
        assert (recon - sp.D).frobenius_norm() < 1e-8 * (1 + sp.D.frobenius_norm())

    def test_scalar_imaginary(self):
        a = Matrix.floating([[1j]])
        sp = coninvolutory_condiagonalizable_split(a)
        assert abs(abs(complex(sp.C[0, 0])) - 1.0) < 1e-10
        assert (sp.C + sp.D - a).frobenius_norm() < 1e-12

    def test_nilpotent(self):
        a = Matrix.floating([[0, 1], [0, 0]])
        sp = coninvolutory_condiagonalizable_split(a)
        assert is_coninvolutory(sp.C)
        recon = sp.witness.conj().inverse() @ Matrix.diag(list(sp.values)) @ sp.witness
        assert (recon - sp.D).frobenius_norm() < 1e-8 * (1 + sp.D.frobenius_norm())


class TestConinvPlusRealDiagonal:
    @pytest.mark.parametrize(
        "a",
        [
            Matrix.diag([5, 7]),
            Matrix.floating([[1j]]),
            Matrix.floating([[1, 1], [0, 1]]),
        ],
    )
    def test_residual_triple(self, a):
        s, c, d = coninvolutory_plus_real_diagonal(a)
        assert is_coninvolutory(c)
        assert d.is_real(0.0)
        assert all(abs(d[i, j]) == 0 for i in range(a.n) for j in range(a.n) if i != j)
        lhs = a @ s
        rhs = s.conj() @ (c + d)
        assert (lhs - rhs).frobenius_norm() <= 1e-8 * (1 + a.frobenius_norm())


class TestConinvolutorySum:
    def test_jordan_2x2(self):
        a = Matrix.floating([[2.5, 1], [0, 2.5]])
        d = coninvolutory_sum(a)
        assert d.count <= 4
        assert verify_decomposition(a, d).passed

    def test_zero_default_two(self):
        d = coninvolutory_sum(Matrix.zeros(3))
        assert d.count == 2
        assert verify_decomposition(Matrix.zeros(3), d).passed

    def test_zero_padded_to_five(self):
        # I + (-I), the -I split as u (-I) + conj(u) (-I), then I + (-I)
        d = coninvolutory_sum(Matrix.zeros(3), pad_to=5)
        assert d.count == 5
        u = np.exp(1j * np.pi / 3)
        expect = [1, -u, -np.conj(u), 1, -1]
        for k, scale in zip(d.summands, expect):
            assert np.allclose(k.to_array(), scale * np.eye(3))
        assert verify_decomposition(Matrix.zeros(3), d).passed

    def test_odd_all_scalar_blocks(self):
        a = Matrix.diag([1, 2, 3])
        d = coninvolutory_sum(a)
        assert d.count <= 5
        assert verify_decomposition(a, d).passed
        # preprocessing invariant: the leading block ends up with degree > 1
        assert any(e.get("step") == "merge-scalars" for e in d.log)

    def test_odd_repeated_scalars_flip_path(self):
        a = Matrix.floating(5 * np.eye(3))
        d = coninvolutory_sum(a)
        assert d.count <= 5
        assert verify_decomposition(a, d).passed
        assert any(e.get("step") == "scalar-sign-flip" for e in d.log)

    def test_border_multipliers_unit_modulus(self):
        d = coninvolutory_sum(Matrix.diag([1, 2, 3]))
        entry = next(e for e in d.log if e.get("step") == "odd-borders")
        assert entry["mu1"] in ("0", "2")
        assert all(abs(abs(F(b)) - 1) == 0 for b in entry["borders"] if b != entry["mu1"])
        borders = [F(b) for b in entry["borders"]]
        assert all(abs(x) == 1 for x in borders)

    def test_count_contract_small_sizes(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(5):
                a = random_complex(rng, n)
                d = coninvolutory_sum(a)
                bound = 4 if n == 2 else 5
                assert d.count <= bound
                cert = verify_decomposition(a, d)
                assert cert.passed, (n, cert.sum_residual, cert.summand_residuals)

    def test_pad_to_general(self, rng):
        a = random_complex(rng, 2)
        d = coninvolutory_sum(a, pad_to=4)
        assert d.count == 4
        assert verify_decomposition(a, d).passed

    def test_too_small_rejected(self):
        with pytest.raises(UnsupportedSize):
            coninvolutory_sum(Matrix.floating([[1]]))


def test_split_unimodular_preserves_predicates():
    k1, k2 = (Matrix.floating(k) for k in _pad(np.eye(3)[None], 2, np.eye(3)))
    assert is_coninvolutory(k1) and is_coninvolutory(k2)
    assert ((k1 + k2) - Matrix.identity(3)).frobenius_norm() < 1e-12


def test_diagonal_case_summands_reconstruct():
    values = [F(3), F(1), F(-2), F(5)]
    summands = [Matrix.floating(k) for k in _diagonal_summands(values, 1)]
    assert len(summands) == 4
    total = summands[0]
    for k in summands[1:]:
        total = total + k
    assert (total - Matrix.diag([3, 1, -2, 5])).frobenius_norm() < 1e-12
    assert all(is_coninvolutory(k) for k in summands)
    # diag(3, 1): the traceless pair at t = 1/2, the identity pair at c = 1
    assert np.allclose(summands[0].to_array()[:2, :2], [[0.5, 1], [0.75, -0.5]])
    assert np.allclose(summands[2].to_array()[:2, :2], [[1, 1j], [0, 1]])


SUMS = {"coninv": (coninvolutory_sum, is_coninvolutory), "skew": (skew_coninvolutory_sum, is_skew_coninvolutory)}


@pytest.mark.parametrize(
    "kind, n", [("coninv", 2), ("coninv", 3), ("coninv", 4), ("coninv", 5), ("skew", 2), ("skew", 4)]
)
@pytest.mark.parametrize("zero", [True, False], ids=["zero", "random"])
def test_pad_to_property(kind, n, zero):
    """pad_to from the natural count to count + 3 gives exactly pad_to
    summands, each of the sum's kind, that still add up to A."""
    fn, predicate = SUMS[kind]
    rng = np.random.default_rng(n)
    for _ in range(1 if zero else 3):
        a = Matrix.zeros(n) if zero else random_complex(rng, n)
        natural = fn(a).count
        for pad_to in range(natural, natural + 4):
            d = fn(a, pad_to=pad_to)
            assert d.count == pad_to
            assert all(predicate(k) for k in d.summands)
            total = d.summands[0]
            for k in d.summands[1:]:
                total = total + k
            assert (total - a).frobenius_norm() <= DEFAULT_TOL.bound(a.frobenius_norm())
