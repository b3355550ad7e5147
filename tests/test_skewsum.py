import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coninv import (
    Matrix,
    PairSpec,
    choose_pair_params,
    direct_sum,
    is_skew_coninvolutory,
    jordan_block,
    pair_discriminant,
    skew_block,
    skew_coninvolutory_sum,
    skew_sum_diag_pair,
    skew_sum_jordan,
    verify_decomposition,
)
from coninv import skewsum
from coninv.certify import FLAG_NONOPTIMAL, decomposition_from_json, decomposition_to_json
from coninv.concanon import ConCanonicalBlock, ConCanonicalError, build_block
from coninv.matcore import ConvergenceFailure, MatrixError, UnsupportedSize, matrix_from_json
from coninv.skewsum import ParameterCapExceeded, skew_identity_pair, skew_traceless_pair

import gaussq
from conftest import random_complex

DATA = Path(__file__).parent / "data"


def as_gauss(grid):
    return [[(F(re), F(im)) for re, im in row] for row in grid]


def skew_exactly(grid):
    g = as_gauss(grid)
    n = len(g)
    product = gaussq.gmul(gaussq.gconj(g), g)
    return gaussq.gequal(product, gaussq.gneg(gaussq.gid(n)))


class TestDisplayedPairs:
    @pytest.mark.parametrize("c", [F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(-2)])
    def test_identity_pair_exact(self, c):
        k1, k2 = skew_identity_pair(c)
        assert skew_exactly(k1) and skew_exactly(k2)
        assert gaussq.gequal(gaussq.gadd(as_gauss(k1), as_gauss(k2)), gaussq.gdiag([2 * c, 2 * c]))

    @pytest.mark.parametrize("c", [F(0), F(1), F(-3, 4)])
    def test_traceless_pair_exact(self, c):
        k1, k2 = skew_traceless_pair(c)
        assert skew_exactly(k1) and skew_exactly(k2)
        assert gaussq.gequal(gaussq.gadd(as_gauss(k1), as_gauss(k2)), gaussq.gdiag([2 * c, -2 * c]))

    def test_skew_block_family_exact(self, rng):
        for _ in range(50):
            a = F(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
            b = F(0)
            while b == 0:
                b = F(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
            m = Matrix.exact(skew_block(a, b))
            assert m.trace() == 0
            assert m @ m == Matrix.diag([F(-1), F(-1)], "exact")


class TestDiagPair:
    def test_zero_pair_frozen(self):
        d = skew_sum_diag_pair(0.0, 0.0)
        expect = [
            [[0, -1], [1, 0]],
            [[0, 1], [-1, 0]],
            [[0, -1j], [1j, 0]],
            [[0, 1j], [-1j, 0]],
        ]
        assert d.count == 4
        for k, e in zip(d.summands, expect):
            assert np.allclose(k.to_array(), e)

    def test_two_two_includes_bfl_at_one(self):
        d = skew_sum_diag_pair(2.0, 2.0)
        arrs = [k.to_array() for k in d.summands]
        assert any(np.allclose(a, [[1, -1j], [2j, 1]]) for a in arrs)
        assert any(np.allclose(a, [[1, 1j], [-2j, 1]]) for a in arrs)
        assert verify_decomposition(Matrix.diag([2, 2]), d).passed

    def test_generic_pair(self):
        d = skew_sum_diag_pair(3.0, 1.0)
        assert d.count == 4
        assert all(is_skew_coninvolutory(k) for k in d.summands)
        assert verify_decomposition(Matrix.diag([3, 1]), d).passed


class TestPairParams:
    def test_discriminant_coupled(self):
        assert pair_discriminant(0.0, 0.0, 1, 0.0, 0.5) == pytest.approx(4.0)

    def test_discriminant_uncoupled_formula(self):
        assert pair_discriminant(3.0, 0.0, 0, 2.0, 1.0) == pytest.approx(9 - 24 - 4)
        assert pair_discriminant(3.0, 0.0, 0, -2.0, 1.0) == pytest.approx(9 + 24 - 4)

    def test_coupled_choice(self):
        params, nu = choose_pair_params(PairSpec(0.0, 0.0, 1), set())
        assert pair_discriminant(0.0, 0.0, 1, params.a, params.b) > 0
        assert nu[0] != nu[1]
        # oracle: remainder block eigenvalues from its characteristic polynomial
        rem = np.array([[0 - params.a, 1 - params.b], [(1 + params.a**2) / params.b, 0 + params.a]])
        vals = sorted(np.linalg.eigvals(rem).real)
        assert vals == pytest.approx(sorted(nu), abs=1e-9)

    def test_uncoupled_choice_avoids_used(self):
        used = {1.0, -1.0, 2.0}
        params, nu = choose_pair_params(PairSpec(3.0, 0.0, 0), set(used))
        assert all(abs(v - u) >= 1e-2 for v in nu for u in used)
        rem = np.array([[3 - params.a, -params.b], [(1 + params.a**2) / params.b, 0 + params.a]])
        vals = sorted(np.linalg.eigvals(rem).real)
        assert vals == pytest.approx(sorted(nu), abs=1e-9)

    def test_forbidden_pair_rejected(self):
        with pytest.raises(ValueError):
            choose_pair_params(PairSpec(2.0, 2.0, 0), set())

    @pytest.mark.parametrize("rot", [0.3, -1.0, 2.5])
    def test_real_pair_window_choice(self, rot):
        used = {1.0 - 1.1, 1.0 + 1.1}
        params, nu = choose_pair_params(PairSpec(1.0, 1.0, 0, rot=rot), set(used))
        assert params.a == 0.0
        assert nu == pytest.approx((1.0 - 1.6, 1.0 + 1.6))
        # oracle: the window [[1, rot], [-rot, 1]] minus M(0, q)
        rem = np.array([[1.0, rot], [-rot, 1.0]]) - np.array(skew_block(0.0, params.b))
        assert sorted(np.linalg.eigvals(rem).real) == pytest.approx(sorted(nu), abs=1e-9)

    def test_close_pair_is_a_typed_numerical_failure(self):
        with pytest.raises(ParameterCapExceeded, match=r"pair values 1, 1 too close.*cap 1000"):
            choose_pair_params(PairSpec(1.0, 1.0 + 1e-7, 0), set())


class TestJordanRoute:
    def test_two_scalars_prefer_four(self):
        a = Matrix.diag([1, 4])
        d = skew_sum_jordan(a)
        assert d.count == 4
        assert verify_decomposition(a, d).passed

    def test_coupled_block(self):
        a = jordan_block(2, 3.0)
        d = skew_sum_jordan(a)
        assert d.count == 5
        assert not d.flags
        assert verify_decomposition(a, d).passed

    def test_forbidden_configuration(self):
        a = direct_sum(jordan_block(3, 0.0), jordan_block(1, 0.0))
        d = skew_sum_jordan(a)
        assert d.count <= 6
        assert verify_decomposition(a, d).passed

    def test_fallback_logs_the_search_draws(self):
        a = direct_sum(jordan_block(2, 0.0), jordan_block(1, 0.0), jordan_block(1, 0.0))
        d = skew_sum_jordan(a)
        assert FLAG_NONOPTIMAL in d.flags
        assert d.log[-1] == {"step": "rotation-fallback", "count": 6, "restarts": 200}
        wire = json.loads(json.dumps(decomposition_to_json(d)))
        assert decomposition_from_json(wire).log[-1]["restarts"] == 200
        assert verify_decomposition(a, d).passed

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1, 0.5], [0, 1]]))  # coupling not 0/1
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1, 0], [2, 1]]))  # not upper bidiagonal
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1j, 0], [0, 1]]))  # complex entries


class TestHBlock:
    """H-blocks reach the skew sum as real-pair chains of consimilar_to_real."""

    def test_zero_corner(self):
        # H_1(-1) is itself skew-coninvolutory; the chain split writes it as
        # a sum of five like any other real pair
        a = build_block(ConCanonicalBlock("H", 1, -1.0))
        d = skew_coninvolutory_sum(a)
        assert d.count <= 5 and not d.flags
        assert verify_decomposition(a, d).passed

    def test_negative_real(self):
        a = build_block(ConCanonicalBlock("H", 1, -2.0))
        d = skew_coninvolutory_sum(a)
        assert d.count == 5
        assert any(e["step"] == "chain-split" for e in d.log)
        assert verify_decomposition(a, d).passed

    def test_complex_mu_m2(self):
        a = build_block(ConCanonicalBlock("H", 2, 1j))
        d = skew_coninvolutory_sum(a)
        assert d.count == 5
        assert verify_decomposition(a, d).passed


class TestSkewSum:
    def test_zero_matrix(self):
        d = skew_coninvolutory_sum(Matrix.zeros(2))
        assert d.count == 2
        k1, k2 = d.summands
        assert (k1 + k2).is_zero()
        assert verify_decomposition(Matrix.zeros(2), d).passed

    def test_two_case1_pairs(self):
        a = Matrix.diag([5, -5, 3, 3])
        d = skew_coninvolutory_sum(a)
        assert d.count == 4
        assert verify_decomposition(a, d).passed

    def test_mixed_dispatch(self):
        a = direct_sum(Matrix.floating([[0, 1], [-2, 0]]), Matrix.diag([1, 2]))
        d = skew_coninvolutory_sum(a)
        assert d.count <= 5
        assert verify_decomposition(a, d).passed

    def test_odd_dimension_rejected(self):
        with pytest.raises(UnsupportedSize):
            skew_coninvolutory_sum(Matrix.identity(3))

    def test_pad_pairs_pass_predicate(self, rng):
        a = random_complex(rng, 4)
        d = skew_coninvolutory_sum(a, pad_to=7)
        assert d.count == 7
        assert all(is_skew_coninvolutory(k) for k in d.summands)
        assert verify_decomposition(a, d).passed is False  # count bound 5 < 7
        # the sum itself still reconstructs
        total = d.summands[0]
        for k in d.summands[1:]:
            total = total + k
        assert (total - a).frobenius_norm() <= 1e-8 * (1 + a.frobenius_norm())

    def test_random_counts(self, rng):
        for n in (2, 4, 6):
            for _ in range(5):
                a = random_complex(rng, n)
                d = skew_coninvolutory_sum(a)
                assert d.count <= 5 and not d.flags
                assert verify_decomposition(a, d).passed

    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_large_gaussians(self, seed):
        rng = np.random.default_rng(seed)
        for n in (4, 6, 8):
            a = random_complex(rng, n, scale=1e3)
            d = skew_coninvolutory_sum(a)
            assert d.count <= 5 and not d.flags
            assert verify_decomposition(a, d).passed


def hidden(rng, b):
    """T^{-1} B T for a real T with cond(T) <= 10: a consimilarity, as
    conj(T) = T."""
    n = b.n
    while True:
        t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(t) <= 10:
            return Matrix.floating(np.linalg.solve(t, b.to_array()) @ t)


class TestForbiddenPairs:
    @pytest.mark.parametrize("hide", [False, True])
    @pytest.mark.parametrize("sizes", [(3, 3), (3, 3, 2)])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_equal_odd_blocks_sign_flip(self, rng, lam, sizes, hide):
        # J_3(lam) + J_3(lam) meet in a forbidden pair in every order;
        # J_3(lam) + J_3(-lam) never do
        a = direct_sum(*[jordan_block(m, lam) for m in sizes])
        if hide:
            a = hidden(rng, a)
        d = skew_coninvolutory_sum(a)
        assert d.count == 5 and not d.flags
        (flip,) = [e for e in d.log if e["step"] == "sign-flip"]
        assert sorted(s for v, s in flip["blocks"] if v < 0) == [3]
        assert verify_decomposition(a, d).passed

    def test_odd_zero_blocks_still_fall_back(self):
        a = direct_sum(jordan_block(2, 0.0), jordan_block(1, 0.0), jordan_block(1, 0.0))
        d = skew_coninvolutory_sum(a)
        assert FLAG_NONOPTIMAL in d.flags and d.count == 6
        assert any(e["step"] == "rotation-fallback" for e in d.log)
        assert verify_decomposition(a, d).passed


#: parameters of the property below: J-blocks take lambda >= 0, H-blocks
#: a negative real or a non-real mu
LAMBDAS = [0.0, 0.5, 1.0, 2.0]
MUS = [-1.0, -2.0, 1j, complex(-0.5, 1.0), complex(2.0, 0.5)]


@st.composite
def hidden_canonical(draw):
    """A direct sum of J(lambda) and H(mu) blocks of even size n in 4..8,
    hidden by a complex consimilarity with cond <= 10."""
    n = 2 * draw(st.integers(2, 4))
    blocks = []
    while sum(b.dim for b in blocks) < n:
        room = n - sum(b.dim for b in blocks)
        if room >= 2 and draw(st.booleans()):
            blocks.append(ConCanonicalBlock("H", draw(st.integers(1, min(2, room // 2))), draw(st.sampled_from(MUS))))
        else:
            blocks.append(ConCanonicalBlock("J", draw(st.integers(1, min(3, room))), draw(st.sampled_from(LAMBDAS))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        t = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(t) <= 10:
            break
    b = direct_sum(*[build_block(blk) for blk in blocks]).to_array()
    return blocks, Matrix.floating(np.linalg.solve(np.conj(t), b) @ t)


@settings(max_examples=100)
@given(case=hidden_canonical())
def test_hidden_canonical_sums(case):
    blocks, a = case
    try:
        d = skew_coninvolutory_sum(a)  # checks its certificate before returning
    except (MatrixError, ConCanonicalError):
        return  # a typed error that says why
    assert verify_decomposition(a, d).passed
    odd_zero = sum(1 for blk in blocks if blk.kind == "J" and blk.param == 0 and blk.size % 2)
    if odd_zero < 2:
        assert d.count <= 5 and not d.flags


class TestCertificateCheck:
    def test_missed_certificate_raises(self):
        # structured-envelope seed 306, round 109, operation 18: a hidden
        # H2(-1.43) + H2(-0.33) read through cond(S) ~ 7.6e5, whose sum
        # used to come back failing its certificate without an error
        a = matrix_from_json(json.loads((DATA / "skew_certificate_miss_n8.json").read_text()))
        assert a.n == 8
        with pytest.raises(ConvergenceFailure, match="skew sum misses its certificate"):
            skew_coninvolutory_sum(a)

    def test_corrupted_summands_raise(self, monkeypatch, rng):
        honest = skewsum.consim_conjugate_list

        def corrupted(u, ks):
            out = honest(u, ks)
            return [out[0] + 1e-3 * Matrix.identity(u.n)] + out[1:]

        monkeypatch.setattr(skewsum, "consim_conjugate_list", corrupted)
        with pytest.raises(ConvergenceFailure, match="sum residual"):
            skew_coninvolutory_sum(random_complex(rng, 4))
