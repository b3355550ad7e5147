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
    skew_sum_jordan,
    verify_decomposition,
)
from coninv import skewsum
from coninv.certify import decomposition_from_json, decomposition_to_json
from coninv.concanon import ConCanonicalBlock, ConCanonicalError, build_block
from coninv.matcore import ConvergenceFailure, MatrixError, UnsupportedSize, matrix_from_json
from coninv.conisum import displayed_pairs
from coninv.skewsum import ParameterCapExceeded, straddle_block

import gaussq
from conftest import random_complex, read_pairs_as_h2

DATA = Path(__file__).parent / "data"


def as_gauss(grid):
    return [[(F(re), F(im)) for re, im in row] for row in grid]


def pair_grids(t, c):
    """The four skew summands of ``displayed_pairs`` (s = -1) as Gaussian grids."""
    re, im = displayed_pairs(t, c, -1)
    return [gaussq.gparts(r, i) for r, i in zip(re, im)]


def skew_exactly(grid):
    g = as_gauss(grid)
    n = len(g)
    product = gaussq.gmul(gaussq.gconj(g), g)
    return gaussq.gequal(product, gaussq.gneg(gaussq.gid(n)))


class TestDisplayedPairs:
    @pytest.mark.parametrize("c", [F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(-2)])
    def test_identity_pair_exact(self, c):
        k1, k2 = pair_grids(F(0), c)[2:]
        assert skew_exactly(k1) and skew_exactly(k2)
        assert gaussq.gequal(gaussq.gadd(k1, k2), gaussq.gdiag([2 * c, 2 * c]))

    @pytest.mark.parametrize("c", [F(0), F(1), F(-3, 4)])
    def test_traceless_pair_exact(self, c):
        k1, k2 = pair_grids(c, F(0))[:2]
        assert skew_exactly(k1) and skew_exactly(k2)
        assert gaussq.gequal(gaussq.gadd(k1, k2), gaussq.gdiag([2 * c, -2 * c]))

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
    """diag(a, b) takes the diagonal 4-sum alone in ``skew_sum_jordan``."""

    def test_zero_pair_frozen(self):
        d = skew_sum_jordan(Matrix.diag([0.0, 0.0]))
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
        d = skew_sum_jordan(Matrix.diag([2.0, 2.0]))
        arrs = [k.to_array() for k in d.summands]
        assert any(np.allclose(a, [[1, -1j], [2j, 1]]) for a in arrs)
        assert any(np.allclose(a, [[1, 1j], [-2j, 1]]) for a in arrs)
        assert verify_decomposition(Matrix.diag([2, 2]), d).passed

    def test_generic_pair(self):
        d = skew_sum_jordan(Matrix.diag([3.0, 1.0]))
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
        # J3(0) and J1(0) meet in the 4-by-4 straddle window
        a = direct_sum(jordan_block(3, 0.0), jordan_block(1, 0.0))
        d = skew_sum_jordan(a)
        assert d.count == 5 and not d.flags
        assert d.log[-1]["straddles"] == 1
        assert verify_decomposition(a, d).passed

    def test_fallback_logs_the_search_draws(self):
        # J2(0) + J1(0)^2: the 1-by-1 blocks take the diagonal 4-sum and
        # J2(0) one coupled window, and the log says so
        a = direct_sum(jordan_block(2, 0.0), jordan_block(1, 0.0), jordan_block(1, 0.0))
        d = skew_sum_jordan(a)
        assert d.count == 5 and not d.flags
        (split,) = d.log
        assert split["step"] == "pair-split" and split["straddles"] == 0
        assert split["eigenvalues"] == pytest.approx([-1.1, 1.1]) and split["cond_T"] >= 1.0
        wire = json.loads(json.dumps(decomposition_to_json(d)))
        assert decomposition_from_json(wire).log == d.log
        assert verify_decomposition(a, d).passed

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Jordan route drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for blocks in ([(3, 0.0), (1, 0.0)], [(2, 0.0), (1, 0.0), (1, 0.0)], [(3, 1.0), (3, 1.0), (1, 1.0), (1, 2.0)]):
            a = direct_sum(*[jordan_block(m, lam) for m, lam in blocks])
            assert verify_decomposition(a, skew_sum_jordan(a)).passed

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1, 0.5], [0, 1]]))  # coupling not 0/1
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1, 0], [2, 1]]))  # not upper bidiagonal
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1j, 0], [0, 1]]))  # complex entries


class TestStraddleBlock:
    @pytest.mark.parametrize("lam", [0.0, 0.7, -1.2])
    @pytest.mark.parametrize("u, v", [(1.1, 1.1 / 3), (2.6, 0.5), (0.4, 3.0)])
    def test_square_and_spectrum(self, lam, u, v):
        c = straddle_block(u, v)
        assert np.allclose(c @ c, -np.eye(4), atol=1e-13)
        b = lam * np.eye(4) + np.diag([1.0, 1.0, 0.0], 1)
        vals = np.linalg.eigvals(b - c)
        assert np.max(np.abs(vals.imag)) < 1e-9
        assert sorted(vals.real) == pytest.approx(sorted([lam - u, lam + u, lam - v, lam + v]), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_equal_odd_pair_takes_one_straddle(self, lam):
        # J5(lam) + J3(lam) + J3(0) + J1(0): the sign flip parts the first
        # two when lam != 0, and J3(0) + J1(0) always meet in a straddle
        a = direct_sum(jordan_block(5, lam), jordan_block(3, lam), jordan_block(3, 0.0), jordan_block(1, 0.0))
        d = skew_sum_jordan(a)
        assert d.count == 5 and not d.flags
        (split,) = [e for e in d.log if e["step"] == "pair-split"]
        assert split["straddles"] == (2 if lam == 0 else 1)
        assert verify_decomposition(a, d).passed


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
        assert d.count == 5 and not d.flags
        assert any(e["step"] == "pair-split" for e in d.log)
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
    _, a = case
    try:
        d = skew_coninvolutory_sum(a)  # checks its certificate before returning
    except MatrixError:
        return  # a typed error that says why
    assert verify_decomposition(a, d).passed
    assert d.count <= 5 and not d.flags


@st.composite
def jordan_sums(draw):
    """(B, A): B a direct sum of J_m(lambda), m in 1..5 and lambda in
    {0, 0.5, 1.5}, of even size n <= 14; A is B itself or B hidden by a
    real similarity (a consimilarity, as the similarity is real) with
    cond <= 10."""
    n = 2 * draw(st.integers(1, 7))
    blocks = []
    while sum(m for m, _ in blocks) < n:
        room = n - sum(m for m, _ in blocks)
        blocks.append((draw(st.integers(1, min(5, room))), draw(st.sampled_from([0.0, 0.5, 1.5]))))
    b = direct_sum(*[jordan_block(m, lam) for m, lam in blocks])
    if draw(st.booleans()):
        return b, hidden(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), b)
    return b, b


@settings(max_examples=50)
@given(case=jordan_sums())
def test_jordan_sums_take_at_most_five(case):
    b, a = case
    if a is b:
        d = skew_sum_jordan(b)
        assert verify_decomposition(b, d).passed
        assert d.count <= 5 and not d.flags
    d = skew_coninvolutory_sum(a)  # checks its certificate before returning
    assert verify_decomposition(a, d).passed
    assert d.count <= 5 and not d.flags


class TestCertificateCheck:
    def test_missed_certificate_raises(self, monkeypatch):
        # structured-envelope seed 306, round 109, operation 18, read as
        # H2(-1.43) + H2(-0.33) through cond(S) ~ 7.6e5: its sum used to
        # come back failing its certificate without an error
        a = matrix_from_json(json.loads((DATA / "skew_certificate_miss_n8.json").read_text()))
        assert a.n == 8
        read_pairs_as_h2(monkeypatch)
        with pytest.raises(ConvergenceFailure, match="skew sum misses its certificate"):
            skew_coninvolutory_sum(a)

    def test_close_pairs_fail_typed(self):
        # the same input is H1(mu1) + H1(mu2) + H2(-0.33) with cond(S) = 12,
        # but mu1 - mu2 = 4.9e-6 lies inside the clustering tolerance: the
        # staircase reads the merged cluster as H1(-1.43)^2, which has no
        # intertwiner
        a = matrix_from_json(json.loads((DATA / "skew_certificate_miss_n8.json").read_text()))
        with pytest.raises(ConCanonicalError, match="empty kernel"):
            skew_coninvolutory_sum(a)

    def test_corrupted_summands_raise(self, monkeypatch, rng):
        honest = skewsum.consim_conjugate_list

        def corrupted(u, ks):
            out = honest(u, ks)
            out[0] += 1e-3 * np.eye(u.n)
            return out

        monkeypatch.setattr(skewsum, "consim_conjugate_list", corrupted)
        with pytest.raises(ConvergenceFailure, match="sum residual"):
            skew_coninvolutory_sum(random_complex(rng, 4))
