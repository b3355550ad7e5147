import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

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
    skew_sum_hblock,
    skew_sum_jordan,
    verify_decomposition,
)
from coninv import skewsum
from coninv.certify import FLAG_NONOPTIMAL, decomposition_from_json, decomposition_to_json
from coninv.concanon import ConCanonicalBlock, build_block
from coninv.matcore import ConvergenceFailure, UnsupportedSize, matrix_from_json
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

    def test_spec_mismatch_rejected(self):
        a = jordan_block(2, 3.0)
        with pytest.raises(ValueError):
            skew_sum_jordan(a, [PairSpec(3.0, 3.0, 0)])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1, 0.5], [0, 1]]))  # coupling not 0/1
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1, 0], [2, 1]]))  # not upper bidiagonal
        with pytest.raises(ValueError):
            skew_sum_jordan(Matrix.floating([[1j, 0], [0, 1]]))  # complex entries


class TestHBlock:
    def test_zero_corner(self):
        d = skew_sum_hblock(1, -1.0)
        assert d.count == 1
        a = build_block(ConCanonicalBlock("H", 1, -1.0))
        assert verify_decomposition(a, d).passed

    def test_negative_real(self):
        d = skew_sum_hblock(1, -2.0)
        assert d.count == 5
        a = build_block(ConCanonicalBlock("H", 1, -2.0))
        assert verify_decomposition(a, d).passed

    def test_complex_mu_m2(self):
        d = skew_sum_hblock(2, 1j)
        assert d.count == 5
        a = build_block(ConCanonicalBlock("H", 2, 1j))
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
