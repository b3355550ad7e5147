from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coninv import (
    ConCanonicalBlock,
    ConCanonicalError,
    Matrix,
    build_block,
    concanon,
    concanonical_form,
    coninvolutory_factor,
    consimilar_to_real,
    direct_sum,
    jordan_block,
    skew_base,
    solve_consimilarity,
)
from coninv.concanon import _consim_operator, _diagonal_blocks, _real_pair_block, _weyr_characteristic
from coninv.matcore import DEFAULT_TOL, PathwayMismatch, Tolerance, UnsupportedSize

from conftest import random_complex, random_coninvolutory, well_conditioned


def block_key(b):
    p = complex(b.param)
    return (b.kind, b.size, round(p.real, 6), round(p.imag, 6))


class TestBuildBlock:
    def test_jordan_shape(self):
        b = build_block(ConCanonicalBlock("J", 2, 1.0))
        assert np.allclose(b.to_array(), [[1, 1], [0, 1]])

    def test_h_shape(self):
        b = build_block(ConCanonicalBlock("H", 1, -2.0))
        assert np.allclose(b.to_array(), [[0, 1], [-2, 0]])

    def test_h_shape_m2(self):
        b = build_block(ConCanonicalBlock("H", 2, 1j))
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 2] = expect[1, 3] = 1
        expect[2, 2 - 2] = 1j
        expect[2:4, 0:2] = [[1j, 1], [0, 1j]]
        assert np.allclose(b.to_array(), expect)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ConCanonicalBlock("J", 1, -1.0)

    def test_nonnegative_real_mu_rejected(self):
        with pytest.raises(ValueError):
            ConCanonicalBlock("H", 1, 2.0)
        with pytest.raises(ValueError):
            ConCanonicalBlock("H", 1, 0.0)


class TestSolveConsimilarity:
    def test_identity_pair(self):
        s = solve_consimilarity(Matrix.identity(2), Matrix.identity(2))
        assert s is not None
        res = (Matrix.identity(2) @ s - s.conj() @ Matrix.identity(2)).frobenius_norm()
        assert res < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_rotates_i_to_one(self, seed):
        # 1x1 algebra: conj(s)^{-1} i s = 1 at s = r e^{-i pi/4} and at its
        # negative r e^{3i pi/4}; both have s^2 / |s|^2 = -i
        a, b = Matrix.floating([[1j]]), Matrix.floating([[1]])
        s = solve_consimilarity(a, b, seed=seed)
        assert s is not None
        val = complex(s[0, 0])
        assert abs(val * val / abs(val) ** 2 + 1j) < 1e-10
        assert abs(a[0, 0] * val - np.conj(val) * 1.0) < 1e-12

    @pytest.mark.parametrize("n, m", [(1, 1), (4, 1), (4, 2), (7, 3), (16, 2)])
    def test_operator_matches_kron(self, rng, n, m):
        # the operator is built without np.kron / np.block, bit for bit,
        # signed zeros included
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a[0, 0], b[0, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        for block in (b, b.real.astype(complex), np.zeros((m, m), dtype=complex)):
            left, right = np.kron(a, np.eye(m)), np.kron(np.eye(n), block.T)
            expect = np.block(
                [
                    [left.real - right.real, -left.imag - right.imag],
                    [left.imag - right.imag, left.real + right.real],
                ]
            )
            got = _consim_operator(a, block)
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect)
            assert np.array_equal(np.signbit(got), np.signbit(expect))

    def test_modulus_obstruction(self):
        # |a| is a consimilarity invariant for 1x1
        assert solve_consimilarity(Matrix.floating([[2]]), Matrix.floating([[3]])) is None

    def _hide(self, rng, target):
        t = well_conditioned(rng, target.n)
        return t.conj().inverse() @ target @ t

    def _check(self, a, b, s):
        assert s is not None
        res = (a @ s - s.conj() @ b).frobenius_norm()
        assert res <= DEFAULT_TOL.bound(a.frobenius_norm()) * np.sqrt(a.n)
        assert np.linalg.cond(s.to_array()) < 1e8

    def test_hidden_direct_sum_splits_per_block(self, rng, monkeypatch):
        b = direct_sum(
            jordan_block(2, 1.5),
            build_block(ConCanonicalBlock("H", 1, -2.0)),
            jordan_block(1, 0.5),
            build_block(ConCanonicalBlock("H", 2, 1 + 1j)),
        )
        a = self._hide(rng, b)
        assert _diagonal_blocks(b.to_array()) == [(0, 2), (2, 4), (4, 5), (5, 9)]
        sizes = []
        kernel = concanon.real_linear_nullspace

        def recording_kernel(op, tol):
            sizes.append(op.shape)
            return kernel(op, tol)

        monkeypatch.setattr(concanon, "real_linear_nullspace", recording_kernel)
        self._check(a, b, solve_consimilarity(a, b))
        # J_1(0.5) has a simple eigenvalue 0.25 of conj(A)A and takes the
        # closed-form basis; the others need the kernel (H_1(-2) is real)
        assert sizes == [(2 * 9 * k, 2 * 9 * k) for k in (2, 2, 4)]
        assert (2 * 9, 2 * 9) not in sizes

    def test_undivided_target_is_one_block(self, rng):
        b = random_complex(rng, 5)
        assert _diagonal_blocks(b.to_array()) == [(0, 5)]
        a = self._hide(rng, b)
        self._check(a, b, solve_consimilarity(a, b))


class TestConCanonicalForm:
    def test_identity(self):
        form = concanonical_form(Matrix.identity(2))
        assert sorted(map(block_key, form.blocks)) == [("J", 1, 1.0, 0.0)] * 2

    def test_unimodular_scalar(self):
        form = concanonical_form(Matrix.floating([[1j]]))
        assert list(map(block_key, form.blocks)) == [("J", 1, 1.0, 0.0)]

    def test_h_block_instance(self):
        a = Matrix.floating([[0, 1], [-2, 0]])
        form = concanonical_form(a)
        assert list(map(block_key, form.blocks)) == [("H", 1, -2.0, 0.0)]
        res = (a @ form.S - form.S.conj() @ form.assembled()).frobenius_norm()
        assert res < 1e-8

    def test_one_by_one_orbit_invariant(self, rng):
        for _ in range(10):
            val = complex(rng.standard_normal(), rng.standard_normal())
            form = concanonical_form(Matrix.floating([[val]]))
            (blk,) = form.blocks
            assert blk.kind == "J"
            assert abs(complex(blk.param).real - abs(val)) < 1e-10

    def test_nilpotent_arbitration(self):
        # J2(0) and the zero matrix share conj(A)A = 0; the intertwiner
        # existence must separate them
        j2 = Matrix.floating([[0, 1], [0, 0]])
        assert [b.size for b in concanonical_form(j2).blocks] == [2]
        assert [b.size for b in concanonical_form(Matrix.zeros(2)).blocks] == [1, 1]

    def test_invariance_under_consimilarity(self, rng):
        targets = [
            direct_sum(jordan_block(1, 0.5), jordan_block(2, 2.0)),
            direct_sum(build_block(ConCanonicalBlock("H", 1, -1.5)), jordan_block(1, 1.0)),
        ]
        for target in targets:
            t = well_conditioned(rng, target.n)
            moved = t.conj().inverse() @ target @ t
            assert sorted(map(block_key, concanonical_form(moved).blocks)) == sorted(
                map(block_key, concanonical_form(target).blocks)
            )

    def test_larger_nilpotent_structures(self):
        j3 = jordan_block(3, 0.0)
        form = concanonical_form(direct_sum(j3, jordan_block(1, 0.0)))
        assert sorted(b.size for b in form.blocks) == [1, 3]
        form2 = concanonical_form(direct_sum(j3, j3))
        assert sorted(b.size for b in form2.blocks) == [3, 3]

    def test_error_lists_refused_candidates(self, rng):
        # at a zero tolerance no residual passes, so every candidate is refused
        with pytest.raises(ConCanonicalError) as info:
            concanonical_form(random_complex(rng, 3), tol=Tolerance(0.0, 0.0))
        tried = info.value.tried
        assert tried
        for blocks, outcome in tried:
            assert sum(b.dim for b in blocks) == 3
            assert outcome in ("empty kernel", "singular") or outcome > 0.0
        assert f"{len(tried)} tried" in str(info.value)

    def test_scattered_cluster_escalation(self, rng):
        # a conjugated size-4 coupled block scatters its conj(A)A cluster far
        # beyond the nominal tolerance; the coarse re-clustering retry plus
        # intertwiner verification must still land on the single block
        target = jordan_block(4, 1.1)
        t = well_conditioned(rng, 4, cap=30.0)
        moved = t.conj().inverse() @ target @ t
        form = concanonical_form(moved)
        assert [(b.kind, b.size) for b in form.blocks] == [("J", 4)]
        assert abs(complex(form.blocks[0].param).real - 1.1) < 1e-3


def weyr(sizes):
    """Weyr characteristic of a Jordan sum with these block sizes."""
    return [sum(k >= j for k in sizes) for j in range(1, max(sizes) + 1)]


class TestStaircase:
    """The staircase reads exact, unhidden Jordan sums exactly: J_k(lam)
    with lam > 0 from conj(A) A - lam^2 I, J_k(0) from A itself."""

    @pytest.mark.parametrize(
        "blocks",
        [
            [(3, 0.5)] * 2,
            [(3, 0.5), (3, 0.5), (2, 0.5)],
            [(2, 0.0)] * 2,
            [(1, 0.0)] * 4,
            [(5, 0.0), (3, 0.0), (3, 0.0), (2, 0.0), (1, 0.0)],
        ],
        ids=["J3(0.5)^2", "J3(0.5)^2+J2(0.5)", "J2(0)^2", "0_4", "J5(0)+J3(0)^2+J2(0)+J1(0)"],
    )
    def test_exact_sums_read_exactly(self, blocks):
        a = direct_sum(*[jordan_block(m, lam) for m, lam in blocks]).to_array()
        sizes = [m for m, _ in blocks]
        lam = blocks[0][1]
        if lam:
            m = np.conj(a) @ a
            x, norm, consimilar = m - lam**2 * np.eye(len(a)), np.linalg.norm(m, 2), False
        else:
            x, norm, consimilar = a, np.linalg.norm(a, 2), True
        assert _weyr_characteristic(x, len(a), norm, consimilar) == weyr(sizes)
        form = concanonical_form(Matrix.floating(a))
        assert [(b.kind, b.size) for b in form.blocks] == [("J", m) for m in sizes]
        assert all(b.param == pytest.approx(lam, abs=1e-12) for b in form.blocks)


@st.composite
def hidden_nilpotent_parts(draw):
    """(X, sizes, consimilar): J_k(0) blocks of these sizes beside J_1(1.5)
    and J_2(0.5), hidden by a complex T with cond <= 10 through a
    consimilarity conj(T)^-1 B T or a similarity T^-1 B T."""
    sizes = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)), reverse=True)
    b = direct_sum(*[jordan_block(k, 0.0) for k in sizes], jordan_block(1, 1.5), jordan_block(2, 0.5)).to_array()
    consimilar = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        t = np.eye(len(b)) + 0.2 * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
        if np.linalg.cond(t) <= 10:
            return np.linalg.solve(np.conj(t) if consimilar else t, b) @ t, sizes, consimilar


@settings(max_examples=60)
@given(case=hidden_nilpotent_parts(), exponent=st.floats(-6, 6))
def test_weyr_characteristic_is_scale_invariant(case, exponent):
    x, sizes, consimilar = case
    c = 10.0**exponent
    read = _weyr_characteristic(x, sum(sizes), np.linalg.norm(x, 2), consimilar)
    assert _weyr_characteristic(c * x, sum(sizes), np.linalg.norm(c * x, 2), consimilar) == read
    assert read == weyr(sizes)


class TestConsimilarToReal:
    def test_real_input_block_diagonal(self):
        # real inputs take the canonical form too: B comes out block-diagonal
        a = Matrix.floating([[1, 2, 0], [-3, 1, 1], [0, -1, 2]])  # eigenvalues 1.06 +- 2.62i, 1.87
        s, b = consimilar_to_real(a)
        assert b.is_real(0.0)
        assert (a @ s - s.conj() @ b).frobenius_norm() <= 1e-9 * (1 + a.frobenius_norm())
        arr = b.to_array().real
        blocks = _diagonal_blocks(arr)
        assert sorted(stop - start for start, stop in blocks) == [1, 2]
        for start, stop in blocks:
            if stop - start == 2:  # a real pair [[x, y], [-y, x]]
                x = arr[start:stop, start:stop]
                assert x[0, 0] == x[1, 1] and x[0, 1] == -x[1, 0] != 0

    def test_scalar_i(self):
        s, b = consimilar_to_real(Matrix.floating([[1j]]))
        assert abs(b[0, 0] - 1.0) < 1e-10

    def test_rotation_block(self):
        a = Matrix.floating([[0, 1], [-1, 0]])
        s, b = consimilar_to_real(a)
        res = (a @ s - s.conj() @ b).frobenius_norm()
        assert res < 1e-8
        vals = np.linalg.eigvals(b.to_array())
        assert sorted(v.imag for v in vals) == pytest.approx([-1, 1], abs=1e-8)

    def test_random_residual_and_reality(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            a = random_complex(rng, n)
            s, b = consimilar_to_real(a)
            assert b.is_real(0.0)
            assert (a @ s - s.conj() @ b).frobenius_norm() <= 1e-9 * (1 + a.frobenius_norm())
            derived = s.conj().inverse() @ a @ s
            assert float(np.max(np.abs(derived.to_array().imag))) <= 1e-10


def _hidden(rng, *blocks):
    target = direct_sum(*blocks)
    t = well_conditioned(rng, target.n)
    return t.conj().inverse() @ target @ t


ONE_SOLVE_INPUTS = [
    pytest.param(lambda rng: _hidden(rng, build_block(ConCanonicalBlock("H", 1, 1 + 2j))), id="H1-complex-mu"),
    pytest.param(lambda rng: _hidden(rng, build_block(ConCanonicalBlock("H", 1, -2.0))), id="H1-negative-mu"),
    pytest.param(lambda rng: _hidden(rng, build_block(ConCanonicalBlock("H", 2, 0.5 + 1j))), id="H2-complex-mu"),
    pytest.param(lambda rng: _hidden(rng, build_block(ConCanonicalBlock("H", 2, -1.5))), id="H2-negative-mu"),
    pytest.param(
        lambda rng: _hidden(rng, jordan_block(2, 1.5), build_block(ConCanonicalBlock("H", 1, 1j))), id="J2+H1"
    ),
    pytest.param(
        lambda rng: _hidden(
            rng,
            jordan_block(1, 0.7),
            jordan_block(2, 0.0),
            build_block(ConCanonicalBlock("H", 1, -0.5)),
            build_block(ConCanonicalBlock("H", 1, 2 - 1j)),
        ),
        id="J1+J2(0)+H1+H1",
    ),
    pytest.param(lambda rng: random_complex(rng, 8), id="gaussian-n8"),
]


class TestConsimilarToRealOneSolve:
    """consimilar_to_real reads the blocks of concanonical_form and
    solves A straight onto the real target, H_m(mu) as the real chain of
    sqrt(mu)."""

    @pytest.mark.parametrize("make", ONE_SOLVE_INPUTS)
    def test_blocks_residual_and_norm(self, rng, make):
        a = make(rng)
        form = concanonical_form(a)
        s, b = consimilar_to_real(a)
        expect = direct_sum(
            *[
                build_block(blk) if blk.kind == "J" else _real_pair_block(blk.size, complex(np.sqrt(blk.param)))
                for blk in form.blocks
            ]
        )
        assert b.is_real(0.0)
        assert np.array_equal(b.to_array(), expect.to_array().real)
        res = (a @ s - s.conj() @ b).frobenius_norm()
        assert res <= DEFAULT_TOL.bound(a.frobenius_norm()) * np.sqrt(a.n)
        assert s.frobenius_norm() == pytest.approx(np.sqrt(a.n), rel=1e-12)

    @pytest.mark.parametrize("make", ONE_SOLVE_INPUTS)
    def test_one_solve_per_candidate(self, rng, monkeypatch, make):
        a = make(rng)
        solve = concanon.solve_consimilarity
        calls = []

        def recording_solve(x, target, **kwargs):
            calls.append((x, target))
            return solve(x, target, **kwargs)

        monkeypatch.setattr(concanon, "solve_consimilarity", recording_solve)
        s, b = consimilar_to_real(a)
        # every solve is of A itself, never of an H-block onto its chain,
        # and no candidate target is solved twice
        assert calls and all(x is a for x, _ in calls)
        targets = [t.to_array() for _, t in calls]
        assert all(not np.array_equal(t, u) for i, t in enumerate(targets) for u in targets[:i])
        assert np.array_equal(targets[-1].real, b.to_array())
        calls.clear()
        with pytest.raises(ConCanonicalError) as info:
            consimilar_to_real(a, tol=Tolerance(0.0, 0.0))
        assert len(calls) == len(info.value.tried) > 0

    def test_guards_come_before_the_reader(self, monkeypatch):
        def refuse_reader(*args, **kwargs):
            raise AssertionError("the candidate reader ran")

        monkeypatch.setattr(concanon, "_read_blocks", refuse_reader)
        for entry in (consimilar_to_real, concanonical_form):
            with pytest.raises(PathwayMismatch, match=entry.__name__):
                entry(Matrix.exact([[F(1), F(2)], [F(3), F(4)]]))
            with pytest.raises(UnsupportedSize):
                entry(Matrix.floating(np.eye(17)))


class TestConinvolutoryFactor:
    def test_identity(self):
        s = coninvolutory_factor(Matrix.identity(2))
        res = (s.conj().inverse() @ s - Matrix.identity(2)).frobenius_norm()
        assert res < 1e-12

    def test_unimodular_scalar(self):
        c = Matrix.floating([[1j]])
        s = coninvolutory_factor(c)
        assert abs(complex((s.conj().inverse() @ s)[0, 0]) - 1j) < 1e-12

    def test_real_involutory(self):
        c = Matrix.floating([[1, 1], [0, -1]])
        s = coninvolutory_factor(c)
        assert (s.conj().inverse() @ s - c).frobenius_norm() < 1e-12

    def test_rejects_non_coninvolutory(self):
        with pytest.raises(ValueError):
            coninvolutory_factor(Matrix.floating(2 * np.eye(2)))

    def test_seeded_population(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            c = random_coninvolutory(rng, n)
            s = coninvolutory_factor(c)
            assert (s.conj().inverse() @ s - c).frobenius_norm() <= 1e-8


class TestSkewBase:
    def test_unit_block(self):
        assert np.allclose(skew_base(1).to_array(), [[0, 1], [-1, 0]])

    def test_conj_product(self):
        k = skew_base(2)
        assert (k.conj() @ k + Matrix.identity(4)).frobenius_norm() == 0.0

    def test_square_is_minus_identity_exact(self):
        for m in range(1, 9):
            k = skew_base(m, "exact")
            assert k @ k == Matrix.diag([F(-1)] * (2 * m), "exact")
