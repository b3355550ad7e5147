"""The floating split of the real canonical form, B = C + W diag(values) W^-1
block by block, and the pipelines built on it: the odd-size border value,
real floating inputs end to end, the thm1b witness check, the route's log,
and a guard that no floating pipeline enters the exact layer."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coninv import (
    Matrix,
    coninvolutory_condiagonalizable_split,
    coninvolutory_plus_real_diagonal,
    coninvolutory_sum,
    exactcanon,
    is_coninvolutory,
    jordan_block,
    verify_decomposition,
)
from coninv import conisum
from coninv.certify import KIND_CONINV_CONDIAG, Decomposition, decomposition_from_json, decomposition_to_json
from coninv.cli import main
from coninv.concanon import _diagonal_blocks, _real_pair_block
from coninv.matcore import ConvergenceFailure, SingularMatrix

from conftest import random_complex
from test_regressions import _hidden

#: cond(W_j) bounds over the blocks drawn below.  Largest seen in 3000
#: draws: 13.6 for the plain split, from real-pair chains of length 3 (their
#: involutory parts grow like 1 / |b|, and |b| >= 1/4 here); 48 with an odd
#: border value, from three equal scalars x = 1/32.  Equal scalars merge
#: as diag(x, -x), whose C_X has p = (x^2 - 3) / (2x); cond is then about
#: |p|, 96 at the grid's smallest x = 1/64
COND_CAP = 20.0
ODD_COND_CAP = 100.0
#: smallest gap between two values inside one chain
VALUE_GAP = 0.25

#: entries on a 1/64 grid: distinct ones differ by at least that much
values = st.integers(-256, 256).map(lambda k: k / 64)
scalars = values.map(lambda x: np.array([[x]]))
real_pairs = st.builds(
    lambda m, a, b, sign: _real_pair_block(m, complex(a, sign * b)).to_array().real,
    st.integers(1, 3),
    values,
    st.floats(0.25, 4),
    st.sampled_from([1, -1]),
)
jordans = st.builds(
    lambda m, lam: jordan_block(m, lam).to_array().real,
    st.integers(2, 4),
    values.map(abs),
)
block_lists = st.lists(st.one_of(scalars, real_pairs, jordans), min_size=1, max_size=5)


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


def assert_split(b, sp, cond_cap=COND_CAP):
    n = b.shape[0]
    c_norm = np.linalg.norm(sp.C)
    assert np.linalg.norm(sp.C @ sp.C - np.eye(n)) <= 1e-12 * (1 + c_norm**2)
    assert np.linalg.norm(sp.W_inv @ sp.W - np.eye(n)) <= 1e-10 * sp.cond_W
    rebuilt = sp.C + sp.W @ np.diag(sp.values) @ sp.W_inv
    assert np.linalg.norm(b - rebuilt) <= 1e-10 * (1 + np.linalg.norm(b))
    assert 1.0 <= sp.cond_W <= cond_cap


class TestRealSplit:
    @given(block_lists)
    def test_blockwise_split(self, blocks):
        b = block_diag(blocks)
        sp = conisum._real_split(b)
        assert_split(b, sp)
        for start, stop in _diagonal_blocks(b):
            chain = np.sort(sp.values[start:stop])
            assert np.all(np.diff(chain) >= VALUE_GAP)

    def test_real_pair_closed_form(self):
        # [[a, b], [-b, a]] - [[0, t], [1/t, 0]] = [[a, -r], [-r, a]]
        a, b = 0.5, -2.0
        sp = conisum._real_split(np.array([[a, b], [-b, a]]))
        r = np.hypot(1, b)
        assert sp.C[0, 1] == pytest.approx(b - r) and sp.C[1, 0] == pytest.approx(1 / (b - r))
        assert sorted(sp.values) == pytest.approx([a - r, a + r])
        assert sp.cond_W == pytest.approx(1.0)

    def test_jordan_2_golden_ratio(self):
        sp = conisum._real_split(jordan_block(2, 3.0).to_array().real)
        assert sp.C[0, 1] == pytest.approx(conisum.PHI)
        assert sorted(sp.values) == pytest.approx([3 - 1 / conisum.PHI, 3 + 1 / conisum.PHI])
        assert sp.cond_W == pytest.approx(1.0)


class TestOddBorderValue:
    @given(
        st.one_of(
            st.builds(lambda lam: np.array([[lam, 1.0], [0.0, lam]]), values.map(abs)),
            real_pairs.map(lambda b: b[:2, :2]),
            st.builds(lambda x, y: np.diag([x, y]), values, values).filter(lambda x: abs(x[0, 0] - x[1, 1]) >= 0.25),
        )
    )
    def test_fix_mu1(self, x):
        c_x, (mu1, nu) = conisum._fix_mu1(x)
        assert mu1 in (0.0, 2.0)
        assert abs(nu - mu1) >= 2
        assert np.linalg.norm(c_x @ c_x - np.eye(2)) <= 1e-12 * (1 + np.linalg.norm(c_x) ** 2)
        d = x - c_x
        assert np.trace(d) == pytest.approx(mu1 + nu)
        scale = 1 + np.linalg.norm(d) ** 2
        assert abs(np.linalg.det(d - mu1 * np.eye(2))) <= 1e-12 * scale

    @given(block_lists.filter(lambda bs: sum(b.shape[0] for b in bs) % 2 == 1 and len(bs) + sum(b.shape[0] > 1 for b in bs) > 1))
    def test_odd_split(self, blocks):
        b = block_diag(blocks)
        if not np.any(b):
            return
        seen = []

        def recording(*args):
            sp = real_split(*args)
            seen.append((args, sp))
            return sp

        real_split = conisum._real_split
        log = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conisum, "_real_split", recording)
            inner, u, entry = conisum._odd_real_summands(b, log=log)
        [((target, units, (k, _, _)), sp)] = seen
        idx = units[k]
        if any(e["step"] == "scalar-sign-flip" for e in log):
            assert np.all(np.diag(b) == b[idx[0], idx[0]])
        assert_split(target, sp, ODD_COND_CAP)
        # the fixed value is exactly 0 or 2, the other one of its 2-by-2 part differs
        assert sp.values[idx[0]] in (0.0, 2.0)
        assert abs(sp.values[idx[1]] - sp.values[idx[0]]) >= 2
        assert entry["mu1"] == str(int(sp.values[idx[0]]))
        assert all(is_coninvolutory(Matrix.floating(k)) for k in inner)
        total = inner.sum(axis=0)
        assert np.linalg.norm(np.conj(u) @ total @ np.linalg.inv(u) - b) <= 1e-9 * (1 + np.linalg.norm(b))

    @pytest.mark.parametrize("m", [3, 5])
    def test_jordan_one_odd_chain(self, m):
        # J(1, m): mu1 and the trailing value 1 - 1 coincide; the lead's
        # lower-triangular part keeps B - C diagonalizable
        a = jordan_block(m, 1.0)
        d = coninvolutory_sum(a)
        assert verify_decomposition(a, d).passed


def real_gaussians():
    for n in range(3, 17):
        for s in range(3):
            yield n, s


class TestRealInputs:
    @pytest.mark.parametrize("n, s", list(real_gaussians()))
    def test_real_gaussian(self, n, s):
        a = Matrix.floating(np.random.default_rng(1000 + s).standard_normal((n, n)))
        assert verify_decomposition(a, coninvolutory_sum(a)).passed
        split = coninvolutory_condiagonalizable_split(a)  # checks its witness
        assert verify_decomposition(a, Decomposition(KIND_CONINV_CONDIAG, [split.C, split.D])).passed

    def test_real_n10_probe(self):
        # the benchmark's real 10 x 10 probe: default_rng([999, 10]), index 44
        rng = np.random.default_rng([999, 10])
        for _ in range(44):
            rng.standard_normal((10, 10))
        a = Matrix.floating(rng.standard_normal((10, 10)))
        assert verify_decomposition(a, coninvolutory_sum(a)).passed

    @pytest.mark.parametrize("hide", ["integer", "real"])
    @pytest.mark.parametrize("family", ["repeated-diagonal", "nilpotent", "jordan"])
    @pytest.mark.parametrize("seed", range(50, 65))
    def test_hidden_structure_n7(self, hide, family, seed):
        # repeated spectra hidden by the integer unimodular similarity of
        # test_regressions._hidden (entries of A up to about 1e4), or by a
        # real similarity with cond <= 10, rounded
        rng = np.random.default_rng(seed)
        sizes = []
        while sum(sizes) < 7:
            sizes.append(int(rng.integers(1, min(3, 7 - sum(sizes)) + 1)))
        lam = int(rng.integers(1, 4))
        if family == "repeated-diagonal":
            blocks = [(1, lam)] * 4 + [(1, -lam)] * 3
        else:
            blocks = [(m, 0 if family == "nilpotent" else lam) for m in sizes]
        if hide == "integer":
            a = _hidden(blocks, seed).to_floating()
        else:
            b = block_diag([jordan_block(m, x).to_array().real for m, x in blocks])
            while True:
                t = rng.standard_normal((7, 7))
                if np.linalg.cond(t) <= 10:
                    break
            a = Matrix.floating(np.linalg.solve(t, b) @ t)
        for pipeline in (coninvolutory_sum, coninvolutory_condiagonalizable_split):
            try:
                out = pipeline(a)  # both check their result before returning
            except SingularMatrix as exc:
                pytest.fail(f"untyped singular transform: {exc}")
            if pipeline is coninvolutory_condiagonalizable_split:
                out = Decomposition(KIND_CONINV_CONDIAG, [out.C, out.D])
            assert verify_decomposition(a, out).passed


class TestThm1bWitness:
    def _wrong_q(self, monkeypatch):
        real_split = conisum._real_split

        def wrong(*args, **kwargs):
            sp = real_split(*args, **kwargs)
            sp.W_inv = sp.W_inv + 1e-3  # not a row scaling, which D would not see
            return sp

        monkeypatch.setattr(conisum, "_real_split", wrong)

    def test_wrong_witness_raises(self, monkeypatch, rng):
        a = random_complex(rng, 4)
        self._wrong_q(monkeypatch)
        with pytest.raises(ConvergenceFailure, match="witness"):
            coninvolutory_condiagonalizable_split(a)

    @pytest.mark.parametrize("n", [4, 5])
    def test_wrong_split_fails_the_sum(self, monkeypatch, rng, n):
        a = random_complex(rng, n)
        self._wrong_q(monkeypatch)
        with pytest.raises(ConvergenceFailure, match="certificate"):
            coninvolutory_sum(a)

    def test_wrong_witness_cli_exit_3(self, monkeypatch, capsys):
        self._wrong_q(monkeypatch)
        doc = json.dumps({"n": 3, "pathway": "floating", "entries": [[1, 0], [2, 1], [0, 0], [0, -1], [3, 0], [1, 1], [2, 0], [0, 0], [1, -2]]})
        assert main(["decompose", "--kind", "thm1b", "--json", doc]) == 3
        assert "witness" in capsys.readouterr().err


class TestRouteLog:
    @pytest.mark.parametrize("n, step", [(4, "even-split"), (5, "odd-borders")])
    def test_cond_and_amplification_logged(self, rng, n, step):
        # cond_W in the route's step, amplification in the closing step
        a = random_complex(rng, n)
        d = coninvolutory_sum(a)
        (entry,) = [e for e in d.log if e["step"] == step]
        (closing,) = [e for e in d.log if e["step"] == "summands"]
        amp = max(k.frobenius_norm() for k in d.summands) / a.frobenius_norm()
        assert closing["amplification"] == pytest.approx(amp)
        assert entry["cond_W"] >= 1.0
        wire = json.loads(json.dumps(decomposition_to_json(d)))
        log = decomposition_from_json(wire).log
        (back,) = [e for e in log if e["step"] == step]
        (back_closing,) = [e for e in log if e["step"] == "summands"]
        assert back["cond_W"] == entry["cond_W"] and back_closing["amplification"] == closing["amplification"]
        assert type(back["cond_W"]) is float and type(back_closing["amplification"]) is float

    @pytest.mark.parametrize("n", [2, 5])
    def test_cond_s_logged(self, rng, n):
        a = random_complex(rng, n)
        d = coninvolutory_sum(a)
        (entry,) = [e for e in d.log if e["step"] == "consimilar-to-real"]
        assert type(entry["cond_S"]) is float and 1.0 <= entry["cond_S"] < np.inf
        wire = json.loads(json.dumps(decomposition_to_json(d), allow_nan=False))
        (back,) = [e for e in decomposition_from_json(wire).log if e["step"] == "consimilar-to-real"]
        assert back["cond_S"] == entry["cond_S"]


def test_floating_pipelines_skip_the_exact_layer(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("the floating route entered the exact layer")

    monkeypatch.setattr(Matrix, "rationalize", refuse)
    monkeypatch.setattr(exactcanon, "frobenius_form", refuse)
    inputs = []
    for n in (3, 4, 5, 8):
        inputs += [random_complex(rng, n), Matrix.floating(rng.standard_normal((n, n)))]
    for a in inputs:
        assert verify_decomposition(a, coninvolutory_sum(a)).passed
        split = coninvolutory_condiagonalizable_split(a)
        assert verify_decomposition(a, Decomposition(KIND_CONINV_CONDIAG, [split.C, split.D])).passed
        s, c, d = coninvolutory_plus_real_diagonal(a)
        assert is_coninvolutory(c)
        assert (a @ s - s.conj() @ (c + d)).frobenius_norm() <= 1e-8 * (1 + a.frobenius_norm())
