import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coninv import (
    Matrix,
    Polynomial,
    companion,
    direct_sum,
    frobenius_form,
    involutory_diagonalizable_split,
    involutory_split_companion,
    is_squarefree,
    matrix_from_json,
    matrix_to_json,
    minimal_polynomial,
    poly_mul,
)
from coninv.certify import KIND_INV_DIAG, Decomposition, decomposition_to_json
from coninv import exactcanon
from coninv.exactcanon import (
    _coeffs,
    _components,
    _divmod_mod,
    _factor_degrees_mod,
    _factor_mod,
    _hensel_lift,
    _integer_monic,
    _pdivmod,
    _pmul,
    _proven_irreducible,
    _vector_order,
    factor_prime_powers,
    poly_eval_matrix,
)
from coninv.matcore import _integer_grid

import exactref


def rational_matrix(rng, n, num=6, den=3):
    return Matrix.exact(
        [[F(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1))) for _ in range(n)] for _ in range(n)]
    )


def block_multiset(form):
    return sorted(tuple(b.a) for b in form.blocks)


class TestCompanion:
    def test_degree_one(self):
        assert companion(Polynomial((F(3),))) == Matrix.exact([[3]])

    def test_quadratic_layout(self):
        # oracle: char poly of the built matrix must reproduce f
        f = Polynomial((F(5), F(-6)))
        c = companion(f)
        assert c == Matrix.exact([[0, -6], [1, 5]])
        assert c.char_poly() == f

    def test_pure_power_shape(self):
        c = companion(Polynomial((F(0), F(0), F(0))))
        assert c == Matrix.exact([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


class TestFrobenius:
    def test_distinct_scalars(self):
        form = frobenius_form(Matrix.diag([2, 3], "exact"))
        assert block_multiset(form) == [(F(2),), (F(3),)]

    def test_nilpotent_block(self):
        form = frobenius_form(Matrix.exact([[0, 1], [0, 0]]))
        assert block_multiset(form) == [(F(0), F(0))]

    def test_squarefree_splits(self):
        form = frobenius_form(Matrix.exact([[0, -6], [1, 5]]))
        assert block_multiset(form) == [(F(2),), (F(3),)]

    def test_residual_is_exactly_zero(self, rng):
        for _ in range(5):
            a = rational_matrix(rng, 4)
            form = frobenius_form(a)
            assert (form.S @ a) == (form.companion_sum() @ form.S)

    def test_similarity_invariance(self, rng):
        for _ in range(5):
            a = rational_matrix(rng, 4, num=3, den=1)
            while True:
                t = rational_matrix(rng, 4, num=3, den=1)
                try:
                    t_inv = t.inverse()
                    break
                except Exception:
                    continue
            assert block_multiset(frobenius_form(a)) == block_multiset(frobenius_form(t_inv @ a @ t))

    def test_prime_power_blocks(self):
        # J2(0) + J2(0): two x^2 blocks, not x^4 or (x^2, x, x)
        j2 = Matrix.exact([[0, 1], [0, 0]])
        form = frobenius_form(direct_sum(j2, j2))
        assert block_multiset(form) == [(F(0), F(0)), (F(0), F(0))]

    def test_minimal_polynomial(self):
        assert minimal_polynomial(Matrix.identity(3, "exact")) == Polynomial((F(1),))
        j2 = Matrix.exact([[0, 1], [0, 0]])
        assert minimal_polynomial(direct_sum(j2, Matrix.zeros(1, "exact"))) == Polynomial((F(0), F(0)))

    def test_inverse_is_carried(self, rng):
        for a in (rational_matrix(rng, 5), direct_sum(jordan(2, F(1)), companion(Polynomial((F(0), F(-1)))))):
            form = frobenius_form(a)
            assert form.S_inv @ form.S == Matrix.identity(a.n, "exact")


def jordan(m, lam):
    return Matrix.exact([[lam if i == j else F(int(j == i + 1)) for j in range(m)] for i in range(m)])


def unimodular(rng, n):
    """Seeded integer matrix of determinant 1 (unit upper times unit lower)."""
    upper = [[int(rng.integers(-2, 3)) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    lower = [[int(rng.integers(-2, 3)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    return Matrix.exact(upper) @ Matrix.exact(lower)


def poly_from_roots(*roots):
    return Polynomial.from_roots([F(r) for r in roots])


#: (input, its minimal polynomial): derogatory inputs, where the minimal
#: polynomial is a proper divisor of the characteristic polynomial
MINPOLY_CASES = {
    "identity-3": (Matrix.identity(3, "exact"), poly_from_roots(1)),
    "j2(0)+0": (direct_sum(jordan(2, F(0)), Matrix.zeros(1, "exact")), poly_from_roots(0, 0)),
    "j2+j2+j1": (
        direct_sum(jordan(2, F(3, 2)), jordan(2, F(3, 2)), jordan(1, F(3, 2))),
        poly_from_roots(F(3, 2), F(3, 2)),
    ),
    # (x - 1)^2 (x^2 + 1) (x^2 + 1): two coprime prime-power factors
    "coprime-factors": (
        direct_sum(jordan(2, F(1)), companion(Polynomial((F(0), F(-1)))), companion(Polynomial((F(0), F(-1))))),
        poly_mul(poly_from_roots(1, 1), Polynomial((F(0), F(-1)))),
    ),
    # e0 is an eigenvector (order x - 2) while e2 has order (x - 2)(x - 3)^2
    "low-order-e0": (Matrix.exact([[2, 1, 0], [0, 3, 1], [0, 0, 3]]), poly_from_roots(2, 3, 3)),
}


def _divides(f, g):
    return _pdivmod(_coeffs(g), _coeffs(f))[1] == [F(0)]


class TestMinimalPolynomial:
    def check_minimal(self, a, mp):
        n = a.n
        assert poly_eval_matrix(mp, a) == Matrix.zeros(n, "exact")
        for prime, _ in factor_prime_powers(mp):
            cofactor = _pdivmod(_coeffs(mp), _coeffs(prime))[0]
            if len(cofactor) > 1:  # a constant cofactor 1 evaluates to I
                assert not poly_eval_matrix(Polynomial.from_monic_coeffs(cofactor), a).is_zero()
        assert _divides(mp, a.char_poly())

    @pytest.mark.parametrize("name", sorted(MINPOLY_CASES))
    def test_derogatory(self, name):
        a, expected = MINPOLY_CASES[name]
        mp = minimal_polynomial(a)
        assert mp == expected
        self.check_minimal(a, mp)

    @pytest.mark.parametrize("name", sorted(MINPOLY_CASES))
    def test_hidden_by_unimodular_similarity(self, name):
        a, expected = MINPOLY_CASES[name]
        rng = np.random.default_rng(sorted(MINPOLY_CASES).index(name))
        t = unimodular(rng, a.n)
        t_inv = t.inverse()
        assert all(x.denominator == 1 for row in t_inv.rows() for x in row)
        hidden = t_inv @ a @ t
        mp = minimal_polynomial(hidden)
        assert mp == expected
        self.check_minimal(hidden, mp)

    def test_generic_input_is_cyclic(self, rng):
        for _ in range(5):
            a = rational_matrix(rng, 6)
            mp = minimal_polynomial(a)
            assert mp == a.char_poly()
            self.check_minimal(a, mp)

    def test_coprime_factors_take_the_primary_decomposition(self):
        a, _ = MINPOLY_CASES["coprime-factors"]
        rng = np.random.default_rng(7)
        t = unimodular(rng, a.n)
        hidden = t.inverse() @ a @ t
        form = frobenius_form(hidden)
        assert len(_components(hidden)) == 1
        assert len(factor_prime_powers(minimal_polynomial(hidden))) == 2
        assert block_multiset(form) == sorted([(F(2), F(-1)), (F(0), F(-1)), (F(0), F(-1))])
        assert form.S @ hidden == form.companion_sum() @ form.S


@st.composite
def vectors_under_matrices(draw):
    """(A, v): a zero-heavy rational A with mixed denominators at n <= 6,
    so that low-order vectors are frequent, and a nonzero integer v."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([F(0)] * 5 + [F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(5, 3)])
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    return a, v


class TestVectorOrder:
    @given(vectors_under_matrices())
    def test_matches_fraction_reference(self, case):
        # order and Krylov chain agree with the Fraction spin of tests/exactref.py
        a, v = case
        order, chain = _vector_order(_integer_grid(a), v)
        ref_coeffs, ref_chain = exactref.vector_order(a, v)
        assert _coeffs(order) == ref_coeffs
        den = _integer_grid(a)[1]
        assert [[F(x, den**j) for x in u] for j, u in enumerate(chain)] == ref_chain

    def test_wide_entries(self):
        # a rational n = 12 input and its ~400-bit Frobenius transform S
        a = rational_matrix(np.random.default_rng(101), 12, num=9, den=4)
        for m in (a, frobenius_form(a).S):
            grid = [list(r) for r in m.rows()]
            for i in (0, 5, 11):
                e = [int(j == i) for j in range(12)]
                order, _ = _vector_order(_integer_grid(grid), e)
                assert _coeffs(order) == exactref.vector_order(grid, e)[0]


@pytest.mark.parametrize("name", ["generic-8", "hidden-j3(1)+j2(1)+j1(1)"])
def test_frobenius_form_spins_each_standard_vector_once(name, monkeypatch):
    # minimal_polynomial spins e_0, e_1, ... and _cyclic_blocks reuses that
    # spin when the minimal polynomial is one prime power
    rng = np.random.default_rng(8)
    if name == "generic-8":
        a = rational_matrix(rng, 8)
    else:
        a = direct_sum(jordan(3, F(1)), jordan(2, F(1)), jordan(1, F(1)))
        t = unimodular(rng, a.n)
        a = t.inverse() @ a @ t
    assert len(_components(a)) == 1
    spun = []
    spin = exactcanon._vector_order

    def counting(m, v):
        spun.append((repr(getattr(m, "_d", m)), repr(v)))
        return spin(m, v)

    monkeypatch.setattr(exactcanon, "_vector_order", counting)
    form = frobenius_form(a)
    assert form.S @ a == form.companion_sum() @ form.S
    assert len(set(spun)) == len(spun)
    if name == "generic-8":
        assert len(spun) == 1  # e_0 is a cyclic vector


class TestFrozenThm1a:
    """thm1a outputs (V, D, W and the spectrum) of three seeded inputs, frozen
    before the exact layer moved to integer-kernel products and the
    vector-order minimal polynomial: a dyadic rounding of a Gaussian 5 x 5
    and small rationals p/q (|p| <= 9, 1 <= q <= 4) at n = 8 and n = 12.
    The exact pathway has one correct answer per input; these pin it."""

    CASES = json.loads((Path(__file__).parent / "data" / "thm1a_frozen.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
    def test_reproduced_literally(self, case):
        sp = involutory_diagonalizable_split(matrix_from_json(case["input"]))
        dec = Decomposition(kind=KIND_INV_DIAG, summands=[sp.V, sp.D])
        assert decomposition_to_json(dec) == case["decomposition"]
        assert matrix_to_json(sp.W) == case["W"]
        assert [str(x) for x in sp.spectrum] == case["spectrum"]


@st.composite
def hidden_jordan_sums(draw):
    """A direct sum of Jordan blocks J_m(lam), 1 <= m <= 3, lam in -2..2, at
    n <= 6, hidden by an integer unimodular similarity (unit upper times
    unit lower, off-diagonal entries in -2..2)."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), min_size=1, max_size=6))
    sizes = []
    for m, _ in blocks:
        if sum(sizes) + m > 6:
            break
        sizes.append(m)
    a = direct_sum(*[jordan(m, F(lam)) for m, (_, lam) in zip(sizes, blocks)])
    n = a.n
    entry = st.integers(-2, 2)
    upper = [[draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    lower = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    t = Matrix.exact(upper) @ Matrix.exact(lower)
    return t.inverse() @ a @ t


class TestHiddenJordanProperty:
    """thm1a on hidden direct sums of Jordan blocks: derogatory and
    non-cyclic inputs, where the Frobenius layer needs the primary
    decomposition and the Sylvester deflation of `_cyclic_blocks`."""

    @given(hidden_jordan_sums())
    def test_thm1a_identities_hold_literally(self, a):
        sp = involutory_diagonalizable_split(a)
        eye = Matrix.identity(a.n, "exact")
        assert sp.V @ sp.V == eye
        assert sp.V + sp.D == a
        assert sp.W.inverse() @ sp.D @ sp.W == Matrix.diag(sp.spectrum, "exact")


class TestInvolutorySplit:
    def test_frozen_quadratic(self):
        sp = involutory_split_companion(Polynomial((F(0), F(0))), [3, -1])
        assert sp.G == Matrix.exact([[1, -3], [0, -1]])
        assert sp.D == Matrix.exact([[-1, 3], [1, 1]])
        assert sp.D.char_poly() == Polynomial((F(0), F(4)))  # x^2 - 4

    def test_coefficient_matching(self):
        f = Polynomial((F(5), F(-6)))
        sp = involutory_split_companion(f, [7, 0])
        shifted = companion(f) - sp.G + Matrix.identity(2, "exact")
        assert shifted.char_poly() == Polynomial((F(7), F(0)))  # x(x - 7)

    def test_duplicate_lambdas_rejected(self):
        with pytest.raises(ValueError):
            involutory_split_companion(Polynomial((F(0), F(0))), [1, 1])

    def test_wrong_sum_rejected(self):
        with pytest.raises(ValueError):
            involutory_split_companion(Polynomial((F(0), F(0))), [3, 0])

    def test_structure_invariants(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 6))
            a = tuple(F(int(rng.integers(-4, 5))) for _ in range(m))
            f = Polynomial(a)
            lams = [F(k) for k in range(m - 1)]
            lams.append(a[0] + 2 - sum(lams))
            if len(set(lams)) != m:
                continue
            sp = involutory_split_companion(f, lams)
            ident = Matrix.identity(m, "exact")
            assert sp.G @ sp.G == ident
            assert sp.G + sp.D == companion(f)
            assert sp.R.inverse() @ sp.D @ sp.R == Matrix.diag([x - 1 for x in lams], "exact")


class TestExactSplit:
    def test_zero_matrix(self):
        sp = involutory_diagonalizable_split(Matrix.zeros(2, "exact"))
        assert sp.V @ sp.V == Matrix.identity(2, "exact")
        assert sp.V + sp.D == Matrix.zeros(2, "exact")
        assert is_squarefree(sp.D.char_poly())

    def test_jordan_block(self):
        a = Matrix.exact([[5, 1], [0, 5]])
        sp = involutory_diagonalizable_split(a)
        assert sp.V @ sp.V == Matrix.identity(2, "exact")
        assert sp.V + sp.D == a
        assert is_squarefree(sp.D.char_poly())
        assert sp.V.trace().denominator == 1

    def test_scalar_input(self):
        sp = involutory_diagonalizable_split(Matrix.exact([[7]]))
        assert sp.V == Matrix.exact([[1]])
        assert sp.D == Matrix.exact([[6]])

    def test_random_properties(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            a = rational_matrix(rng, n)
            sp = involutory_diagonalizable_split(a)
            ident = Matrix.identity(n, "exact")
            assert sp.V @ sp.V == ident
            assert sp.V + sp.D == a
            assert is_squarefree(sp.D.char_poly())
            assert sp.V.trace().denominator == 1
            assert sp.W.inverse() @ sp.D @ sp.W == Matrix.diag(sp.spectrum, "exact")

    def test_wrong_pathway_rejected(self):
        from coninv.matcore import PathwayMismatch

        with pytest.raises(PathwayMismatch):
            involutory_diagonalizable_split(Matrix.identity(2))


def test_squarefree_detection():
    assert is_squarefree(Polynomial((F(5), F(-6))))
    assert not is_squarefree(Polynomial((F(2), F(-1))))  # (x-1)^2


def test_polynomial_json_round_trip():
    from coninv.exactcanon import poly_from_json, poly_to_json

    f = Polynomial((F(5, 3), F(-6), F(1, 7)))
    doc = poly_to_json(f)
    assert doc == {"m": 3, "a": ["5/3", "-6", "1/7"]}
    assert poly_from_json(doc) == f


# ---------------------------------------------------------------------------
# factorization: the proof of irreducibility modulo small primes and
# Zassenhaus's algorithm, against sympy
# ---------------------------------------------------------------------------


def sympy_factors(c):
    """sympy's factorization over QQ of descending Fraction coefficients,
    each factor made monic, in the order factor_prime_powers returns."""
    import sympy

    poly = sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in c], sympy.symbols("x"), domain="QQ")
    out = []
    for factor, exp in poly.factor_list()[1]:
        coeffs = [F(q.p, q.q) for q in factor.all_coeffs()]
        out.append((Polynomial.from_monic_coeffs([v / coeffs[0] for v in coeffs]), int(exp)))
    return sorted(out, key=lambda pe: (pe[0].m, pe[0].a))


@st.composite
def factor_products(draw):
    """Descending coefficients of a monic product of random rational factors
    of total degree <= 16: integer and rational coefficients, large
    denominators, linear factors (rational roots) and repeated factors."""
    coeff = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 1, 1, 2, 3, 7, 2**40, 10**12 + 39]))
    c, budget = [F(1)], 16
    for _ in range(draw(st.integers(1, 4))):
        if not budget:
            break
        deg = draw(st.integers(1, budget))
        exp = draw(st.integers(1, min(3, budget // deg)))
        factor = [F(1)] + [draw(coeff) for _ in range(deg)]
        for _ in range(exp):
            c = _pmul(c, factor)
        budget -= deg * exp
    return c


@settings(max_examples=80)
@given(factor_products())
def test_factorization_matches_sympy(c):
    expected = sympy_factors(c)
    with mock.patch.object(exactcanon, "_sympy_factors", side_effect=AssertionError("sympy route taken")):
        assert factor_prime_powers(Polynomial.from_monic_coeffs(c)) == expected
    if len(expected) > 1 or expected[0][1] > 1:
        assert not _proven_irreducible(c)


def squarefree_mod(p, coeffs):
    """Ascending monic coefficients mod p made squarefree, or None."""
    g = [v % p for v in coeffs] + [1]
    derivative = [k * v % p for k, v in enumerate(g)][1:]
    while derivative and derivative[-1] == 0:
        derivative.pop()
    if not derivative or len(exactcanon._gcd_mod(g, derivative, p)) > 1:
        return None
    return g


@given(st.sampled_from([2, 3, 5, 113]), st.lists(st.integers(0, 200), min_size=1, max_size=12))
def test_factor_mod_gives_the_irreducible_factors(p, coeffs):
    g = squarefree_mod(p, coeffs)
    if g is None:
        return
    factors = _factor_mod(g, p)
    product = [1]
    for u in factors:
        assert u[-1] == 1 and _factor_degrees_mod(u, p) == [len(u) - 1]
        product = exactcanon._mul_mod(product, u, p)
    assert product == g
    assert sorted(len(u) - 1 for u in factors) == sorted(_factor_degrees_mod(g, p))


@pytest.mark.parametrize(
    "c",
    [
        [F(1), F(-10, 3), F(-1585, 36), F(1013, 4), F(-3161, 9)],
        [F(1), F(0), F(-10), F(0), F(1)],
        [F(1), F(1, 2**40), F(-7, 3), F(2), F(5, 7), F(-1)],
    ],
)
def test_hensel_lift_reproduces_the_integer_polynomial(c):
    g, scale = _integer_monic(c)
    d = len(c) - 1
    assert [F(x * scale**k, scale**d) for k, x in enumerate(g)] == c[::-1]
    used = 0
    for p in (5, 7, 11):
        gp = exactcanon._reduce_mod(g, p)
        if squarefree_mod(p, gp[:-1]) is None:
            continue
        used += 1
        modulus, product = 10**40, [1]
        for u in _factor_mod(gp, p):
            lifted, m = _hensel_lift(g, u, p, modulus)
            assert m > modulus and p ** round(math.log(m, p)) == m
            assert exactcanon._reduce_mod(lifted, p) == u and lifted[-1] == 1
            product = exactcanon._mul_mod(product, lifted, m)
        assert product == exactcanon._reduce_mod(g, m)
    assert used


@given(
    st.sampled_from([2, 3, 7, 113]),
    st.lists(st.integers(0, 200), max_size=12),
    st.lists(st.integers(0, 200), min_size=1, max_size=12),
)
def test_divmod_mod_reproduces_the_dividend(p, a, b):
    def strip(v):
        v = [x % p for x in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    if not b:
        b = [1]
    q, r = _divmod_mod(a, b, p)
    assert len(r) < len(b) and (not r or r[-1])
    back = [0] * max(len(a), len(r), len(q) + len(b) - 1)
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            back[i + j] += x * y
    for i, x in enumerate(r):
        back[i] += x
    assert strip(back) == a


def test_divmod_mod_of_a_shorter_dividend():
    assert _divmod_mod([1, 2], [3, 4, 1], 5) == ([], [1, 2])
    assert _divmod_mod([], [3, 4, 1], 5) == ([], [])


#: irreducible over Q but reducible modulo every prime, so no set of primes
#: proves them irreducible; and the minimal polynomial of a `real-exact`
#: benchmark input, (x - 4) times an irreducible cubic.  Zassenhaus settles
#: all four without sympy
GIVE_UP_CASES = {
    "x^4+1": [1, 0, 0, 0, 1],
    "x^4-10x^2+1": [1, 0, -10, 0, 1],
    "x^8-40x^6+352x^4-960x^2+576": [1, 0, -40, 0, 352, 0, -960, 0, 576],
    "rational-root-and-cubic": [1, F(-10, 3), F(-1585, 36), F(1013, 4), F(-3161, 9)],
}


@pytest.mark.parametrize("name", sorted(GIVE_UP_CASES))
def test_prover_gives_up_within_its_cap(name, monkeypatch):
    c = [F(v) for v in GIVE_UP_CASES[name]]
    primes, fallbacks = [], []
    degrees, fallback = exactcanon._factor_degrees_mod, exactcanon._sympy_factors
    monkeypatch.setattr(exactcanon, "_factor_degrees_mod", lambda g, p: primes.append(p) or degrees(g, p))
    monkeypatch.setattr(exactcanon, "_sympy_factors", lambda c: fallbacks.append(c) or fallback(c))
    assert not _proven_irreducible(c)
    assert 0 < len(primes) <= len(exactcanon.PROOF_PRIMES)
    assert factor_prime_powers(Polynomial.from_monic_coeffs(c)) == sympy_factors(c)
    assert not fallbacks


@pytest.mark.parametrize(
    "c",
    [
        [1, 0, 0, 0, 1],  # x^4 + 1 is (x + 1)^4 mod 2
        [1, -8, 22, -24, 9],  # (x - 1)^2 (x - 3)^2: no prime reduces a repeated factor squarefree
    ],
)
def test_sympy_only_without_a_squarefree_prime(c, monkeypatch):
    c = [F(v) for v in c]
    fallbacks, fallback = [], exactcanon._sympy_factors
    monkeypatch.setattr(exactcanon, "PROOF_PRIMES", (2,))
    monkeypatch.setattr(exactcanon, "_sympy_factors", lambda c: fallbacks.append(c) or fallback(c))
    assert factor_prime_powers(Polynomial.from_monic_coeffs(c)) == sympy_factors(c)
    # (x - 1)^2 (x - 3)^2 is the square of (x - 1)(x - 3), which is (x + 1)^2 mod 2
    assert fallbacks == [c]


#: a generic rational 6 x 6; its minimal polynomial is an irreducible sextic
GENERIC_6 = [
    ["-5", "-2/3", "-4", "0", "-1", "4/3"],
    ["1", "5/4", "3/2", "-1", "-5/2", "0"],
    ["-2/3", "1", "-1/3", "3", "2/3", "-4"],
    ["5/4", "-3/2", "-5/4", "-1/2", "-1/2", "3/2"],
    ["1", "4/3", "2", "-5/3", "5", "-1/3"],
    ["-3/2", "0", "-1", "1/2", "1/2", "-5/4"],
]


def run_cold(*argv):
    """A fresh interpreter with this checkout's sources first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_thm1a_cold_start_leaves_sympy_unloaded():
    mp = minimal_polynomial(Matrix.exact([[F(v) for v in row] for row in GENERIC_6]))
    assert mp.m == 6 and _proven_irreducible(_coeffs(mp))
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import coninv\n"
        f"a = coninv.Matrix.exact([[Fraction(v) for v in row] for row in {GENERIC_6!r}])\n"
        "coninv.involutory_diagonalizable_split(a)\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = run_cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: the small-rational 4 x 4 of `real-exact` seed 8, round 81: its minimal
#: polynomial is (x - 4) times an irreducible cubic
REDUCIBLE_4 = [
    ["2", "2", "-2/3", "-7"],
    ["1/2", "7/2", "4", "-8/3"],
    ["-5/3", "5/3", "-5/3", "-4"],
    ["-7/2", "7/2", "-4", "-1/2"],
]


def test_thm1a_on_a_reducible_minimal_polynomial_leaves_sympy_unloaded():
    mp = minimal_polynomial(Matrix.exact([[F(v) for v in row] for row in REDUCIBLE_4]))
    assert [(p.m, e) for p, e in factor_prime_powers(mp)] == [(1, 1), (3, 1)]
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import coninv\n"
        f"a = coninv.Matrix.exact([[Fraction(v) for v in row] for row in {REDUCIBLE_4!r}])\n"
        "coninv.involutory_diagonalizable_split(a)\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = run_cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_thm1a_cold_start_leaves_sympy_unloaded():
    doc = {"n": 6, "pathway": "exact", "entries": [v for row in GENERIC_6 for v in row]}
    proc = run_cold("-X", "importtime", "-m", "coninv.cli", "decompose", "--kind", "thm1a", "--json", json.dumps(doc))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certificate"]["pass"] is True
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "coninv.exactcanon" in imported
    assert not {name for name in imported if name.split(".")[0] == "sympy"}
