import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
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
    _pdivmod,
    _pmul,
    _vector_order,
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

    @example([F(0)])
    @given(st.lists(st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 12, 2**41])), min_size=1, max_size=7))
    def test_matches_the_fraction_construction(self, coeffs):
        m = len(coeffs)
        grid = [[F(int(j == i - 1)) for j in range(m)] for i in range(m)]
        for i in range(m):
            grid[i][m - 1] = coeffs[m - 1 - i]
        c = companion(Polynomial(tuple(coeffs)))
        old = Matrix.exact(grid)
        assert (c._d, c._den) == (old._d, old._den)

    def test_pure_power_shape(self):
        c = companion(Polynomial((F(0), F(0), F(0))))
        assert c == Matrix.exact([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


class TestFrobenius:
    def test_distinct_scalars(self):
        # diag(2, 3) is cyclic: one block x^2 - 5x + 6
        form = frobenius_form(Matrix.diag([2, 3], "exact"))
        assert block_multiset(form) == [(F(5), F(-6))]

    def test_nilpotent_block(self):
        form = frobenius_form(Matrix.exact([[0, 1], [0, 0]]))
        assert block_multiset(form) == [(F(0), F(0))]

    def test_squarefree_companion_is_one_block(self):
        # a squarefree characteristic polynomial is not split into factors
        form = frobenius_form(Matrix.exact([[0, -6], [1, 5]]))
        assert block_multiset(form) == [(F(5), F(-6))]

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
        # J2(0) + J2(0): invariant factors x^2, x^2, not x^4 or (x^2, x, x)
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


def sympy_prime_factors(f):
    """The monic irreducible factors over Q of the Polynomial f, by sympy."""
    import sympy

    c = _coeffs(f)
    poly = sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in c], sympy.symbols("x"), domain="QQ")
    out = []
    for factor, _ in poly.factor_list()[1]:
        coeffs = [F(q.p, q.q) for q in factor.all_coeffs()]
        out.append([v / coeffs[0] for v in coeffs])
    return out


class TestMinimalPolynomial:
    def check_minimal(self, a, mp):
        n = a.n
        assert exactref.poly_eval_matrix(mp, a) == Matrix.zeros(n, "exact")
        for prime in sympy_prime_factors(mp):
            cofactor = _pdivmod(_coeffs(mp), prime)[0]
            if len(cofactor) > 1:  # a constant cofactor 1 evaluates to I
                assert not exactref.poly_eval_matrix(Polynomial.from_monic_coeffs(cofactor), a).is_zero()
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

    def test_coprime_factors_give_the_invariant_factors(self):
        # (x - 1)^2 (x^2 + 1) and x^2 + 1, not the three prime powers
        a, _ = MINPOLY_CASES["coprime-factors"]
        rng = np.random.default_rng(7)
        t = unimodular(rng, a.n)
        hidden = t.inverse() @ a @ t
        form = frobenius_form(hidden)
        assert len(_components(hidden)) == 1
        assert len(sympy_prime_factors(minimal_polynomial(hidden))) == 2
        assert [tuple(f.a) for f in form.blocks] == [(F(2), F(-2), F(2), F(-1)), (F(0), F(-1))]
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


@pytest.mark.parametrize("name", ["generic-8", "hidden-j3(1)+j2(1)+j1(1)", "hidden-coprime-factors"])
def test_frobenius_form_spins_each_standard_vector_once(name, monkeypatch):
    # the spins of e_0, e_1, ... that give the minimal polynomial also give
    # the cyclic vector, also when the minimal polynomial is reducible
    rng = np.random.default_rng(8)
    if name == "generic-8":
        a = rational_matrix(rng, 8)
    else:
        if name == "hidden-coprime-factors":
            a = MINPOLY_CASES["coprime-factors"][0]
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
def unimodulars(draw, n):
    """An integer n x n matrix of determinant 1: unit upper times unit
    lower, off-diagonal entries in -2..2."""
    entry = st.integers(-2, 2)
    upper = [[draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    lower = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    return Matrix.exact(upper) @ Matrix.exact(lower)


@st.composite
def hidden_jordan_sums(draw):
    """A direct sum of Jordan blocks J_m(lam), 1 <= m <= 3, lam in -2..2, at
    n <= 6, hidden by an integer unimodular similarity."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), min_size=1, max_size=6))
    sizes = []
    for m, _ in blocks:
        if sum(sizes) + m > 6:
            break
        sizes.append(m)
    a = direct_sum(*[jordan(m, F(lam)) for m, (_, lam) in zip(sizes, blocks)])
    t = draw(unimodulars(a.n))
    return t.inverse() @ a @ t


class TestHiddenJordanProperty:
    """thm1a on hidden direct sums of Jordan blocks: derogatory and
    non-cyclic inputs, where the Frobenius layer needs the Sylvester
    deflation of `_cyclic_blocks`."""

    @given(hidden_jordan_sums())
    def test_thm1a_identities_hold_literally(self, a):
        sp = involutory_diagonalizable_split(a)
        eye = Matrix.identity(a.n, "exact")
        assert sp.V @ sp.V == eye
        assert sp.V + sp.D == a
        assert sp.W.inverse() @ sp.D @ sp.W == Matrix.diag(sp.spectrum, "exact")


@st.composite
def several_eigenvalue_sums(draw):
    """(A, T): a direct sum of Jordan blocks J_m(lam), 1 <= m <= 3, with at
    least two distinct lam in -2..2, at n <= 7, either block diagonal as it
    is (no e_i is then a cyclic vector) or hidden by an integer unimodular
    similarity; and a unimodular T of the same size."""
    blocks = draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), min_size=2, max_size=5).filter(
            lambda b: len({lam for _, lam in b}) > 1 and sum(m for m, _ in b) <= 7
        )
    )
    a = direct_sum(*[jordan(m, F(lam)) for m, lam in blocks])
    if draw(st.booleans()):
        t = draw(unimodulars(a.n))
        a = t.inverse() @ a @ t
    return a, draw(unimodulars(a.n))


class TestInvariantFactors:
    """`frobenius_form` gives the invariant factors: a divisibility chain
    from the minimal polynomial whose product is the characteristic
    polynomial, the same for every matrix similar to A."""

    @example((Matrix.diag([2, 3, 3], "exact"), Matrix.identity(3, "exact")))
    @given(several_eigenvalue_sums())
    def test_blocks_are_the_invariant_factors(self, case):
        a, t = case
        form = frobenius_form(a)
        blocks = form.blocks
        assert all(_divides(g, f) for f, g in zip(blocks, blocks[1:]))
        assert blocks[0] == minimal_polynomial(a)
        product = [F(1)]
        for f in blocks:
            product = _pmul(product, _coeffs(f))
        assert Polynomial.from_monic_coeffs(product) == a.char_poly()
        assert form.S @ a == form.companion_sum() @ form.S
        assert frobenius_form(t.inverse() @ a @ t).blocks == blocks


def lower_bidiagonal_hidden(sizes, lam):
    """J_m(lam) for m in sizes, summed and hidden by the unit lower
    bidiagonal T = I + (ones below the diagonal), which leaves one component."""
    a = direct_sum(*[jordan(m, F(lam)) for m in sizes])
    t = Matrix.exact([[int(j in (i, i - 1)) for j in range(a.n)] for i in range(a.n)])
    return t.inverse() @ a @ t


@pytest.mark.parametrize("lam", range(-2, 3))
@pytest.mark.parametrize(
    "sizes", [(2, 1), (3, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (4, 1), (3, 3, 1), (2, 1, 1, 1)], ids=str
)
def test_thm1a_scalar_blocks_choose_first(sizes, lam):
    # each 1-by-1 block [lam] has only lam - 1 and lam + 1 to choose from, so
    # the spectrum can be pairwise distinct when at most two blocks are 1-by-1;
    # the larger blocks once chose first and took those values
    a = lower_bidiagonal_hidden(sizes, lam)
    assert len(_components(a)) == 1
    sp = involutory_diagonalizable_split(a)
    assert sp.V @ sp.V == Matrix.identity(a.n, "exact")
    assert sp.V + sp.D == a
    assert sp.W.inverse() @ sp.D @ sp.W == Matrix.diag(sp.spectrum, "exact")
    if sum(f.m == 1 for f in frobenius_form(a).blocks) <= 2:
        assert len(set(sp.spectrum)) == a.n


@pytest.mark.parametrize("lam", range(-2, 3))
@pytest.mark.parametrize(
    "sizes", [(2, 1), (3, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (4, 1), (3, 3, 1), (2, 1, 1, 1)], ids=str
)
def test_thm1a_scalar_components_choose_first(sizes, lam):
    # the unit upper bidiagonal T = I + (ones above the diagonal) leaves a
    # permuted direct sum; a 1-by-1 component [lam] once split after a larger
    # component that had taken both lam - 1 and lam + 1
    a = direct_sum(*[jordan(m, F(lam)) for m in sizes])
    t = Matrix.exact([[int(j in (i, i + 1)) for j in range(a.n)] for i in range(a.n)])
    a = t.inverse() @ a @ t
    sp = involutory_diagonalizable_split(a)
    assert sp.V @ sp.V == Matrix.identity(a.n, "exact")
    assert sp.V + sp.D == a
    assert sp.W.inverse() @ sp.D @ sp.W == Matrix.diag(sp.spectrum, "exact")
    if sizes.count(1) <= 2:
        assert len(set(sp.spectrum)) == a.n


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


@st.composite
def companion_split_cases(draw):
    """(f, lambdas) for `involutory_split_companion`: f of degree 2..6 over
    one denominator, and pairwise distinct fractional lambdas summing to
    a1 + 2, whose denominators (2^41 among them) need not be f's."""
    m = draw(st.integers(2, 6))
    fden = draw(st.sampled_from([1, 3, 2**41]))
    a = [F(draw(st.integers(-9, 9)), fden) for _ in range(m)]
    lam = st.builds(F, st.integers(-20, 20), st.sampled_from([1, 2, 5, 6, 2**41]))
    lams = draw(st.lists(lam, min_size=m - 1, max_size=m - 1, unique=True))
    lams.append(a[0] + 2 - sum(lams))
    return Polynomial(tuple(a)), lams


class TestIntegerCompanionSplit:
    """The integer companion split returns the G, D and R of the `Fraction`
    split it replaced (tests/exactref.py), entry for entry."""

    @example((Polynomial((F(0), F(0))), [F(3), F(-1)]))
    @example((Polynomial((F(5, 3), F(-6))), [F(1, 2**41), F(11, 3) - F(1, 2**41)]))
    @example((Polynomial((F(1, 2**41), F(3), F(-7, 2**41))), [F(1, 3), F(-2, 5), F(2) + F(1, 2**41) + F(1, 15)]))
    @given(companion_split_cases())
    def test_matches_fraction_reference(self, case):
        f, lams = case
        if len(set(lams)) < len(lams):
            with pytest.raises(ValueError):
                involutory_split_companion(f, lams)
            return
        sp = involutory_split_companion(f, lams)
        ref = exactref.involutory_split_companion(f, lams)
        for new, old in ((sp.G, ref.G), (sp.D, ref.D), (sp.R, ref.R)):
            assert (new._d, new._den) == (old._d, old._den)
        assert sp.lambdas == ref.lambdas


def counted_exact_inverses(monkeypatch) -> list[int]:
    """The sizes of the exact matrices `Matrix.inverse` is called on from
    now on."""
    calls = []
    inverse = Matrix.inverse

    def counting(self):
        if self.pathway == "exact":
            calls.append(self.n)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting)
    return calls


@st.composite
def repeated_eigenvalue_sums(draw):
    """J_m(lam) for two to four sizes m in 1..3 of one lam in -2..2, and
    perhaps one more block of another value, at n <= 8, hidden by an
    integer unimodular similarity: the Frobenius form has several blocks,
    often 1-by-1 ones."""
    lam = draw(st.integers(-2, 2))
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda s: sum(s) <= 6))
    parts = [jordan(m, F(lam)) for m in sizes]
    other = draw(st.none() | st.tuples(st.integers(1, 2), st.integers(-2, 2)))
    if other is not None:
        parts.append(jordan(other[0], F(other[1])))
    a = direct_sum(*parts)
    t = draw(unimodulars(a.n))
    return t.inverse() @ a @ t


class TestThm1aWithoutInverse:
    """thm1a conjugates its involutory blocks with rank-one corrections and
    never inverts the Frobenius transform; the form's S is computed only
    when read."""

    @pytest.mark.parametrize("name", ["cyclic-8", "hidden-j3(1)+j2(1)+j1(1)"])
    def test_no_exact_inverse(self, name, monkeypatch):
        if name == "cyclic-8":
            a = rational_matrix(np.random.default_rng(8), 8)
        else:
            a = lower_bidiagonal_hidden((3, 2, 1), 1)
        assert len(_components(a)) == 1
        blocks = frobenius_form(a).blocks
        assert len(blocks) == (1 if name == "cyclic-8" else 3)
        calls = counted_exact_inverses(monkeypatch)
        sp = involutory_diagonalizable_split(a)
        assert calls == []
        monkeypatch.undo()
        assert sp.V @ sp.V == Matrix.identity(a.n, "exact")
        assert sp.V + sp.D == a
        assert sp.W.inverse() @ sp.D @ sp.W == Matrix.diag(sp.spectrum, "exact")

    @pytest.mark.parametrize("name", ["rational-6", "hidden-j2(0)+j2(0)+j1(0)"])
    def test_S_is_lazy_and_computed_once(self, name, monkeypatch):
        if name == "rational-6":
            a = rational_matrix(np.random.default_rng(6), 6)
        else:
            a = lower_bidiagonal_hidden((2, 2, 1), 0)
        calls = counted_exact_inverses(monkeypatch)
        form = frobenius_form(a)
        assert calls == []
        s = form.S
        assert calls == [a.n]
        assert form.S is s
        assert calls == [a.n]
        monkeypatch.undo()
        assert s == form.S_inv.inverse()
        assert s @ a == form.companion_sum() @ s

    @example(lower_bidiagonal_hidden((3, 2, 1), 1), True)
    @example(lower_bidiagonal_hidden((2, 1, 1), -1), True)
    @example(lower_bidiagonal_hidden((3, 3, 1), 0), False)
    @given(repeated_eigenvalue_sums(), st.booleans())
    def test_v_is_the_conjugated_direct_sum(self, a, flip):
        # V = S_inv (direct sum of the blocks' G_k) S, the conjugation thm1a
        # made before; `reserved` = {c - 1} makes a 1-by-1 block [c] take G = [-1]
        assume(len(_components(a)) == 1)
        form = frobenius_form(a)
        scalars = [f.a[0] for f in form.blocks if f.m == 1]
        reserved = (scalars[0] - 1,) if flip and scalars else ()
        taken = []
        split_block = exactcanon._split_block

        def recording(f, used):
            out = split_block(f, used)
            taken.append(out[0])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactcanon, "_split_block", recording)
            sp = involutory_diagonalizable_split(a, reserved=reserved)
        # thm1a splits the 1-by-1 blocks first, each group in block order
        order = sorted(range(len(form.blocks)), key=lambda i: form.blocks[i].m > 1)
        g = dict(zip(order, taken))
        assert sp.V == form.S_inv @ direct_sum(*(g[i] for i in range(len(form.blocks)))) @ form.S
        if reserved:
            assert Matrix.exact([[-1]]) in taken


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


def run_cold(*argv):
    """A fresh interpreter with this checkout's sources first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


GENERIC_6 = [
    ["-5", "-2/3", "-4", "0", "-1", "4/3"],
    ["1", "5/4", "3/2", "-1", "-5/2", "0"],
    ["-2/3", "1", "-1/3", "3", "2/3", "-4"],
    ["5/4", "-3/2", "-5/4", "-1/2", "-1/2", "3/2"],
    ["1", "4/3", "2", "-5/3", "5", "-1/3"],
    ["-3/2", "0", "-1", "1/2", "1/2", "-5/4"],
]


def test_thm1a_cold_start_leaves_sympy_unloaded():
    mp = minimal_polynomial(Matrix.exact([[F(v) for v in row] for row in GENERIC_6]))
    assert mp.m == 6 and [len(p) - 1 for p in sympy_prime_factors(mp)] == [6]
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
    assert mp.m == 4 and sorted(len(p) - 1 for p in sympy_prime_factors(mp)) == [1, 3]
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



def test_exact_layer_runs_without_sympy():
    # with sympy unimportable, frobenius_form, thm1a and `coninv canonical
    # --kind frobenius` run on inputs whose minimal polynomials are
    # reducible: they once went to the polynomial factorizer
    x4_plus_1 = companion(Polynomial((F(0), F(0), F(0), F(-1))))
    t = unimodular(np.random.default_rng(3), 6)
    inputs = [
        t.inverse() @ direct_sum(x4_plus_1, jordan(2, F(1))) @ t,
        MINPOLY_CASES["coprime-factors"][0],
        Matrix.exact([[F(v) for v in row] for row in REDUCIBLE_4]),
    ]
    script = (
        "import json, sys\n"
        "sys.modules['sympy'] = None\n"
        "import coninv\n"
        "from coninv.cli import main\n"
        "blocks = []\n"
        f"for doc in {[matrix_to_json(a) for a in inputs]!r}:\n"
        "    a = coninv.matrix_from_json(doc)\n"
        "    form = coninv.frobenius_form(a)\n"
        "    split = coninv.involutory_diagonalizable_split(a)\n"
        "    assert split.V @ split.V == coninv.Matrix.identity(a.n, 'exact') and split.V + split.D == a\n"
        "    assert main(['canonical', '--kind', 'frobenius', '--json', json.dumps(doc)]) == 0\n"
        "    blocks.append(len(form.blocks))\n"
        "print(blocks)\n"
    )
    proc = run_cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[1, 2, 1]"  # invariant factor counts
