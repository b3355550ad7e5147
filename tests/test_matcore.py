import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coninv import (
    Matrix,
    Polynomial,
    Tolerance,
    char_poly,
    direct_sum,
    eigenvalues,
    matrix_from_json,
    matrix_to_json,
    real_linear_nullspace,
)
from coninv.matcore import (
    ConvergenceFailure,
    DimensionMismatch,
    MatrixError,
    PathwayMismatch,
    RANK_TOL,
    SingularMatrix,
    UnsupportedSize,
    _eliminate,
    _integer_grid,
    numerical_rank,
)

import exactref
from conftest import random_complex


class TestArith:
    def test_additive_inverse(self):
        eye = Matrix.identity(2)
        assert (eye + (-eye)).is_zero()

    def test_rotation_square(self):
        j = Matrix.floating([[0, 1], [-1, 0]])
        assert (j @ j) == Matrix.floating(-np.eye(2))

    def test_conj_product_of_involutory(self):
        # oracle: direct 2x2 multiplication of conj(C) C by hand
        c = [[1, 1], [0, -1]]
        expect = [
            [c[0][0] * c[0][0] + c[0][1] * c[1][0], c[0][0] * c[0][1] + c[0][1] * c[1][1]],
            [c[1][0] * c[0][0] + c[1][1] * c[1][0], c[1][0] * c[0][1] + c[1][1] * c[1][1]],
        ]
        assert expect == [[1, 0], [0, 1]]
        m = Matrix.floating(c)
        assert (m.conj() @ m) == Matrix.identity(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix.identity(2) @ Matrix.identity(3)

    def test_pathway_mismatch(self):
        with pytest.raises(PathwayMismatch):
            Matrix.identity(2) + Matrix.identity(2, "exact")

    def test_exact_arithmetic_is_exact(self):
        a = Matrix.exact([[F(1, 3), F(2, 7)], [F(-5, 11), F(1)]])
        b = a + a - a
        assert b == a
        third = (a * F(1, 3)) * 3
        assert third == a


def fraction_matmul(a, b):
    """Reference product: one Fraction multiply and add per term."""
    n = a.n
    return [[sum((a[i, k] * b[k, j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]


def seeded_rational(rng, n, dens):
    return Matrix.exact([[F(int(rng.integers(-50, 51)), int(rng.choice(dens))) for _ in range(n)] for _ in range(n)])


class TestExactMatmul:
    """The integer kernel of the exact product against the per-term
    Fraction reference: equal values, and every entry a reduced Fraction."""

    def check(self, a, b):
        prod = a @ b
        assert prod.rows() == fraction_matmul(a, b)
        for row in prod.rows():
            for x in row:
                assert type(x) is F

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_mixed_denominators(self, rng, n):
        for _ in range(3):
            self.check(seeded_rational(rng, n, [1, 2, 3, 4, 6, 12]), seeded_rational(rng, n, [1, 5, 10, 25]))

    def test_coprime_denominators(self, rng):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        a = seeded_rational(rng, 6, primes)
        b = seeded_rational(rng, 6, primes[::-1])
        self.check(a, b)
        self.check(b, a)

    def test_zero_rows_and_columns(self, rng):
        a = seeded_rational(rng, 5, [1, 3, 7]).rows()
        b = seeded_rational(rng, 5, [2, 9]).rows()
        a[2] = [F(0)] * 5
        for row in b:
            row[3] = F(0)
        a, b = Matrix.exact(a), Matrix.exact(b)
        self.check(a, b)
        prod = (a @ b).rows()
        assert prod[2] == [0] * 5
        assert [row[3] for row in prod] == [0] * 5
        self.check(a, Matrix.zeros(5, "exact"))

    def test_one_by_one_and_negatives(self):
        self.check(Matrix.exact([[F(-3, 4)]]), Matrix.exact([[F(-8, 9)]]))
        assert Matrix.exact([[F(-3, 4)]]) @ Matrix.exact([[F(-8, 9)]]) == Matrix.exact([[F(2, 3)]])

    def test_cancellation_reduces(self):
        a = Matrix.exact([[F(1, 6), F(1, 3)], [F(-1, 2), F(5, 4)]])
        b = Matrix.exact([[F(3), F(-2, 5)], [F(3, 2), F(1, 5)]])
        assert (a @ b).rows() == [[F(1), F(0)], [F(3, 8), F(9, 20)]]
        self.check(a, b)


def assert_canonical(m):
    """The stored pair of an exact matrix: integer rows over a positive
    denominator that shares no factor with every entry; zero at den 1."""
    rows, den = m._d, m._den
    assert type(rows) is tuple and all(type(r) is tuple and len(r) == m.n for r in rows) and len(rows) == m.n
    assert all(type(x) is int for r in rows for x in r)
    assert type(den) is int and den > 0
    assert math.gcd(den, *itertools.chain.from_iterable(rows)) == 1
    if not any(map(any, rows)):
        assert den == 1


#: numerators with zeros and signs, denominators with coprime primes and
#: shared factors, and integers past the 53 bits of a double; an entry is
#: drawn as a Fraction, an int, or the string "p/q" that need not be reduced
NUMERATORS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, -12, 35, 97, -210, 2**70 + 1, -(3**45)])
DENOMINATORS = st.sampled_from([1, 1, 2, 3, 4, 5, 6, 7, 12, 49, 60, 10**30 + 57])


@st.composite
def exact_entries(draw):
    p, q = draw(NUMERATORS), draw(DENOMINATORS)
    form = draw(st.sampled_from(["fraction", "string", "int"]))
    if form == "fraction":
        return F(p, q)
    if form == "string":
        return f"{p}/{q}"
    return p


@st.composite
def exact_matrices(draw, n=None):
    n = n if n is not None else draw(st.integers(1, 5))
    return Matrix.exact([[draw(exact_entries()) for _ in range(n)] for _ in range(n)])


@st.composite
def exact_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(exact_matrices(n)), draw(exact_matrices(n))


SCALARS = st.builds(F, NUMERATORS, DENOMINATORS) | NUMERATORS


class TestExactGridProperties:
    """Every exact kernel against per-entry Fraction references, and the
    canonical pair after every operation."""

    @given(exact_pairs())
    def test_matmul(self, pair):
        a, b = pair
        prod = a @ b
        assert_canonical(prod)
        assert prod.rows() == fraction_matmul(a, b)

    @given(exact_pairs())
    def test_add_and_sub(self, pair):
        a, b = pair
        ra, rb = a.rows(), b.rows()
        total, diff = a + b, a - b
        assert_canonical(total)
        assert_canonical(diff)
        assert total.rows() == [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)]
        assert diff.rows() == [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)]
        assert_canonical(a - a)
        assert (a - a) == Matrix.zeros(a.n, "exact")

    @given(exact_matrices(), SCALARS)
    def test_negation_scaling_transpose(self, a, c):
        rows = a.rows()
        for m, ref in (
            (-a, [[-x for x in r] for r in rows]),
            (a * c, [[F(c) * x for x in r] for r in rows]),
            (c * a, [[F(c) * x for x in r] for r in rows]),
            (a.transpose(), [list(col) for col in zip(*rows)]),
        ):
            assert_canonical(m)
            assert m.rows() == ref

    @given(exact_pairs())
    def test_equality_is_value_equality(self, pair):
        a, b = pair
        assert (a == b) == (a.rows() == b.rows())
        same = Matrix.exact([[f"{x.numerator * 6}/{x.denominator * 6}" for x in r] for r in a.rows()])
        assert_canonical(same)
        assert same == a and (same._d, same._den) == (a._d, a._den)

    @given(exact_matrices())
    def test_inverse(self, a):
        n = a.n
        ref = [r + [F(int(i == j)) for j in range(n)] for i, r in enumerate(a.rows())]
        if len(exactref.rref(ref, n)) < n:
            with pytest.raises(SingularMatrix):
                a.inverse()
            return
        inv = a.inverse()
        assert_canonical(inv)
        assert inv.rows() == [r[n:] for r in ref]
        assert a @ inv == Matrix.identity(n, "exact")

    @given(exact_matrices())
    def test_floats_are_those_of_the_fractions(self, a):
        rows = a.rows()
        arr = a.to_array()
        assert np.array_equal(arr, np.array([[float(x) for x in r] for r in rows], dtype=complex))
        assert not np.any(arr.imag)
        assert a.frobenius_norm() == float(np.sqrt(sum(float(x) ** 2 for r in rows for x in r)))
        assert a.max_abs() == max(abs(float(x)) for r in rows for x in r)
        assert a.trace() == sum(rows[i][i] for i in range(a.n))
        assert a.is_zero() == all(x == 0 for r in rows for x in r)

    @given(exact_matrices())
    def test_json_round_trip(self, a):
        doc = matrix_to_json(a)
        assert doc["entries"] == [str(x) for r in a.rows() for x in r]
        back = matrix_from_json(json.loads(json.dumps(doc)))
        assert_canonical(back)
        assert back == a

    @given(exact_matrices())
    def test_json_reads_unreduced_entries(self, a):
        doc = matrix_to_json(a)
        doc["entries"] = [f"{(k + 2) * x.numerator}/{(k + 2) * x.denominator}" for k, x in enumerate(map(F, doc["entries"]))]
        back = matrix_from_json(doc)
        assert_canonical(back)
        assert back == a

    def test_constructors_are_canonical(self):
        for m in (
            Matrix.zeros(3, "exact"),
            Matrix.identity(3, "exact"),
            Matrix.diag([F(1, 2), F(0), F(-4, 6)], "exact"),
            Matrix.exact([[F(0), "0/7"], [0, F(0, 5)]]),
            Matrix.exact([["2/4", "6/4"], [1, "-10/20"]]),
            direct_sum(Matrix.exact([[F(1, 2)]]), Matrix.zeros(2, "exact"), Matrix.exact([[F(2, 3)]])),
        ):
            assert_canonical(m)
        assert Matrix.exact([[F(0), "0/7"], [0, F(0, 5)]])._den == 1
        assert Matrix.exact([["2/4", "6/4"], [1, "-10/20"]])._d == ((1, 3), (2, -1))


class TestExactConstructors:
    """`Matrix.exact` and `Matrix.diag` take any `numbers.Rational`, numpy
    integers included, and store Python integers; floats and complex
    numbers are refused."""

    def test_numpy_integer_array(self):
        m = Matrix.exact(np.array([[1, 2], [3, 4]]))
        assert_canonical(m)
        assert m == Matrix.exact([[1, 2], [3, 4]])

    def test_numpy_integer_entries(self):
        m = Matrix.exact([[np.int64(1), 2], [np.uint8(3), np.int16(4)]])
        assert_canonical(m)
        assert m == Matrix.exact([[1, 2], [3, 4]])
        assert m * np.int64(3) == Matrix.exact([[3, 6], [9, 12]])

    def test_numpy_integers_do_not_wrap(self):
        m = Matrix.exact(np.array([[2**62, 1], [0, 1]]))
        assert (m @ m)[0, 0] == 2**124
        assert Matrix.diag(np.array([2**62, 3]), "exact").trace() == 2**62 + 3

    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), 0.5j, np.complex128(1), np.float32(2)], ids=repr)
    def test_floats_and_complex_refused(self, bad):
        with pytest.raises(PathwayMismatch, match="requires rational entries"):
            Matrix.exact([[bad, 0], [0, 1]])
        with pytest.raises(PathwayMismatch, match="requires rational entries"):
            Matrix.diag([1, bad], "exact")

    def test_float_array_refused(self):
        with pytest.raises(PathwayMismatch, match="requires rational entries"):
            Matrix.exact(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @given(st.lists(exact_entries(), max_size=6))
    def test_diag_matches_the_fraction_construction(self, values):
        n = len(values)
        old = Matrix.exact([[values[i] if i == j else F(0) for j in range(n)] for i in range(n)])
        new = Matrix.diag(values, "exact")
        assert_canonical(new)
        assert (new.n, new._d, new._den) == (old.n, old._d, old._den)


class TestConj:
    def test_imag_flip(self):
        assert Matrix.floating([[1j]]).conj() == Matrix.floating([[-1j]])

    def test_real_fixed(self):
        a = Matrix.floating([[1, 2], [3, 4]])
        assert a.conj() == a

    def test_involution_and_multiplicativity(self, rng):
        for _ in range(10):
            a = random_complex(rng, 4)
            b = random_complex(rng, 4)
            assert a.conj().conj() == a
            assert ((a @ b).conj() - a.conj() @ b.conj()).frobenius_norm() < 1e-12


class TestInverse:
    def test_identity(self):
        assert Matrix.identity(3).inverse() == Matrix.identity(3)

    def test_diag(self):
        inv = Matrix.diag([2, -1], "exact").inverse()
        assert inv == Matrix.diag([F(1, 2), F(-1)], "exact")

    def test_unitriangular_multiply_back(self):
        a = Matrix.floating([[1, 1], [0, 1]])
        inv = a.inverse()
        assert (a @ inv - Matrix.identity(2)).frobenius_norm() < 1e-14
        assert np.allclose(inv.to_array(), [[1, -1], [0, 1]])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            Matrix.zeros(2).inverse()
        with pytest.raises(SingularMatrix):
            Matrix.exact([[1, 1], [1, 1]]).inverse()

    def test_random_multiply_back(self, rng):
        for _ in range(20):
            a = random_complex(rng, 5)
            if np.linalg.cond(a.to_array()) > 1e6:
                continue
            res = (a @ a.inverse() - Matrix.identity(5)).frobenius_norm()
            assert res <= Tolerance().bound(1.0)

    # the floating rule: SingularMatrix when sigma_min <= n eps sigma_max or
    # when LAPACK refuses; it has no scale

    @pytest.mark.parametrize(
        "rows",
        [np.zeros((3, 3)), [[1, 2, 3], [2, 4, 6], [1, 0, 1]]],
        ids=["zeros", "rank-2"],
    )
    def test_floating_singular(self, rows):
        with pytest.raises(SingularMatrix):
            Matrix.floating(rows).inverse()

    def test_lapack_refusal_is_singular(self, monkeypatch):
        def refuse(_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        with pytest.raises(SingularMatrix, match="Singular matrix"):
            Matrix.identity(3).inverse()

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_scale_free(self, rng, c):
        a = random_complex(rng, 4)
        ref = a.inverse().to_array()
        inv = (a * c).inverse().to_array()
        assert np.linalg.norm(inv * c - ref) <= 1e-12 * np.linalg.norm(ref)
        # an absolute pivot threshold would refuse a small multiple of I_3
        assert np.allclose((Matrix.identity(3) * c).inverse().to_array(), np.eye(3) / c, rtol=1e-15, atol=0)

    def test_ill_conditioned_nonsingular(self):
        # cond ~ 4e13 lies below 1 / (n eps), so A is invertible; a pivot
        # threshold of 1e-10 would refuse it
        a = Matrix.floating([[1, 1], [1, 1 + 1e-13]])
        cond = np.linalg.cond(a.to_array())
        res = np.linalg.norm((a @ a.inverse()).to_array() - np.eye(2), 2)
        assert res <= cond * 2 * np.finfo(float).eps

    def test_singular_message_has_no_division(self):
        with np.errstate(all="raise"):
            with pytest.raises(SingularMatrix, match="singular values 0.000e\\+00 and 0.000e\\+00"):
                Matrix.zeros(3).inverse()


def sympy_rref(rows):
    """Reference reduced row echelon form and pivot columns from sympy."""
    import sympy

    ref, pivots = sympy.Matrix(rows).rref()
    return [[F(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(ref.rows)], list(pivots)


def seeded_grid(rng, nrows, ncols, rank=None):
    """Seeded rational nrows x ncols grid; `rank` bounds its rank by making
    it a product of an nrows x rank and a rank x ncols factor."""
    def grid(r, c):
        return [[F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(c)] for _ in range(r)]

    if rank is None:
        return grid(nrows, ncols)
    left, right = grid(nrows, rank), grid(rank, ncols)
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0)) for j in range(ncols)] for i in range(nrows)]


def rref(rows, ncols):
    """`_eliminate`, the one Gauss-Jordan kernel of the exact pathway, on
    the Fraction `rows` cleared of denominators row by row, in place: the
    pivot rows come back divided by their pivots, the rows past the last
    pivot as the integer rows it left.  Returns the pivot columns."""
    ints = [_integer_grid([row])[0][0] for row in rows]
    pivots = _eliminate(ints, ncols)
    rows[:] = [[F(x, row[col]) for x in row] for row, col in zip(ints, pivots)]
    rows += [[F(x) for x in row] for row in ints[len(pivots) :]]
    return pivots


class TestRref:
    """The reduced row echelon form from `_eliminate` against sympy's."""

    def check(self, rows, ncols):
        reduced = [list(r) for r in rows]
        pivots = rref(reduced, ncols)
        ref, ref_pivots = sympy_rref([r[:ncols] for r in rows])
        assert pivots == ref_pivots
        assert [r[:ncols] for r in reduced] == ref
        for k, col in enumerate(pivots):
            assert col < ncols
            assert [r[col] for r in reduced] == [F(int(i == k)) for i in range(len(rows))]
        assert all(x == 0 for r in reduced[len(pivots) :] for x in r[:ncols])
        return reduced, pivots

    @pytest.mark.parametrize("shape", [(4, 4), (2, 6), (6, 2), (1, 5), (5, 1)], ids=str)
    def test_full_rank(self, rng, shape):
        for _ in range(3):
            _, pivots = self.check(seeded_grid(rng, *shape), shape[1])
            assert len(pivots) == min(shape)

    @pytest.mark.parametrize("shape,rank", [((5, 5), 3), ((3, 7), 2), ((7, 3), 1), ((6, 6), 5)], ids=str)
    def test_rank_deficient(self, rng, shape, rank):
        for _ in range(3):
            _, pivots = self.check(seeded_grid(rng, *shape, rank=rank), shape[1])
            assert len(pivots) == rank

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)], ids=str)
    def test_zero(self, shape):
        rows = [[F(0)] * shape[1] for _ in range(shape[0])]
        reduced, pivots = self.check(rows, shape[1])
        assert pivots == [] and reduced == rows

    def test_leading_zero_columns(self):
        rows = [[F(0), F(0), F(2), F(4)], [F(0), F(0), F(1), F(3)]]
        reduced, pivots = self.check(rows, 4)
        assert pivots == [2, 3]
        assert reduced == [[0, 0, 1, 0], [0, 0, 0, 1]]

    def test_inverse_rides_along(self, rng):
        for n in (1, 3, 6):
            a = seeded_grid(rng, n, n)
            aug = [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
            reduced, pivots = self.check(aug, n)
            assert pivots == list(range(n))
            inv = Matrix.exact([row[n:] for row in reduced])
            assert Matrix.exact(a) @ inv == Matrix.identity(n, "exact")

    def test_ride_along_columns_are_never_pivots(self, rng):
        # [A | I] with A singular: the full RREF would pivot in I, the kernel must not
        for shape, rank in (((4, 4), 2), ((5, 3), 1), ((3, 5), 2)):
            a = seeded_grid(rng, *shape, rank=rank)
            nrows, ncols = shape
            aug = [row + [F(int(i == j)) for j in range(nrows)] for i, row in enumerate(a)]
            reduced, pivots = self.check(aug, ncols)
            assert len(pivots) == rank
            # the rows are an invertible recombination of the input rows
            ref, _ = sympy_rref(aug)
            assert sympy_rref(reduced)[0] == ref
            # so the ride-along half of the zero rows is a left-kernel basis of A
            for row in reduced[rank:]:
                left = row[ncols:]
                assert any(left)
                assert [sum((left[i] * a[i][j] for i in range(nrows)), F(0)) for j in range(ncols)] == [0] * ncols

    def test_no_rows(self):
        assert rref([], 3) == []

    def test_singular_exact_inverse_still_raises(self, rng):
        with pytest.raises(SingularMatrix):
            Matrix.exact(seeded_grid(rng, 4, 4, rank=3)).inverse()


#: entries with mixed denominators, zero-heavy so that pivots are skipped
#: and rows cancel
MIXED = st.sampled_from([F(0)] * 4 + [F(1), F(-1), F(1, 2), F(-2, 3), F(5, 4), F(3), F(-7, 6), F(9, 8)])


@st.composite
def ride_along_systems(draw):
    """(rows, ncols): 0..7 rows of ncols + 0..3 entries, wide, tall or
    square; the first ncols columns are spanned by `rank` drawn rows, so
    rank-deficient and zero systems are frequent."""
    nrows, ncols, extra = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 3))
    rank = draw(st.integers(0, min(nrows, ncols)))
    basis = [[draw(MIXED) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coef = [draw(st.integers(-2, 2)) for _ in range(rank)]
        row = [sum((c * b[j] for c, b in zip(coef, basis)), F(0)) for j in range(ncols)]
        rows.append(row + [draw(MIXED) for _ in range(extra)])
    return rows, ncols


class TestRrefMatchesFractionReference:
    """The integer-row `_eliminate` returns the pivot rows of the Fraction
    elimination in `tests/exactref.py`, and the rows past the last pivot,
    ride-along columns included, up to a nonzero scale per row."""

    @staticmethod
    def check(rows, ncols):
        ours, ref = [list(r) for r in rows], [list(r) for r in rows]
        pivots = rref(ours, ncols)
        assert pivots == exactref.rref(ref, ncols)
        assert ours[: len(pivots)] == ref[: len(pivots)]
        for row, ref_row in zip(ours[len(pivots) :], ref[len(pivots) :]):
            j = next((j for j, x in enumerate(ref_row) if x), None)
            assert (j is None and not any(row)) or (row[j] and row == [row[j] / ref_row[j] * x for x in ref_row])

    @given(ride_along_systems())
    def test_random_systems(self, system):
        self.check(*system)

    def test_wide_frobenius_transform(self):
        # [S | I] and a tall variant with a dependent row for the ~400-bit
        # Frobenius transform S of a rational 12 x 12 input
        from coninv import frobenius_form

        rng = np.random.default_rng(101)
        a = Matrix.exact([[F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(12)] for _ in range(12)])
        s = frobenius_form(a).S.rows()
        assert max(x.denominator.bit_length() for r in s for x in r) > 300
        aug = [row + [F(int(i == j)) for j in range(12)] for i, row in enumerate(s)]
        self.check(aug, 12)
        self.check(aug + [[x + y for x, y in zip(aug[0], aug[5])]], 12)
        self.check([row[:6] + row[12:] for row in aug], 6)


class TestCharPoly:
    def test_companion_round_trip(self):
        from coninv import companion

        f = Polynomial((F(5), F(-6)))  # x^2 - 5x + 6
        assert companion(f).char_poly() == f

    def test_nilpotent(self):
        assert Matrix.zeros(2, "exact").char_poly() == Polynomial((F(0), F(0)))

    def test_diag_product_of_linears(self):
        f = Matrix.diag([2, 3], "exact").char_poly()
        assert f == Polynomial((F(5), F(-6)))

    def test_cayley_hamilton_exact(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            a = Matrix.exact(
                [[F(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(n)] for _ in range(n)]
            )
            f = a.char_poly()
            acc = Matrix.identity(n, "exact")
            for coeff in f.a:
                acc = acc @ a - coeff * Matrix.identity(n, "exact")
            assert acc.is_zero()


class TestEigenvalues:
    def test_diag(self):
        vals = eigenvalues(Matrix.diag([1, 2, 3]))
        assert sorted(v.real for v in vals) == pytest.approx([1, 2, 3])

    def test_rotation_spectrum(self):
        vals = eigenvalues(Matrix.floating([[0, 1], [-1, 0]]))
        assert sorted(v.imag for v in vals) == pytest.approx([-1, 1])
        assert max(abs(v.real) for v in vals) < 1e-12

    def test_triangular_repeat(self):
        vals = eigenvalues(Matrix.floating([[2, 1], [0, 2]]))
        assert [v.real for v in vals] == pytest.approx([2, 2])

    def test_matches_char_poly_roots(self, rng):
        for n in range(2, 9):
            a = random_complex(rng, n)
            vals = sorted(eigenvalues(a), key=lambda z: (z.real, z.imag))
            roots = sorted(np.roots(a.char_poly().monic_coeffs()), key=lambda z: (z.real, z.imag))
            for v, r in zip(vals, roots):
                assert abs(v - r) < 1e-6

    def test_guards(self):
        with pytest.raises(PathwayMismatch):
            eigenvalues(Matrix.identity(2, "exact"))
        with pytest.raises(UnsupportedSize):
            eigenvalues(Matrix.identity(17))


class TestRealLinearNullspace:
    def test_identity_operator_empty(self):
        assert real_linear_nullspace(np.eye(2)) == []

    def test_zero_operator_full(self):
        basis = real_linear_nullspace(np.zeros((2, 2)))
        assert len(basis) == 2

    def test_conjugation_fixed_points(self):
        # solutions of conj(S) * 1 = 1 * S for 1x1 S = x + iy reduce to y = 0
        op = np.array([[0.0, 0.0], [0.0, 2.0]])
        basis = real_linear_nullspace(op)
        assert len(basis) == 1
        assert abs(basis[0][1]) < 1e-12

    def test_basis_maps_below_tolerance(self, rng):
        op = rng.standard_normal((8, 8))
        op[:, 0] = op[:, 1]  # force a kernel
        for v in real_linear_nullspace(op):
            assert np.linalg.norm(op @ v) <= RANK_TOL.bound(np.linalg.norm(op, 2))


def test_svd_nonconvergence_is_typed(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    with pytest.raises(ConvergenceFailure):
        real_linear_nullspace(np.eye(2))
    with pytest.raises(ConvergenceFailure):
        numerical_rank(np.eye(2))


class TestJson:
    def test_floating_round_trip(self, rng):
        a = random_complex(rng, 3)
        assert matrix_from_json(matrix_to_json(a)) == a

    def test_exact_round_trip(self):
        a = Matrix.exact([[F(1, 3), F(-2)], [F(0), F(7, 5)]])
        doc = matrix_to_json(a)
        assert doc["pathway"] == "exact"
        assert doc["entries"][0] == "1/3"
        assert matrix_from_json(doc) == a

    def test_malformed(self):
        with pytest.raises(Exception):
            matrix_from_json({"n": 2, "pathway": "floating", "entries": [[0, 0]]})

    @pytest.mark.parametrize(
        "pathway, entry",
        [
            ("floating", [1.0]),  # was IndexError
            ("floating", 1.0),  # was TypeError
            ("floating", [1.0, 2.0, 3.0]),
            ("floating", "x"),
            ("exact", "1/0"),  # was ZeroDivisionError
            ("exact", None),
            ("exact", float("inf")),
        ],
    )
    def test_malformed_entry_is_named(self, pathway, entry):
        good = [0.0, 1.0] if pathway == "floating" else "1/2"
        doc = {"n": 2, "pathway": pathway, "entries": [good, good, entry, good]}
        with pytest.raises(MatrixError, match="entry 2"):
            matrix_from_json(doc)

    @pytest.mark.parametrize("doc", [{"n": "two", "pathway": "floating", "entries": []}, {"n": 1, "pathway": "floating", "entries": 5}])
    def test_malformed_document(self, doc):
        with pytest.raises(MatrixError):
            matrix_from_json(doc)

    EDGES = [0.0, -0.0, 1.0, -1.5, np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny, -np.finfo(float).tiny, 5e-324, -5e-324]

    @pytest.mark.parametrize("seed", range(4))
    def test_floating_wire_is_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        parts = rng.choice(np.array(self.EDGES + list(rng.standard_normal(6))), size=(2, n, n))
        arr = np.empty((n, n), dtype=complex)
        arr.real, arr.imag = parts  # x + 0j arithmetic would lose signed zeros
        a = Matrix.floating(arr)
        doc = matrix_to_json(a)
        reference = [[float(a._d[i, j].real), float(a._d[i, j].imag)] for i in range(n) for j in range(n)]
        assert json.dumps(doc["entries"]) == json.dumps(reference)
        back = matrix_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.to_array(), a.to_array())
        assert np.array_equal(np.signbit(back.to_array().real), np.signbit(parts[0]))
        assert np.array_equal(np.signbit(back.to_array().imag), np.signbit(parts[1]))


class TestTolerance:
    def test_bound_form(self):
        t = Tolerance(1e-8, 1e-8)
        assert t.bound(0.0) == pytest.approx(2e-8)
        assert t.bound(9.0) == pytest.approx(1e-8 + 1e-7)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            Tolerance(-1.0, 0.0)


def test_direct_sum_layout():
    a = direct_sum(Matrix.identity(1), Matrix.floating([[0, 1], [-1, 0]]))
    assert np.allclose(a.to_array(), [[1, 0, 0], [0, 0, 1], [0, -1, 0]])


def test_close_helper():
    from coninv.matcore import close

    a = Matrix.identity(3)
    b = Matrix.floating(np.eye(3) + 1e-12)
    assert close(a, b)
    assert not close(a, Matrix.floating(2 * np.eye(3)))


def test_polynomial_from_roots():
    f = Polynomial.from_roots([F(2), F(3)])
    assert f == Polynomial((F(5), F(-6)))
    assert f(F(2)) == 0 and f(F(3)) == 0 and f(F(0)) == 6
