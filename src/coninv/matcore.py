"""Dense square-matrix arithmetic over complex floats and exact rationals.

One carrier type, two pathways.  ``floating`` wraps a complex128 numpy
array; ``exact`` holds a real rational matrix, never rounded, as one
primitive integer grid over a positive common denominator.  The exact
kernels (products, sums, equality, the Gauss-Jordan elimination of
``inverse``) run on Python integers; :class:`fractions.Fraction` appears
only at the edges: entry access, ``rows()``, ``Matrix.exact`` input and the
JSON wire format.  The exact pathway is what the canonical-form machinery
runs on; the floating pathway carries everything consimilarity related.
Spectral primitives (eigenvalues, numerical nullspace, rank) are
floating-only and backed by LAPACK through numpy.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

import numpy as np

#: Interactive-scale cap for the spectral routines.
DESK_SCALE = 16

#: Default seed for every routine in the package that draws randomness.
DEFAULT_SEED = 0xC0571F


class MatrixError(ValueError):
    """Base class for matrix-level failures."""


class DimensionMismatch(MatrixError):
    pass


class PathwayMismatch(MatrixError):
    pass


class SingularMatrix(MatrixError):
    pass


class ConvergenceFailure(MatrixError):
    pass


class UnsupportedSize(MatrixError):
    """Input outside the supported (desk-scale or parity) envelope."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute + relative tolerance; effective bound is abs + rel*(1+ref)."""

    abs: float = 1e-8
    rel: float = 1e-8

    def __post_init__(self):
        if self.abs < 0 or self.rel < 0:
            raise ValueError("tolerance components must be nonnegative")

    def bound(self, ref: float) -> float:
        return self.abs + self.rel * (1.0 + ref)


#: Rank / nullspace decisions (singular-value threshold).
RANK_TOL = Tolerance(1e-10, 1e-10)

#: Default certification tolerance.
DEFAULT_TOL = Tolerance(1e-8, 1e-8)


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial f(x) = x^m - a1*x^(m-1) - ... - am.

    Only the trailing coefficients are stored, sign-flipped, i.e.
    ``a = (a1, ..., am)``.  Exact polynomials carry Fractions, floating
    ones Python complex/float.
    """

    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if len(self.a) < 1:
            raise ValueError("polynomial must have degree >= 1")

    @property
    def m(self) -> int:
        return len(self.a)

    def monic_coeffs(self) -> list:
        """Standard descending coefficients [1, -a1, ..., -am]."""
        one = Fraction(1) if self.is_exact() else 1.0
        return [one] + [-c for c in self.a]

    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.a)

    def __call__(self, x):
        acc = x * 0 + 1
        for c in self.a:
            acc = acc * x - c
        return acc

    @classmethod
    def from_monic_coeffs(cls, coeffs: Sequence) -> "Polynomial":
        """Build from [1, c1, ..., cm] (descending, monic)."""
        lead = coeffs[0]
        if lead != 1:
            raise ValueError("polynomial must be monic")
        return cls(tuple(-c for c in coeffs[1:]))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Polynomial":
        coeffs = [roots[0] * 0 + 1]
        for r in roots:
            coeffs = [c for c in coeffs] + [coeffs[0] * 0]
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = coeffs[i] - r * coeffs[i - 1]
        return cls.from_monic_coeffs(coeffs)


def _as_fraction(x) -> Fraction:
    """x as a Fraction of Python integers: any ``numbers.Rational`` (int,
    Fraction, numpy integers) or a string that Fraction parses.  Floats and
    complex numbers are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, str):
        return Fraction(x)
    raise PathwayMismatch(f"exact pathway requires rational entries, got {x!r}")


def _eliminate(ints: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place: bring the
    first `ncols` columns to reduced row echelon form up to a pivot per
    row, carrying any later columns along.

    Returns the pivot columns.  Pivot k sits in row k as the integer
    ``ints[k][col_k]``, and its row is zero on the other pivot columns, so
    dividing the row by that pivot gives the reduced row.  An update is
    a*row - b*pivot_row with (a, b) = (p, f) / gcd(p, f) for the pivot p and
    the row's entry f, and the row's content is divided out after each
    update, so the integers stay the size of the reduced fractions.
    """
    nrows = len(ints)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if ints[i][col]), None)
        if piv is None:
            continue
        ints[r], ints[piv] = ints[piv], ints[r]
        prow = ints[r]
        p = prow[col]
        for i in range(nrows):
            f = ints[i][col]
            if i != r and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(ints[i], prow)]
                c = math.gcd(*row) or 1
                ints[i] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
    return pivots


def _integer_grid(grid) -> tuple[list[list[int]], int]:
    """Integer rows and a common denominator whose quotient is the Fraction
    `grid`.  For reduced Fractions the pair is already canonical: no prime
    of the denominator divides every entry."""
    den = math.lcm(*(x.denominator for row in grid for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in grid], den


class Matrix:
    """Square matrix; ``pathway`` is ``"exact"`` or ``"floating"``.

    A floating matrix holds a complex128 array in ``_d``.  An exact matrix
    holds the integer rows ``_d`` (a tuple of tuples) and the denominator
    ``_den`` of A = _d / _den, kept canonical: _den > 0, gcd(_den, all
    entries) = 1, and the zero matrix at _den = 1.  So equal exact matrices
    have equal pairs.
    """

    __slots__ = ("n", "pathway", "_d", "_den")

    def __init__(self, n: int, pathway: str, data, den: int | None = None):
        self.n = n
        self.pathway = pathway
        self._d = data
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def floating(cls, rows) -> "Matrix":
        arr = np.array(rows, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected square array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MatrixError("non-finite entry")
        return cls(arr.shape[0], "floating", arr)

    @classmethod
    def exact(cls, rows) -> "Matrix":
        grid = [[_as_fraction(x) for x in row] for row in rows]
        n = len(grid)
        if any(len(r) != n for r in grid):
            raise DimensionMismatch("expected square grid")
        return cls._grid(*_integer_grid(grid))

    @classmethod
    def _grid(cls, rows, den: int) -> "Matrix":
        """The exact matrix rows / den, for square integer rows and den > 0,
        brought to the canonical pair by one joint gcd."""
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g > 1:
            den //= g
            return cls(len(rows), "exact", tuple(tuple(x // g for x in row) for row in rows), den)
        return cls(len(rows), "exact", tuple(map(tuple, rows)), den)

    @classmethod
    def _rows_over(cls, rows, dens, num: int = 1) -> "Matrix":
        """The exact matrix with row i = num * rows[i] / dens[i], for integer
        rows and nonzero integers dens."""
        den = math.lcm(*dens)
        return cls._grid([[x * (num * den // q) for x in row] for row, q in zip(rows, dens)], den)

    @classmethod
    def identity(cls, n: int, pathway: str = "floating") -> "Matrix":
        if pathway == "exact":
            return cls(n, "exact", tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)
        return cls.floating(np.eye(n))

    @classmethod
    def zeros(cls, n: int, pathway: str = "floating") -> "Matrix":
        if pathway == "exact":
            return cls(n, "exact", ((0,) * n,) * n, 1)
        return cls.floating(np.zeros((n, n)))

    @classmethod
    def diag(cls, values: Sequence, pathway: str = "floating") -> "Matrix":
        n = len(values)
        if pathway == "exact":
            (diagonal,), den = _integer_grid([[_as_fraction(x) for x in values]])
            return cls._grid([[x if i == j else 0 for j in range(n)] for i, x in enumerate(diagonal)], den)
        return cls.floating(np.diag(np.asarray(values, dtype=np.complex128)))

    # -- access --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        if self.pathway == "exact":
            return Fraction(self._d[i][j], self._den)
        return complex(self._d[i, j])

    def rows(self) -> list:
        if self.pathway == "exact":
            den = self._den
            return [[Fraction(x, den) for x in r] for r in self._d]
        return [[complex(x) for x in row] for row in self._d]

    def to_array(self) -> np.ndarray:
        """complex128 view of either pathway (copies); an exact entry is
        the correctly rounded quotient of integers, as in ``float(Fraction)``."""
        if self.pathway == "exact":
            den = self._den
            return np.array([[x / den for x in row] for row in self._d], dtype=np.complex128)
        return self._d.copy()

    def to_floating(self) -> "Matrix":
        return Matrix.floating(self.to_array())

    def rationalize(self, bits: int = 41) -> "Matrix":
        """Dyadic rounding of a (nearly) real floating matrix.

        Entries become k / 2^bits (error <= 2^-(bits+1), i.e. ~5e-13 at the
        default); power-of-two denominators keep the downstream exact
        arithmetic cheap.
        """
        if self.pathway == "exact":
            return self
        arr = self._d
        scale = 1 << bits
        return Matrix.exact(
            [
                [Fraction(round(float(arr[i, j].real) * scale), scale) for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        if self.pathway != other.pathway:
            raise PathwayMismatch(f"{self.pathway} vs {other.pathway}")

    def _rescaled(self, other: "Matrix") -> tuple[int, int, int]:
        """The lcm of the two denominators and the factors that bring each
        exact operand's integer rows to it."""
        den = math.lcm(self._den, other._den)
        return den, den // self._den, den // other._den

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.pathway == "exact":
            den, sa, sb = self._rescaled(other)
            return Matrix._grid(
                [[sa * x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(self._d, other._d)], den
            )
        return Matrix(self.n, "floating", self._d + other._d)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.pathway == "exact":
            den, sa, sb = self._rescaled(other)
            return Matrix._grid(
                [[sa * x - sb * y for x, y in zip(ra, rb)] for ra, rb in zip(self._d, other._d)], den
            )
        return Matrix(self.n, "floating", self._d - other._d)

    def __neg__(self) -> "Matrix":
        if self.pathway == "exact":
            return Matrix(self.n, "exact", tuple(tuple(-x for x in r) for r in self._d), self._den)
        return Matrix(self.n, "floating", -self._d)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product; bit-exact on the exact pathway.

        Exact operands are integer rows over a denominator, so the dot
        products run on Python integers and the whole product costs one
        joint gcd instead of one per entry.
        """
        self._check(other)
        n = self.n
        if self.pathway == "exact":
            bcols = list(zip(*other._d))
            return Matrix._grid(
                [[sum(map(mul, row, col)) for col in bcols] for row in self._d], self._den * other._den
            )
        return Matrix(n, "floating", self._d @ other._d)

    def __mul__(self, scalar) -> "Matrix":
        if self.pathway == "exact":
            s = _as_fraction(scalar)
            p = s.numerator
            return Matrix._grid([[p * x for x in r] for r in self._d], self._den * s.denominator)
        return Matrix(self.n, "floating", self._d * scalar)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix) or self.n != other.n or self.pathway != other.pathway:
            return False
        if self.pathway == "exact":
            return self._den == other._den and self._d == other._d
        return bool(np.array_equal(self._d, other._d))

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"Matrix(n={self.n}, pathway={self.pathway!r})"

    # -- structural ops --------------------------------------------------

    def conj(self) -> "Matrix":
        """Entrywise complex conjugate."""
        if self.pathway == "exact":
            return self
        return Matrix(self.n, "floating", np.conj(self._d))

    def transpose(self) -> "Matrix":
        if self.pathway == "exact":
            return Matrix(self.n, "exact", tuple(zip(*self._d)), self._den)
        return Matrix(self.n, "floating", self._d.T.copy())

    def trace(self):
        if self.pathway == "exact":
            return Fraction(sum(self._d[i][i] for i in range(self.n)), self._den)
        return complex(np.trace(self._d))

    def frobenius_norm(self) -> float:
        if self.pathway == "exact":
            den = self._den
            return float(np.sqrt(sum((x / den) ** 2 for row in self._d for x in row)))
        return float(np.linalg.norm(self._d, "fro"))

    def max_abs(self) -> float:
        if self.pathway == "exact":
            return max((abs(x) for row in self._d for x in row), default=0) / self._den
        return float(np.max(np.abs(self._d))) if self.n else 0.0

    def is_zero(self, tol: Tolerance | None = None) -> bool:
        if self.pathway == "exact":
            return not any(map(any, self._d))
        t = tol or RANK_TOL
        return self.max_abs() <= t.bound(0.0)

    def is_real(self, tol: float = 0.0) -> bool:
        if self.pathway == "exact":
            return True
        return float(np.max(np.abs(self._d.imag))) <= tol

    def real_part(self) -> "Matrix":
        if self.pathway == "exact":
            return self
        return Matrix.floating(self._d.real)

    def inverse(self) -> "Matrix":
        """Inverse.

        Exact pathway: Gauss-Jordan elimination, bit-exact, reducing the
        integer rows [R | I] of A = R / d with ``_eliminate``; pivot row k
        then reads [p_k e_k | X_k], so A^-1 has rows d X_k / p_k.  Raises
        SingularMatrix when A is singular.
        Floating pathway: one LAPACK ``inv``; raises SingularMatrix when
        sigma_min <= n eps sigma_max (numpy's ``matrix_rank`` default, a
        test with no scale) or when LAPACK meets an exactly zero pivot.
        """
        n = self.n
        if self.pathway == "exact":
            aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self._d)]
            if len(_eliminate(aug, n)) < n:
                raise SingularMatrix("exact matrix is singular")
            return Matrix._rows_over([row[n:] for row in aug], [row[k] for k, row in enumerate(aug)], self._den)
        try:
            sv = np.linalg.svd(self._d, compute_uv=False)
            if n and sv[-1] <= n * np.finfo(float).eps * sv[0]:
                raise SingularMatrix(f"singular values {sv[-1]:.3e} and {sv[0]:.3e}: condition beyond 1/(n eps)")
            return Matrix(n, "floating", np.linalg.inv(self._d))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(str(exc)) from exc

    def char_poly(self) -> Polynomial:
        """Characteristic polynomial via the Faddeev-LeVerrier recurrence.

        Exact on the exact pathway (the recurrence only divides by
        integers), floating otherwise.
        """
        ident = Matrix.identity(self.n, self.pathway)
        b = ident
        coeffs = [Fraction(1) if self.pathway == "exact" else 1.0 + 0j]
        for k in range(1, self.n + 1):
            ab = self @ b
            c = -ab.trace() / k
            coeffs.append(c)
            b = ab + c * ident
        return Polynomial.from_monic_coeffs(coeffs)


# -- free-function surface -------------------------------------------------


def char_poly(a: Matrix) -> Polynomial:
    return a.char_poly()


def direct_sum(*mats: Matrix) -> Matrix:
    """Block-diagonal direct sum; all parts must share a pathway."""
    if not mats:
        raise ValueError("direct_sum of nothing")
    pathway = mats[0].pathway
    if any(m.pathway != pathway for m in mats):
        raise PathwayMismatch("mixed pathways in direct_sum")
    n = sum(m.n for m in mats)
    if pathway == "exact":
        pieces, off = [], 0
        for m in mats:
            idx = range(off, off + m.n)
            pieces.append((idx, idx, m._d, m._den))
            off += m.n
        return _scatter(n, pieces)
    arr = np.zeros((n, n), dtype=np.complex128)
    off = 0
    for m in mats:
        arr[off : off + m.n, off : off + m.n] = m._d
        off += m.n
    return Matrix(n, "floating", arr)


def _scatter(n: int, pieces) -> Matrix:
    """The n x n exact matrix that holds, for each (rows, cols, grid, den)
    of `pieces`, the integer grid / den on those rows and columns, and zero
    elsewhere."""
    den = math.lcm(*(piece[3] for piece in pieces))
    out = [[0] * n for _ in range(n)]
    for rows, cols, grid, d in pieces:
        scale = den // d
        for gi, row in zip(rows, grid):
            for gj, x in zip(cols, row):
                out[gi][gj] = scale * x
    return Matrix._grid(out, den)


def close(a: Matrix, b: Matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Frobenius-norm closeness at tol.bound(||b||_F)."""
    return (a - b).frobenius_norm() <= tol.bound(b.frobenius_norm())


def eigenvalues(a: Matrix, max_n: int = DESK_SCALE) -> list[complex]:
    """Eigenvalues with multiplicity (floating pathway, desk scale).

    Backed by LAPACK's Hessenberg + shifted-QR driver; non-convergence is
    reported as ConvergenceFailure.
    """
    if a.pathway != "floating":
        raise PathwayMismatch("eigenvalues requires the floating pathway")
    if a.n > max_n:
        raise UnsupportedSize(f"n={a.n} exceeds desk-scale bound {max_n}")
    try:
        vals = np.linalg.eigvals(a._d)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
        raise ConvergenceFailure(str(exc)) from exc
    return [complex(v) for v in vals]


def real_linear_nullspace(op_matrix: np.ndarray, tol: Tolerance = RANK_TOL) -> list[np.ndarray]:
    """Orthonormal kernel basis of a real operator matrix at the rank tolerance.

    The operator is expected to encode a real-linear map on the stacked
    real coordinates of a complex unknown (2nm of them for an n-by-m
    matrix), but any real 2-D array is accepted.  An SVD that does not
    converge is reported as ConvergenceFailure.
    """
    op = np.asarray(op_matrix, dtype=float)
    if op.ndim != 2:
        raise DimensionMismatch("operator matrix must be 2-D")
    try:
        _, s, vh = np.linalg.svd(op)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    smax = float(s[0]) if len(s) else 0.0
    thresh = tol.abs + tol.rel * smax
    ncols = op.shape[1]
    rank = int(np.sum(s > thresh))
    return [vh[i].copy() for i in range(rank, ncols)]


def numerical_rank(arr: np.ndarray, tol: Tolerance = RANK_TOL) -> int:
    try:
        s = np.linalg.svd(np.asarray(arr, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if len(s) == 0:
        return 0
    thresh = tol.abs + tol.rel * float(s[0])
    return int(np.sum(s > thresh))


# -- JSON wire format -------------------------------------------------------


def matrix_to_json(a: Matrix) -> dict:
    """{"n":., "pathway":., "entries": row-major [[re,im],...] or "p/q"}."""
    if a.pathway == "exact":
        entries = [_wire_entry(x, a._den) for row in a._d for x in row]
    else:
        entries = np.stack((a._d.real, a._d.imag), -1).reshape(-1, 2).tolist()
    return {"n": a.n, "pathway": a.pathway, "entries": entries}


def matrix_from_json(d: dict) -> Matrix:
    """Inverse of `matrix_to_json`, bit for bit (signed zeros included);
    a malformed document or entry is a MatrixError that names it."""
    try:
        n = int(d["n"])
        pathway = d["pathway"]
        entries = d["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixError(f"malformed matrix JSON: {exc}") from exc
    if n < 1:
        raise MatrixError("matrix JSON requires n >= 1")
    if not isinstance(entries, (list, tuple)):
        raise MatrixError("matrix JSON entries must be a list")
    if len(entries) != n * n:
        raise MatrixError(f"expected {n * n} entries, got {len(entries)}")
    if pathway == "exact":
        pairs = [_rational_entry(k, e) for k, e in enumerate(entries)]
        den = math.lcm(*(q for _, q in pairs))
        grid = [[p * (den // q) for p, q in pairs[i * n : (i + 1) * n]] for i in range(n)]
        return Matrix._grid(grid, den)
    if pathway == "floating":
        return Matrix.floating(_float_pairs(entries).view(np.complex128).reshape(n, n))
    raise MatrixError(f"unknown pathway {pathway!r}")


_ENTRY_ERRORS = (TypeError, ValueError, ZeroDivisionError, OverflowError)


#: an exact entry as written by `matrix_to_json`: "p" or "p/q", q > 0
_WIRE_ENTRY = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _wire_entry(x: int, den: int) -> str:
    """str(Fraction(x, den)), without building the Fraction."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _rational_entry(k: int, e) -> tuple[int, int]:
    """Numerator and positive denominator of an exact entry: the wire form
    is parsed directly, anything else `Fraction` accepts goes through it."""
    match = _WIRE_ENTRY.fullmatch(e) if isinstance(e, str) else None
    if match:
        return int(match[1]), int(match[2] or 1)
    try:
        x = Fraction(e)
    except _ENTRY_ERRORS as exc:
        raise MatrixError(f"malformed matrix JSON: entry {k} is {e!r} ({exc})") from exc
    return x.numerator, x.denominator


def _float_pairs(entries) -> np.ndarray:
    """The [re, im] entries as one C-ordered float64 (len, 2) array."""
    try:
        arr = np.array(entries, dtype=np.float64)
        if arr.shape == (len(entries), 2):
            return arr
    except _ENTRY_ERRORS:
        pass
    for k, e in enumerate(entries):
        try:
            if np.array(e, dtype=np.float64).shape == (2,):
                continue
        except _ENTRY_ERRORS:
            pass
        raise MatrixError(f"malformed matrix JSON: entry {k} is {e!r}, not a [re, im] pair")
    raise MatrixError("malformed matrix JSON: entries are not [re, im] pairs")
