"""Exact canonical-form machinery over the rationals.

Companion matrices, the prime-power Frobenius form with an explicit
similarity transform, and the involutory-plus-diagonalizable split of
companion matrices behind thm1a.  Everything
here runs on the exact pathway: results are bit-exact rationals and the
defining residuals are asserted to be literally zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .matcore import (
    Matrix,
    PathwayMismatch,
    Polynomial,
    _eliminate,
    _integer_grid,
    _rref,
    _scatter,
    direct_sum,
)

# ---------------------------------------------------------------------------
# polynomial algebra over Fraction coefficient lists (descending, monic-ish)
# ---------------------------------------------------------------------------


def _coeffs(f: Polynomial) -> list[Fraction]:
    if not f.is_exact():
        raise PathwayMismatch("exact polynomial required")
    return [Fraction(c) for c in f.monic_coeffs()]


def _trim(c: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(c) - 1 and c[i] == 0:
        i += 1
    return c[i:]


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a0, b0 = _trim(list(a)), _trim(list(b))
    if b0 == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a0) < len(b0):
        return [Fraction(0)], a0
    rem = list(a0)
    qlen = len(a0) - len(b0) + 1
    q = [Fraction(0)] * qlen
    for i in range(qlen):
        f = rem[i] / b0[0]
        q[i] = f
        if f != 0:
            for j, y in enumerate(b0):
                rem[i + j] -= f * y
    r = _trim(rem[qlen:]) if len(rem) > qlen else [Fraction(0)]
    return q, r


def _pgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b != [Fraction(0)]:
        _, r = _pdivmod(a, b)
        a, b = b, r
    return [x / a[0] for x in a]  # monic


def _pderiv(a: list[Fraction]) -> list[Fraction]:
    m = len(a) - 1
    return _trim([c * (m - i) for i, c in enumerate(a[:-1])]) if m >= 1 else [Fraction(0)]


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    return Polynomial.from_monic_coeffs(_pmul(_coeffs(f), _coeffs(g)))


def is_squarefree(f: Polynomial) -> bool:
    c = _coeffs(f)
    return len(_pgcd(c, _pderiv(c))) == 1


def poly_eval_matrix(f: Polynomial, a: Matrix) -> Matrix:
    """Horner evaluation of f at a square matrix."""
    ident = Matrix.identity(a.n, a.pathway)
    acc = ident
    for c in f.a:
        acc = acc @ a - c * ident
    return acc


def poly_to_json(f: Polynomial) -> dict:
    return {"m": f.m, "a": [str(Fraction(c)) for c in f.a]}


def poly_from_json(d: dict) -> Polynomial:
    return Polynomial(tuple(Fraction(s) for s in d["a"]))


# ---------------------------------------------------------------------------
# companion matrices
# ---------------------------------------------------------------------------


def companion(f: Polynomial) -> Matrix:
    """Companion matrix: subdiagonal ones, last column (am, ..., a1)^T."""
    m = f.m
    a = [Fraction(c) for c in f.a]
    grid = [[Fraction(0)] * m for _ in range(m)]
    for i in range(1, m):
        grid[i][i - 1] = Fraction(1)
    for i in range(m):
        grid[i][m - 1] = a[m - 1 - i]
    return Matrix.exact(grid)


# ---------------------------------------------------------------------------
# exact rational factorization (pattern shortcuts, a proof of irreducibility
# from factor degrees modulo small primes, Zassenhaus over the integers, and
# sympy for what has no squarefree reduction modulo those primes)
# ---------------------------------------------------------------------------

#: primes tried in turn, both by `_proven_irreducible` before it gives up and
#: by `_zassenhaus` when it picks the prime to factor and lift at: all
#: primes below 114.  Measured: no irreducible polynomial among 1,441
#: minimal polynomials of `real-exact` rounds (seeds 1-12) and 9,000 random
#: cubic and quartic characteristic polynomials needed a prime past the 26th
PROOF_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)  # fmt: skip


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return pn * pn == x.numerator and pd * pd == x.denominator


def _is_power(c: list[Fraction], q: list[Fraction], k: int) -> bool:
    """Whether the monic c is q^k, for a monic q with deg c = k deg q.

    Read in reverse, q^k is the power Q^k of a series with Q(0) = 1, whose
    coefficients follow n P_n = sum_i ((k + 1) i - n) Q_i P_(n-i) (J. C. P.
    Miller's recurrence; the binomial expansion when q is linear).  So the
    coefficients are compared one at a time, and the first mismatch ends the
    comparison: a generic c fails within a few terms.
    """
    p = [Fraction(1)]
    for n in range(1, len(c)):
        term = sum(((k + 1) * i - n) * q[i] * p[n - i] for i in range(1, min(n, len(q) - 1) + 1)) / n
        if term != c[n]:
            return False
        p.append(term)
    return True


def _linear_power(c: list[Fraction]) -> list[tuple[list[Fraction], int]] | None:
    m = len(c) - 1
    q = [Fraction(1), c[1] / m]
    return [(q, m)] if _is_power(c, q, m) else None


def _quadratic_power(c: list[Fraction]) -> list[tuple[list[Fraction], int]] | None:
    m = len(c) - 1
    if m % 2 or m < 2:
        return None
    k = m // 2
    u = c[1] / k
    v = (c[2] - Fraction(k * (k - 1), 2) * u * u) / k
    q = [Fraction(1), u, v]
    if not _is_power(c, q, k) or _is_rational_square(u * u - 4 * v):
        return None  # not a power, or of a reducible quadratic the general factorizer splits
    return [(q, k)]


# Polynomials modulo m below are lists of ints in [0, m), in ascending
# order (index = power), with no zero leading coefficient; [] is zero.  m is
# a prime p, or a power of p where the divisor is monic.


def _reduce_mod(v: list[int], p: int) -> list[int]:
    """Integer coefficients v as a polynomial modulo p."""
    v = [x % p for x in v]
    while v and v[-1] == 0:
        v.pop()
    return v


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce_mod(out, p)


def _add_mod(polys: list[list[int]], p: int) -> list[int]:
    width = max(len(v) for v in polys)
    return _reduce_mod([sum(col) for col in zip(*(v + [0] * (width - len(v)) for v in polys))], p)


def _sub_mod(a: list[int], b: list[int], p: int) -> list[int]:
    return _add_mod([a, [-x for x in b]], p)


def _symmetric(v: list[int], m: int) -> list[int]:
    """Coefficients modulo m as the integers of least absolute value."""
    return [x - m if 2 * x > m else x for x in v]


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo p; b nonzero, monic unless p is prime."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem, q = list(a), [0] * max(len(a) - db, 0)
    for s in range(len(a) - 1 - db, -1, -1):
        f = q[s] = rem[s + db] * inv % p
        if f:
            rem[s : s + db] = [r - f * y for r, y in zip(rem[s : s + db], b)]
    return q, _reduce_mod(rem[:db], p)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd over GF(p), not made monic: callers use its degree and divide by it."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return a


def _monic_mod(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _frobenius_matrix(g: list[int], p: int) -> np.ndarray:
    """The matrix of h -> h^p on GF(p)[x]/(g), g monic: column j is x^(jp)
    mod g.  Its columns come from the matrix of multiplication by x^p, the
    p-th power of g's companion."""
    d = len(g) - 1
    # entries stay below p, so a product sums d terms below p^2: no int64 wrap
    times_x = np.zeros((d, d), dtype=np.int64)
    times_x[np.arange(1, d), np.arange(d - 1)] = 1
    times_x[:, -1] = [-v % p for v in g[:d]]
    times_xp, e = np.eye(d, dtype=np.int64), p
    while e:
        if e & 1:
            times_xp = times_xp @ times_x % p
        e >>= 1
        times_x = times_x @ times_x % p
    frob = np.empty((d, d), dtype=np.int64)
    col = np.eye(d, dtype=np.int64)[0]
    for j in range(d):
        frob[:, j] = col
        col = times_xp @ col % p
    return frob


def _factor_degrees_mod(g: list[int], p: int) -> list[int]:
    """Degrees of the irreducible factors over GF(p) of a monic squarefree g.

    Distinct-degree factorization: gcd(rest, x^(p^i) - x) collects the
    factors of degree i once those of lower degree are divided out, and
    what is left once 2(i + 1) exceeds its degree is irreducible.
    x^(p^i) mod g comes from x^(p^(i-1)) through `_frobenius_matrix`.
    """
    d = len(g) - 1
    frob = _frobenius_matrix(g, p)
    degrees, rest, i = [], g, 0
    power = (np.arange(d) == 1).astype(np.int64)  # x mod g; unused when d = 1
    while 2 * (i + 1) <= len(rest) - 1:
        i += 1
        power = frob @ power % p
        shifted = power.tolist()
        shifted[1] -= 1
        common = _gcd_mod(rest, _reduce_mod(shifted, p), p)
        if len(common) > 1:
            degrees += [i] * ((len(common) - 1) // i)
            rest = _divmod_mod(rest, common, p)[0]
    if len(rest) > 1:
        degrees.append(len(rest) - 1)
    return degrees


def _nullspace_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {v : rows v = 0} over GF(p), by reduction to echelon form."""
    m, width, pivots = [list(r) for r in rows], len(rows[0]), []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = -m[i][free] % p
        basis.append(v)
    return basis


def _factor_mod(g: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors over GF(p) of a monic squarefree g.

    Berlekamp: the v with v^p = v mod g form a space whose dimension is the
    number of factors, and each factor u of g is the product over c in
    GF(p) of gcd(u, v - c).  Splitting by every basis vector in turn
    separates all factors; no step is random.
    """
    d = len(g) - 1
    fixed = (_frobenius_matrix(g, p) - np.eye(d, dtype=np.int64)) % p
    kernel = _nullspace_mod(fixed.tolist(), p)
    factors = [g]
    for v in kernel:
        if len(factors) == len(kernel):
            break
        split = []
        for u in factors:
            if len(u) == 2:
                split.append(u)
                continue
            for c in range(p):
                common = _gcd_mod(u, _reduce_mod([v[0] - c] + v[1:], p), p)
                if len(common) > 1:
                    split.append(_monic_mod(common, p))
        factors = split
    return factors


def _bezout_mod(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t over GF(p) with s g + t h = 1, deg s < deg h and deg t < deg g,
    for coprime g and h (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return _reduce_mod([x * inv for x in s0], p), _reduce_mod([x * inv for x in t0], p)


def _hensel_lift(f: list[int], g: list[int], p: int, modulus: int) -> tuple[list[int], int]:
    """The monic factor of the monic integer f modulo p^(2^j) > modulus
    that reduces to g modulo p, and p^(2^j); f = g * (f / g) modulo p with
    coprime factors.

    Quadratic Hensel lifting (von zur Gathen and Gerhard, Algorithm 15.10):
    each step squares the modulus m and lifts the Bezout pair with it.
    """
    h = _divmod_mod(_reduce_mod(f, p), g, p)[0]
    s, t = _bezout_mod(g, h, p)
    m = p
    while m <= modulus:
        m *= m
        e = _sub_mod(f, _mul_mod(g, h, m), m)
        q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
        g = _add_mod([g, _mul_mod(t, e, m), _mul_mod(q, g, m)], m)
        h = _add_mod([h, r], m)
        b = _add_mod([_mul_mod(s, g, m), _mul_mod(t, h, m), [-1]], m)
        c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
        s = _sub_mod(s, d, m)
        t = _sub_mod(_sub_mod(t, _mul_mod(t, b, m), m), _mul_mod(c, g, m), m)
    return g, m


def _exact_quotient(f: list[int], h: list[int]) -> list[int] | None:
    """f / h over the integers for monic h, or None when h does not divide f."""
    dh = len(h) - 1
    rem, q = list(f), [0] * (len(f) - dh)
    for s in range(len(f) - 1 - dh, -1, -1):
        q[s] = rem[s + dh]
        rem[s : s + dh] = [r - q[s] * y for r, y in zip(rem[s : s + dh], h)]
    return q if not any(rem[:dh]) else None


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1."""
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid - 1)
    return lo


def _integer_monic(c: list[Fraction]) -> tuple[list[int], int]:
    """Ascending coefficients of the monic integer D^d c(y / D) and D, for
    the monic rational c of degree d.  D^k must clear the denominator of
    the coefficient of x^(d-k); its k-th root does when it is an integer."""
    scale = 1
    for k, v in enumerate(c[1:], start=1):
        den, root = v.denominator, _iroot(v.denominator, k)
        scale = math.lcm(scale, root if root**k == den else den)
    return [int(v * scale**k) for k, v in reversed(list(enumerate(c)))], scale


def _degrees_mod_primes(c: list[Fraction]):
    """(p, factor degrees of c mod p) for each prime of PROOF_PRIMES that
    divides no denominator of c and leaves c squarefree mod p."""
    den = math.lcm(*(v.denominator for v in c))
    ints = [v.numerator * (den // v.denominator) for v in reversed(c)]
    for p in PROOF_PRIMES:
        if den % p == 0:
            continue
        inv = pow(den, -1, p)
        g = _reduce_mod([v * inv for v in ints], p)
        derivative = _reduce_mod([k * v for k, v in enumerate(g)][1:], p)
        if len(_gcd_mod(g, derivative, p)) > 1:
            continue  # not squarefree mod p: distinct-degree factorization does not apply
        yield p, _factor_degrees_mod(g, p)


def _subset_sums(degrees: list[int]) -> int:
    """Bit k set when some subset of the degrees sums to k."""
    sums = 1
    for k in degrees:
        sums |= sums << k
    return sums


def _prime_scan(c: list[Fraction]) -> tuple[int, int | None]:
    """The degrees a factor of the monic rational c over Q may still have
    (bit k for degree k), and the prime of fewest factors mod p among those
    scanned (None when no prime was usable).

    Cleared of denominators, c is an integer polynomial of the same degree
    d modulo any prime p not dividing its leading coefficient, and a factor
    of degree k over Q would reduce to a product of factors mod p whose
    degrees sum to k.  So a prime at which c is squarefree rules out every
    k that no subset of c's factor degrees there sums to, and once all of
    1..d-1 are ruled out, c is irreducible and the scan stops.
    """
    open_degrees, best, fewest = (1 << (len(c) - 1)) - 2, None, len(c)
    for p, degrees in _degrees_mod_primes(c):
        open_degrees &= _subset_sums(degrees)
        if len(degrees) < fewest:
            best, fewest = p, len(degrees)
        if not open_degrees:
            break
    return open_degrees, best


def _proven_irreducible(c: list[Fraction]) -> bool:
    """True when the monic rational c is proven irreducible over Q by its
    factor degrees modulo the primes of PROOF_PRIMES (`_prime_scan`).
    False means not proven, not reducible."""
    return not _prime_scan(c)[0]


def _squarefree_parts(c: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """(s_i, i) with c the product of the s_i^i, each s_i monic, squarefree
    and of positive degree, pairwise coprime (Musser's algorithm over Q)."""
    repeated = _pgcd(c, _pderiv(c))
    distinct = _pdivmod(c, repeated)[0]
    out, i = [], 1
    while len(distinct) > 1:
        deeper = _pgcd(distinct, repeated)
        part = _pdivmod(distinct, deeper)[0]
        if len(part) > 1:
            out.append((part, i))
        distinct, repeated, i = deeper, _pdivmod(repeated, deeper)[0], i + 1
    return out


def _zassenhaus(s: list[Fraction]) -> list[list[Fraction]] | None:
    """The monic irreducible factors over Q of the monic squarefree s, or
    None when no prime of PROOF_PRIMES leaves it squarefree.

    `_prime_scan` settles the irreducible s it can prove so.  Otherwise,
    Zassenhaus: s becomes the monic integer G = D^d s(y / D); G is factored
    modulo the prime with the fewest factors there, each factor is lifted
    to a modulus past twice Mignotte's bound 2^d ||G||_2 on the coefficients
    of any factor of G, and products of the lifted factors, fewest first,
    are tried as exact divisors of G; only products of a degree the scan
    left open can divide.
    """
    open_degrees, p = _prime_scan(s)
    if not open_degrees:
        return [s]
    if p is None:
        return None
    d = len(s) - 1
    g, scale = _integer_monic(s)
    bound = 2 ** (d + 1) * (math.isqrt(sum(v * v for v in g)) + 1)
    lifted = []
    for u in _factor_mod(_reduce_mod(g, p), p):
        factor, modulus = _hensel_lift(g, u, p, bound)
        lifted.append(_symmetric(factor, modulus))
    found, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in itertools.combinations(rest, size):
            h = [1]
            for i in subset:
                h = _mul_mod(h, lifted[i], modulus)
            h = _symmetric(h, modulus)
            if open_degrees >> (len(h) - 1) & 1 and (quotient := _exact_quotient(g, h)) is not None:
                found.append(h)
                g, rest = quotient, [i for i in rest if i not in subset]
                break
        else:
            size += 1
    found.append(g)
    return [[Fraction(h[j], scale ** (len(h) - 1 - j)) for j in reversed(range(len(h)))] for h in found]


def _sympy_factors(c: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    import sympy

    x = sympy.symbols("x")
    expr = sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in c], x, domain="QQ")
    _, factors = expr.factor_list()  # content + primitive factors; re-monicize
    out = []
    for poly, exp in factors:
        coeffs = [Fraction(q.p, q.q) for q in poly.all_coeffs()]
        out.append(([v / coeffs[0] for v in coeffs], int(exp)))
    return out


def _factor_over_q(c: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """c by `_zassenhaus`, or, when no prime reduces c squarefree (always so
    with a repeated factor), its squarefree parts each by `_zassenhaus`;
    sympy only for a part no prime of PROOF_PRIMES reduces squarefree, and
    then for all of c."""
    factors = _zassenhaus(c)
    if factors is not None:
        return [(f, 1) for f in factors]
    out = []
    for part, e in _squarefree_parts(c):
        factors = [part] if len(part) == 2 else _zassenhaus(part)
        if factors is None:
            return _sympy_factors(c)
        out += [(f, e) for f in factors]
    return out


def factor_prime_powers(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Factor a monic rational polynomial into (prime, exponent) pairs.

    Pure powers of a linear or irreducible quadratic factor are matched
    directly, and a polynomial proven irreducible by its factor degrees
    modulo small primes is its own factorization.  The rest is factored by
    Zassenhaus's algorithm at one of those primes, after a split into
    squarefree parts when it has repeated factors.  sympy's factorization
    over Q, imported then, is left for a part that none of the primes
    reduces squarefree.  Pairs are sorted by degree, then coefficients, and
    their product is checked to reproduce f on every route.
    """
    c = _coeffs(f)
    hit = _linear_power(c) or _quadratic_power(c) or _factor_over_q(c)
    out = sorted(
        ((Polynomial.from_monic_coeffs(p), e) for p, e in hit),
        key=lambda pe: (pe[0].m, tuple(pe[0].a)),
    )
    check = [Fraction(1)]
    for p, e in out:
        for _ in range(e):
            check = _pmul(check, _coeffs(p))
    if check != c:
        raise ArithmeticError("factorization failed to reproduce the input")
    return out


# ---------------------------------------------------------------------------
# exact dense linear algebra helpers
# ---------------------------------------------------------------------------


def _exact_nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right nullspace over Q (list of length-n vectors)."""
    n = m.n
    rows = [list(r) for r in m._d]
    pivots = _eliminate(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[ri][fc], rows[ri][pc])
        basis.append(v)
    return basis


def _vector_order(grid: tuple[list[list[int]], int], v: list[int]) -> tuple[Polynomial, list[list[int]]]:
    """Minimal monic annihilator of the integer vector v under A (the order
    of v), and its integer Krylov chain U_j = (dA)^j v for j below the order's
    degree; `grid` is A's integer grid (dA, d).

    Each U_j is reduced fraction-free against the echelon rows of the
    earlier ones while its expression in U_0, ..., U_j is tracked, and the
    joint content of the two is divided out; the first one that reduces to
    zero gives the dependency.  The spin stops there, so a vector of low
    order costs only a few products.
    """
    ia, den = grid
    reduced: list[tuple[list[int], list[int], int]] = []
    chain: list[list[int]] = []
    cur = v
    while True:
        w, expr = cur, [0] * len(reduced) + [1]
        for rw, rexpr, p in reduced:
            f = w[p]
            if f:
                g = math.gcd(rw[p], f)
                a, b = rw[p] // g, f // g
                w = [a * x - b * y for x, y in zip(w, rw)]
                expr = [a * x - b * y for x, y in zip(expr, rexpr)] + [a * x for x in expr[len(rexpr) :]]
                c = math.gcd(*w, *expr)
                if c > 1:
                    w, expr = [x // c for x in w], [x // c for x in expr]
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            # sum_k expr[k] d^k A^k v = 0, so A^e v = a1 A^(e-1) v + ... + ae v
            # with a_i = -expr[e - i] / (expr[e] d^i)
            e = len(expr) - 1
            return Polynomial(tuple(Fraction(-expr[e - i], expr[e] * den**i) for i in range(1, e + 1))), chain
        reduced.append((w, expr, piv))
        chain.append(cur)
        cur = [sum(map(mul, row, cur)) for row in ia]


def _apply(grid: tuple[list[list[int]], int], v: list[Fraction]) -> list[Fraction]:
    """A v for A's integer grid (dA, d), with integer dot products as in
    ``Matrix.__matmul__``."""
    ia, da = grid
    (iv,), dv = _integer_grid([v])
    den = da * dv
    return [Fraction(sum(map(mul, row, iv)), den) for row in ia]


def _standard_spins(a: Matrix, degree: int) -> tuple[list[Fraction], list[tuple[Polynomial, list[list[int]]]], int]:
    """Spin e_0, e_1, ... under A until the lcm of their orders reaches
    `degree` or the basis runs out.

    Returns the lcm (descending coefficients), each spin as (order, integer
    Krylov chain), and the denominator d of A's integer grid: the chain of
    e_i is A^j e_i = U_j / d^j.  With `degree` = n the lcm is the minimal
    polynomial, since a polynomial annihilates A exactly when it annihilates
    a basis.
    """
    n = a.n
    grid = (a._d, a._den)
    spins = []
    for i in range(n):
        order, chain = _vector_order(grid, [int(j == i) for j in range(n)])
        spins.append((order, chain))
        c = _coeffs(order)
        lcm = c if i == 0 else _pmul(lcm, _pdivmod(c, _pgcd(lcm, c))[0])
        if len(lcm) - 1 == degree:
            break
    return lcm, spins, grid[1]


def minimal_polynomial(a: Matrix) -> Polynomial:
    """Exact minimal polynomial: the lcm of the orders of the standard basis
    vectors, accumulated until the degree reaches n."""
    if a.pathway != "exact":
        raise PathwayMismatch("minimal_polynomial requires the exact pathway")
    return Polynomial.from_monic_coeffs(_standard_spins(a, a.n)[0])


# ---------------------------------------------------------------------------
# Frobenius form
# ---------------------------------------------------------------------------


@dataclass
class FrobeniusForm:
    """blocks[i] is the (prime-power) characteristic polynomial of the i-th
    companion block; S satisfies S A S^{-1} = direct-sum of companions, and
    S_inv is S^{-1}."""

    blocks: list[Polynomial]
    S: Matrix
    S_inv: Matrix

    def companion_sum(self) -> Matrix:
        return direct_sum(*[companion(f) for f in self.blocks])


def _components(a: Matrix) -> list[list[int]]:
    """Connected components of the symmetric nonzero pattern."""
    n = a.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if i != j and (a._d[i][j] != 0 or a._d[j][i] != 0):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _submatrix(a: Matrix, idx: list[int]) -> Matrix:
    return Matrix._grid([[a._d[i][j] for j in idx] for i in idx], a._den)


def _solve_sylvester_exact(c, y, x) -> list[list[Fraction]]:
    """Solve C Z - Z Y = -X over Q for the d x r rows Z, given the integer
    rows of the d x d C, the r x r Y and the d x r X over one common
    denominator, which cancels (consistency is guaranteed by the caller)."""
    d, r = len(c), len(y)
    nunk = d * r
    # row-major vec: vec(C Z) = kron(C, I) z ; vec(Z Y) = kron(I, Y^T) z
    rows = [[0] * (nunk + 1) for _ in range(nunk)]
    for i in range(d):
        for j in range(r):
            eq = rows[i * r + j]
            for k in range(d):
                eq[k * r + j] += c[i][k]
            for k in range(r):
                eq[i * r + k] -= y[k][j]
            eq[nunk] = -x[i][j]
    # echelon form of [M | b], then the particular solution with zero free unknowns
    pivots = _eliminate(rows, nunk)
    if any(row[nunk] for row in rows[len(pivots) :]):
        raise ArithmeticError("inconsistent Sylvester system")
    z = [Fraction(0)] * nunk
    for ri, col in enumerate(pivots):
        z[col] = Fraction(rows[ri][nunk], rows[ri][col])
    return [z[i * r : (i + 1) * r] for i in range(d)]


def _cyclic_blocks(
    m: Matrix, spins: list[tuple[Polynomial, list[list[int]]]], den: int
) -> tuple[Matrix, list[Polynomial]]:
    """Q and block polynomials with M = Q (direct-sum companions) Q^{-1}.

    Assumes the minimal polynomial of M is a prime power, so the orders of
    the standard basis vectors are powers of one prime and the first spin
    of maximal order (from ``_standard_spins(m, ...)``, with grid
    denominator `den`) is a maximal-order vector and its Krylov chain.
    """
    n = m.n
    if n == 0:
        raise ValueError("empty block")
    f, chain = max(spins, key=lambda s: s[0].m)
    d = f.m
    # the chain A^j v = U_j / den^j as integer rows over den^(d-1)
    top = den ** (d - 1)
    powers = [den ** (d - 1 - j) for j in range(d)]
    chain_rows = [[u[i] * c for u, c in zip(chain, powers)] for i in range(n)]
    if d == n:
        return Matrix._grid(chain_rows, top), [f]
    # the pivot columns of [chain | I] past the chain complete the chain
    # greedily with standard vectors to a basis P, and the right half of the
    # reduced [chain | I] is then P^{-1} (the rows are scaled by den^(d-1),
    # which leaves the reduced form as it is)
    aug = [row + [top * int(i == j) for j in range(n)] for i, row in enumerate(chain_rows)]
    pivots = _eliminate(aug, d + n)
    extra = [c - d for c in pivots[d:]]
    p = Matrix._grid([row + [top * int(i == j) for j in extra] for i, row in enumerate(chain_rows)], top)
    p_inv = Matrix._rows_over([row[d:] for row in aug], [row[c] for row, c in zip(aug, pivots)])
    b = p_inv @ m @ p
    upper, lower = b._d[:d], b._d[d:]
    if any(x for row in lower for x in row[:d]):
        raise ArithmeticError("Krylov span was not invariant")
    y_rows = [row[d:] for row in lower]
    z = _solve_sylvester_exact([row[:d] for row in upper], y_rows, [row[d:] for row in upper])
    y_blk = Matrix._grid(y_rows, b._den)
    # [[I, Z],[0, I]] absorbs the coupling block
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(d):
        t[i][d:] = z[i]
    _, y_spins, y_den = _standard_spins(y_blk, y_blk.n)
    q_sub, blocks = _cyclic_blocks(y_blk, y_spins, y_den)
    q = p @ Matrix.exact(t) @ direct_sum(Matrix.identity(d, "exact"), q_sub)
    return q, [f] + blocks


def frobenius_form(a: Matrix) -> FrobeniusForm:
    """Prime-power Frobenius form with similarity, verified exactly.

    Pipeline: split into connected direct-sum components, then per
    component a primary decomposition (kernels of prime powers of the
    minimal polynomial) followed by cyclic deflation inside each primary
    block.
    """
    if a.pathway != "exact":
        raise PathwayMismatch("frobenius_form requires the exact pathway")
    n = a.n
    comps = _components(a)
    blocks: list[Polynomial] = []
    # global Q assembled column-wise, A Q = Q (direct sum): for each primary
    # block, its rows (the component's), its columns, and its grid there
    pieces, off = [], 0
    for comp in comps:
        sub = _submatrix(a, comp)
        mp, spins, den = _standard_spins(sub, sub.n)
        factors = factor_prime_powers(Polynomial.from_monic_coeffs(mp))
        for prime, exp in factors:
            if len(factors) == 1:
                # mp(sub) = 0: the primary component is the whole component,
                # and the spins of the minimal polynomial are its spins
                kernel, primary = None, sub
            else:
                kernel = _exact_nullspace(poly_eval_matrix(_pow_poly(prime, exp), sub))
                primary = _restrict(sub, kernel)
                _, spins, den = _standard_spins(primary, prime.m * exp)
            q_sub, fblocks = _cyclic_blocks(primary, spins, den)
            # embed: primary coords -> component coords (the kernel basis) -> global coords
            grid, q_den = q_sub._d, q_sub._den
            if kernel is not None:
                basis, basis_den = _integer_grid(list(zip(*kernel)))
                grid = [[sum(map(mul, row, col)) for col in zip(*grid)] for row in basis]
                q_den *= basis_den
            pieces.append((comp, range(off, off + q_sub.n), grid, q_den))
            off += q_sub.n
            blocks.extend(fblocks)
    q = _scatter(n, pieces)
    s = q.inverse()
    form = FrobeniusForm(blocks=blocks, S=s, S_inv=q)
    if (s @ a) != (form.companion_sum() @ s):
        raise ArithmeticError("Frobenius residual is nonzero")  # pragma: no cover
    return form


def _pow_poly(p: Polynomial, e: int) -> Polynomial:
    c = [Fraction(1)]
    pc = _coeffs(p)
    for _ in range(e):
        c = _pmul(c, pc)
    return Polynomial.from_monic_coeffs(c)


def _restrict(a: Matrix, basis: list[list[Fraction]]) -> Matrix:
    """Matrix of A restricted to span(basis), in that basis (exact)."""
    k = len(basis)
    # RREF of [B | A B] for the n x k basis matrix B: its top k rows are [I | X]
    # with B X = A B
    imgs = [_apply((a._d, a._den), b) for b in basis]
    aug = [[b[i] for b in basis] + [img[i] for img in imgs] for i in range(a.n)]
    if len(_rref(aug, k)) < k:
        raise ArithmeticError("basis columns are dependent")
    if any(x != 0 for row in aug[k:] for x in row[k:]):
        raise ArithmeticError("span is not invariant")
    return Matrix.exact([row[k:] for row in aug[:k]])


# ---------------------------------------------------------------------------
# involutory + diagonalizable splits
# ---------------------------------------------------------------------------


@dataclass
class InvolutorySplit:
    """G is involutory (G^2 = I exactly); D = input - G; R diagonalizes
    D + I for the chosen spectrum."""

    G: Matrix
    D: Matrix
    lambdas: tuple
    R: Matrix


def involutory_split_companion(f: Polynomial, lambdas) -> InvolutorySplit:
    """Split companion(f) = G + D with G involutory and D similar to
    diag(lambda_i - 1), for pairwise distinct lambdas summing to a1 + 2."""
    lams = tuple(Fraction(x) for x in lambdas)
    m = f.m
    if m < 2:
        raise ValueError("companion split needs degree >= 2")
    if len(lams) != m:
        raise ValueError(f"need {m} lambda values, got {len(lams)}")
    if len(set(lams)) != m:
        raise ValueError("lambda values must be pairwise distinct")
    a = [Fraction(c) for c in f.a]
    if sum(lams) != a[0] + 2:
        raise ValueError(f"lambda values must sum to a1 + 2 = {a[0] + 2}")

    target = Polynomial.from_roots(lams)  # x^m - g1 x^(m-1) - ... - gm
    g = [Fraction(c) for c in target.a]
    # companion(f) - G + I must be the companion-type matrix of `target`:
    # its last column is (c_m, ..., c_2, a1+2) with c_j = g_j, so b_j = a_j - g_j.
    b = [a[j] - g[j] for j in range(1, m)]  # b_2, ..., b_m

    grid = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    grid[m - 1][m - 1] = Fraction(-1)
    for i in range(m - 1):
        grid[i][m - 1] = b[m - 2 - i]  # row 0 -> b_m, row m-2 -> b_2
    gmat = Matrix.exact(grid)
    fmat = companion(f)
    d = fmat - gmat

    ident = Matrix.identity(m, "exact")
    if gmat @ gmat != ident:
        raise ArithmeticError("constructed G is not involutory")  # pragma: no cover

    # eigenvectors of D + I by companion back-substitution, v[m-1] = 1
    last_col = [g[m - 1 - i] for i in range(m)]  # row 0 -> g_m, row m-1 -> g_1
    cols = []
    for lam in lams:
        v = [Fraction(0)] * m
        v[m - 1] = Fraction(1)
        for i in range(m - 1, 0, -1):
            v[i - 1] = lam * v[i] - last_col[i]
        cols.append(v)
    r = Matrix.exact([[cols[j][i] for j in range(m)] for i in range(m)])
    dpi = d + ident
    if (dpi @ r) != (r @ Matrix.diag(lams, "exact")):
        raise ArithmeticError("eigenvector residual is nonzero")  # pragma: no cover
    return InvolutorySplit(G=gmat, D=d, lambdas=lams, R=r)


@dataclass
class ExactSplit:
    """V + D = input with V^2 = I exactly; W^{-1} D W = diag(spectrum)."""

    V: Matrix
    D: Matrix
    W: Matrix
    spectrum: tuple


def _integer_stream():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def _distinct_values(count: int, total: Fraction, avoid: set[Fraction]) -> tuple[Fraction, ...]:
    """`count` pairwise-distinct rationals outside `avoid` summing to `total`;
    small integers first, the last slot absorbs the rest."""
    stream = _integer_stream()
    base: list[Fraction] = []
    while len(base) < count - 1:
        cand = next(stream)
        if cand not in avoid:
            base.append(cand)
    while True:
        last = total - sum(base)
        if last not in base and last not in avoid:
            return tuple(base + [last])
        while True:
            cand = next(stream)
            if cand not in avoid and cand not in base[:-1]:
                base[-1] = cand
                break


def _split_block(f: Polynomial, used: set[Fraction]) -> tuple[Matrix, Matrix, Matrix, tuple]:
    """G, D, R and the spectrum for one companion block: companion(f) = G + D
    with G involutory and R^{-1} D R = diag(spectrum).

    The spectrum is pairwise distinct and avoids `used` wherever the block
    allows: a scalar block [c] has only c - 1 and c + 1 to choose from and
    takes c - 1 unless that is used and c + 1 is not.
    """
    if f.m == 1:
        val = Fraction(f.a[0])
        sign = Fraction(-1) if (val - 1) in used and (val + 1) not in used else Fraction(1)
        return Matrix.exact([[sign]]), Matrix.exact([[val - sign]]), Matrix.identity(1, "exact"), (val - sign,)
    lams = _distinct_values(f.m, Fraction(f.a[0]) + 2, {u + 1 for u in used})
    split = involutory_split_companion(f, lams)
    return split.G, split.D, split.R, tuple(x - 1 for x in lams)


def involutory_diagonalizable_split(a: Matrix, reserved=()) -> ExactSplit:
    """Exact split of a rational matrix into involutory + diagonalizable.

    Runs the Frobenius form, splits each companion block with distinct
    rational spectrum choices (shared across blocks so the diagonalizable
    part has a squarefree characteristic polynomial whenever the scalar
    blocks allow it), and conjugates back.  1-by-1 inputs return ([1], A-1).
    `reserved` values are kept out of the chosen spectrum.
    """
    if a.pathway != "exact":
        raise PathwayMismatch("exact pathway required")
    used: set[Fraction] = {Fraction(x) for x in reserved}
    if a.n == 1:
        g, d, r, spectrum = _split_block(Polynomial((a[0, 0],)), used)
        return ExactSplit(V=g, D=d, W=r, spectrum=spectrum)
    comps = _components(a)
    if len(comps) > 1:
        return _split_by_components(a, comps, reserved)
    form = frobenius_form(a)
    v_blocks, w_blocks, spectrum = [], [], []
    for f in form.blocks:
        g, _, r, values = _split_block(f, used)
        v_blocks.append(g)
        w_blocks.append(r)
        spectrum.extend(values)
        used.update(values)
    s_inv = form.S_inv
    v = s_inv @ direct_sum(*v_blocks) @ form.S
    d = a - v
    w = s_inv @ direct_sum(*w_blocks)
    if v + d != a:
        raise ArithmeticError("split does not reconstruct the input")  # pragma: no cover
    return ExactSplit(V=v, D=d, W=w, spectrum=tuple(spectrum))


def _split_by_components(a: Matrix, comps: list[list[int]], reserved) -> ExactSplit:
    """Per-component recursion scattered back in place; direct-sum structure
    makes the global conjugations unnecessary."""
    n = a.n
    splits = []
    spectrum: list[Fraction] = [Fraction(0)] * n
    used: set[Fraction] = {Fraction(x) for x in reserved}
    for comp in comps:
        sp = involutory_diagonalizable_split(_submatrix(a, comp), reserved=tuple(used))
        for li, gi in enumerate(comp):
            spectrum[gi] = sp.spectrum[li]
        splits.append(sp)
        used.update(sp.spectrum)
    v, d, w = (
        _scatter(n, [(comp, comp, m._d, m._den) for comp, m in zip(comps, parts)])
        for parts in zip(*((sp.V, sp.D, sp.W) for sp in splits))
    )
    if v + d != a:
        raise ArithmeticError("split does not reconstruct the input")  # pragma: no cover
    return ExactSplit(V=v, D=d, W=w, spectrum=tuple(spectrum))
