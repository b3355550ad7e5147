"""Exact canonical-form machinery over the rationals.

Companion matrices, the prime-power Frobenius form with an explicit
similarity transform, merging of coprime companion blocks, and the
involutory-plus-diagonalizable splits of companion matrices.  Everything
here runs on the exact pathway: results are bit-exact rationals and the
defining residuals are asserted to be literally zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .matcore import (
    Matrix,
    PathwayMismatch,
    Polynomial,
    _integer_grid,
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


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Monic gcd; None when the gcd is the constant 1."""
    d = _pgcd(_coeffs(f), _coeffs(g))
    if len(d) == 1:
        return None
    return Polynomial.from_monic_coeffs(d)


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
# exact rational factorization (pattern shortcuts, then sympy)
# ---------------------------------------------------------------------------


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return pn * pn == x.numerator and pd * pd == x.denominator


def _linear_power(c: list[Fraction]) -> list[tuple[list[Fraction], int]] | None:
    m = len(c) - 1
    root = -c[1] / m
    probe = [Fraction(1)]
    for _ in range(m):
        probe = _pmul(probe, [Fraction(1), -root])
    if probe == c:
        return [([Fraction(1), -root], m)]
    return None


def _quadratic_power(c: list[Fraction]) -> list[tuple[list[Fraction], int]] | None:
    m = len(c) - 1
    if m % 2 or m < 2:
        return None
    k = m // 2
    u = c[1] / k
    v = (c[2] - Fraction(k * (k - 1), 2) * u * u) / k
    q = [Fraction(1), u, v]
    if _is_rational_square(u * u - 4 * v):
        return None  # reducible quadratic; let the general factorizer split it
    probe = [Fraction(1)]
    for _ in range(k):
        probe = _pmul(probe, q)
    if probe == c:
        return [(q, k)]
    return None


def factor_prime_powers(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Factor a monic rational polynomial into (prime, exponent) pairs.

    Pure powers of a linear or irreducible quadratic factor are matched
    directly; everything else goes through sympy's factorization over Q.
    """
    c = _coeffs(f)
    for shortcut in (_linear_power, _quadratic_power):
        hit = shortcut(c)
        if hit is not None:
            return [(Polynomial.from_monic_coeffs(p), e) for p, e in hit]

    import sympy

    x = sympy.symbols("x")
    expr = sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in c], x, domain="QQ")
    _, factors = expr.factor_list()  # content + primitive factors; re-monicize
    out = []
    for poly, exp in factors:
        coeffs = [Fraction(q.p, q.q) for q in poly.all_coeffs()]
        if coeffs[0] != 1:
            scale = coeffs[0]
            coeffs = [v / scale for v in coeffs]
        out.append((Polynomial.from_monic_coeffs(coeffs), int(exp)))
    # deterministic order: degree, then coefficient tuple
    out.sort(key=lambda pe: (pe[0].m, tuple(pe[0].a)))
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
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, pc in enumerate(piv_cols):
            v[pc] = -rows[ri][fc]
        basis.append(v)
    return basis


class _Spin:
    """Incremental Krylov dependence detector with coefficient tracking."""

    def __init__(self, dim: int):
        self.dim = dim
        self.reduced: list[tuple[list[Fraction], list[Fraction]]] = []
        self.pivots: list[int] = []
        self.count = 0

    def push(self, vec: list[Fraction]) -> list[Fraction] | None:
        """Add a vector; returns dependency coefficients over the previously
        pushed vectors when the new one is dependent, else None."""
        v = list(vec)
        expr = [Fraction(0)] * self.count + [Fraction(1)]
        for (rv, rexpr), p in zip(self.reduced, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, rv)]
                grow = max(len(expr), len(rexpr))
                expr = [
                    (expr[i] if i < len(expr) else Fraction(0))
                    - f * (rexpr[i] if i < len(rexpr) else Fraction(0))
                    for i in range(grow)
                ]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            # dependent: expr has trailing coefficient 1 for the new vector
            return [-c for c in expr[:-1]]
        inv = 1 / v[piv]
        self.reduced.append(([x * inv for x in v], [c * inv for c in expr]))
        self.pivots.append(piv)
        self.count += 1
        return None


def _vector_order(m: Matrix, v: list[Fraction]) -> Polynomial:
    """Minimal monic annihilator of v under m (the order of v)."""
    spin = _Spin(m.n)
    cur = list(v)
    while True:
        dep = spin.push(cur)
        if dep is not None:
            # m^d v = dep[d-1] m^(d-1) v + ... + dep[0] v
            return Polynomial(tuple(reversed(dep)))
        cur = _apply(m, cur)


def _apply(m: Matrix, v: list[Fraction]) -> list[Fraction]:
    """m v, with integer dot products as in ``Matrix.__matmul__``."""
    im, dm = _integer_grid(m._d)
    (iv,), dv = _integer_grid([v])
    den = dm * dv
    return [Fraction(sum(map(mul, row, iv)), den) for row in im]


def minimal_polynomial(a: Matrix) -> Polynomial:
    """Exact minimal polynomial: the lcm of the orders of the standard basis
    vectors (a polynomial annihilates A exactly when it annihilates a basis),
    accumulated until the degree reaches n."""
    if a.pathway != "exact":
        raise PathwayMismatch("minimal_polynomial requires the exact pathway")
    n = a.n
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        order = _coeffs(_vector_order(a, e))
        mp = order if i == 0 else _pmul(mp, _pdivmod(order, _pgcd(mp, order))[0])
        if len(mp) - 1 == n:
            break
    return Polynomial.from_monic_coeffs(mp)


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
    return Matrix.exact([[a._d[i][j] for j in idx] for i in idx])


def _solve_sylvester_exact(c: Matrix, y: Matrix, x: Matrix) -> Matrix:
    """Solve C Z - Z Y = -X over Q (consistency is guaranteed by the caller)."""
    d, r = c.n, y.n
    nunk = d * r
    # row-major vec: vec(C Z) = kron(C, I) z ; vec(Z Y) = kron(I, Y^T) z
    rows = [[Fraction(0)] * (nunk + 1) for _ in range(nunk)]
    for i in range(d):
        for j in range(r):
            eq = rows[i * r + j]
            for k in range(d):
                eq[k * r + j] += c._d[i][k]
            for k in range(r):
                eq[i * r + k] -= y._d[k][j]
            eq[nunk] = -x._d[i][j]
    # exact RREF, then read a particular solution
    piv_of_col: dict[int, int] = {}
    rank = 0
    for col in range(nunk):
        piv = next((i for i in range(rank, nunk) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(nunk):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        piv_of_col[col] = rank
        rank += 1
    for i in range(rank, nunk):
        if rows[i][nunk] != 0:
            raise ArithmeticError("inconsistent Sylvester system")
    z = [Fraction(0)] * nunk
    for col, ri in piv_of_col.items():
        z[col] = rows[ri][nunk]
    return Matrix.exact([[z[i * r + j] for j in range(r)] for i in range(d)])


def _cyclic_blocks(m: Matrix, target_degree: int | None = None) -> tuple[Matrix, list[Polynomial]]:
    """Q and block polynomials with M = Q (direct-sum companions) Q^{-1}.

    Assumes the minimal polynomial of M is a prime power, so a maximal-order
    vector can be found among the standard basis vectors; when the minimal
    polynomial degree is known the scan stops at the first vector achieving it.
    """
    n = m.n
    if n == 0:
        raise ValueError("empty block")
    orders = []
    best = None
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        orders.append(_vector_order(m, e))
        if target_degree is not None and orders[-1].m == target_degree:
            best = i
            break
    if best is None:
        best = max(range(len(orders)), key=lambda i: orders[i].m)
    f = orders[best]
    d = f.m
    v = [Fraction(0)] * n
    v[best] = Fraction(1)
    cols = [v]
    for _ in range(d - 1):
        cols.append(_apply(m, cols[-1]))
    # greedily complete the Krylov chain to a basis with standard vectors
    spin = _Spin(n)
    for cvec in cols:
        if spin.push(cvec) is not None:  # pragma: no cover - order is minimal
            raise ArithmeticError("Krylov chain collapsed early")
    extra = []
    for i in range(n):
        if len(cols) + len(extra) == n:
            break
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        if spin.push(e) is None:
            extra.append(e)
    p = Matrix.exact([[col[i] for col in cols + extra] for i in range(n)])
    if d == n:
        return p, [f]
    b = p.inverse() @ m @ p
    c_blk = Matrix.exact([[b._d[i][j] for j in range(d)] for i in range(d)])
    x_blk = Matrix.exact([[b._d[i][j + d] for j in range(n - d)] for i in range(d)]) if n - d else None
    y_blk = Matrix.exact([[b._d[i + d][j + d] for j in range(n - d)] for i in range(n - d)])
    for i in range(d, n):
        for j in range(d):
            if b._d[i][j] != 0:
                raise ArithmeticError("Krylov span was not invariant")
    z = _solve_sylvester_exact(c_blk, y_blk, x_blk)
    # [[I, Z],[0, I]] absorbs the coupling block
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(d):
        for j in range(n - d):
            t[i][j + d] = z._d[i][j]
    t_m = Matrix.exact(t)
    q_sub, blocks = _cyclic_blocks(y_blk)
    q = p @ t_m @ direct_sum(Matrix.identity(d, "exact"), q_sub)
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
    # global Q assembled column-wise: A Q = Q (direct sum)
    q_cols: list[list[Fraction]] = []
    for comp in comps:
        sub = _submatrix(a, comp)
        mp = minimal_polynomial(sub)
        factors = factor_prime_powers(mp)
        for prime, exp in factors:
            if len(factors) == 1:
                # mp(sub) = 0: the primary component is the whole component
                kernel, primary = None, sub
            else:
                kernel = _exact_nullspace(poly_eval_matrix(_pow_poly(prime, exp), sub))
                primary = _restrict(sub, kernel)
            q_sub, fblocks = _cyclic_blocks(primary, target_degree=prime.m * exp)
            blocks.extend(fblocks)
            # embed: primary coords -> component coords -> global coords
            for col in range(q_sub.n):
                vec_comp = [q_sub._d[i][col] for i in range(q_sub.n)]
                if kernel is not None:
                    vec_comp = [
                        sum(kernel[k][i] * vec_comp[k] for k in range(len(kernel)))
                        for i in range(len(comp))
                    ]
                g = [Fraction(0)] * n
                for local, glob in enumerate(comp):
                    g[glob] = vec_comp[local]
                q_cols.append(g)
    q = Matrix.exact([[q_cols[c][i] for c in range(n)] for i in range(n)])
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
    n = a.n
    # solve basis-matrix * X = A * basis-matrix  column by column
    bmat = [[basis[j][i] for j in range(k)] for i in range(n)]  # n x k
    imgs = [_apply(a, b) for b in basis]  # k columns, each length n
    # RREF of [bmat | imgs]
    aug = [bmat[i] + [imgs[j][i] for j in range(k)] for i in range(n)]
    r = 0
    piv_rows = []
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ArithmeticError("basis columns are dependent")
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_rows.append(r)
        r += 1
    for i in range(r, n):
        if any(x != 0 for x in aug[i][k:]):
            raise ArithmeticError("span is not invariant")
    return Matrix.exact([[aug[i][k + j] for j in range(k)] for i in range(k)])


# ---------------------------------------------------------------------------
# merging coprime companion blocks
# ---------------------------------------------------------------------------


def merge_companions(f: Polynomial, g: Polynomial) -> tuple[Matrix, Matrix]:
    """T, F with T (companion(f) + companion(g)) T^{-1} = F = companion(f*g).

    Requires gcd(f, g) = 1; the concatenated first basis vectors are then a
    cyclic vector of the direct sum and the Krylov basis realizes F.
    """
    if poly_gcd(f, g) is not None:
        raise ValueError("polynomials are not relatively prime")
    m = direct_sum(companion(f), companion(g))
    n = m.n
    v = [Fraction(0)] * n
    v[0] = Fraction(1)
    v[f.m] = Fraction(1)
    cols = [v]
    for _ in range(n - 1):
        cols.append(_apply(m, cols[-1]))
    k = Matrix.exact([[col[i] for col in cols] for i in range(n)])
    t = k.inverse()
    fr = companion(poly_mul(f, g))
    if (t @ m) != (fr @ t):
        raise ArithmeticError("merge residual is nonzero")  # pragma: no cover
    return t, fr


# ---------------------------------------------------------------------------
# involutory + diagonalizable splits
# ---------------------------------------------------------------------------


@dataclass
class InvolutorySplit:
    """G is involutory (G^2 = I exactly); D = input - G; R diagonalizes
    D + I for the chosen spectrum (companion split) or realizes the
    similarity onto G + diag (diagonal split)."""

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


def involutory_plus_diagonal_split(f: Polynomial, mus) -> InvolutorySplit:
    """R^{-1} companion(f) R = G + diag(mu_i) with G involutory; the mus are
    pairwise distinct and sum to a1 + 2 - m."""
    mu = tuple(Fraction(x) for x in mus)
    a1 = Fraction(f.a[0])
    if sum(mu) != a1 + 2 - f.m:
        raise ValueError(f"mu values must sum to a1 + 2 - m = {a1 + 2 - f.m}")
    inner = involutory_split_companion(f, [x + 1 for x in mu])
    r = inner.R
    r_inv = r.inverse()
    g = r_inv @ inner.G @ r
    d = Matrix.diag(mu, "exact")
    if (g + d) != (r_inv @ companion(f) @ r):
        raise ArithmeticError("diagonal-split residual is nonzero")  # pragma: no cover
    return InvolutorySplit(G=g, D=d, lambdas=mu, R=r)


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


def _choose_lambdas(m: int, total: Fraction, used: set[Fraction]) -> tuple[Fraction, ...]:
    """m pairwise-distinct values summing to `total`, with each value - 1
    outside `used`; small integers first, the last slot absorbs the rest."""
    stream = _integer_stream()
    base: list[Fraction] = []
    while len(base) < m - 1:
        cand = next(stream)
        if (cand - 1) not in used:
            base.append(cand)
    while True:
        last = total - sum(base)
        if last not in base and (last - 1) not in used:
            return tuple(base + [last])
        while True:
            cand = next(stream)
            if (cand - 1) not in used and cand not in base[:-1]:
                base[-1] = cand
                break


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
    if a.n == 1:
        val = a._d[0][0]
        taken = {Fraction(x) for x in reserved}
        sign = Fraction(1)
        if (val - 1) in taken and (val + 1) not in taken:
            sign = Fraction(-1)
        return ExactSplit(
            V=Matrix.exact([[sign]]),
            D=Matrix.exact([[val - sign]]),
            W=Matrix.identity(1, "exact"),
            spectrum=(val - sign,),
        )
    comps = _components(a)
    if len(comps) > 1:
        return _split_by_components(a, comps, reserved)
    form = frobenius_form(a)
    used: set[Fraction] = {Fraction(x) for x in reserved}
    v_blocks, d_blocks, w_blocks, spectrum = [], [], [], []
    for f in form.blocks:
        if f.m == 1:
            val = Fraction(f.a[0])
            sign = Fraction(1)
            if (val - 1) in used and (val + 1) not in used:
                sign = Fraction(-1)
            v_blocks.append(Matrix.exact([[sign]]))
            d_blocks.append(Matrix.exact([[val - sign]]))
            w_blocks.append(Matrix.identity(1, "exact"))
            spectrum.append(val - sign)
            used.add(val - sign)
        else:
            lams = _choose_lambdas(f.m, Fraction(f.a[0]) + 2, used)
            split = involutory_split_companion(f, lams)
            v_blocks.append(split.G)
            d_blocks.append(split.D)
            w_blocks.append(split.R)
            spectrum.extend(x - 1 for x in lams)
            used.update(x - 1 for x in lams)
    s_inv = form.S_inv
    v = s_inv @ direct_sum(*v_blocks) @ form.S
    d = s_inv @ direct_sum(*d_blocks) @ form.S
    w = s_inv @ direct_sum(*w_blocks)
    if v + d != a:
        raise ArithmeticError("split does not reconstruct the input")  # pragma: no cover
    return ExactSplit(V=v, D=d, W=w, spectrum=tuple(spectrum))


def _split_by_components(a: Matrix, comps: list[list[int]], reserved) -> ExactSplit:
    """Per-component recursion scattered back in place; direct-sum structure
    makes the global conjugations unnecessary."""
    n = a.n
    zero = Fraction(0)
    v_g = [[zero] * n for _ in range(n)]
    d_g = [[zero] * n for _ in range(n)]
    w_g = [[zero] * n for _ in range(n)]
    spectrum: list[Fraction] = [zero] * n
    used: set[Fraction] = {Fraction(x) for x in reserved}
    for comp in comps:
        sub = _submatrix(a, comp)
        sp = involutory_diagonalizable_split(sub, reserved=tuple(used))
        for li, gi in enumerate(comp):
            spectrum[gi] = sp.spectrum[li]
            for lj, gj in enumerate(comp):
                v_g[gi][gj] = sp.V._d[li][lj]
                d_g[gi][gj] = sp.D._d[li][lj]
                w_g[gi][gj] = sp.W._d[li][lj]
        used.update(sp.spectrum)
    v, d, w = Matrix.exact(v_g), Matrix.exact(d_g), Matrix.exact(w_g)
    if v + d != a:
        raise ArithmeticError("split does not reconstruct the input")  # pragma: no cover
    return ExactSplit(V=v, D=d, W=w, spectrum=tuple(spectrum))
