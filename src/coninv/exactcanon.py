"""Exact canonical-form machinery over the rationals.

Companion matrices, the prime-power Frobenius form with an explicit
similarity transform, and the involutory-plus-diagonalizable split of
companion matrices behind thm1a.  Everything
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
    _rref,
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
    pivots = _rref(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
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
    grid = _integer_grid(a._d)
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
    return Matrix.exact([[a._d[i][j] for j in idx] for i in idx])


def _solve_sylvester_exact(c: Matrix, y: Matrix, x: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve C Z - Z Y = -X over Q for the d x r rows Z, given the d x r rows
    X (consistency is guaranteed by the caller)."""
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
            eq[nunk] = -x[i][j]
    # RREF of [M | b], then the particular solution with zero free unknowns
    pivots = _rref(rows, nunk)
    if any(row[nunk] != 0 for row in rows[len(pivots) :]):
        raise ArithmeticError("inconsistent Sylvester system")
    z = [Fraction(0)] * nunk
    for ri, col in enumerate(pivots):
        z[col] = rows[ri][nunk]
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
    cols = [[Fraction(x, den**j) for x in u] for j, u in enumerate(chain)]
    if d == n:
        return Matrix.exact([[col[i] for col in cols] for i in range(n)]), [f]
    # the pivot columns of [chain | I] past the chain complete the chain
    # greedily with standard vectors to a basis P, and the right half of the
    # reduced [chain | I] is then P^{-1}
    aug = [[col[i] for col in cols] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    extra = [c - d for c in _rref(aug, d + n)[d:]]
    p = Matrix.exact([[col[i] for col in cols] + [Fraction(int(i == j)) for j in extra] for i in range(n)])
    b = Matrix.exact([row[d:] for row in aug]) @ m @ p
    if any(b._d[i][j] != 0 for i in range(d, n) for j in range(d)):
        raise ArithmeticError("Krylov span was not invariant")
    c_blk = Matrix.exact([row[:d] for row in b._d[:d]])
    x_blk = [list(row[d:]) for row in b._d[:d]]
    y_blk = Matrix.exact([row[d:] for row in b._d[d:]])
    z = _solve_sylvester_exact(c_blk, y_blk, x_blk)
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
    # global Q assembled column-wise: A Q = Q (direct sum)
    q_cols: list[list[Fraction]] = []
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
    # RREF of [B | A B] for the n x k basis matrix B: its top k rows are [I | X]
    # with B X = A B
    grid = _integer_grid(a._d)
    imgs = [_apply(grid, b) for b in basis]
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
        g, d, r, spectrum = _split_block(Polynomial((a._d[0][0],)), used)
        return ExactSplit(V=g, D=d, W=r, spectrum=spectrum)
    comps = _components(a)
    if len(comps) > 1:
        return _split_by_components(a, comps, reserved)
    form = frobenius_form(a)
    v_blocks, d_blocks, w_blocks, spectrum = [], [], [], []
    for f in form.blocks:
        g, d, r, values = _split_block(f, used)
        v_blocks.append(g)
        d_blocks.append(d)
        w_blocks.append(r)
        spectrum.extend(values)
        used.update(values)
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
