"""Exact canonical-form machinery over the rationals.

Companion matrices, the invariant-factor (rational canonical) Frobenius
form with an explicit similarity transform, and the
involutory-plus-diagonalizable split of companion matrices behind thm1a.
No polynomial is ever factored: the Frobenius form comes from one cyclic
decomposition, and the split works on any companion block.  Everything
here runs on the exact pathway: results are bit-exact rationals and the
defining residuals are asserted to be literally zero.

The similarity is checked as A Q = Q C, with Q = S^{-1} the transform
the cyclic decomposition builds and C the direct sum of companions; S
itself is computed only when it is first read.  thm1a never reads it: each
involutory block differs from I in its last column only, so the
conjugated involution Q G Q^{-1} is I plus one rank-one correction per
block, whose rows of Q^{-1} come from one elimination of Q^T.  The
companion splits run on integer rows over a common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .matcore import (
    Matrix,
    PathwayMismatch,
    Polynomial,
    _eliminate,
    _integer_grid,
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
    (last,), den = _integer_grid([[Fraction(c) for c in reversed(f.a)]])
    grid = [[den * (j == i - 1) for j in range(m - 1)] + [x] for i, x in enumerate(last)]
    return Matrix._grid(grid, den)


# ---------------------------------------------------------------------------
# exact dense linear algebra helpers
# ---------------------------------------------------------------------------


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


def _standard_spins(a: Matrix) -> tuple[list[Fraction], list[tuple[Polynomial, list[list[int]]]]]:
    """Spin e_0, e_1, ... under A until the lcm of their orders reaches
    degree n or the basis runs out.

    Returns the lcm (descending coefficients), which is the minimal
    polynomial, since a polynomial annihilates A exactly when it annihilates
    a basis, and each spin as (order, integer Krylov chain): with d the
    denominator of A's integer grid, the chain of e_i is A^j e_i = U_j / d^j.
    """
    n = a.n
    grid = (a._d, a._den)
    spins = []
    for i in range(n):
        order, chain = _vector_order(grid, [int(j == i) for j in range(n)])
        spins.append((order, chain))
        c = _coeffs(order)
        lcm = c if i == 0 else _pmul(lcm, _pdivmod(c, _pgcd(lcm, c))[0])
        if len(lcm) - 1 == n:
            break
    return lcm, spins


def minimal_polynomial(a: Matrix) -> Polynomial:
    """Exact minimal polynomial: the lcm of the orders of the standard basis
    vectors, accumulated until the degree reaches n."""
    if a.pathway != "exact":
        raise PathwayMismatch("minimal_polynomial requires the exact pathway")
    return Polynomial.from_monic_coeffs(_standard_spins(a)[0])


# ---------------------------------------------------------------------------
# Frobenius form
# ---------------------------------------------------------------------------


@dataclass
class FrobeniusForm:
    """blocks are the invariant factors f_1, f_2, ... of A, the
    characteristic polynomials of its companion blocks: f_(i+1) divides f_i,
    f_1 is the minimal polynomial and their product the characteristic
    polynomial.  S_inv satisfies A S_inv = S_inv (direct-sum of companions),
    and S, which gives S A S^{-1} = direct-sum of companions, is S_inv^{-1},
    computed when it is first read."""

    blocks: list[Polynomial]
    S_inv: Matrix

    @cached_property
    def S(self) -> Matrix:
        return self.S_inv.inverse()

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


def _apply_poly(h: list[Fraction], chain: list[list[int]], den: int) -> list[Fraction]:
    """h(A) v from the integer Krylov chain U_j = (dA)^j v of v, for a
    polynomial h (descending coefficients) of degree below the chain's length."""
    k = len(h) - 1
    return [sum(c * Fraction(chain[k - i][r], den ** (k - i)) for i, c in enumerate(h)) for r in range(len(chain[0]))]


def _cyclic_vector(
    m: Matrix, spins: list[tuple[Polynomial, list[list[int]]]], degree: int
) -> tuple[Polynomial, list[list[int]]]:
    """A vector whose order is the minimal polynomial of M, of `degree`, as
    (order, integer Krylov chain): the first of the standard `spins` of
    maximal degree, combined with the others in turn until its order has
    that degree.

    For v of order f and w of order g, a = f and b = g / gcd(f, g) trade
    c = gcd(a, b) (a <- a / c, b <- b c) until they are coprime; then
    a b = lcm(f, g), and (f / a)(A) v + (g / b)(A) w has that order, as the
    sum of two vectors of coprime orders a and b.
    """
    grid = (m._d, m._den)
    f, chain = max(spins, key=lambda s: s[0].m)
    for g, other in spins:
        if f.m == degree:
            break
        fc, gc = _coeffs(f), _coeffs(g)
        a, b = fc, _pdivmod(gc, _pgcd(fc, gc))[0]
        if len(b) == 1:
            continue  # g divides f
        while len(c := _pgcd(a, b)) > 1:
            a, b = _pdivmod(a, c)[0], _pmul(b, c)
        vec = _apply_poly(_pdivmod(gc, b)[0], other, m._den)
        if len(a) > 1:  # (f / a)(A) v = f(A) v = 0 otherwise
            vec = [x + y for x, y in zip(vec, _apply_poly(_pdivmod(fc, a)[0], chain, m._den))]
        (iv,), _ = _integer_grid([vec])
        content = math.gcd(*iv)
        f, chain = _vector_order(grid, [x // content for x in iv])
        if _coeffs(f) != _pmul(a, b):
            raise ArithmeticError("combined vector has the wrong order")  # pragma: no cover
    return f, chain


def _cyclic_blocks(m: Matrix) -> tuple[Matrix, list[Polynomial]]:
    """Q and the invariant factors f_1, f_2, ... of M, with M Q = Q
    (direct-sum companions).

    A vector of order f_1, the minimal polynomial (`_cyclic_vector`), spans
    with its Krylov chain an invariant subspace that has an invariant
    complement.  Completing the chain greedily with standard vectors to a
    basis P gives P^{-1} M P = [[C(f_1), X], [0, Y]]; a Sylvester solve
    removes X, and the recursion on Y, whose minimal polynomial divides f_1,
    gives f_2, ....
    """
    n = m.n
    if n == 0:
        raise ValueError("empty block")
    mp, spins = _standard_spins(m)
    f, chain = _cyclic_vector(m, spins, len(mp) - 1)
    d, den = f.m, m._den
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
    # [[I, Z],[0, I]] absorbs the coupling block
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(d):
        t[i][d:] = z[i]
    q_sub, blocks = _cyclic_blocks(Matrix._grid(y_rows, b._den))
    q = p @ Matrix.exact(t) @ direct_sum(Matrix.identity(d, "exact"), q_sub)
    return q, [f] + blocks


def frobenius_form(a: Matrix) -> FrobeniusForm:
    """Invariant-factor (rational canonical) form with similarity, verified
    exactly as A Q = Q C for Q = S_inv and C the direct sum of companions.
    No polynomial is factored: `_cyclic_blocks` splits off one companion
    block per invariant factor by cyclic deflation, and builds Q invertible.
    Nothing here inverts Q; the form's S is computed when first read.
    """
    if a.pathway != "exact":
        raise PathwayMismatch("frobenius_form requires the exact pathway")
    q, blocks = _cyclic_blocks(a)
    form = FrobeniusForm(blocks=blocks, S_inv=q)
    if (a @ q) != (q @ form.companion_sum()):
        raise ArithmeticError("Frobenius residual is nonzero")  # pragma: no cover
    return form


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
    diag(lambda_i - 1), for pairwise distinct lambdas summing to a1 + 2.

    G differs from I only in its last column.  G, D and the eigenvector
    matrix R are built as integer rows: the lambdas over their common
    denominator L, the elementary symmetric functions of their numerators
    by integer root expansion, and row i of R over L^(m-1-i).
    """
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

    # with lambda_i = p_i / L over the common denominator L, the target
    # prod (x - lambda_i) = x^m - g1 x^(m-1) - ... - gm has g_j = -c_j / L^j,
    # for prod (x - p_i) = c_0 x^m + c_1 x^(m-1) + ... + c_m in integers
    (p,), lden = _integer_grid([lams])
    c = [1]
    for root in p:
        c = [x - root * y for x, y in zip(c + [0], [0] + c)]
    # companion(f) - G + I must be the companion-type matrix of the target:
    # its last column is (g_m, ..., g_2, a1+2), so G's last column is
    # (b_m, ..., b_2, -1) with b_j = a_j - g_j, over F L^m for a_j = alpha_j / F
    (alpha,), fden = _integer_grid([a])
    top = lden**m
    den = fden * top
    grid = [[den * (i == j) for j in range(m - 1)] for i in range(m)]
    for i, row in enumerate(grid[:-1]):
        j = m - i  # row 0 -> b_m, row m-2 -> b_2
        row.append(alpha[j - 1] * top + c[j] * fden * lden ** (m - j))
    grid[m - 1].append(-den)
    gmat = Matrix._grid(grid, den)
    fmat = companion(f)
    d = fmat - gmat

    ident = Matrix.identity(m, "exact")
    if gmat @ gmat != ident:
        raise ArithmeticError("constructed G is not involutory")  # pragma: no cover

    # eigenvectors of D + I by companion back-substitution, v[m-1] = 1 and
    # v[i-1] = lambda v[i] + c_(m-i) / L^(m-i); w[i] = L^(m-1-i) v[i] are integers
    cols = []
    for root in p:
        w = [0] * m
        w[m - 1] = 1
        for i in range(m - 1, 0, -1):
            w[i - 1] = root * w[i] + c[m - i]
        cols.append(w)
    r = Matrix._rows_over([[w[i] for w in cols] for i in range(m)], [lden ** (m - 1 - i) for i in range(m)])
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


def _conjugate_involution(q: Matrix, g_blocks) -> Matrix:
    """Q (direct sum of g_blocks) Q^{-1}, for blocks that differ from I only
    in their last column, as the companion splits do, without Q^{-1}.

    Block k is I + u_k e_last^T, so the product is I + sum_k (Q u_k) r_k,
    where r_k is row last_k of Q^{-1}, that is, the solution of
    Q^T x = e_last_k.  One fraction-free elimination of
    [Q^T | e_last_1 ... e_last_b], over the blocks with u_k != 0, gives
    every r_k; its n pivots prove Q invertible.
    """
    n = q.n
    lasts, terms = [], []
    end = 0
    for g in g_blocks:
        start, end = end, end + g.n
        u = [row[-1] for row in g._d]
        u[-1] -= g._den
        if any(u):
            # Q u_k as an integer column over den(Q) den(G_k)
            col = [sum(map(mul, row[start:end], u)) for row in q._d]
            lasts.append(end - 1)
            terms.append((col, g._den))
    aug = [list(row) + [int(i == k) for k in lasts] for i, row in enumerate(zip(*q._d))]
    if len(_eliminate(aug, n)) < n:
        raise ArithmeticError("Frobenius transform is singular")  # pragma: no cover
    # pivot row k reads [p_k e_k | X_k], so r_t[k] = den(Q) X_k[t] / p_k and
    # (Q u_t) r_t = col_t X[t] / (den(G_t) p_k) entry by entry
    pden = math.lcm(*(row[k] for k, row in enumerate(aug)))
    gden = math.lcm(*(den for _, den in terms))
    den = pden * gden
    grid = [[den * (i == k) for k in range(n)] for i in range(n)]
    for t, (col, tden) in enumerate(terms):
        x = [row[n + t] * (pden // row[k]) for k, row in enumerate(aug)]
        scale = gden // tden
        for i, c in enumerate(col):
            if c:
                c *= scale
                grid[i] = [y + c * xk for y, xk in zip(grid[i], x)]
    return Matrix._grid(grid, den)


def involutory_diagonalizable_split(a: Matrix, reserved=()) -> ExactSplit:
    """Exact split of a rational matrix into involutory + diagonalizable.

    Runs the Frobenius form, splits each companion block with distinct
    rational spectrum choices, and conjugates back.  1-by-1 inputs return
    ([1], A-1).  `reserved` values are kept out of the chosen spectrum.

    The 1-by-1 blocks of the form are all [c] for one c, and each has only
    c - 1 and c + 1 to choose from, so they choose first and the larger
    blocks avoid what they took.  The spectrum is then pairwise distinct,
    and D has a squarefree characteristic polynomial, whenever the form has
    at most two 1-by-1 blocks and `reserved` leaves their values free.
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
    splits = {}
    for i, f in sorted(enumerate(form.blocks), key=lambda block: block[1].m > 1):
        splits[i] = _split_block(f, used)
        used.update(splits[i][3])
    g_blocks, _, r_blocks, values = zip(*(splits[i] for i in sorted(splits)))
    q = form.S_inv
    v = _conjugate_involution(q, g_blocks)
    d = a - v
    w = q @ direct_sum(*r_blocks)
    if v + d != a:
        raise ArithmeticError("split does not reconstruct the input")  # pragma: no cover
    return ExactSplit(V=v, D=d, W=w, spectrum=tuple(x for vals in values for x in vals))


def _split_by_components(a: Matrix, comps: list[list[int]], reserved) -> ExactSplit:
    """Per-component recursion scattered back in place; direct-sum structure
    makes the global conjugations unnecessary.  The 1-by-1 components
    choose first, as the 1-by-1 blocks do within one component."""
    n = a.n
    comps = sorted(comps, key=lambda comp: len(comp) > 1)
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
