"""Fraction-arithmetic reference kernels for the exact pathway, and the
exact helpers only tests use.

`rref`, `apply` and `vector_order` are the elimination loops the package
ran in `Fraction` arithmetic before its kernels moved to primitive integer
rows; they are independent of the package.  `involutory_split_companion` is
the package's companion split as it was before it moved to integers, on the
package's matrices.  Tests require the production kernels to return the
same rationals entry for entry.  `exact_nullspace` and `poly_eval_matrix`
are exact helpers no library code calls.
"""

from fractions import Fraction

from coninv.exactcanon import InvolutorySplit, companion
from coninv.matcore import Matrix, Polynomial, _eliminate


def rref(rows, ncols):
    """Gauss-Jordan over Q, in place, on the first `ncols` columns of
    `rows`; later columns ride along.  Returns the pivot columns."""
    pivots = []
    nrows = len(rows)
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        prow = rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and f != 0:
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


def apply(grid, v):
    """grid v over Q, one Fraction multiply-add per term."""
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in grid]


def vector_order(grid, v):
    """Minimal monic annihilator of v under the rational matrix `grid`, as
    the descending coefficient list [1, c1, ..., cd], together with the
    Krylov chain v, Av, ..., A^(d-1) v.

    Each Krylov vector is reduced against the normalized echelon rows of
    the earlier ones while its expression in v, ..., A^k v is tracked; the
    first one that reduces to zero gives the dependency.
    """
    reduced = []
    chain = []
    cur = [Fraction(x) for x in v]
    while True:
        w = list(cur)
        expr = [Fraction(0)] * len(reduced) + [Fraction(1)]
        for rv, rexpr, p in reduced:
            f = w[p]
            if f != 0:
                w = [x - f * y if y else x for x, y in zip(w, rv)]
                expr = [x - f * y for x, y in zip(expr, rexpr)] + expr[len(rexpr) :]
        piv = next((i for i, x in enumerate(w) if x != 0), None)
        if piv is None:
            # A^d v + c1 A^(d-1) v + ... + cd v = 0 with expr = (cd, ..., c1, 1)
            return list(reversed(expr)), chain
        inv = 1 / w[piv]
        reduced.append(([x * inv for x in w], [c * inv for c in expr], piv))
        chain.append(cur)
        cur = apply(grid, cur)


def exact_nullspace(m):
    """Basis of the right nullspace over Q of the exact Matrix m (list of
    length-n Fraction vectors), from one fraction-free elimination."""
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


def poly_eval_matrix(f, a):
    """Horner evaluation of the Polynomial f at the square Matrix a."""
    ident = Matrix.identity(a.n, a.pathway)
    acc = ident
    for c in f.a:
        acc = acc @ a - c * ident
    return acc


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
