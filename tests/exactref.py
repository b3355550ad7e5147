"""Fraction-arithmetic reference kernels for the exact pathway.

These are the elimination loops the package ran in `Fraction` arithmetic
before its kernels moved to primitive integer rows.  They are kept here,
independent of the package, so tests can require the production kernels to
return the same rationals entry for entry.
"""

from fractions import Fraction


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
