"""Exact Gaussian-rational matrix arithmetic for oracle checks.

Matrices are nested lists of (re, im) Fraction pairs.  This is kept
independent of the package so formula-level identities can be verified in
exact arithmetic against the production constants.
"""

from fractions import Fraction


def q(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def gnorm(rows):
    return [[(q(re), q(im)) for re, im in row] for row in rows]


def gid(n):
    return [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]


def gneg(a):
    return [[(-re, -im) for re, im in row] for row in a]


def gadd(a, b):
    return [
        [(ra + rb, ia + ib) for (ra, ia), (rb, ib) in zip(rowa, rowb)]
        for rowa, rowb in zip(a, b)
    ]


def gsub(a, b):
    return gadd(a, gneg(b))


def gconj(a):
    return [[(re, -im) for re, im in row] for row in a]


def gmul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = [[(Fraction(0), Fraction(0)) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            re_acc, im_acc = Fraction(0), Fraction(0)
            for t in range(k):
                ar, ai = a[i][t]
                br, bi = b[t][j]
                re_acc += ar * br - ai * bi
                im_acc += ar * bi + ai * br
            out[i][j] = (re_acc, im_acc)
    return out


def gzero(a):
    return all(re == 0 and im == 0 for row in a for re, im in row)


def gequal(a, b):
    return gzero(gsub(a, b))


def gdiag(values):
    n = len(values)
    return [
        [(q(values[i]) if i == j else Fraction(0), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def gparts(re, im):
    """The grid re + i im, from grids of real and imaginary parts."""
    return [[(q(r), q(i)) for r, i in zip(rr, ii)] for rr, ii in zip(re, im)]
