"""Coninvolutory sum decompositions.

Every complex square matrix is first traded for a consimilar real matrix
B (``consimilar_to_real``), a direct sum of 1-by-1 blocks, real pairs
[[a, b], [-b, a]], J(lam, m) and real-pair chains; sums of coninvolutory
matrices push through consimilarity, so the real cases carry the
construction:

* 2-by-2: classify to diagonal / Jordan / rotation form and use the
  displayed two-summand pairs (4 summands total);
* even size: split B block by block as C + W diag(values) W^{-1} with C
  real involutory and W real (``_real_split``), then run the 2-by-2
  diagonal pairs in parallel across diag(values) (1 + 4 summands);
* odd size: the same split, with one 2-by-2 part (a real pair, the leading
  J_2 of a chain, or two 1-by-1 blocks merged, one sign-flipped by a
  1-by-1 consimilarity when every scalar is equal) given the value mu_1 in
  {0, 2}, which unit-modulus scalar borders then peel off (1 + 4 summands).

All of it is floating arithmetic in closed form per block.  The certificate
is checked against the original input before the summands are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

import numpy as np

from .certify import (
    KIND_CONINV_CONDIAG,
    KIND_CONINV_SUM,
    Decomposition,
    verify_decomposition,
)
from .concanon import _diagonal_blocks, consimilar_to_real
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    ConvergenceFailure,
    Matrix,
    Tolerance,
    UnsupportedSize,
    direct_sum,
)

# ---------------------------------------------------------------------------
# displayed two-summand pairs; entries as (re, im) in the arithmetic of c,
# so Fraction input gives exact Gaussian-rational matrices
# ---------------------------------------------------------------------------


def scaled_identity_pair(c):
    """diag(2c, 2c) as a sum of two coninvolutory matrices (the +-i pair)."""
    one = c * 0 + 1
    w = one - c * c
    k1 = [[(c, c * 0), (c * 0, one)], [(c * 0, w), (c, c * 0)]]
    k2 = [[(c, c * 0), (c * 0, -one)], [(c * 0, -w), (c, c * 0)]]
    return k1, k2


def traceless_pair(c):
    """diag(2c, -2c) as a sum of two real involutory matrices."""
    one = c * 0 + 1
    w = one - c * c
    zero = c * 0
    k1 = [[(c, zero), (one, zero)], [(w, zero), (-c, zero)]]
    k2 = [[(c, zero), (-one, zero)], [(-w, zero), (-c, zero)]]
    return k1, k2


def nilpotent_pair(one=Fraction(1)):
    """[[0,1],[0,0]] as [[1,1],[0,-1]] + [[-1,0],[0,1]]."""
    zero = one * 0
    k1 = [[(one, zero), (one, zero)], [(zero, zero), (-one, zero)]]
    k2 = [[(-one, zero), (zero, zero)], [(zero, zero), (one, zero)]]
    return k1, k2


def rotation_pair(b):
    """[[0,b],[-b,0]] as [[1,b],[0,-1]] + [[-1,0],[-b,1]]."""
    one = b * 0 + 1
    zero = b * 0
    k1 = [[(one, zero), (b, zero)], [(zero, zero), (-one, zero)]]
    k2 = [[(-one, zero), (zero, zero)], [(-b, zero), (one, zero)]]
    return k1, k2


def gauss_to_matrix(rows) -> Matrix:
    """(re, im) grids -> floating Matrix."""
    return Matrix.floating(
        [[complex(float(re), float(im)) for (re, im) in row] for row in rows]
    )


def diagonal_case_summands(values) -> list[Matrix]:
    """Four global coninvolutory summands for diag(values), len(values) even.

    Consecutive pairs (a, b) run the traceless pair at c = (a-b)/4 and the
    scaled-identity pair at c = (a+b)/4, direct-summed position by position
    so each of the four full-size summands is itself coninvolutory.
    """
    if len(values) % 2:
        raise ValueError("even value count required")
    per_slot: list[list[Matrix]] = [[], [], [], []]
    for a, b in zip(values[::2], values[1::2]):
        quarter = (a - b) / 4
        t1, t2 = traceless_pair(quarter)
        s1, s2 = scaled_identity_pair((a + b) / 4)
        for slot, grid in zip(per_slot, (t1, t2, s1, s2)):
            slot.append(gauss_to_matrix(grid))
    return [direct_sum(*slot) for slot in per_slot]


def split_unimodular(k: Matrix) -> tuple[Matrix, Matrix]:
    """K = uK + conj(u)K with u = e^{i pi/3}; unimodular scalar multiples
    keep both the coninvolutory and the skew-coninvolutory predicate."""
    u = complex(np.exp(1j * np.pi / 3))
    return u * k, np.conj(u) * k


# ---------------------------------------------------------------------------
# 2-by-2 classification
# ---------------------------------------------------------------------------


@dataclass
class Real2x2Class:
    """kind "diag"/"jordan"/"rotation" with params (a, b) / (a,) / (a, b>0);
    transform T is real with A = T R T^{-1} for the representative R."""

    kind: str
    params: tuple
    transform: Matrix


def classify_real_2x2(a: Matrix) -> Real2x2Class:
    arr = a.to_array().real
    if a.n != 2:
        raise ValueError("2-by-2 input required")
    scale = max(1.0, float(np.max(np.abs(arr))))
    tr = arr[0, 0] + arr[1, 1]
    det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
    disc = tr * tr - 4 * det
    edge = 1e-10 * scale * scale

    def eigvec(lam):
        if abs(arr[0, 1]) >= abs(arr[1, 0]):
            v = np.array([arr[0, 1], lam - arr[0, 0]])
        else:
            v = np.array([lam - arr[1, 1], arr[1, 0]])
        return v / np.linalg.norm(v)

    if disc > edge:
        lam1 = (tr + np.sqrt(disc)) / 2
        lam2 = (tr - np.sqrt(disc)) / 2
        if abs(arr[0, 1]) + abs(arr[1, 0]) <= 1e-14 * scale:
            return Real2x2Class("diag", (arr[0, 0], arr[1, 1]), Matrix.identity(2))
        t = np.column_stack([eigvec(lam1), eigvec(lam2)])
        return Real2x2Class("diag", (lam1, lam2), Matrix.floating(t))
    if disc < -edge:
        alpha, beta = tr / 2, np.sqrt(-disc) / 2
        lam = complex(alpha, beta)
        if abs(arr[0, 1]) >= abs(arr[1, 0]):
            v = np.array([arr[0, 1], lam - arr[0, 0]], dtype=complex)
        else:
            v = np.array([lam - arr[1, 1], arr[1, 0]], dtype=complex)
        t = np.column_stack([v.real, v.imag])
        t = t / np.sqrt(abs(np.linalg.det(t)))
        return Real2x2Class("rotation", (alpha, beta), Matrix.floating(t))
    lam = tr / 2
    off = arr - lam * np.eye(2)
    if np.max(np.abs(off)) <= 1e-9 * scale:
        return Real2x2Class("diag", (lam, lam), Matrix.identity(2))
    w = np.array([1.0, 0.0])
    v = off @ w
    if np.linalg.norm(v) <= 1e-12 * scale:
        w = np.array([0.0, 1.0])
        v = off @ w
    t = np.column_stack([v, w])
    return Real2x2Class("jordan", (lam,), Matrix.floating(t))


def _conjugate_by(t: Matrix, ks: list[Matrix]) -> list[Matrix]:
    t_inv = t.inverse()
    return [t @ k @ t_inv for k in ks]


def coninv_sum_2x2(a: Matrix, *, log: list | None = None) -> Decomposition:
    """Exactly four coninvolutory summands for a real 2-by-2 matrix."""
    cls = classify_real_2x2(a)
    entries: list[Matrix] = []
    if cls.kind == "diag":
        x, y = cls.params
        xf = Fraction(float(x)).limit_denominator(10**12)
        yf = Fraction(float(y)).limit_denominator(10**12)
        t1, t2 = traceless_pair((xf - yf) / 4)
        s1, s2 = scaled_identity_pair((xf + yf) / 4)
        entries = [gauss_to_matrix(g) for g in (t1, t2, s1, s2)]
    elif cls.kind == "jordan":
        (x,) = cls.params
        s1, s2 = scaled_identity_pair(float(x) / 2)
        n1, n2 = nilpotent_pair(1.0)
        entries = [gauss_to_matrix(g) for g in (s1, s2, n1, n2)]
    else:
        x, y = cls.params
        s1, s2 = scaled_identity_pair(float(x) / 2)
        r1, r2 = rotation_pair(float(y))
        entries = [gauss_to_matrix(g) for g in (s1, s2, r1, r2)]
    summands = _conjugate_by(cls.transform, entries)
    rec = list(log or [])
    rec.append({"step": "real-2x2", "class": cls.kind, "params": [float(p) for p in cls.params]})
    return Decomposition(kind=KIND_CONINV_SUM, summands=summands, log=rec)


# ---------------------------------------------------------------------------
# the real canonical form as involutory + real-diagonalizable
# ---------------------------------------------------------------------------

#: the golden ratio: t = PHI in [[0, t], [1/t, 0]] leaves the symmetric
#: [[lam, -1/PHI], [-1/PHI, lam]] of J_2(lam) minus it
PHI = (1 + 5**0.5) / 2


@dataclass
class RealSplit:
    """B = C + W diag(values) W^{-1} for a real B in the block form of
    ``consimilar_to_real``.  C is real involutory (so coninvolutory) and W
    real; both are direct sums over the blocks of B, so W_inv is formed
    block by block.  cond_W is the largest 2-norm condition number of a
    block of W."""

    C: np.ndarray
    W: np.ndarray
    W_inv: np.ndarray
    values: np.ndarray
    cond_W: float


def _half_widths(blk: np.ndarray, avoid: float | None):
    """Endless distinct half-widths delta of the eigenvalue pairs x +- delta
    of B - C on the 2-by-2 parts of one chain, skipping `avoid`.

    J chains take delta = k + 1/PHI: the first two (1/PHI and PHI) leave a
    symmetric part and none is 1, the half-width of a trailing 1-by-1 part.
    Real-pair chains take r, r/2, 3r/2, 2r, ... with r = sqrt(1 + b^2):
    delta = r leaves a symmetric part, and the involutory part grows with
    |delta^2 - r^2| / |b|, so the next ones stay close to r."""
    if blk[1, 0] == 0:
        unit, seq = 1.0, (k + 1 / PHI for k in count())
    else:
        unit = float(np.hypot(1.0, blk[0, 1]))
        seq = chain([unit], (unit * m / 2 for m in count(1) if m != 2))
    return (d for d in seq if avoid is None or abs(d - avoid) >= unit / 4)


def _part_involutory(blk: np.ndarray, start: int, delta: float) -> np.ndarray:
    """[[0, t], [1/t, 0]] with eigenvalues x +- delta of the 2-by-2 part of
    B - C at `start` (x its diagonal entry).  J_2 part: (1 - t)(-1/t) =
    delta^2.  Real pair [[a, b], [-b, a]]: (b - t)(-b - 1/t) = delta^2, the
    root of t^2 - g t - 1 with g = (delta^2 - 1 + b^2) / b of larger size."""
    if blk[start + 1, start] == 0:
        t = 1 / (1 - delta * delta)
    else:
        b = blk[start, start + 1]
        g = (delta * delta - 1 + b * b) / b
        t = (g + np.copysign(np.hypot(g, 2.0), g)) / 2
    return np.array([[0.0, t], [1 / t, 0.0]])


def _split_block(blk: np.ndarray, lead=None) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """C, W and the values for one block of size >= 2 of the real canonical
    form: a real pair [[a, b], [-b, a]], J(lam, m) or a real-pair chain.
    C is a direct sum of 2-by-2 involutory parts [[0, t], [1/t, 0]] plus
    C = +-1 on the trailing 1-by-1 part of an odd J(lam, m); B - C is
    block upper-triangular with pairwise distinct eigenvalues, so W
    follows by back-substitution.  `lead = (c_x, (mu1, nu))` fixes the
    leading 2-by-2 part instead."""
    m = blk.shape[0]
    parts = [(k, min(k + 2, m)) for k in range(0, m, 2)]
    c = np.zeros((m, m))
    values: list[float] = []
    avoid = None
    if lead is not None:
        c_x, vals_x = lead
        c[:2, :2] = c_x
        values += vals_x
        avoid = abs(vals_x[0] - vals_x[1]) / 2
        nu = vals_x[1]
    widths = _half_widths(blk, avoid)
    for start, stop in parts[1 if lead is not None else 0 :]:
        x = blk[start, start]
        if stop - start == 1:
            # the trailing part of an odd J chain: x - 1, or x + 1 when a
            # lead put its free value nu at x - 1
            sign = 1.0 if lead is None or nu >= x else -1.0
            c[start, start] = sign
            values.append(x - sign)
            continue
        delta = next(widths)
        c[start:stop, start:stop] = _part_involutory(blk, start, delta)
        values += [x - delta, x + delta]
    d = blk - c
    w = np.zeros((m, m))
    for k, (start, stop) in enumerate(parts):
        for col in range(start, stop):
            mu = values[col]
            x = w[:, col]
            # unit null vector of the part minus mu: its last right singular vector
            x[start:stop] = np.linalg.svd(d[start:stop, start:stop] - mu * np.eye(stop - start))[2][-1]
            for s0, s1 in reversed(parts[:k]):
                rhs = -d[s0:s1, s1:] @ x[s1:]
                if s0 == 0 and lead is not None and blk[1, 0] == 0:
                    # a J_2 lead: rhs lies along e_2, its nu-eigenvector
                    # (_fix_mu1), even where mu equals mu1
                    x[:2] = [0.0, rhs[1] / (nu - mu)]
                else:
                    x[s0:s1] = np.linalg.solve(d[s0:s1, s0:s1] - mu * np.eye(2), rhs)
            if k:
                x /= np.linalg.norm(x)
    return c, w, values


def _real_split(b: np.ndarray, units=None, lead=None) -> RealSplit:
    """Split a real B in the block form of ``consimilar_to_real`` block by
    block.  `units` lists the indices of each block and defaults to the
    diagonal blocks of B; `lead = (k, c_x, values_x)` fixes the leading
    2-by-2 part of unit k."""
    n = b.shape[0]
    c, w, w_inv = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    values = np.zeros(n)
    cond = 1.0
    if units is None:
        units = [list(range(start, stop)) for start, stop in _diagonal_blocks(b)]
    for k, idx in enumerate(units):
        if len(idx) == 1:
            i = idx[0]
            c[i, i] = w[i, i] = w_inv[i, i] = 1.0
            values[i] = b[i, i] - 1.0
            continue
        ix = np.ix_(idx, idx)
        c_j, w_j, values_j = _split_block(b[ix], lead[1:] if lead is not None and lead[0] == k else None)
        c[ix], w[ix], w_inv[ix] = c_j, w_j, np.linalg.inv(w_j)
        values[idx] = values_j
        cond = max(cond, float(np.linalg.cond(w_j)))
    return RealSplit(C=c, W=w, W_inv=w_inv, values=values, cond_W=cond)


# ---------------------------------------------------------------------------
# coninvolutory + (real-con)diagonalizable splits
# ---------------------------------------------------------------------------


@dataclass
class CondiagSplit:
    """C coninvolutory, D = A - C; D is real-condiagonalizable with witness
    conj(Q)^{-1} diag(values) Q ~ D."""

    C: Matrix
    D: Matrix
    witness: Matrix
    values: tuple


def coninvolutory_condiagonalizable_split(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> CondiagSplit:
    """A = C + D with C coninvolutory and D real-condiagonalizable.

    Route: A S = conj(S) B with B real (``consimilar_to_real``), then the
    block-by-block split B = C_B + W diag(values) W^{-1} with C_B real
    involutory and W real, so C = conj(S) C_B S^{-1} and the witness is
    Q = W^{-1} S^{-1}.  D is returned as A - C, so the reconstruction is
    exact; the witness is checked before returning: ConvergenceFailure
    when ||D - conj(Q)^{-1} diag(values) Q||_F exceeds tol.bound(||D||_F).
    """
    a = a.to_floating()
    s, b = consimilar_to_real(a, seed=seed, tol=tol)
    sp = _real_split(b.to_array().real)
    s_inv = s.inverse().to_array()
    c = np.conj(s.to_array()) @ sp.C @ s_inv
    d = a.to_array() - c
    q = sp.W_inv @ s_inv
    residual = float(np.linalg.norm(d - np.linalg.solve(np.conj(q), sp.values[:, None] * q), "fro"))
    if residual > tol.bound(float(np.linalg.norm(d, "fro"))):
        raise ConvergenceFailure(f"thm1b witness misses D by {residual:.3g}")
    return CondiagSplit(
        C=Matrix.floating(c), D=Matrix.floating(d), witness=Matrix.floating(q), values=tuple(sp.values.tolist())
    )


def coninvolutory_plus_real_diagonal(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Matrix, Matrix, Matrix]:
    """(S, C, D): conj(S)^{-1} A S = C + D, C coninvolutory, D real diagonal."""
    s0, b = consimilar_to_real(a.to_floating(), seed=seed, tol=tol)
    sp = _real_split(b.to_array().real)
    s = s0 @ Matrix.floating(sp.W)
    return s, Matrix.floating(sp.W_inv @ sp.C @ sp.W), Matrix.diag(sp.values.tolist())


# ---------------------------------------------------------------------------
# the full coninvolutory-sum pipeline
# ---------------------------------------------------------------------------


def _fix_mu1(x: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """C_X = [[p, q], [r, -p]] involutory with mu1 in {0, 2} an eigenvalue
    of X - C_X, for a 2-by-2 X that is J_2(lam), a real pair or diagonal
    with distinct entries.  mu1 is the one farther from tr X / 2, so the
    other eigenvalue nu = tr X - mu1 differs from it by at least 2.

    det(X - C_X - mu1 I) = 0 reads p (x11 - x22) + x12 r + x21 q =
    mu1 nu - det X + 1 (call it kappa) next to p^2 + q r = 1.  J_2(lam):
    q = 1, p = lam - mu1, r = 1 - p^2; X - C_X is then lower triangular,
    with e_2 its nu-eigenvector, so a chain coupled into the second row
    never makes it defective.  Real pair: p = 0, q r = 1 and b (r - q) =
    kappa.  Diagonal: p = kappa / (x11 - x22) and the smaller symmetric q,
    r.  Returns C_X and (mu1, nu)."""
    tr = x[0, 0] + x[1, 1]
    mu1 = 0.0 if tr > 2 else 2.0
    nu = tr - mu1
    kappa = mu1 * nu - (x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]) + 1
    if x[1, 0] != 0:
        b = x[0, 1]
        q = -(kappa + np.copysign(np.hypot(kappa, 2 * b), kappa)) / (2 * b)
        c_x = [[0.0, q], [1 / q, 0.0]]
    elif x[0, 1] != 0:
        p = x[0, 0] - mu1
        c_x = [[p, 1.0], [1 - p * p, -p]]
    else:
        p = kappa / (x[0, 0] - x[1, 1])
        q = np.sqrt(abs(1 - p * p))
        c_x = [[p, q], [q if p * p <= 1 else -q, -p]]
    return np.array(c_x), [mu1, nu]


def _odd_real_summands(b: Matrix, *, log: list) -> tuple[list[Matrix], np.ndarray, dict]:
    """Five coninvolutory summands for an odd-size real B in the block form
    of ``consimilar_to_real``, the transform U with B = conj(U) M U^{-1}
    relating the summand frame M back to B, and the route's log entry.

    One 2-by-2 part X carries the value mu1 in {0, 2}: the leading 2-by-2
    part of the first block of size >= 2 or, when every block is 1-by-1, the
    two most distant scalars merged into diag(x, y), with y sign-flipped by
    the 1-by-1 consimilarity [i] when every scalar is equal.  X takes the
    involutory C_X of ``_fix_mu1``, and the other blocks split as in
    ``_real_split``.  With mu1's eigenvector first, diag(values) is
    [mu1] + diag(rest), written as four summands bordered by the unit
    scalars [1, mu1 - 1, 1, -1] around ``diagonal_case_summands(rest)``,
    and C conjugated by W is the fifth.
    """
    bb = b.to_array().real
    n = bb.shape[0]
    units = [list(range(start, stop)) for start, stop in _diagonal_blocks(bb)]
    phi = np.ones(n, dtype=complex)
    k = next((k for k, idx in enumerate(units) if len(idx) > 1), None)
    if k is None:
        by_value = sorted(range(n), key=lambda i: bb[i, i])
        i, j = by_value[-1], by_value[0]
        if bb[i, i] == bb[j, j]:
            if bb[i, i] == 0:
                raise ConvergenceFailure("no 2-by-2 part can carry the odd border value of B = 0")
            # [y] and [-y] are consimilar via the 1-by-1 transform [i]
            bb = bb.copy()
            bb[j, j] = -bb[j, j]
            phi[j] = 1j
            log.append({"step": "scalar-sign-flip", "position": j})
        log.append({"step": "merge-scalars", "values": [str(bb[i, i]), str(bb[j, j])]})
        units = [[i, j]] + [idx for idx in units if idx[0] not in (i, j)]
        k = 0
    idx = units[k]
    c_x, vals = _fix_mu1(bb[np.ix_(idx[:2], idx[:2])])
    sp = _real_split(bb, units, (k, c_x, vals))
    first = idx[0]
    order = [first] + [i for i in range(bb.shape[0]) if i != first]
    w, w_inv, values = sp.W[:, order], sp.W_inv[order], sp.values[order]
    mu1 = vals[0]
    borders = [1, int(mu1) - 1, 1, -1]
    bordered = [
        direct_sum(Matrix.floating([[complex(s)]]), k_rest)
        for s, k_rest in zip(borders, diagonal_case_summands(values[1:].tolist()))
    ]
    entry = {"step": "odd-borders", "mu1": str(int(mu1)), "borders": [str(v) for v in borders], "cond_W": sp.cond_W}
    return [Matrix.floating(w_inv @ sp.C @ w)] + bordered, phi[:, None] * w, entry


def coninvolutory_sum(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
    pad_to: int | None = None,
) -> Decomposition:
    """At most 4 (n = 2) or 5 (n >= 3) coninvolutory summands for any
    complex square matrix of size >= 2.  The summands are certified before
    they are returned: ConvergenceFailure when the certificate misses."""
    if a.n < 2:
        raise UnsupportedSize("coninvolutory sums need n >= 2")
    a = a.to_floating()
    log: list = []

    if a.is_zero():
        summands = [Matrix.identity(a.n), -Matrix.identity(a.n)]
        log.append({"step": "zero-input", "count": 2})
        return _finish(a, summands, log, tol, pad_to)

    s0, b = consimilar_to_real(a, seed=seed, tol=tol)
    log.append({"step": "consimilar-to-real", "n": a.n, "cond_S": float(np.linalg.cond(s0.to_array()))})

    if a.n == 2:
        inner = coninv_sum_2x2(b, log=log)
        summands = consim_conjugate_list(s0, inner.summands)
        return _finish(a, summands, inner.log, tol, pad_to)

    if a.n % 2 == 0:
        sp = _real_split(b.to_array().real)
        inner = [Matrix.floating(sp.W_inv @ sp.C @ sp.W)] + diagonal_case_summands(sp.values.tolist())
        u = sp.W
        entry = {"step": "even-split", "diagonal": sp.values.tolist(), "cond_W": sp.cond_W}
    else:
        inner, u, entry = _odd_real_summands(b, log=log)
    summands = consim_conjugate_list(s0 @ Matrix.floating(u), inner)
    entry["amplification"] = max(k.frobenius_norm() for k in summands) / a.frobenius_norm()
    log.append(entry)
    return _finish(a, summands, log, tol, pad_to)


def consim_conjugate_list(u: Matrix, ks: list[Matrix]) -> list[Matrix]:
    """K -> conj(U) K U^{-1}; preserves both summand predicates."""
    u_bar = Matrix.floating(np.conj(u.to_array()))
    u_inv = u.inverse()
    return [u_bar @ k @ u_inv for k in ks]


def _finish(
    a: Matrix,
    summands: list[Matrix],
    log: list,
    tol: Tolerance,
    pad_to: int | None,
) -> Decomposition:
    cert = verify_decomposition(a, Decomposition(kind=KIND_CONINV_SUM, summands=summands), tol)
    if not cert.passed:
        raise ConvergenceFailure(
            f"coninvolutory sum misses its certificate: sum residual {cert.sum_residual:.3g}, "
            f"bound {tol.bound(a.frobenius_norm()):.3g}"
        )
    if pad_to is not None and pad_to > len(summands):
        if a.is_zero() and pad_to == 5 and len(summands) == 2:
            omega = complex(np.exp(2j * np.pi / 3))
            eye = Matrix.identity(a.n)
            summands = [eye, omega * eye, omega**2 * eye, eye, -eye]
            log.append({"step": "zero-pad-unimodular", "count": 5})
        else:
            while len(summands) < pad_to:
                k1, k2 = split_unimodular(summands[-1])
                summands = summands[:-1] + [k1, k2]
            log.append({"step": "pad-split", "count": len(summands)})
    log.append({"step": "summands", "count": len(summands)})
    return Decomposition(kind=KIND_CONINV_SUM, summands=summands, log=log)
