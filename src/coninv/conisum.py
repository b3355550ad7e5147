"""Coninvolutory sum decompositions.

Every complex square matrix is first traded for a consimilar real matrix
B (``consimilar_to_real``), a direct sum of 1-by-1 blocks, real pairs
[[a, b], [-b, a]], J(lam, m) and real-pair chains; sums of coninvolutory
matrices push through consimilarity, so the real cases carry the
construction:

* 2-by-2: B is read as it stands.  diag(x, y) takes the diagonal 4-sum;
  otherwise B = a I + [[0, x], [y, 0]] (J_2(a), or a real pair with
  y = -x) and takes the identity pair at c = a/2 plus the off-diagonal
  pair (4 summands);
* even size: split B block by block as C + W diag(values) W^{-1} with C
  real involutory and W real (``_real_split``), then run the 2-by-2
  diagonal pairs in parallel across diag(values) (1 + 4 summands);
* odd size: the same split, with one 2-by-2 part (a real pair, the leading
  J_2 of a chain, or two 1-by-1 blocks merged, one sign-flipped by a
  1-by-1 consimilarity when every scalar is equal) given the value mu_1 in
  {0, 2}, which unit-modulus scalar borders then peel off (1 + 4 summands).

The skew sum (``skewsum``) ends the same way, and the shared steps live
here.  A real diagonal remainder is four displayed 2-by-2 summands with
conj(K) K = s I, s = +1 here and -1 for the skew sum (``displayed_pairs``,
``_diagonal_summands``).  The summands of the real frame are one (k, n, n)
stack, conjugated back in one product (``consim_conjugate_list``), and
``_finish`` checks the certificate against the original input, pads to
``pad_to`` (``_pad``) and wraps each summand as a ``Matrix``.  All of it
is floating arithmetic in closed form per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .certify import KIND_CONINV_SUM, Decomposition, require_certificate
from .concanon import _diagonal_blocks, consimilar_to_real
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    ConvergenceFailure,
    Matrix,
    Tolerance,
    UnsupportedSize,
)

# ---------------------------------------------------------------------------
# the displayed summands, for conj(K) K = s I with s = +1 or -1
# ---------------------------------------------------------------------------


def displayed_pairs(t, c, s: int):
    """(re, im) grids of four 2-by-2 summands K with conj(K) K = s I: the
    traceless pair [[t, +-s], [+-(1 - s t^2), -t]], which sums to
    diag(2t, -2t), and the identity pair [[c, +-i s], [+-i (1 - s c^2), c]],
    which sums to diag(2c, 2c).  The entries are plain arithmetic on t and
    c, so Fraction scalars give exact Gaussian-rational grids and float
    arrays give every pair at once."""
    # zeros (and s + zeros) in the type and shape of t and c
    zt, zc = 0 * t, 0 * c
    u, v = 1 - s * t * t, 1 - s * c * c
    re = [[[t, s + zt], [u, -t]], [[t, -s + zt], [-u, -t]], [[c, zc], [zc, c]], [[c, zc], [zc, c]]]
    im = [[[zt, zt], [zt, zt]], [[zt, zt], [zt, zt]], [[zc, s + zc], [v, zc]], [[zc, -s + zc], [-v, zc]]]
    return re, im


def offdiagonal_pair(x, y):
    """[[0, x], [y, 0]] as [[1, x], [0, -1]] + [[-1, 0], [y, 1]], two real
    involutory matrices: the nilpotent pair at (1, 0) and the rotation pair
    at (b, -b)."""
    return [[[1, x], [0, -1]], [[-1, 0], [y, 1]]]


def _diagonal_summands(values, s: int) -> np.ndarray:
    """The four summands of ``displayed_pairs`` for diag(values), as a
    (4, n, n) stack: consecutive values (a, b) take the traceless pair at
    t = (a - b)/4 and the identity pair at c = (a + b)/4 on their own
    2-by-2 diagonal block.  len(values) must be even."""
    vals = np.asarray(values, dtype=float)
    if len(vals) % 2:
        raise ValueError("even value count required")
    a, b = vals[0::2], vals[1::2]
    k = len(a)
    blocks = np.empty((4, 2, 2, k), dtype=complex)
    blocks.real, blocks.imag = displayed_pairs((a - b) / 4, (a + b) / 4, s)
    out = np.zeros((4, k, 2, k, 2), dtype=complex)
    j = np.arange(k)
    out[:, j, :, j, :] = blocks.transpose(3, 0, 1, 2)
    return out.reshape(4, 2 * k, 2 * k)


def _real_2x2_summands(b: np.ndarray) -> tuple[np.ndarray, dict]:
    """Four coninvolutory summands for a real 2-by-2 B in the form of
    ``consimilar_to_real``, and the route's log entry.  diag(x, y) takes
    the diagonal 4-sum; B = a I + [[0, x], [y, 0]] (J_2(a): y = 0, a real
    pair: y = -x) the identity pair at c = a/2 and the off-diagonal pair."""
    a, x, y = (float(v) for v in (b[0, 0], b[0, 1], b[1, 0]))
    if x == y == 0:
        d = float(b[1, 1])
        return _diagonal_summands([a, d], 1), {"step": "real-2x2", "class": "diag", "params": [a, d]}
    stack = np.concatenate([_diagonal_summands([a, a], 1)[2:], offdiagonal_pair(x, y)])
    if y == 0:
        return stack, {"step": "real-2x2", "class": "jordan", "params": [a]}
    return stack, {"step": "real-2x2", "class": "rotation", "params": [a, x]}


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


def _odd_real_summands(bb: np.ndarray, *, log: list) -> tuple[np.ndarray, np.ndarray, dict]:
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
    scalars [1, mu1 - 1, 1, -1] around the diagonal 4-sum of rest, and C
    conjugated by W is the fifth.
    """
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
    order = [first] + [i for i in range(n) if i != first]
    w, w_inv, values = sp.W[:, order], sp.W_inv[order], sp.values[order]
    mu1 = vals[0]
    borders = [1, int(mu1) - 1, 1, -1]
    inner = np.zeros((5, n, n), dtype=complex)
    inner[0] = w_inv @ sp.C @ w
    inner[1:, 0, 0] = borders
    inner[1:, 1:, 1:] = _diagonal_summands(values[1:], 1)
    entry = {"step": "odd-borders", "mu1": str(int(mu1)), "borders": [str(v) for v in borders], "cond_W": sp.cond_W}
    return inner, phi[:, None] * w, entry


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
        log.append({"step": "zero-input", "count": 2})
        zero = _pad(np.empty((0, a.n, a.n)), 2, _unit(KIND_CONINV_SUM, a.n))
        return _finish(KIND_CONINV_SUM, a, zero, log, tol, pad_to)

    s0, b = consimilar_to_real(a, seed=seed, tol=tol)
    log.append({"step": "consimilar-to-real", "n": a.n, "cond_S": float(np.linalg.cond(s0.to_array()))})
    bb = b.to_array().real

    if a.n == 2:
        inner, entry = _real_2x2_summands(bb)
        u = s0
    elif a.n % 2 == 0:
        sp = _real_split(bb)
        inner = np.concatenate([(sp.W_inv @ sp.C @ sp.W)[None], _diagonal_summands(sp.values, 1)])
        u = s0 @ Matrix.floating(sp.W)
        entry = {"step": "even-split", "diagonal": sp.values.tolist(), "cond_W": sp.cond_W}
    else:
        inner, w, entry = _odd_real_summands(bb, log=log)
        u = s0 @ Matrix.floating(w)
    log.append(entry)
    return _finish(KIND_CONINV_SUM, a, consim_conjugate_list(u, inner), log, tol, pad_to)


# ---------------------------------------------------------------------------
# the shared end of both sums
# ---------------------------------------------------------------------------


def consim_conjugate_list(u: Matrix, ks: np.ndarray) -> np.ndarray:
    """K -> conj(U) K U^{-1} over a (k, n, n) stack in one product;
    preserves both summand predicates."""
    return np.conj(u.to_array()) @ ks @ u.inverse().to_array()


def _unit(kind: str, n: int) -> np.ndarray:
    """The padding unit of a summand kind: I, or the direct sum of 2-by-2
    skew units [[0, 1], [-1, 0]]."""
    if kind == KIND_CONINV_SUM:
        return np.eye(n, dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    i = np.arange(0, n, 2)
    unit[i, i + 1], unit[i + 1, i] = 1.0, -1.0
    return unit


def _pad(stack: np.ndarray, target: int, unit: np.ndarray) -> np.ndarray:
    """Stretch a summand stack to `target` entries, keeping its sum: one
    split K = uK + conj(u)K of the last summand (u = e^{i pi/3}, so
    u + conj(u) = 1) fixes the parity, and pairs (unit, -unit) do the rest.
    Unimodular multiples keep either summand predicate."""
    out = list(stack)
    if (target - len(out)) % 2:
        u = complex(np.exp(1j * np.pi / 3))
        last = out.pop()
        out += [u * last, np.conj(u) * last]
    out += [unit, -unit] * ((target - len(out)) // 2)
    return np.array(out, dtype=complex)


def _finish(
    kind: str,
    a: Matrix,
    stack: np.ndarray,
    log: list,
    tol: Tolerance,
    pad_to: int | None,
) -> Decomposition:
    """Certify the summands of either sum against A, record max ||K_i||_F /
    ||A||_F, pad to `pad_to` and wrap each summand as a Matrix."""
    summands = [Matrix.floating(k) for k in stack]
    what = "coninvolutory sum" if kind == KIND_CONINV_SUM else "skew sum"
    require_certificate(a, Decomposition(kind, summands), tol, what)
    entry: dict = {"step": "summands"}
    if not a.is_zero():
        entry["amplification"] = max(k.frobenius_norm() for k in summands) / a.frobenius_norm()
    if pad_to is not None and pad_to > len(summands):
        summands = [Matrix.floating(k) for k in _pad(stack, pad_to, _unit(kind, a.n))]
        log.append({"step": "pad", "count": len(summands)})
    entry["count"] = len(summands)
    log.append(entry)
    return Decomposition(kind=kind, summands=summands, log=log)
