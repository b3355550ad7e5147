"""Coninvolutory sum decompositions.

Every complex square matrix is first traded for a consimilar real matrix;
sums of coninvolutory matrices push through consimilarity, so the real
cases carry the construction:

* 2-by-2: classify to diagonal / Jordan / rotation form and use the
  displayed two-summand pairs (4 summands total);
* even size: split off one coninvolutory summand so the remainder is a
  real diagonal matrix, then run the 2-by-2 diagonal pairs in parallel
  across the diagonal (1 + 4 summands);
* odd size: Frobenius form, force a leading block of degree > 1 (merging
  two distinct scalar blocks, flipping a scalar's sign by a 1-by-1
  consimilarity when every scalar is equal), split the leading block as
  involutory + diag(mu_1, ...), the remaining blocks as coninvolutory +
  diagonal, and peel the odd diagonal entry with unit-modulus scalar
  borders (1 + 4 summands).

The canonical-side arithmetic stays exact rational; only the accumulated
change-of-basis is floating, and the final certificate is checked against
the original input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certify import (
    KIND_CONINV_CONDIAG,
    KIND_CONINV_SUM,
    Decomposition,
)
from .concanon import consimilar_to_real
from .exactcanon import (
    _distinct_values,
    _split_block,
    frobenius_form,
    involutory_diagonalizable_split,
    involutory_plus_diagonal_split,
    merge_companions,
    poly_mul,
)
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Matrix,
    Polynomial,
    Tolerance,
    UnsupportedSize,
    _block_permutation,
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


def _exact_coninv_plus_diag(b: Matrix, reserved=()) -> tuple[Matrix, Matrix, tuple]:
    """W, C, values with W^{-1} B W = C + diag(values), all exact; W real."""
    split = involutory_diagonalizable_split(b, reserved=reserved)
    w_inv = split.W.inverse()
    c = w_inv @ split.V @ split.W
    return split.W, c, split.spectrum


def coninvolutory_condiagonalizable_split(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> CondiagSplit:
    """A = C + D with C coninvolutory and D real-condiagonalizable.

    Route: consimilar-to-real, exact involutory+diagonalizable split of the
    rationalized real matrix, conjugate back.  D is returned as A - C so the
    reconstruction is exact; the witness carries its own small residual.
    """
    s, b = consimilar_to_real(a.to_floating(), seed=seed, tol=tol)
    split = involutory_diagonalizable_split(b.rationalize())
    s_arr = s.to_array()
    s_bar = Matrix.floating(np.conj(s_arr))
    s_inv = s.inverse()
    c = s_bar @ split.V.to_floating() @ s_inv
    d = a.to_floating() - c
    # D = conj(Q)^{-1} diag Q with Q = W^{-1} S^{-1}
    q = split.W.to_floating().inverse() @ s_inv
    return CondiagSplit(C=c, D=d, witness=q, values=tuple(float(x) for x in split.spectrum))


def coninvolutory_plus_real_diagonal(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Matrix, Matrix, Matrix]:
    """(S, C, D): conj(S)^{-1} A S = C + D, C coninvolutory, D real diagonal."""
    s0, b = consimilar_to_real(a.to_floating(), seed=seed, tol=tol)
    w, c, values = _exact_coninv_plus_diag(b.rationalize())
    s = s0 @ w.to_floating()
    d = Matrix.diag([float(v) for v in values])
    return s, c.to_floating(), d


# ---------------------------------------------------------------------------
# the full coninvolutory-sum pipeline
# ---------------------------------------------------------------------------


def _odd_real_summands(
    b: Matrix,
    *,
    log: list,
) -> tuple[list[Matrix], Matrix]:
    """Five coninvolutory summands for an odd-size real matrix (exact on the
    canonical side) plus the floating transform W with B = conj(W) M W^{-1}
    relating the summand frame M back to B."""
    b_rat = b.rationalize()
    form = frobenius_form(b_rat)
    blocks = list(form.blocks)
    # B_rat = S_f^{-1} (sum F_i) S_f
    u = form.S_inv.to_floating()

    sizes = [f.m for f in blocks]
    order = list(range(len(blocks)))
    lead = next((i for i in order if blocks[i].m > 1), None)
    if lead is None:
        # all scalar blocks; merge two distinct scalars (flip a sign if needed)
        vals = [Fraction(f.a[0]) for f in blocks]
        nz = next(i for i, v in enumerate(vals) if v != 0)
        order = [nz] + [i for i in order if i != nz]
        partner = next((i for i in order[1:] if vals[i] != vals[nz]), None)
        flip = partner is None
        if flip:
            partner = order[1]
        order = [order[0], partner] + [i for i in order[1:] if i != partner]
        u = u @ _block_permutation(sizes, order)
        blocks = [blocks[i] for i in order]
        vals = [Fraction(f.a[0]) for f in blocks]
        if flip:
            # [a] and [-a] are consimilar via the 1-by-1 transform [i]
            phi = np.eye(b.n, dtype=complex)
            phi[1, 1] = 1j
            u = u @ Matrix.floating(phi)
            vals[1] = -vals[1]
            log.append({"step": "scalar-sign-flip", "position": 1})
        fa, fb = Polynomial((vals[0],)), Polynomial((vals[1],))
        t, merged = merge_companions(fa, fb)
        n_rest = b.n - 2
        t_embed = direct_sum(t, Matrix.identity(n_rest, "exact")) if n_rest else t
        u = u @ t_embed.inverse().to_floating()
        blocks = [poly_mul(fa, fb)] + blocks[2:]
        log.append({"step": "merge-scalars", "values": [str(vals[0]), str(vals[1])]})
    elif lead != 0:
        order = [lead] + [i for i in order if i != lead]
        u = u @ _block_permutation(sizes, order)
        blocks = [blocks[i] for i in order]
        log.append({"step": "lead-block-swap", "index": lead})

    f1 = blocks[0]
    m1 = f1.m
    a11 = Fraction(f1.a[0])
    pure_even_binomial = m1 == 2 and a11 == 0
    mu1 = Fraction(2) if pure_even_binomial else Fraction(0)
    total = a11 + 2 - m1
    mus = [mu1, *_distinct_values(m1 - 1, total - mu1, {mu1})]
    sp = involutory_plus_diagonal_split(f1, mus)
    w_blocks = [sp.R]
    conin_blocks = [sp.G]
    diag_values: list[Fraction] = list(mus)
    used: set[Fraction] = set(mus)
    for f in blocks[1:]:
        # the remaining blocks as coninvolutory + diagonal, R^{-1} G R + diag
        g, _, r, vals_i = _split_block(f, used)
        used.update(vals_i)
        w_blocks.append(r)
        conin_blocks.append(g if f.m == 1 else r.inverse() @ g @ r)
        diag_values.extend(vals_i)
    w_all = direct_sum(*w_blocks)
    u = u @ w_all.to_floating()
    c_hat = direct_sum(*conin_blocks)

    rest = diag_values[1:]
    borders = [Fraction(1), mu1 - 1, Fraction(1), Fraction(-1)]
    diag_summands = diagonal_case_summands(rest)
    bordered = [
        direct_sum(Matrix.floating([[complex(float(s), 0.0)]]), k)
        for s, k in zip(borders, diag_summands)
    ]
    log.append(
        {
            "step": "odd-borders",
            "mu1": str(mu1),
            "borders": [str(x) for x in borders],
        }
    )
    return [c_hat.to_floating()] + bordered, u


def coninvolutory_sum(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
    pad_to: int | None = None,
) -> Decomposition:
    """At most 4 (n = 2) or 5 (n >= 3) coninvolutory summands for any
    complex square matrix of size >= 2, certificate-ready."""
    if a.n < 2:
        raise UnsupportedSize("coninvolutory sums need n >= 2")
    a = a.to_floating()
    log: list = []

    if a.is_zero():
        summands = [Matrix.identity(a.n), -Matrix.identity(a.n)]
        log.append({"step": "zero-input", "count": 2})
        return _finish(a, summands, log, [], pad_to)

    s0, b = consimilar_to_real(a, seed=seed, tol=tol)
    log.append({"step": "consimilar-to-real", "n": a.n})

    if a.n == 2:
        inner = coninv_sum_2x2(b, log=log)
        summands = consim_conjugate_list(s0, inner.summands)
        return _finish(a, summands, inner.log, [], pad_to)

    if a.n % 2 == 0:
        b_rat = b.rationalize()
        w, c_exact, values = _exact_coninv_plus_diag(b_rat)
        u = w.to_floating()
        inner = [c_exact.to_floating()] + diagonal_case_summands(list(values))
        log.append({"step": "even-split", "diagonal": [str(v) for v in values]})
        summands = consim_conjugate_list(s0 @ u, inner)
        return _finish(a, summands, log, [], pad_to)

    inner, u = _odd_real_summands(b, log=log)
    summands = consim_conjugate_list(s0 @ u, inner)
    return _finish(a, summands, log, [], pad_to)


def consim_conjugate_list(u: Matrix, ks: list[Matrix]) -> list[Matrix]:
    """K -> conj(U) K U^{-1}; preserves both summand predicates."""
    u_bar = Matrix.floating(np.conj(u.to_array()))
    u_inv = u.inverse()
    return [u_bar @ k @ u_inv for k in ks]


def _finish(
    a: Matrix,
    summands: list[Matrix],
    log: list,
    flags: list[str],
    pad_to: int | None,
) -> Decomposition:
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
    return Decomposition(kind=KIND_CONINV_SUM, summands=summands, log=log, flags=flags)
