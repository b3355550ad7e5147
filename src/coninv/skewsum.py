"""Skew-coninvolutory sum decompositions (even sizes only).

The real 2-by-2 skew-coninvolutory matrices are exactly the trace-0,
determinant-1 matrices M(a, b) = [[a, b], [-(1+a^2)/b, -a]], b != 0
(Cayley-Hamilton gives M^2 = -I).  Sums of skew-coninvolutory matrices
push through consimilarity, so the sum trades A for the consimilar real
B of ``consimilar_to_real`` and works on its two parts:

* the real-pair chains of B (from the H-blocks of the canonical form):
  each 2-by-2 window [[a, b], [-b, a]] takes M(0, q), which leaves the
  window eigenvalues a +- delta; the chain's I_2 coupling keeps B - C block
  upper triangular, so B - C is real-diagonalizable and the displayed
  diagonal pairs finish it (1 + 4 summands);
* the J-blocks of B: one skew block per consecutive diagonal pair of the
  bidiagonal form, tuned so the remainder has distinct real eigenvalues,
  then the diagonal pairs (4 summands when every block is 1-by-1, else
  1 + 4).

A pair (lambda, lambda) with no Jordan coupling is "forbidden": every real
skew block leaves remainder eigenvalues lambda +- i there.  J_m(lambda) is
consimilar to J_m(-lambda), so every second odd-size J-block of a value
lambda != 0 is sign-flipped, and then the blocks are reordered.  What
stays forbidden (in practice, windows where two odd J(0) blocks meet)
routes through a seeded randomized search and, as a last resort, a flagged
6-summand fallback that keeps the rotation part as one extra skew summand.

The search evaluates its draws as stacked numpy calls in fixed chunks of
8, 16, 32, 64 and 80 (`SEARCH_CHUNKS`, 200 draws in all), so an early
success stays cheap and a failed search costs five rounds of LAPACK calls
instead of two hundred.  Its outcome is identical, bit for bit, to
evaluating the same seeded draws one at a time.  Every sum checks its
certificate before it returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations, repeat

import numpy as np

from .certify import FLAG_NONOPTIMAL, KIND_SKEW_SUM, Decomposition, require_certificate
from .concanon import _diagonal_blocks, consimilar_to_real, skew_base
from .conisum import consim_conjugate_list, diagonal_pair_summands, split_unimodular
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    ConvergenceFailure,
    Matrix,
    Tolerance,
    UnsupportedSize,
    _block_permutation,
    direct_sum,
)

#: parameter caps and separation targets for the pair tuning
PARAM_CAP = 1e3
B_FLOOR = 1e-3
SEPARATION = 1e-2

#: draws of the randomized search for forbidden pairs, and the chunk sizes
#: it evaluates them in (doubling, so an early success stays cheap)
SEARCH_DRAWS = 200
SEARCH_CHUNKS = (8, 16, 32, 64, 80)


class ParameterCapExceeded(ConvergenceFailure):
    """The pair tuning found no skew block within the parameter caps: the
    input is valid, but its two pair values are too close (or demand too
    wide a separation) for the real skew block family."""


# ---------------------------------------------------------------------------
# displayed pairs and the real skew block family
# ---------------------------------------------------------------------------


def skew_identity_pair(c):
    """diag(2c, 2c) as a sum of two skew-coninvolutory matrices (+-i pair)."""
    one = c * 0 + 1
    w = one + c * c
    zero = c * 0
    k1 = [[(c, zero), (zero, -one)], [(zero, w), (c, zero)]]
    k2 = [[(c, zero), (zero, one)], [(zero, -w), (c, zero)]]
    return k1, k2


def skew_traceless_pair(c):
    """diag(2c, -2c) as a sum of two real skew-coninvolutory matrices."""
    one = c * 0 + 1
    w = one + c * c
    zero = c * 0
    k1 = [[(c, zero), (-one, zero)], [(w, zero), (-c, zero)]]
    k2 = [[(c, zero), (one, zero)], [(-w, zero), (-c, zero)]]
    return k1, k2


def skew_block(a, b):
    """M(a, b) = [[a, b], [-(1+a^2)/b, -a]]: trace 0, det 1, so M^2 = -I."""
    if b == 0:
        raise ValueError("b must be nonzero")
    one = a * 0 + 1
    return [[a, b], [-(one + a * a) / b, -a]]


def skew_block_matrix(a: float, b: float) -> Matrix:
    return Matrix.floating(np.array(skew_block(float(a), float(b)), dtype=complex))


def skew_diag_summands(values) -> list[Matrix]:
    """Four global skew summands for diag(values), len(values) even."""
    return diagonal_pair_summands(values, skew_traceless_pair, skew_identity_pair)


def skew_sum_diag_pair(a, b) -> Decomposition:
    """Exactly four skew-coninvolutory 2-by-2 summands for diag(a, b)."""
    summands = skew_diag_summands([a, b])
    return Decomposition(
        kind=KIND_SKEW_SUM,
        summands=summands,
        log=[{"step": "diag-pair", "values": [float(a), float(b)]}],
    )


# ---------------------------------------------------------------------------
# pair parameter choice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSpec:
    """One 2-by-2 diagonal window [[lambda1, eps + rot], [-rot, lambda2]]:
    a consecutive diagonal pair of the bidiagonal form (rot = 0), with eps
    the coupling inside the pair, or a window [[a, b], [-b, a]] of a
    real-pair chain (lambda1 = lambda2 = a, eps = 0, rot = b != 0).
    eps = 1 forces lambda1 = lambda2 (same Jordan block)."""

    lambda1: float
    lambda2: float
    eps: int
    rot: float = 0.0

    @property
    def forbidden(self) -> bool:
        return self.eps == 0 and self.rot == 0 and self.lambda1 == self.lambda2


@dataclass(frozen=True)
class SkewParams:
    a: float
    b: float


def pair_discriminant(lambda1: float, lambda2: float, eps: int, a: float, b: float) -> float:
    """Discriminant of the remainder block diag-pair minus M(a, b), for a
    window of the bidiagonal form (rot = 0)."""
    if eps == 1:
        return 4.0 * ((1.0 + a * a) / b - 1.0)
    g = lambda1 - lambda2
    return g * g - 4.0 * g * a - 4.0


def _separation_stream():
    s = 1.1
    while True:
        yield s
        s += 0.5


def choose_pair_params(p: PairSpec, used: set[float]) -> tuple[SkewParams, tuple[float, float]]:
    """Parameters (a, b) whose remainder pair has two distinct real
    eigenvalues mid +- s outside `used`, s from the separation stream
    (a = 0 on a coupled pair and on a real-pair window); raises ValueError
    on forbidden pairs and ParameterCapExceeded when a parameter would
    leave its cap."""
    if p.forbidden:
        raise ValueError("forbidden pair: equal values without coupling")
    mid = (p.lambda1 + p.lambda2) / 2.0
    for s in _separation_stream():
        nu = (mid - s, mid + s)
        if any(abs(v - u) < SEPARATION for v in nu for u in used):
            continue
        if p.rot:
            # the window minus M(0, q) has off-diagonal product
            # (rot - q)(1/q - rot) = s^2 when rot q^2 - (1 + rot^2 + s^2) q
            # + rot = 0; its roots q and 1/q give C the same norm, and this
            # is the larger one, free of cancellation
            r = p.rot
            q = (1.0 + r * r + s * s + np.sqrt(((1.0 - r) ** 2 + s * s) * ((1.0 + r) ** 2 + s * s))) / (2.0 * r)
            return SkewParams(a=0.0, b=float(q)), nu
        if p.eps == 1:
            a = 0.0
            b = 1.0 / (1.0 + s * s)
            if b < B_FLOOR:
                raise ParameterCapExceeded(
                    f"pair ({p.lambda1:.6g}, {p.lambda2:.6g}): b = {b:.3g} for separation {s:g} "
                    f"is below the floor {B_FLOOR:g}"
                )
        else:
            g = p.lambda1 - p.lambda2
            a = (g * g - 4.0 - 4.0 * s * s) / (4.0 * g)
            b = 1.0
            if abs(a) > PARAM_CAP:
                raise ParameterCapExceeded(
                    f"pair values {p.lambda1:.6g}, {p.lambda2:.6g} too close: |a| = {abs(a):.3g} "
                    f"exceeds the parameter cap {PARAM_CAP:g}"
                )
        assert pair_discriminant(p.lambda1, p.lambda2, p.eps, a, b) > 0
        return SkewParams(a=a, b=b), nu


# ---------------------------------------------------------------------------
# bidiagonal (Jordan-type) inputs
# ---------------------------------------------------------------------------


def _read_bidiagonal(a: Matrix) -> tuple[list[float], list[int]]:
    arr = a.to_array()
    n = a.n
    if float(np.max(np.abs(arr.imag))) > 1e-12 * (1 + np.max(np.abs(arr))):
        raise ValueError("bidiagonal input must be real")
    re = arr.real
    lam = [float(re[i, i]) for i in range(n)]
    eps = []
    for i in range(n - 1):
        v = float(re[i, i + 1])
        if abs(v) < 1e-9:
            eps.append(0)
        elif abs(v - 1.0) < 1e-9:
            eps.append(1)
        else:
            raise ValueError("superdiagonal entries must be 0 or 1")
        re[i, i + 1] = 0.0
    for i in range(n):
        re[i, i] = 0.0
    if float(np.max(np.abs(re))) > 1e-9:
        raise ValueError("input is not upper bidiagonal")
    return lam, eps


def _blocks_of(lam: list[float], eps: list[int]) -> list[tuple[float, int]]:
    blocks = []
    start = 0
    for i, e in enumerate(eps + [0]):
        if e == 0:
            blocks.append((lam[start], i - start + 1))
            start = i + 1
    return blocks


def _layout(blocks: list[tuple[float, int]]) -> tuple[list[float], list[int]]:
    lam, eps = [], []
    for value, size in blocks:
        lam.extend([value] * size)
        eps.extend([1] * (size - 1) + [0])
    return lam, eps[:-1]


def _pairs_of(lam: list[float], eps: list[int]) -> list[PairSpec]:
    return [PairSpec(lam[k], lam[k + 1], eps[k]) for k in range(0, len(lam), 2)]


def _forbidden_count(blocks) -> int:
    lam, eps = _layout(blocks)
    return sum(1 for p in _pairs_of(lam, eps) if p.forbidden)


def _best_block_order(blocks: list[tuple[float, int]]) -> list[tuple[float, int]]:
    if len(blocks) > 7:
        return blocks
    best, best_count = blocks, _forbidden_count(blocks)
    if best_count == 0:
        return best
    for perm in permutations(blocks):
        c = _forbidden_count(list(perm))
        if c < best_count:
            best, best_count = list(perm), c
            if c == 0:
                break
    return best


def _permutation_for(blocks, target) -> Matrix:
    """Permutation P with P^{-1} (dsum blocks) P = dsum target."""
    remaining = list(range(len(blocks)))
    order = []
    for t in target:
        idx = next(i for i in remaining if blocks[i] == t)
        order.append(idx)
        remaining.remove(idx)
    return _block_permutation([s for _, s in blocks], order)


def _real_spectrum(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 + max|lambda|, max|Im lambda| <= 1e-8 (1 + max|lambda|)) over the
    last axis: one spectrum, or a stack of them."""
    scale = 1.0 + np.max(np.abs(vals), axis=-1)
    return scale, ~(np.max(np.abs(vals.imag), axis=-1) > 1e-8 * scale)


def _diagonalize_real(d: Matrix, cond_cap: float = 1e8) -> tuple[Matrix, list[float]] | None:
    """(T, values) with D = T diag(values) T^{-1}, all real; None if the
    spectrum is not real and simple enough."""
    arr = d.to_array().real
    vals, vecs = np.linalg.eig(arr)
    scale, real = _real_spectrum(vals)
    if not real:
        return None
    order = np.argsort(vals.real)
    vals = vals.real[order]
    if np.min(np.diff(vals)) < 1e-6 * scale:
        return None
    t = np.real(vecs[:, order])
    if not np.all(np.isfinite(t)) or np.linalg.cond(t) > cond_cap:
        return None
    return Matrix.floating(t), [float(v) for v in vals]


def _sign_flipped(blocks: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """The blocks with every second odd-size block of each value
    lambda != 0 replaced by J(-lambda): two odd blocks of one value meet
    in a forbidden pair, a value and its negative never do."""
    seen: Counter[float] = Counter()
    out = []
    for value, size in blocks:
        if size % 2 and value != 0:
            seen[value] += 1
            if seen[value] % 2 == 0:
                value = -value
        out.append((value, size))
    return out


def _split_summands(c: Matrix, t: Matrix, values: list[float]) -> list[Matrix]:
    """C + T diag(values) T^{-1} (T real) as C and the diagonal 4-sum."""
    return [c] + consim_conjugate_list(t, skew_diag_summands(values))


def _pair_split(a: Matrix, pairs: list[PairSpec]) -> tuple[list[Matrix], list[float]] | None:
    """Five skew summands for a real A that is block upper triangular over
    the 2-by-2 diagonal windows `pairs`: one skew block per window, tuned by
    ``choose_pair_params`` so A - C has distinct real eigenvalues, then the
    diagonal 4-sum of A - C.  Returns (summands, eigenvalues of A - C), or
    None when a pair is forbidden or A - C is not real-diagonalizable."""
    if any(p.forbidden for p in pairs):
        return None
    used: set[float] = set()
    cblocks = []
    for p in pairs:
        params, nu = choose_pair_params(p, used)
        used.update(nu)
        cblocks.append(skew_block_matrix(params.a, params.b))
    c = direct_sum(*cblocks)
    diag = _diagonalize_real(a - c)
    if diag is None:
        return None
    t, values = diag
    return _split_summands(c, t, values), values


def skew_sum_jordan(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> Decomposition:
    """Skew sum for a real direct sum of upper-bidiagonal Jordan-type
    blocks (even size).  Strategy chain for forbidden pairs: sign-flip
    every second odd-size block of each value lambda != 0 (J_m(lambda) is
    consimilar to J_m(-lambda) through i diag(1, -1, 1, ...)), reorder the
    direct summands, then a seeded randomized search for a general real
    skew summand, then the flagged 6-summand fallback."""
    if a.n % 2:
        raise UnsupportedSize("even size required")
    lam, eps = _read_bidiagonal(a)
    log: list[dict] = []

    if all(e == 0 for e in eps):
        summands = skew_diag_summands(lam)
        log.append({"step": "diagonal-case", "count": 4})
        return Decomposition(KIND_SKEW_SUM, summands, log=log)

    blocks = _blocks_of(lam, eps)
    flipped = _sign_flipped(blocks)
    phase = np.ones(a.n, dtype=complex)
    if flipped != blocks:
        offsets = np.cumsum([0] + [size for _, size in blocks])
        for (value, size), (new, _), start in zip(blocks, flipped, offsets):
            if new != value:
                phase[start : start + size] = 1j * (-1.0) ** np.arange(size)
        log.append({"step": "sign-flip", "blocks": [[v, s] for v, s in flipped]})
    ordered = _best_block_order(flipped)
    if ordered != flipped:
        log.append({"step": "block-reorder", "order": [[v, s] for v, s in ordered]})
    # U = diag(phase) P has one unimodular entry per row and column, so
    # conj(U)^{-1} = U^T and U^T A U is the flipped, reordered layout
    u = Matrix.diag(phase) @ _permutation_for(flipped, ordered)
    lam2, eps2 = _layout(ordered)
    a2 = u.transpose() @ a @ u

    split = _pair_split(a2, _pairs_of(lam2, eps2))
    if split is not None:
        inner, values = split
        log.append({"step": "pair-split", "count": 5, "eigenvalues": values})
        return Decomposition(KIND_SKEW_SUM, consim_conjugate_list(u, inner), log=log)

    found = _random_search(a2, seed=seed, tol=tol)
    if found is not None:
        c, t, values, restarts = found
        summands = consim_conjugate_list(u, _split_summands(c, t, values))
        log.append({"step": "randomized-search", "restarts": restarts, "count": 5})
        return Decomposition(KIND_SKEW_SUM, summands, log=log)

    summands = consim_conjugate_list(u, _rotation_fallback(a2, lam2, eps2))
    log.append({"step": "rotation-fallback", "count": len(summands), "restarts": SEARCH_DRAWS})
    return Decomposition(KIND_SKEW_SUM, summands, log=log, flags=[FLAG_NONOPTIMAL])


def _random_search(
    a: Matrix,
    *,
    seed: int,
    tol: Tolerance,
    restarts: int = SEARCH_DRAWS,
) -> tuple[Matrix, Matrix, list[float], int] | None:
    """Seeded search over general real C with C^2 = -I, accepting a draw
    when spec(A - C) is real and simple.

    Draw k is P_k = I + 0.6 Z_k with Z_k the k-th standard normal n-by-n
    block of `default_rng(seed)`, and C_k = P_k K P_k^{-1}.  Draws are
    evaluated in chunks of `SEARCH_CHUNKS` (the last size repeats), capped
    at `restarts`: one stacked cond drops P with cond > 50, one stacked
    inverse and matmul form the C, and one stacked `eigvals` of Re(A) - C
    drops every draw whose spectrum fails the realness test of
    `_diagonalize_real`.  The survivors go, in draw order, through
    `_diagonalize_real` and the C^2 = -I residual check; the first that
    passes is returned with its 1-based draw index.  LAPACK treats each
    matrix of a stack as it treats it alone, so the outcome is the one a
    draw-by-draw loop over the same stream gives, bit for bit."""
    n = a.n
    rng = np.random.default_rng(seed)
    base = skew_base(n // 2).to_array().real
    a_re = a.to_array().real
    sizes = chain(SEARCH_CHUNKS, repeat(SEARCH_CHUNKS[-1]))
    done = 0
    while done < restarts:
        size = min(next(sizes), restarts - done)
        p = np.eye(n) + 0.6 * rng.standard_normal((size, n, n))
        kept = np.flatnonzero(~(np.linalg.cond(p) > 50))
        c_arr = p[kept] @ base @ np.linalg.inv(p[kept])
        _, real = _real_spectrum(np.linalg.eigvals(a_re - c_arr))
        for j, cj in zip(kept[real], c_arr[real]):
            c = Matrix.floating(cj)
            diag = _diagonalize_real(a - c, cond_cap=1e6)
            if diag is None:
                continue
            residual = (c.conj() @ c + Matrix.identity(n)).frobenius_norm()
            if residual > tol.bound(c.frobenius_norm() ** 2):
                continue
            t, values = diag
            return c, t, values, done + int(j) + 1
        done += size
    return None


def _rotation_fallback(a: Matrix, lam: list[float], eps: list[int]) -> list[Matrix]:
    """Flagged 6-summand route: one skew block per pair (forbidden pairs at
    M(0,1), whose remainder eigenvalues are lambda +- i), an eigenvector
    change of basis that keeps the pair slots aligned, one extra skew
    summand soaking up all the rotation parts, and the diagonal 4-sum."""
    n = a.n
    used: set[float] = set()
    cblocks = []
    plan: list[tuple[str, tuple[float, float]]] = []
    for p in _pairs_of(lam, eps):
        if p.forbidden:
            cblocks.append(skew_block_matrix(0.0, 1.0))
            plan.append(("rotation", (p.lambda1, p.lambda1)))
        else:
            params, nu = choose_pair_params(p, used)
            used.update(nu)
            cblocks.append(skew_block_matrix(params.a, params.b))
            plan.append(("good", nu))
    c = direct_sum(*cblocks)
    d = (a - c).to_array().real

    # the remainder is block upper triangular, so its spectrum is exactly
    # the per-pair prediction; build eigenvector columns in pair order
    vals, vecs = np.linalg.eig(d)
    taken = np.zeros(len(vals), dtype=bool)

    def claim(target: complex) -> int:
        idx = int(np.argmin(np.abs(vals - target) + np.where(taken, 1e9, 0.0)))
        if abs(vals[idx] - target) > 1e-6 * (1 + abs(target)):
            raise ArithmeticError("remainder spectrum strayed from the prediction")
        taken[idx] = True
        return idx

    columns: list[np.ndarray] = []
    for kind, data in plan:
        if kind == "good":
            for nu in data:
                columns.append(np.real(vecs[:, claim(complex(nu))]))
        else:
            lam_r = data[0]
            i = claim(complex(lam_r, 1.0))
            claim(complex(lam_r, -1.0))
            w = vecs[:, i]
            columns.append(np.real(w))
            columns.append(np.imag(w))
    t_arr = np.column_stack(columns)
    if not np.all(np.isfinite(t_arr)) or np.linalg.cond(t_arr) > 1e9:
        raise ArithmeticError("remainder is too defective for the fallback route")
    t = Matrix.floating(t_arr)
    e = (t.inverse() @ Matrix.floating(d) @ t).to_array().real

    half = n // 2
    eb = direct_sum(*[skew_base(1) for _ in range(half)])
    ea = e - eb.to_array().real

    # per-slot secondary diagonalization of E - Eb: good slots have a 2x2
    # with discriminant 4 s^2 - 4 > 0, rotation slots are lambda I2
    t2_blocks, values = [], []
    for k, (kind, data) in enumerate(plan):
        blk = ea[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        if kind == "rotation":
            t2_blocks.append(np.eye(2))
            values.extend([float(blk[0, 0]), float(blk[1, 1])])
            continue
        bvals, bvecs = np.linalg.eig(blk)
        if float(np.max(np.abs(bvals.imag))) > 1e-8 * (1 + np.max(np.abs(bvals))):
            raise ArithmeticError("secondary split produced complex eigenvalues")
        t2_blocks.append(np.real(bvecs))
        values.extend([float(x) for x in bvals.real])
    t2 = Matrix.floating(
        np.block(
            [
                [t2_blocks[i] if i == j else np.zeros((2, 2)) for j in range(half)]
                for i in range(half)
            ]
        )
    )
    tail = consim_conjugate_list(t @ t2, skew_diag_summands(values))
    return [c, consim_conjugate_list(t, [eb])[0]] + tail


# ---------------------------------------------------------------------------
# the full skew pipeline
# ---------------------------------------------------------------------------


def _pad_part(summands: list[Matrix], target: int, n: int) -> list[Matrix]:
    """Stretch a part's summand list to `target` entries: one unimodular
    split fixes parity, zero-sum pairs (M, -M) do the rest."""
    out = list(summands)
    if (target - len(out)) % 2:
        k1, k2 = split_unimodular(out[-1])
        out = out[:-1] + [k1, k2]
    pad = direct_sum(*[skew_base(1) for _ in range(n // 2)])
    while len(out) < target:
        out.extend([pad, -pad])
    return out


def skew_coninvolutory_sum(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
    pad_to: int | None = None,
) -> Decomposition:
    """At most 5 skew-coninvolutory summands for an even-size complex
    matrix (6 with the nonoptimal_count flag when a forbidden pair defeats
    the randomized search).
    The sum checks its certificate before padding and raises
    ConvergenceFailure on a miss."""
    if a.n % 2:
        raise UnsupportedSize("skew-coninvolutory sums need an even size")
    a = a.to_floating()
    log: list[dict] = []

    if a.is_zero():
        k = direct_sum(*[skew_base(1) for _ in range(a.n // 2)])
        return _finish_skew(a, [k, -k], [{"step": "zero-input", "count": 2}], [], tol, pad_to)

    s, b = consimilar_to_real(a, seed=seed, tol=tol)
    log.append({"step": "consimilar-to-real", "n": a.n, "cond_S": float(np.linalg.cond(s.to_array()))})

    # two parts, each split on its own: the real-pair chains (a 2-by-2
    # block with a nonzero lower entry leads each) and the J-blocks
    bb = b.to_array().real
    chains: list[int] = []
    jordan: list[int] = []
    for start, stop in _diagonal_blocks(bb):
        (chains if stop - start > 1 and bb[start + 1, start] != 0 else jordan).extend(range(start, stop))
    parts: list[tuple[list[int], list[Matrix]]] = []
    flags: list[str] = []
    if chains:
        bc = bb[np.ix_(chains, chains)]
        windows = [PairSpec(bc[k, k], bc[k + 1, k + 1], 0, rot=bc[k, k + 1]) for k in range(0, len(chains), 2)]
        split = _pair_split(Matrix.floating(bc), windows)
        if split is None:
            raise ConvergenceFailure("the real-pair chains leave a remainder that is not real-diagonalizable")
        parts.append((chains, split[0]))
        log.append({"step": "chain-split", "count": 5, "eigenvalues": split[1]})
    if jordan:
        d = skew_sum_jordan(Matrix.floating(bb[np.ix_(jordan, jordan)]), seed=seed, tol=tol)
        parts.append((jordan, d.summands))
        log.extend(d.log)
        flags = d.flags

    target = max(len(ks) for _, ks in parts)
    inner = np.zeros((target, a.n, a.n), dtype=complex)
    for idx, ks in parts:
        for slot, k in zip(inner, _pad_part(ks, target, len(idx))):
            slot[np.ix_(idx, idx)] = k.to_array()
    summands = consim_conjugate_list(s, [Matrix.floating(k) for k in inner])
    return _finish_skew(a, summands, log, flags, tol, pad_to)


def _finish_skew(
    a: Matrix,
    summands: list[Matrix],
    log: list,
    flags: list[str],
    tol: Tolerance,
    pad_to: int | None,
) -> Decomposition:
    require_certificate(a, Decomposition(KIND_SKEW_SUM, summands, flags=flags), tol, "skew sum")
    if pad_to is not None and pad_to > len(summands):
        summands = _pad_part(summands, pad_to, a.n)
        log.append({"step": "pad", "count": len(summands)})
    log.append({"step": "summands", "count": len(summands)})
    return Decomposition(kind=KIND_SKEW_SUM, summands=summands, log=log, flags=flags)
