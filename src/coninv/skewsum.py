"""Skew-coninvolutory sum decompositions (even sizes only).

The real 2-by-2 skew-coninvolutory matrices are exactly the trace-0,
determinant-1 matrices M(a, b) = [[a, b], [-(1+a^2)/b, -a]], b != 0
(Cayley-Hamilton gives M^2 = -I).  The construction subtracts one block
per consecutive diagonal pair of the canonical bidiagonal form, tuning
(a, b) so the remainder has distinct real eigenvalues, then finishes with
the displayed diagonal pairs.  A pair (lambda, lambda) with no Jordan
coupling is "forbidden": every real skew block leaves remainder
eigenvalues lambda +- i there, so such pairs route through a seeded
randomized search and, as a last resort, a flagged 6-summand fallback
that keeps the rotation part as one extra skew summand.

The search evaluates its draws as stacked numpy calls in fixed chunks of
8, 16, 32, 64 and 80 (`SEARCH_CHUNKS`, 200 draws in all), so an early
success stays cheap and a failed search costs five rounds of LAPACK calls
instead of two hundred.  Its outcome is identical, bit for bit, to
evaluating the same seeded draws one at a time.  Every sum checks its
certificate before it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, repeat

import numpy as np

from .certify import FLAG_NONOPTIMAL, KIND_SKEW_SUM, Decomposition, require_certificate
from .concanon import (
    ConCanonicalBlock,
    build_block,
    concanonical_form,
    coninvolutory_factor,
    jordan_block,
    skew_base,
    solve_consimilarity,
    ConCanonicalError,
)
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
    """One consecutive diagonal pair of the bidiagonal form: eps is the
    coupling inside the pair, right_coupling the coupling to the next one.
    eps = 1 forces lambda1 = lambda2 (same Jordan block)."""

    lambda1: float
    lambda2: float
    eps: int
    right_coupling: int = 0

    @property
    def forbidden(self) -> bool:
        return self.eps == 0 and self.lambda1 == self.lambda2


@dataclass(frozen=True)
class SkewParams:
    a: float
    b: float


def pair_discriminant(lambda1: float, lambda2: float, eps: int, a: float, b: float) -> float:
    """Discriminant of the remainder block diag-pair minus M(a, b)."""
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
    eigenvalues mid +- s outside `used`; raises ValueError on forbidden
    pairs and ParameterCapExceeded when a parameter would leave its cap."""
    if p.forbidden:
        raise ValueError("forbidden pair: equal values without coupling")
    mid = (p.lambda1 + p.lambda2) / 2.0
    for s in _separation_stream():
        nu = (mid - s, mid + s)
        if any(abs(v - u) < SEPARATION for v in nu for u in used):
            continue
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
    out = []
    for k in range(len(lam) // 2):
        intra = eps[2 * k] if 2 * k < len(eps) else 0
        right = eps[2 * k + 1] if 2 * k + 1 < len(eps) else 0
        out.append(PairSpec(lam[2 * k], lam[2 * k + 1], intra, right))
    return out


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


def _case2_summands(
    lam: list[float], eps: list[int], used: set[float]
) -> tuple[list[Matrix], list[float]] | None:
    """C-block parameters for every pair; returns (per-pair skew blocks,
    predicted remainder eigenvalues) or None when a pair is forbidden."""
    cblocks, predicted = [], []
    for p in _pairs_of(lam, eps):
        if p.forbidden:
            return None
        params, nu = choose_pair_params(p, used)
        used.update(nu)
        predicted.extend(nu)
        cblocks.append(skew_block_matrix(params.a, params.b))
    return cblocks, predicted


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


def skew_sum_jordan(
    a: Matrix,
    spec: list[PairSpec] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> Decomposition:
    """Skew sum for a real direct sum of upper-bidiagonal Jordan-type
    blocks (even size).  Strategy chain for forbidden pairs: reorder the
    direct summands, then a seeded randomized search for a general real
    skew summand, then the flagged 6-summand fallback."""
    if a.n % 2:
        raise UnsupportedSize("even size required")
    lam, eps = _read_bidiagonal(a)
    if spec is not None:
        stated = _pairs_of(lam, eps)
        if list(spec) != stated:
            raise ValueError("pair spec disagrees with the matrix layout")
    log: list[dict] = []

    if all(e == 0 for e in eps):
        summands = skew_diag_summands(lam)
        log.append({"step": "diagonal-case", "count": 4})
        return Decomposition(KIND_SKEW_SUM, summands, log=log)

    blocks = _blocks_of(lam, eps)
    ordered = _best_block_order(blocks)
    if ordered != blocks:
        perm = _permutation_for(blocks, ordered)
        log.append({"step": "block-reorder", "order": [[v, s] for v, s in ordered]})
    else:
        perm = Matrix.identity(a.n)
    lam2, eps2 = _layout(ordered)
    a2 = perm.transpose() @ a @ perm

    used: set[float] = set()
    direct = _case2_summands(lam2, eps2, used)
    if direct is not None:
        cblocks, _ = direct
        c = direct_sum(*cblocks)
        diag = _diagonalize_real(a2 - c)
        if diag is not None:
            t, values = diag
            inner = [c] + consim_conjugate_list(t, skew_diag_summands(values))
            summands = consim_conjugate_list(perm, inner)
            log.append({"step": "pair-split", "count": 5, "eigenvalues": values})
            return Decomposition(KIND_SKEW_SUM, summands, log=log)

    found = _random_search(a2, seed=seed, tol=tol)
    if found is not None:
        c, t, values, restarts = found
        inner = [c] + consim_conjugate_list(t, skew_diag_summands(values))
        summands = consim_conjugate_list(perm, inner)
        log.append({"step": "randomized-search", "restarts": restarts, "count": 5})
        return Decomposition(KIND_SKEW_SUM, summands, log=log)

    inner = _rotation_fallback(a2, lam2, eps2)
    summands = consim_conjugate_list(perm, inner)
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
# H-blocks
# ---------------------------------------------------------------------------


def skew_sum_hblock(
    m: int,
    mu: complex,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> Decomposition:
    """Five skew summands for the paired block [[0, I], [J_m(mu), 0]].

    The block minus [[0, I], [-I, 0]] is strictly lower triangular with
    J_m(mu) + I in the corner; that part is taken to a real matrix by a
    block-diagonal consimilarity, written as a sum of two coninvolutory
    matrices, and each of those is factored through the identity, which
    itself splits into two skew summands."""
    ConCanonicalBlock("H", m, complex(mu))  # validates the (m, mu) constraints
    k0 = skew_base(m)
    log: list[dict] = [{"step": "h-block", "m": m, "mu": [complex(mu).real, complex(mu).imag]}]

    corner = jordan_block(m, complex(mu) + 1)
    if corner.is_zero(tol):
        log.append({"step": "zero-corner", "count": 1})
        return Decomposition(KIND_SKEW_SUM, [k0], log=log)

    if corner.is_real(1e-14 * (1 + corner.max_abs())):
        t = Matrix.identity(m)
        target = corner.real_part()
    else:
        target = jordan_block(m, abs(complex(mu) + 1)).real_part()
        t = solve_consimilarity(corner, target, seed=seed, tol=tol)
        if t is None:
            raise ConCanonicalError("no intertwiner onto the real corner block")
    w = direct_sum(t, t)

    n2 = 2 * m
    zeros = np.zeros((m, m))
    b_arr = target.to_array().real
    k1 = Matrix.floating(np.block([[np.eye(m), zeros], [b_arr, -np.eye(m)]]))
    k2 = Matrix.floating(np.block([[-np.eye(m), zeros], [zeros, np.eye(m)]]))

    parts: list[Matrix] = []
    # I as a sum of two skew summands: the identity pair of diag(1, ..., 1)
    ident_pair = skew_diag_summands([1.0] * n2)[2:]
    for k in (k1, k2):
        s = coninvolutory_factor(k, tol=tol)
        s_bar_inv = s.conj().inverse()
        for half_summand in ident_pair:
            parts.append(s_bar_inv @ half_summand @ s)
    summands = [k0] + consim_conjugate_list(w, parts)
    log.append({"step": "corner-split", "count": 5})
    return Decomposition(KIND_SKEW_SUM, summands, log=log)


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
    matrix (6 with the nonoptimal_count flag on forbidden configurations).
    The sum checks its certificate before padding and raises
    ConvergenceFailure on a miss."""
    if a.n % 2:
        raise UnsupportedSize("skew-coninvolutory sums need an even size")
    a = a.to_floating()
    log: list[dict] = []

    if a.is_zero():
        k = direct_sum(*[skew_base(1) for _ in range(a.n // 2)])
        return _finish_skew(a, [k, -k], [{"step": "zero-input", "count": 2}], [], tol, pad_to)

    form = concanonical_form(a, seed=seed, tol=tol)
    log.append(
        {
            "step": "concanonical",
            "blocks": [[b.kind, b.size, complex(b.param).real, complex(b.param).imag] for b in form.blocks],
        }
    )

    # parts follow the block order of the canonical form: H-blocks are
    # individual parts, the J-blocks fuse into one bidiagonal part
    parts: list[tuple[list[Matrix], list[str]]] = []
    j_run: list[ConCanonicalBlock] = []

    def flush_j():
        if not j_run:
            return
        jmat = direct_sum(*[build_block(b) for b in j_run])
        if jmat.n % 2:
            raise UnsupportedSize("odd-size Jordan part in an even matrix")
        if all(b.size == 1 for b in j_run):
            lam = [float(complex(b.param).real) for b in j_run]
            parts.append((skew_diag_summands(lam), []))
        else:
            d = skew_sum_jordan(jmat, seed=seed, tol=tol)
            log.extend(d.log)
            parts.append((d.summands, d.flags))
        j_run.clear()

    for b in form.blocks:
        if b.kind == "J":
            j_run.append(b)
        else:
            flush_j()
            d = skew_sum_hblock(b.size, b.param, seed=seed, tol=tol)
            log.extend(d.log)
            parts.append((d.summands, d.flags))
    flush_j()

    flags = sorted({f for _, fl in parts for f in fl})
    target = max(len(s) for s, _ in parts)
    padded = [_pad_part(s, target, s[0].n) for s, _ in parts]
    inner = [direct_sum(*[p[j] for p in padded]) for j in range(target)]
    summands = consim_conjugate_list(form.S, inner)
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
