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
* the J-blocks of B (``skew_sum_jordan``): the 1-by-1 blocks, an even
  number of them, take the displayed diagonal pairs alone (4 summands).
  The other blocks go even-size first, then the odd-size blocks in
  consecutive pairs, the larger of each pair first, and are tiled by
  diagonal windows.  One skew block per window leaves distinct real
  eigenvalues in B - C, which is block upper triangular over the windows,
  and the diagonal pairs of B - C finish it (1 + 4).

A 2-by-2 window (lambda, lambda) with no Jordan coupling is "forbidden":
every real skew block leaves lambda +- i there.  J_m(lambda) is consimilar
to J_m(-lambda), so every second odd-size block of a value lambda != 0 is
sign-flipped first.  Where two odd blocks of one value still meet, the
window straddling them is 4-by-4: the last three diagonal entries of the
first block and the first of the second, lambda I_4 + E_01 + E_12, take
the closed-form C_4 of ``straddle_block``, which leaves lambda +- u and
lambda +- v.  The route draws no random numbers, returns at most 5
summands on every input, and checks its certificate before it returns.

The displayed diagonal pairs are those of the coninvolutory sum at s = -1
(``conisum.displayed_pairs``: conj(K) K = s I), and the two sums share the
stacked conjugation, the padding and the certified finish of ``conisum``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .certify import KIND_SKEW_SUM, Decomposition
from .concanon import _diagonal_blocks, consimilar_to_real
from .conisum import _diagonal_summands, _finish, _pad, _unit, consim_conjugate_list
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    ConvergenceFailure,
    Matrix,
    Tolerance,
    UnsupportedSize,
)

#: parameter caps and separation targets for the pair tuning
PARAM_CAP = 1e3
B_FLOOR = 1e-3
SEPARATION = 1e-2
#: largest 2-norm cond of the eigenvector basis T of a remainder B - C
COND_CAP = 1e8


class ParameterCapExceeded(ConvergenceFailure):
    """The pair tuning found no skew block within the parameter caps: the
    input is valid, but its two pair values are too close (or demand too
    wide a separation) for the real skew block family."""


# ---------------------------------------------------------------------------
# the real skew block family
# ---------------------------------------------------------------------------


def skew_block(a, b):
    """M(a, b) = [[a, b], [-(1+a^2)/b, -a]]: trace 0, det 1, so M^2 = -I."""
    if b == 0:
        raise ValueError("b must be nonzero")
    one = a * 0 + 1
    return [[a, b], [-(one + a * a) / b, -a]]


def straddle_block(u: float, v: float) -> np.ndarray:
    """C_4 = [[M(0, b), 0], [Z, M(0, 1)]] with b = 1/(1+u^2) and
    Z = -(1+v^2) [[0, 1], [1+u^2, 0]].  Z M(0, b) + M(0, 1) Z = 0, so
    C_4^2 = -I, and lambda I_4 + E_01 + E_12 - C_4 has eigenvalues
    lambda +- u and lambda +- v."""
    w = 1.0 + u * u
    z = -(1.0 + v * v) * np.array([[0.0, 1.0], [w, 0.0]])
    return np.block([[np.array(skew_block(0.0, 1.0 / w)), np.zeros((2, 2))], [z, np.array(skew_block(0.0, 1.0))]])


# ---------------------------------------------------------------------------
# window parameter choice
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

    def tuned_block(self, used: set[float]) -> tuple[np.ndarray, tuple[float, ...]]:
        params, nu = choose_pair_params(self, used)
        return np.array(skew_block(params.a, params.b)), nu


@dataclass(frozen=True)
class StraddleSpec:
    """The 4-by-4 window lambda I_4 + E_01 + E_12 where two odd-size
    J(lambda) blocks meet: the last three diagonal entries of the first
    block and the first entry of the second."""

    lam: float

    def tuned_block(self, used: set[float]) -> tuple[np.ndarray, tuple[float, ...]]:
        """C_4 at u = s, v = s/3 for the first separation-stream s that
        keeps all of lambda +- u, lambda +- v clear of `used` (v = s/3
        rather than the next stream value keeps C_4 and T small)."""
        s, nu = _separation(used, self.lam, (1.0, 3.0))
        _coupled_b(self.lam, s)
        return straddle_block(s, s / 3.0), nu


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


def _separation(used: set[float], mid: float, divisors=(1.0,)) -> tuple[float, tuple[float, ...]]:
    """The first s of the separation stream 1.1, 1.6, 2.1, ... that keeps
    every mid +- s/d, d in `divisors`, SEPARATION away from `used`;
    returns s and those values."""
    s = 1.1
    while True:
        nu = tuple(mid + sign * s / d for d in divisors for sign in (-1.0, 1.0))
        if all(abs(v - x) >= SEPARATION for v in nu for x in used):
            return s, nu
        s += 0.5


def _coupled_b(lam: float, s: float) -> float:
    """b = 1/(1+s^2) of M(0, b) on a coupled window of value lam, whose
    remainder then has eigenvalues lam +- s; raises ParameterCapExceeded
    below B_FLOOR."""
    b = 1.0 / (1.0 + s * s)
    if b < B_FLOOR:
        raise ParameterCapExceeded(
            f"pair ({lam:.6g}, {lam:.6g}): b = {b:.3g} for separation {s:g} is below the floor {B_FLOOR:g}"
        )
    return b


def choose_pair_params(p: PairSpec, used: set[float]) -> tuple[SkewParams, tuple[float, float]]:
    """Parameters (a, b) whose remainder pair has two distinct real
    eigenvalues mid +- s outside `used`, s from the separation stream
    (a = 0 on a coupled pair and on a real-pair window); raises ValueError
    on forbidden pairs and ParameterCapExceeded when a parameter would
    leave its cap."""
    if p.forbidden:
        raise ValueError("forbidden pair: equal values without coupling")
    s, nu = _separation(used, (p.lambda1 + p.lambda2) / 2.0)
    if p.rot:
        # the window minus M(0, q) has off-diagonal product
        # (rot - q)(1/q - rot) = s^2 when rot q^2 - (1 + rot^2 + s^2) q
        # + rot = 0; its roots q and 1/q give C the same norm, and this
        # is the larger one, free of cancellation
        r = p.rot
        q = (1.0 + r * r + s * s + np.sqrt(((1.0 - r) ** 2 + s * s) * ((1.0 + r) ** 2 + s * s))) / (2.0 * r)
        return SkewParams(a=0.0, b=float(q)), nu
    if p.eps == 1:
        a, b = 0.0, _coupled_b(p.lambda1, s)
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
# the window split
# ---------------------------------------------------------------------------


def _diagonalize_real(d: np.ndarray) -> tuple[Matrix, list[float], float] | None:
    """(T, values, cond(T)) with D = T diag(values) T^{-1}, all real; None
    if the spectrum is not real and simple enough or cond(T) > COND_CAP."""
    vals, vecs = np.linalg.eig(d)
    scale = 1.0 + np.max(np.abs(vals))
    if np.max(np.abs(vals.imag)) > 1e-8 * scale:
        return None
    order = np.argsort(vals.real)
    vals = vals.real[order]
    if np.min(np.diff(vals)) < 1e-6 * scale:
        return None
    t = np.real(vecs[:, order])
    cond = float(np.linalg.cond(t)) if np.all(np.isfinite(t)) else np.inf
    if not cond <= COND_CAP:
        return None
    return Matrix.floating(t), [float(v) for v in vals], cond


def _pair_split(a: np.ndarray, windows: list, what: str) -> tuple[np.ndarray, dict]:
    """Five skew summands for a real A that is block upper triangular over
    its diagonal windows `windows` (each a PairSpec or a StraddleSpec): one
    tuned skew block per window, so that A - C has distinct real
    eigenvalues, then the diagonal 4-sum of A - C = T diag(values) T^{-1}.
    Returns the summands and the figures of the log step; raises
    ConvergenceFailure when A - C is not real-diagonalizable."""
    used: set[float] = set()
    c = np.zeros_like(a)
    start = 0
    for w in windows:
        blk, nu = w.tuned_block(used)
        used.update(nu)
        stop = start + len(blk)
        c[start:stop, start:stop] = blk
        start = stop
    diag = _diagonalize_real(a - c)
    if diag is None:
        raise ConvergenceFailure(f"{what} leave a remainder that is not real-diagonalizable")
    t, values, cond_t = diag
    summands = np.concatenate([c[None], consim_conjugate_list(t, _diagonal_summands(values, -1))])
    return summands, {"count": 5, "eigenvalues": values, "cond_T": cond_t}


def _place_parts(parts: list[tuple[list[int], np.ndarray]], n: int) -> np.ndarray:
    """The (k, n, n) summand stack from parts (idx, stack) that each split
    the principal submatrix on rows and columns idx: every part is padded
    to the largest count and placed on its idx."""
    target = max(len(ks) for _, ks in parts)
    inner = np.zeros((target, n, n), dtype=complex)
    for idx, ks in parts:
        rows = np.asarray(idx)
        inner[:, rows[:, None], rows] = _pad(ks, target, _unit(KIND_SKEW_SUM, len(idx)))
    return inner


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


def _windows(blocks: list[tuple[float, int]]) -> tuple[list[int], list]:
    """The window order of the blocks (positions: even-size first, then
    the odd-size ones in consecutive pairs, the larger of each pair first)
    and the diagonal windows that tile their direct sum in that order.
    Inside a block every window is a coupled pair; an odd pair of two
    values meets in an uncoupled 2-by-2 window, and of one value in a
    4-by-4 straddle window (the caller leaves at most one 1-by-1 block, so
    the first block of that pair is at least 3-by-3)."""
    order = [k for k, (_, size) in enumerate(blocks) if size % 2 == 0]
    windows: list = [PairSpec(blocks[k][0], blocks[k][0], 1) for k in order for _ in range(blocks[k][1] // 2)]
    odd = [k for k, (_, size) in enumerate(blocks) if size % 2]
    for pair in zip(odd[::2], odd[1::2]):
        first, second = sorted(pair, key=lambda k: -blocks[k][1])
        (l1, p), (l2, q) = blocks[first], blocks[second]
        order += [first, second]
        if l1 == l2:
            windows += [PairSpec(l1, l1, 1)] * ((p - 3) // 2) + [StraddleSpec(l1)]
        else:
            windows += [PairSpec(l1, l1, 1)] * ((p - 1) // 2) + [PairSpec(l1, l2, 0)]
        windows += [PairSpec(l2, l2, 1)] * ((q - 1) // 2)
    return order, windows


def skew_sum_jordan(a: Matrix) -> Decomposition:
    """At most 5 skew summands, in closed form, for a real direct sum of
    upper-bidiagonal Jordan-type blocks (even size).

    The 1-by-1 blocks (all but the last when their count is odd) take the
    diagonal 4-sum.  The others are sign-flipped (every second odd-size
    block of each value lambda != 0; J_m(lambda) is consimilar to
    J_m(-lambda) through i diag(1, -1, 1, ...)), laid out by ``_windows``
    and split by ``_pair_split``.  Both parts are padded to one count and
    conjugated back by U = diag(phase) P, P the block permutation."""
    if a.n % 2:
        raise UnsupportedSize("even size required")
    lam, eps = _read_bidiagonal(a)
    log: list[dict] = []

    if all(e == 0 for e in eps):
        log.append({"step": "diagonal-case", "count": 4})
        return Decomposition(KIND_SKEW_SUM, [Matrix.floating(k) for k in _diagonal_summands(lam, -1)], log=log)

    blocks = _blocks_of(lam, eps)
    starts = np.cumsum([0] + [size for _, size in blocks]).tolist()
    ones = [k for k, (_, size) in enumerate(blocks) if size == 1]
    scalars = ones[: len(ones) - len(ones) % 2]
    rest = [k for k in range(len(blocks)) if k not in scalars]
    flipped = _sign_flipped([blocks[k] for k in rest])
    phase = np.ones(a.n, dtype=complex)
    for k, (value, size) in zip(rest, flipped):
        if value != blocks[k][0]:
            phase[starts[k] : starts[k + 1]] = 1j * (-1.0) ** np.arange(size)
    if np.any(phase != 1):
        log.append({"step": "sign-flip", "blocks": [[v, s] for v, s in flipped]})

    # U = diag(phase) P has one unimodular entry per row and column, so
    # conj(U)^{-1} = U^T, and U^T A U on the rest rows is the flipped
    # layout in window order
    order, windows = _windows(flipped)
    rest_idx = [row for i in order for row in range(starts[rest[i]], starts[rest[i] + 1])]
    b = (phase[:, None] * a.to_array() * phase)[np.ix_(rest_idx, rest_idx)]
    inner, entry = _pair_split(b.real, windows, "the J-blocks")
    entry["straddles"] = sum(isinstance(w, StraddleSpec) for w in windows)
    log.append({"step": "pair-split", **entry})
    parts = [(rest_idx, inner)]
    if scalars:
        values = [blocks[k][0] for k in scalars]
        parts.append(([starts[k] for k in scalars], _diagonal_summands(values, -1)))
    summands = consim_conjugate_list(Matrix.diag(phase), _place_parts(parts, a.n))
    return Decomposition(KIND_SKEW_SUM, [Matrix.floating(k) for k in summands], log=log)


# ---------------------------------------------------------------------------
# the full skew pipeline
# ---------------------------------------------------------------------------


def skew_coninvolutory_sum(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
    pad_to: int | None = None,
) -> Decomposition:
    """At most 5 skew-coninvolutory summands for an even-size complex
    matrix.  The sum checks its certificate before padding and raises
    ConvergenceFailure on a miss."""
    if a.n % 2:
        raise UnsupportedSize("skew-coninvolutory sums need an even size")
    a = a.to_floating()
    log: list[dict] = []

    if a.is_zero():
        log.append({"step": "zero-input", "count": 2})
        zero = _pad(np.empty((0, a.n, a.n)), 2, _unit(KIND_SKEW_SUM, a.n))
        return _finish(KIND_SKEW_SUM, a, zero, log, tol, pad_to)

    s, b = consimilar_to_real(a, seed=seed, tol=tol)
    log.append({"step": "consimilar-to-real", "n": a.n, "cond_S": float(np.linalg.cond(s.to_array()))})

    # two parts, each split on its own: the real-pair chains (a 2-by-2
    # block with a nonzero lower entry leads each) and the J-blocks
    bb = b.to_array().real
    chains: list[int] = []
    jordan: list[int] = []
    for start, stop in _diagonal_blocks(bb):
        (chains if stop - start > 1 and bb[start + 1, start] != 0 else jordan).extend(range(start, stop))
    parts: list[tuple[list[int], np.ndarray]] = []
    if chains:
        bc = bb[np.ix_(chains, chains)]
        windows = [PairSpec(bc[k, k], bc[k + 1, k + 1], 0, rot=bc[k, k + 1]) for k in range(0, len(chains), 2)]
        inner, entry = _pair_split(bc, windows, "the real-pair chains")
        parts.append((chains, inner))
        log.append({"step": "chain-split", **entry})
    if jordan:
        d = skew_sum_jordan(Matrix.floating(bb[np.ix_(jordan, jordan)]))
        parts.append((jordan, np.array([k.to_array() for k in d.summands])))
        log.extend(d.log)

    return _finish(KIND_SKEW_SUM, a, consim_conjugate_list(s, _place_parts(parts, a.n)), log, tol, pad_to)
