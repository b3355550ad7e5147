"""Consimilarity toolkit: canonical blocks, canonical form, real targets.

Two matrices A, B are consimilar when conj(S)^{-1} A S = B for some
nonsingular S.  The canonical form under consimilarity is a direct sum of
upper-bidiagonal blocks J_n(lambda) with lambda >= 0 and of paired blocks

    H_2m(mu) = [[0, I_m], [J_m(mu), 0]],   mu not in [0, inf).

The solver here recovers the block multiset from the Jordan structure of
conj(A) A (eigenvalue clustering at a stated tolerance), assembles each
structurally consistent candidate, and lets a residual-verified
intertwiner arbitrate, so every returned form is certified and failures
are explicit.
"""

from __future__ import annotations

import heapq
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certify import is_coninvolutory
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DESK_SCALE,
    Matrix,
    PathwayMismatch,
    RANK_TOL,
    Tolerance,
    UnsupportedSize,
    direct_sum,
    matrix_to_json,
    numerical_rank,
    real_linear_nullspace,
)

#: relative eigenvalue-clustering tolerance for the Jordan analysis of
#: conj(A)A; a coupled pair planted through a condition-100 transform can
#: split its eigenvalues by a few times 1e-6, so grouping needs this much
#: headroom (recovered parameters are cluster means and stay ~1e-7 accurate)
CLUSTER_TOL = 1e-5

#: rank-decision floor (relative to the matrix scale) for the Weyr estimate
WEYR_FLOOR = 1e-8


class ConCanonicalError(RuntimeError):
    """No structurally consistent candidate could be residual-verified.

    `tried` lists each candidate block assignment with the reason its
    intertwiner was refused: "empty kernel", "singular" or the residual."""

    def __init__(self, message: str, tried=()):
        super().__init__(message)
        self.tried = list(tried)


@dataclass(frozen=True)
class ConCanonicalBlock:
    """kind "J": size-by-size J_size(param), param real >= 0.
    kind "H": 2*size-by-2*size H(param), param complex not in [0, inf)."""

    kind: str
    size: int
    param: complex

    def __post_init__(self):
        if self.kind not in ("J", "H"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be >= 1")
        p = complex(self.param)
        if self.kind == "J":
            if p.imag != 0 or p.real < 0:
                raise ValueError("J-blocks require a real parameter >= 0")
        else:
            if p.imag == 0 and p.real >= 0:
                raise ValueError("H-blocks require a parameter outside [0, inf)")

    @property
    def dim(self) -> int:
        return self.size if self.kind == "J" else 2 * self.size


def jordan_block(n: int, lam: complex) -> Matrix:
    arr = np.eye(n, dtype=np.complex128) * lam
    for i in range(n - 1):
        arr[i, i + 1] = 1.0
    return Matrix.floating(arr)


def build_block(b: ConCanonicalBlock) -> Matrix:
    """Realize a canonical block descriptor as a floating matrix."""
    if b.kind == "J":
        return jordan_block(b.size, float(b.param.real if isinstance(b.param, complex) else b.param))
    m = b.size
    arr = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    arr[:m, m:] = np.eye(m)
    arr[m:, :m] = jordan_block(m, b.param).to_array()
    return Matrix.floating(arr)


@dataclass
class ConCanonicalForm:
    """blocks plus S with conj(S)^{-1} A S = direct sum of the blocks."""

    blocks: list[ConCanonicalBlock]
    S: Matrix

    def assembled(self) -> Matrix:
        return direct_sum(*[build_block(b) for b in self.blocks])


def skew_base(n_half: int, pathway: str = "floating") -> Matrix:
    """The skew-coninvolutory block [[0, I], [-I, 0]] of size 2*n_half."""
    if n_half < 1:
        raise ValueError("n_half must be >= 1")
    n = 2 * n_half
    if pathway == "exact":
        grid = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n_half):
            grid[i][n_half + i] = Fraction(1)
            grid[n_half + i][i] = Fraction(-1)
        return Matrix.exact(grid)
    arr = np.zeros((n, n), dtype=np.complex128)
    arr[:n_half, n_half:] = np.eye(n_half)
    arr[n_half:, :n_half] = -np.eye(n_half)
    return Matrix.floating(arr)


# ---------------------------------------------------------------------------
# the intertwiner solver
# ---------------------------------------------------------------------------


def _consim_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real 2nm x 2nm matrix of S -> A S - conj(S) B on (Re S, Im S), for
    n-by-n A, m-by-m B and an n-by-m unknown S (row-major), where the map
    is s -> L s - R conj(s) with L = kron(A, I_m) and R = kron(I_n, B^T)."""
    left = np.kron(a, np.eye(b.shape[0]))
    right = np.kron(np.eye(a.shape[0]), b.T)
    return np.block(
        [
            [left.real - right.real, -left.imag - right.imag],
            [left.imag - right.imag, left.real + right.real],
        ]
    )


def _diagonal_blocks(b: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of the finest diagonal blocks of b with zero coupling,
    so that b is their direct sum."""
    idx = np.arange(b.shape[0])
    coupled = (b != 0) | (b.T != 0)
    last = np.where(coupled, idx, idx[:, None]).max(axis=1)
    stops = np.flatnonzero(np.maximum.accumulate(last) == idx) + 1
    return list(zip([0, *stops[:-1].tolist()], stops.tolist()))


#: why the latest solve_consimilarity call in this context returned None:
#: "empty kernel", "singular" or the residual of its best transform.  Kept
#: beside the return value, which stays S or None for every caller;
#: concanonical_form reads it to say why each candidate was refused.
_failure: ContextVar[str | float | None] = ContextVar("consimilarity_failure", default=None)


def solve_consimilarity(
    a: Matrix,
    b: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    trials: int = 32,
    tol: Tolerance = DEFAULT_TOL,
    cond_cap: float = 1e8,
) -> Matrix | None:
    """Nonsingular S with A S = conj(S) B within tol, or None.

    B is split into its finest diagonal blocks B_j with zero coupling, and
    the equation splits with it: A S_j = conj(S_j) B_j for the n-by-n_j
    column block S_j of S.  Each solution set is a real-linear subspace,
    the kernel of a real operator of side 2 n n_j.  Each trial draws a
    seeded random real combination of every block's kernel basis, scales
    S_j to Frobenius norm sqrt(n_j) and keeps the best-conditioned S below
    cond_cap, stopping early once cond(S) < 1e3.  The residual of that S
    is the final arbiter.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    aa, bb = a.to_array(), b.to_array()
    bases = []
    for start, stop in _diagonal_blocks(bb):
        basis = real_linear_nullspace(_consim_operator(aa, bb[start:stop, start:stop]), RANK_TOL)
        if not basis:
            _failure.set("empty kernel")
            return None
        bases.append((stop - start, np.array(basis)))
    rng = np.random.default_rng(seed)
    best, best_cond = None, cond_cap
    for _ in range(trials):
        cols = []
        for m, basis in bases:
            vec = rng.standard_normal(len(basis)) @ basis
            s_j = vec[: n * m].reshape(n, m) + 1j * vec[n * m :].reshape(n, m)
            cols.append(s_j * (np.sqrt(m) / np.linalg.norm(s_j)))
        s = np.hstack(cols)
        cond = np.linalg.cond(s)
        if cond < best_cond:
            best, best_cond = s, cond
            if best_cond < 1e3:  # comfortably nonsingular; stop shopping
                break
    if best is None:
        _failure.set("singular")
        return None
    residual = float(np.linalg.norm(aa @ best - np.conj(best) @ bb, "fro"))
    if residual > tol.bound(float(np.linalg.norm(aa, "fro"))) * np.sqrt(n):
        _failure.set(residual)
        return None
    return Matrix.floating(best)


# ---------------------------------------------------------------------------
# Jordan structure of conj(A) A and candidate enumeration
# ---------------------------------------------------------------------------


def _cluster_eigenvalues(
    vals: np.ndarray, scale: float, cluster_tol: float = CLUSTER_TOL
) -> list[tuple[complex, int, float]]:
    """(center, multiplicity, radius) groups at the clustering tolerance."""
    tol = cluster_tol * (1.0 + scale)
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    groups: list[list[int]] = []
    for i in order:
        placed = False
        for g in groups:
            if any(abs(vals[i] - vals[j]) <= tol for j in g):
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    out = []
    for g in groups:
        center = complex(np.mean([vals[j] for j in g]))
        radius = max((abs(vals[j] - center) for j in g), default=0.0)
        out.append((center, len(g), float(radius)))
    return out


def _weyr_guess(m: np.ndarray, sigma: complex, mult: int, radius: float) -> list[int]:
    """Jordan-size estimate for one cluster; only a ranking prior, since the
    intertwiner verification arbitrates among all structural candidates."""
    n = m.shape[0]
    if mult == 1:
        return [1]
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    # the cutoff must sit above the cluster's own scatter but below genuine
    # coupling structure; powers widen it geometrically with the scale
    base = max(WEYR_FLOOR * scale, 10.0 * radius)
    shifted = m - sigma * np.eye(n)
    power = np.eye(n, dtype=complex)
    nullities = [0]
    for j in range(1, mult + 1):
        power = power @ shifted
        svals = np.linalg.svd(power, compute_uv=False)
        thresh = base * scale ** (j - 1)
        rank = int(np.sum(svals > thresh))
        nullities.append(min(n - rank, mult))
        if nullities[-1] >= mult:
            break
    ge_counts = [nullities[j] - nullities[j - 1] for j in range(1, len(nullities))]
    if any(ge_counts[j] > ge_counts[j - 1] for j in range(1, len(ge_counts))):
        return [1] * mult
    sizes = []
    for j, c in enumerate(ge_counts, start=1):
        nxt = ge_counts[j] if j < len(ge_counts) else 0
        sizes.extend([j] * (c - nxt))
    if sum(sizes) != mult:
        return [1] * mult
    return sorted(sizes, reverse=True)


def _partitions(total: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(min(remaining, cap), 0, -1):
            acc.append(k)
            rec(remaining - k, k, acc)
            acc.pop()

    rec(total, total, [])
    return out


def _multiset_distance(a, b) -> int:
    ca, cb = Counter(a), Counter(b)
    return sum(((ca - cb) + (cb - ca)).values())


def _implied_zero_sizes(partition) -> list[int]:
    """Jordan sizes of conj(A)A at 0 produced by J_k(0) blocks of A:
    each k contributes ceil(k/2) and (when positive) floor(k/2)."""
    sizes = []
    for k in partition:
        sizes.append((k + 1) // 2)
        if k // 2:
            sizes.append(k // 2)
    return sorted(sizes, reverse=True)


def _cluster_options(
    kind: str, sigma: complex, mult: int, guess: list[int], per_cluster_cap: int = 12
) -> list[tuple[int, list[ConCanonicalBlock]]]:
    """(prior distance, block list) choices for one cluster, best first.

    The single-block and the all-ones partitions always survive the cap:
    they are the common structured cases and a scattered cluster can rank
    them arbitrarily far from the Weyr estimate."""
    opts: list[tuple[int, list[ConCanonicalBlock]]] = []
    if kind == "zero":
        for p in _partitions(mult):
            d = _multiset_distance(_implied_zero_sizes(p), guess)
            opts.append((d, [ConCanonicalBlock("J", k, 0.0) for k in p]))
    elif kind == "positive":
        lam = float(np.sqrt(sigma.real))
        for p in _partitions(mult):
            opts.append((_multiset_distance(p, guess), [ConCanonicalBlock("J", k, lam) for k in p]))
    elif kind == "negative":
        if mult % 2:
            return []
        for q in _partitions(mult // 2):
            implied = sorted((k for k in q for _ in range(2)), reverse=True)
            opts.append(
                (_multiset_distance(implied, guess), [ConCanonicalBlock("H", k, complex(sigma.real)) for k in q])
            )
    else:  # conjugate pair, labelled by the Im > 0 member
        for p in _partitions(mult):
            opts.append((_multiset_distance(p, guess), [ConCanonicalBlock("H", k, sigma) for k in p]))
    opts.sort(key=lambda t: (t[0], [-b.size for b in t[1]]))
    keep = opts[:per_cluster_cap]
    kept = {tuple(b.size for b in o[1]) for o in keep}
    for o in opts[per_cluster_cap:]:
        sizes = tuple(b.size for b in o[1])
        if (len(sizes) == 1 or set(sizes) == {1}) and sizes not in kept:
            keep.append(o)
            kept.add(sizes)
    return keep


def _ranked_products(option_lists, cap: int = 64):
    """Best-first cartesian product of per-cluster options by total prior."""
    k = len(option_lists)
    if k == 0:
        return [(0, [])]
    start_idx = (0,) * k
    start = (sum(o[0][0] for o in option_lists), start_idx)
    heap = [start]
    seen = {start_idx}
    out = []
    while heap and len(out) < cap:
        dist, idx = heapq.heappop(heap)
        blocks: list[ConCanonicalBlock] = []
        for i in range(k):
            blocks.extend(option_lists[i][idx[i]][1])
        out.append((dist, blocks))
        for i in range(k):
            if idx[i] + 1 < len(option_lists[i]):
                nidx = idx[:i] + (idx[i] + 1,) + idx[i + 1 :]
                if nidx not in seen:
                    seen.add(nidx)
                    ndist = dist - option_lists[i][idx[i]][0] + option_lists[i][idx[i] + 1][0]
                    heapq.heappush(heap, (ndist, nidx))
    return out


def _structural_rank(blocks: list[ConCanonicalBlock]) -> int:
    r = 0
    for b in blocks:
        if b.kind == "H":
            r += 2 * b.size
        else:
            r += b.size if abs(b.param) > 0 else b.size - 1
    return r


def _candidate_blocks(
    m: np.ndarray, n: int, rank_a: int, cluster_tol: float = CLUSTER_TOL
) -> list[list[ConCanonicalBlock]]:
    vals = np.linalg.eigvals(m)
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    tol = cluster_tol * (1.0 + scale)
    clusters = _cluster_eigenvalues(vals, scale, cluster_tol)

    option_lists = []
    consumed = [False] * len(clusters)
    for i, (sigma, mult, radius) in enumerate(clusters):
        if consumed[i]:
            continue
        if abs(sigma) <= tol:
            kind, label = "zero", 0.0
        elif abs(sigma.imag) <= tol:
            kind, label = ("positive", sigma) if sigma.real > 0 else ("negative", sigma)
        elif sigma.imag > 0:
            kind, label = "pair", sigma
            partner = None
            for j, (tau, pmult, _) in enumerate(clusters):
                if not consumed[j] and tau.imag < -tol and abs(np.conj(sigma) - tau) <= 2 * tol * (1 + abs(sigma)):
                    partner = j
                    break
            if partner is None or clusters[partner][1] != mult:
                raise ConCanonicalError(f"no matching conjugate cluster for {sigma:.6g}")
            consumed[partner] = True
        else:
            continue  # Im < 0: claimed by its Im > 0 partner, checked below
        consumed[i] = True
        guess = _weyr_guess(m, complex(label) if kind != "zero" else 0.0, mult, radius)
        opts = _cluster_options(kind, complex(label), mult, guess)
        if not opts:
            raise ConCanonicalError(f"no structurally consistent blocks at {sigma:.6g}")
        option_lists.append(opts)
    for i, (sigma, mult, radius) in enumerate(clusters):
        if not consumed[i] and sigma.imag < -tol:
            raise ConCanonicalError(f"unpaired conjugate cluster at {sigma:.6g}")

    ranked = _ranked_products(option_lists)
    keyed = []
    for dist, blocks in ranked:
        blocks = sorted(
            blocks, key=lambda b: (b.kind, -b.size, complex(b.param).real, complex(b.param).imag)
        )
        key = tuple((b.kind, b.size, complex(b.param).real, complex(b.param).imag) for b in blocks)
        keyed.append((dist, abs(_structural_rank(blocks) - rank_a), key, blocks))
    keyed.sort(key=lambda t: t[:3])
    out, seen = [], set()
    for _, _, key, blocks in keyed:
        if key not in seen:
            seen.add(key)
            out.append(blocks)
    return out


def _summary(tried: list[tuple[list[ConCanonicalBlock], str | float]]) -> str:
    """The refused candidates counted by reason, with the best residual."""
    residuals = [o for _, o in tried if isinstance(o, float)]
    counts = Counter("residual" if isinstance(o, float) else o for _, o in tried)
    text = f"{len(tried)} tried" + "".join(f", {k} {v}" for k, v in sorted(counts.items()))
    return text + (f", best residual {min(residuals):.3g}" if residuals else "")


def concanonical_form(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> ConCanonicalForm:
    """Consimilarity canonical form with a residual-verified transform.

    Candidate block assignments are tried in order of how well their
    structural rank matches the numerical rank of A; the first candidate
    admitting a nonsingular intertwiner wins.
    """
    if a.pathway != "floating":
        raise PathwayMismatch("concanonical_form requires the floating pathway")
    if a.n > DESK_SCALE:
        raise UnsupportedSize(f"n={a.n} exceeds desk-scale bound {DESK_SCALE}")
    arr = a.to_array()
    m = np.conj(arr) @ arr
    rank_a = numerical_rank(arr)
    seen: set[tuple] = set()
    tried: list[tuple[list[ConCanonicalBlock], str | float]] = []
    # escalate the clustering tolerance only after the finer reading fails:
    # heavily coupled inputs (large Jordan blocks through a conjugation)
    # scatter an eigenvalue cluster far beyond the nominal tolerance, and
    # the residual check keeps coarser readings honest
    for factor in (1.0, 10.0, 100.0, 1000.0):
        try:
            candidates = _candidate_blocks(m, a.n, rank_a, CLUSTER_TOL * factor)
        except ConCanonicalError:
            continue
        for blocks in candidates:
            if sum(b.dim for b in blocks) != a.n:
                continue
            key = tuple(
                (b.kind, b.size, round(complex(b.param).real, 9), round(complex(b.param).imag, 9))
                for b in blocks
            )
            if key in seen:
                continue
            seen.add(key)
            target = direct_sum(*[build_block(b) for b in blocks]) if blocks else Matrix.zeros(a.n)
            s = solve_consimilarity(a, target, seed=seed, tol=tol)
            if s is not None:
                return ConCanonicalForm(blocks=blocks, S=s)
            tried.append((blocks, _failure.get()))
    raise ConCanonicalError(f"no candidate block assignment verified ({_summary(tried)})", tried=tried)


# ---------------------------------------------------------------------------
# consimilar-to-real and the coninvolutory factorization
# ---------------------------------------------------------------------------


def _real_pair_block(m: int, z: complex) -> Matrix:
    """Real Jordan-type block for the conjugate pair (z, conj z), Im z != 0."""
    a, b = z.real, z.imag
    arr = np.zeros((2 * m, 2 * m))
    for k in range(m):
        arr[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[a, b], [-b, a]]
        if k + 1 < m:
            arr[2 * k : 2 * k + 2, 2 * k + 2 : 2 * k + 4] = np.eye(2)
    return Matrix.floating(arr)


def consimilar_to_real(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Matrix, Matrix]:
    """(S, B) with B real and A S = conj(S) B within tol.

    Real and complex inputs alike go through the canonical form, so B is
    always block-diagonal: each J-block is kept, and each H-block is traded
    for the real block of the conjugate pair (sqrt(mu), conj sqrt(mu)),
    with the per-block intertwiners composed with the canonical transform.
    """
    if a.pathway != "floating":
        raise PathwayMismatch("consimilar_to_real requires the floating pathway")
    form = concanonical_form(a, seed=seed, tol=tol)
    targets, transforms = [], []
    for b in form.blocks:
        bm = build_block(b)
        if b.kind == "J":
            targets.append(bm)
            transforms.append(Matrix.identity(bm.n))
            continue
        z = complex(np.sqrt(complex(b.param)))
        target = _real_pair_block(b.size, z)
        t = solve_consimilarity(bm, target, seed=seed, tol=tol)
        if t is None:
            raise ConCanonicalError(f"no intertwiner onto the real block for {b}")
        targets.append(target)
        transforms.append(t)
    breal = direct_sum(*targets)
    s = form.S @ direct_sum(*transforms)
    arr = s.to_array()
    s = Matrix.floating(arr * (np.sqrt(a.n) / np.linalg.norm(arr, "fro")))
    return s, breal.real_part()


def coninvolutory_factor(
    c: Matrix,
    *,
    tol: Tolerance = DEFAULT_TOL,
    sweep: int = 16,
) -> Matrix:
    """Nonsingular S with conj(S)^{-1} S = C for coninvolutory C.

    S = e^{i theta} C + e^{-i theta} I satisfies conj(S) C = S identically;
    the theta sweep only dodges the at-most-n singular choices.
    """
    if not is_coninvolutory(c, tol):
        raise ValueError("input is not coninvolutory at the stated tolerance")
    arr = c.to_array()
    n = c.n
    best, best_cond = None, np.inf
    for k in range(1, sweep + 1):
        theta = np.pi * k / (sweep + 1)
        s = np.exp(1j * theta) * arr + np.exp(-1j * theta) * np.eye(n)
        cond = np.linalg.cond(s)
        if np.isfinite(cond) and cond < best_cond:
            best, best_cond = s, cond
    if best is None or best_cond > 1e12:
        raise ConCanonicalError("every theta in the sweep produced a singular factor")
    best = best * (np.sqrt(n) / np.linalg.norm(best, "fro"))
    return Matrix.floating(best)


# -- wire format -------------------------------------------------------------


def concanonical_to_json(form: ConCanonicalForm) -> dict:
    blocks = []
    for b in form.blocks:
        if b.kind == "J":
            blocks.append({"kind": "J", "n": b.size, "lambda": float(complex(b.param).real)})
        else:
            p = complex(b.param)
            blocks.append({"kind": "H", "m": b.size, "mu": [p.real, p.imag]})
    return {"blocks": blocks, "S": matrix_to_json(form.S)}
