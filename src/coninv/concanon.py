"""Consimilarity toolkit: canonical blocks, canonical form, real targets.

Two matrices A, B are consimilar when conj(S)^{-1} A S = B for some
nonsingular S.  The canonical form under consimilarity is a direct sum of
upper-bidiagonal blocks J_n(lambda) with lambda >= 0 and of paired blocks

    H_2m(mu) = [[0, I_m], [J_m(mu), 0]],   mu not in [0, inf).

The reader clusters the eigenvalues of conj(A) A at a stated tolerance
and reads each cluster's block sizes from one staircase of unitary
deflations: of conj(A) A - sigma I for a cluster at sigma != 0, of A
itself under consimilarity for the J(0) blocks.  The blocks so read are
one reading of A; a residual-verified intertwiner S accepts it, so every
returned form is certified.  A refused reading is read again at a coarser
clustering tolerance, and failures are explicit.  consimilar_to_real
solves the same reading onto a real target, H_m(mu) as the real chain of
(sqrt(mu), conj sqrt(mu)): one verified solve per reading gives both the
blocks and S.

One eigendecomposition of conj(A) A serves a whole form: its eigenvalues
give the clusters, and its eigenvectors give each diagonal block of a
reading its intertwiner basis in closed form when the block qualifies.
A block qualifies when it is [beta] with beta != 0, H_1(mu) with
Im mu != 0, or a real pair [[a, b], [-b, a]] with b != 0, and the
eigenvalue of conj(B_j) B_j it needs (|beta|^2, conj(mu), (a + ib)^2) is
within g = CLUSTER_TOL (1 + max |eigenvalue|) of exactly one eigenvalue
of conj(A) A, with no other within 2g.  Every other block, and every
closed-form basis that misses the rank tolerance, takes the kernel of the
real consimilarity operator.
"""

from __future__ import annotations

import functools
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
    ConvergenceFailure,
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

#: random combinations ``solve_consimilarity`` draws, and the cond(S) it
#: accepts at most
CONSIM_TRIALS = 32
CONSIM_COND_CAP = 1e8

#: theta values ``coninvolutory_factor`` sweeps
FACTOR_SWEEP = 16


class ConCanonicalError(RuntimeError):
    """No block reading of A, at any clustering tolerance, could be
    residual-verified.

    `tried` lists each distinct reading (at most one per tolerance) with
    the reason its intertwiner was refused: "empty kernel", "singular" or
    the residual."""

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
    n-by-n A, m-by-m B and an n-by-m unknown S (row-major): s -> L s - R conj(s)
    with L = kron(A, I_m), R = kron(I_n, B^T), as broadcast products (no np.kron)."""
    n, m = a.shape[0], b.shape[0]
    k = n * m
    left = (a[:, None, :, None] * np.eye(m)[None, :, None, :]).reshape(k, k)
    right = (np.eye(n)[:, None, :, None] * b.T[None, :, None, :]).reshape(k, k)
    op = np.empty((2 * k, 2 * k))
    op[:k, :k] = left.real - right.real
    op[:k, k:] = -left.imag - right.imag
    op[k:, :k] = left.imag - right.imag
    op[k:, k:] = left.real + right.real
    return op


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
#: _read_blocks reads it to say why each reading was refused.
_failure: ContextVar[str | float | None] = ContextVar("consimilarity_failure", default=None)

#: (A, eigenvalues and eigenvectors of conj(A) A, ||A||_2) of the
#: reading in progress, shared with the solves it makes
_shared_spectral: ContextVar[tuple | None] = ContextVar("spectral", default=None)


def _spectral(aa: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues and unit eigenvectors of conj(A) A, and ||A||_2: the
    ones of the reading in progress when it is of this A, else
    computed here."""
    shared = _shared_spectral.get()
    if shared is not None and np.array_equal(shared[0], aa):
        return shared[1:]
    try:
        vals, vecs = np.linalg.eig(np.conj(aa) @ aa)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
        raise ConvergenceFailure(str(exc)) from exc
    return vals, vecs, float(np.linalg.norm(aa, 2))


def _isolated(vals: np.ndarray, target: complex) -> int | None:
    """Index of the one eigenvalue within g of target when no other lies
    within 2g, g = CLUSTER_TOL (1 + max |eigenvalue|); else None."""
    g = CLUSTER_TOL * (1.0 + float(np.max(np.abs(vals))))
    dist = np.abs(vals - target)
    near = np.flatnonzero(dist <= 2 * g)
    if len(near) == 1 and dist[near[0]] <= g:
        return int(near[0])
    return None


def _block_shape(b: np.ndarray) -> tuple[str, complex] | None:
    """("scalar", beta), ("h", mu) or ("pair", a + ib) when the diagonal
    block b is [beta] with beta != 0, H_1(mu) = [[0, 1], [mu, 0]] with
    Im mu != 0, or a real pair [[a, b], [-b, a]] with b != 0; else None."""
    if b.shape == (1, 1):
        return ("scalar", complex(b[0, 0])) if b[0, 0] != 0 else None
    if b.shape != (2, 2):
        return None
    if b[0, 0] == 0 and b[1, 1] == 0 and b[0, 1] == 1 and b[1, 0].imag != 0:
        return "h", complex(b[1, 0])
    if not b.imag.any() and b[0, 0] == b[1, 1] and b[0, 1] == -b[1, 0] != 0:
        return "pair", complex(b[0, 0].real, b[0, 1].real)
    return None


def _closed_form_basis(aa: np.ndarray, block: np.ndarray, spectral) -> list[np.ndarray] | None:
    """Real solution basis of A X = conj(X) B_j, in the kernel's (Re X,
    Im X) coordinates, from the eigenvectors of conj(A) A (coneigenvectors,
    Horn and Johnson, Matrix Analysis, 2nd ed., sec. 4.6); None when B_j
    does not qualify or a member, scaled to unit Frobenius norm, misses the
    kernel's rank tolerance.  spectral() returns the eigenvalues and unit
    eigenvectors of conj(A) A and ||A||_2.

    [beta]: A v = c conj(v) for the unit eigenvector v of |beta|^2, and
    x = e^{i arg(beta / c) / 2} v spans the solutions over the reals.
    H_1(mu): y of conj(mu) and x = conj(A y) give [x, y] and [-ix, iy].
    Real pair: p of z^2 and q = conj(A p) / conj(z) give X_c =
    [(c p + conj(c) q) / 2, (c p - conj(c) q) / (2i)] for c = 1 and i.
    """
    shape = _block_shape(block)
    if shape is None:
        return None
    kind, w = shape
    vals, vecs, norm_a = spectral()
    k = _isolated(vals, {"scalar": abs(w) ** 2, "h": np.conj(w), "pair": w * w}[kind])
    if k is None:
        return None
    v = vecs[:, k]
    if kind == "scalar":
        i = int(np.argmax(np.abs(v)))
        c = (aa[i] @ v) / np.conj(v[i])
        basis = [(np.exp(0.5j * np.angle(w / c)) * v)[:, None]]
    elif kind == "h":
        x = np.conj(aa @ v)
        basis = [np.column_stack([x, v]), np.column_stack([-1j * x, 1j * v])]
    else:
        q = np.conj(aa @ v) / np.conj(w)
        basis = [np.column_stack([(c * v + np.conj(c) * q) / 2, (c * v - np.conj(c) * q) / 2j]) for c in (1, 1j)]
    norm_b = max(1.0, abs(w)) if kind == "h" else abs(w)  # ||B_j||_2
    bound = RANK_TOL.abs + RANK_TOL.rel * (norm_a + norm_b)
    basis = [x / np.linalg.norm(x) for x in basis]
    if any(np.linalg.norm(aa @ x - np.conj(x) @ block) > bound for x in basis):
        return None
    return [np.concatenate([x.real.ravel(), x.imag.ravel()]) for x in basis]


def solve_consimilarity(
    a: Matrix,
    b: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> Matrix | None:
    """Nonsingular S with A S = conj(S) B within tol, or None.

    B is split into its finest diagonal blocks B_j with zero coupling, and
    the equation splits with it: A S_j = conj(S_j) B_j for the n-by-n_j
    column block S_j of S.  Each solution set is a real-linear subspace.  A
    block qualifies for a closed-form basis when it is [beta] with
    beta != 0, H_1(mu) = [[0, 1], [mu, 0]] with Im mu != 0, or a real pair
    [[a, b], [-b, a]] with b != 0, and the eigenvalue of conj(B_j) B_j it
    needs (|beta|^2, conj(mu), (a + ib)^2) matches exactly one eigenvalue
    of conj(A) A: within g = CLUSTER_TOL (1 + max |eigenvalue|), with no
    other within 2g.  Its basis then comes from one eigenvector and must
    pass the kernel's rank tolerance, each member scaled to unit Frobenius
    norm; every other block takes the kernel of a real operator of side
    2 n n_j.  Each of CONSIM_TRIALS trials draws a seeded random real
    combination of every block's basis, scales S_j to Frobenius norm
    sqrt(n_j) and keeps the best-conditioned S below CONSIM_COND_CAP,
    stopping early once cond(S) < 1e3.
    The residual of that S is the final arbiter.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    aa, bb = a.to_array(), b.to_array()
    # computed once some block qualifies by shape, then kept for the rest
    spectral = functools.cache(lambda: _spectral(aa))
    bases = []
    for start, stop in _diagonal_blocks(bb):
        block = bb[start:stop, start:stop]
        basis = _closed_form_basis(aa, block, spectral)
        if basis is None:
            basis = real_linear_nullspace(_consim_operator(aa, block), RANK_TOL)
        if not basis:
            _failure.set("empty kernel")
            return None
        bases.append((stop - start, np.array(basis)))
    rng = np.random.default_rng(seed)
    best, best_cond = None, CONSIM_COND_CAP
    for _ in range(CONSIM_TRIALS):
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
# Jordan structure of conj(A) A, one staircase per eigenvalue cluster
# ---------------------------------------------------------------------------


def _cluster_eigenvalues(vals: np.ndarray, scale: float, cluster_tol: float = CLUSTER_TOL) -> list[tuple[complex, int]]:
    """(center, multiplicity) groups at the clustering tolerance."""
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
    return [(complex(np.mean([vals[j] for j in g])), len(g)) for g in groups]


def _weyr_characteristic(x: np.ndarray, mult: int, norm: float, consimilar: bool = False) -> list[int]:
    """Weyr characteristic nu_1 >= nu_2 >= ..., sum mult, of the cluster
    that x carries at 0, from a staircase of unitary deflations
    (Kublanovskaya; Kagstrom and Ruhe, ACM TOMS 6, 1980).

    Each step takes one SVD of the current k-by-k x, floors its singular
    values s_1 >= ... >= s_k at 8 k eps norm, with s_0 = norm (the 2-norm
    of the unshifted matrix), and chooses the nullity c in
    [1, min(nu_{j-1}, mult - sum nu)] at the largest ratio s_{k-c} /
    s_{k-c+1} (ties to the larger c).  x is then compressed onto the
    complement of its chosen null space: V^H x V under similarity, where
    the nullities are those of the powers of x, and V^T x V under
    consimilarity, where they are those of the alternating products x,
    conj(x) x, x conj(x) x, ... (Hong and Horn, LAA 102, 1988)."""
    nu: list[int] = []
    while sum(nu) < mult:
        k = x.shape[0]
        try:
            w, sv, vh = np.linalg.svd(x)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
            raise ConvergenceFailure(str(exc)) from exc
        s = np.maximum(np.concatenate([[norm], sv]), max(8 * k * np.finfo(float).eps * norm, np.finfo(float).tiny))
        top = min(nu[-1] if nu else mult, mult - sum(nu))
        ratios = s[k - top : k] / s[k - top + 1 : k + 1]  # c = top, ..., 1
        c = top - int(np.argmax(ratios))
        nu.append(c)
        keep = vh[: k - c].conj() if consimilar else vh[: k - c]
        x = keep @ (w[:, : k - c] * sv[: k - c])
    return nu


def _candidate_blocks(
    arr: np.ndarray, m: np.ndarray, vals: np.ndarray, rank_a: int, norm_a: float, cluster_tol: float = CLUSTER_TOL
) -> list[ConCanonicalBlock]:
    """The block reading of A = arr, conj(A) A = m with eigenvalues vals,
    at one clustering tolerance.

    A cluster near 0 reads as zero only when A is numerically singular
    (rank_a < n): a nonsingular A has no J(0) block, however small its
    smallest eigenvalue of conj(A) A.  Its J_k(0) sizes are the staircase
    of A under consimilarity; a cluster at sigma != 0 takes the staircase
    of m - sigma I.  A multiplicity-1 cluster is one block of size 1."""
    n = len(vals)
    scale = float(np.max(np.abs(vals))) if n else 0.0
    tol = cluster_tol * (1.0 + scale)
    clusters = _cluster_eigenvalues(vals, scale, cluster_tol)
    norm_m = functools.cache(lambda: float(np.linalg.norm(m, 2)))

    def sizes(mult: int, sigma: complex | None = None) -> list[int]:
        """Block sizes, largest first, of the cluster at sigma, or of the
        J(0) blocks of A: nu_j of them have size >= j."""
        if mult == 1:
            return [1]
        if sigma is None:
            nu = _weyr_characteristic(arr, mult, norm_a, consimilar=True)
        else:
            nu = _weyr_characteristic(m - sigma * np.eye(n), mult, norm_m())
        return [sum(v > i for v in nu) for i in range(nu[0])]

    blocks: list[ConCanonicalBlock] = []
    consumed = [False] * len(clusters)
    for i, (sigma, mult) in enumerate(clusters):
        if consumed[i]:
            continue
        if abs(sigma) <= tol and rank_a < n:
            blocks += [ConCanonicalBlock("J", k, 0.0) for k in sizes(mult)]
        elif abs(sigma.imag) <= tol and sigma.real > 0:
            blocks += [ConCanonicalBlock("J", k, float(np.sqrt(sigma.real))) for k in sizes(mult, sigma)]
        elif abs(sigma.imag) <= tol:
            # H_m(mu), mu < 0, gives conj(A) A two J_m(mu)
            pairs = sizes(mult, sigma)
            if pairs[::2] != pairs[1::2]:
                raise ConCanonicalError(f"unpaired Jordan sizes {pairs} at {sigma:.6g}")
            blocks += [ConCanonicalBlock("H", k, complex(sigma.real)) for k in pairs[::2]]
        elif sigma.imag > 0:
            partner = None
            for j, (tau, pmult) in enumerate(clusters):
                if not consumed[j] and tau.imag < -tol and abs(np.conj(sigma) - tau) <= 2 * tol * (1 + abs(sigma)):
                    partner = j
                    break
            if partner is None or clusters[partner][1] != mult:
                raise ConCanonicalError(f"no matching conjugate cluster for {sigma:.6g}")
            consumed[partner] = True
            blocks += [ConCanonicalBlock("H", k, sigma) for k in sizes(mult, sigma)]
        else:
            continue  # Im < 0: claimed by its Im > 0 partner, checked below
        consumed[i] = True
    for i, (sigma, _) in enumerate(clusters):
        if not consumed[i] and sigma.imag < -tol:
            raise ConCanonicalError(f"unpaired conjugate cluster at {sigma:.6g}")
    return sorted(blocks, key=lambda b: (b.kind, -b.size, complex(b.param).real, complex(b.param).imag))


def _summary(tried: list[tuple[list[ConCanonicalBlock], str | float]]) -> str:
    """The refused readings counted by reason, with the best residual."""
    residuals = [o for _, o in tried if isinstance(o, float)]
    counts = Counter("residual" if isinstance(o, float) else o for _, o in tried)
    text = f"{len(tried)} tried" + "".join(f", {k} {v}" for k, v in sorted(counts.items()))
    return text + (f", best residual {min(residuals):.3g}" if residuals else "")


def _read_blocks(a: Matrix, block_target, seed: int, tol: Tolerance) -> tuple[list[ConCanonicalBlock], Matrix, Matrix]:
    """(blocks, S, target) for the first block reading of A whose target,
    the direct sum of block_target(b) over its blocks, admits a
    residual-verified intertwiner S from solve_consimilarity."""
    arr = a.to_array()
    m = np.conj(arr) @ arr
    rank_a = numerical_rank(arr)
    seen: set[tuple] = set()
    tried: list[tuple[list[ConCanonicalBlock], str | float]] = []
    vals, vecs, norm_a = _spectral(arr)
    token = _shared_spectral.set((arr, vals, vecs, norm_a))
    try:
        # escalate the clustering tolerance only after the finer reading
        # fails: heavily coupled inputs (large Jordan blocks through a
        # conjugation) scatter an eigenvalue cluster far beyond the nominal
        # tolerance, and the residual check keeps coarser readings honest
        for factor in (1.0, 10.0, 100.0, 1000.0):
            try:
                blocks = _candidate_blocks(arr, m, vals, rank_a, norm_a, CLUSTER_TOL * factor)
            except ConCanonicalError:
                continue
            key = tuple(
                (b.kind, b.size, round(complex(b.param).real, 9), round(complex(b.param).imag, 9)) for b in blocks
            )
            if key in seen:
                continue
            seen.add(key)
            target = direct_sum(*[block_target(b) for b in blocks]) if blocks else Matrix.zeros(a.n)
            s = solve_consimilarity(a, target, seed=seed, tol=tol)
            if s is not None:
                return blocks, s, target
            tried.append((blocks, _failure.get()))
    finally:
        _shared_spectral.reset(token)
    raise ConCanonicalError(f"no candidate block assignment verified ({_summary(tried)})", tried=tried)


def concanonical_form(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> ConCanonicalForm:
    """Consimilarity canonical form with a residual-verified transform.

    Each eigenvalue cluster of conj(A) A gives its block sizes through one
    staircase of unitary deflations (see _weyr_characteristic), so the
    clustering tolerance fixes one reading.  It is solved for a
    nonsingular intertwiner; a refused reading is read again at
    CLUSTER_TOL times 10, 100 and 1000, and ConCanonicalError lists every
    refusal when none verifies.
    """
    if a.pathway != "floating":
        raise PathwayMismatch("concanonical_form requires the floating pathway")
    if a.n > DESK_SCALE:
        raise UnsupportedSize(f"n={a.n} exceeds desk-scale bound {DESK_SCALE}")
    blocks, s, _ = _read_blocks(a, build_block, seed, tol)
    return ConCanonicalForm(blocks=blocks, S=s)


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


def _real_block(b: ConCanonicalBlock) -> Matrix:
    """J_m(lambda), or the real chain of (sqrt(mu), conj sqrt(mu)) for H_m(mu)."""
    if b.kind == "J":
        return build_block(b)
    return _real_pair_block(b.size, complex(np.sqrt(complex(b.param))))


def consimilar_to_real(
    a: Matrix,
    *,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Matrix, Matrix]:
    """(S, B) with B real and A S = conj(S) B within tol.

    A is read like concanonical_form reads it, and each reading is solved
    straight onto a block-diagonal real target: J_m(lambda) stays, and
    H_m(mu) becomes the real chain of (sqrt(mu), conj sqrt(mu)) (Hong and
    Horn, LAA 102, 1988).  S is that one verified solve: ||S||_F = sqrt(n).
    """
    if a.pathway != "floating":
        raise PathwayMismatch("consimilar_to_real requires the floating pathway")
    if a.n > DESK_SCALE:
        raise UnsupportedSize(f"n={a.n} exceeds desk-scale bound {DESK_SCALE}")
    _, s, target = _read_blocks(a, _real_block, seed, tol)
    return s, target.real_part()


def coninvolutory_factor(
    c: Matrix,
    *,
    tol: Tolerance = DEFAULT_TOL,
) -> Matrix:
    """Nonsingular S with conj(S)^{-1} S = C for coninvolutory C.

    S = e^{i theta} C + e^{-i theta} I satisfies conj(S) C = S identically;
    the sweep over FACTOR_SWEEP values of theta only dodges the at-most-n
    singular choices.
    """
    if not is_coninvolutory(c, tol):
        raise ValueError("input is not coninvolutory at the stated tolerance")
    arr = c.to_array()
    n = c.n
    theta = np.pi * np.arange(1, FACTOR_SWEEP + 1) / (FACTOR_SWEEP + 1)
    stack = np.exp(1j * theta)[:, None, None] * arr + np.exp(-1j * theta)[:, None, None] * np.eye(n)
    conds = np.linalg.cond(stack)
    conds[~np.isfinite(conds)] = np.inf
    k = int(np.argmin(conds))  # the first minimum, as a sweep in theta order keeps
    if conds[k] > 1e12:
        raise ConCanonicalError("every theta in the sweep produced a singular factor")
    best = stack[k] * (np.sqrt(n) / np.linalg.norm(stack[k], "fro"))
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
