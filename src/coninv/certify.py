"""Definitional predicates, decomposition certificates, and oracles.

A certificate records, for each claimed summand, the residual of its
defining identity (conj(K) K = I for coninvolutory, conj(K) K = -I for
skew-coninvolutory, K^2 = I for involutory) plus the reconstruction
residual and the summand count, and passes only if everything sits inside
the stated tolerance.  Certificates are deterministic and reproducible
bit-for-bit for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matcore import DEFAULT_TOL, ConvergenceFailure, Matrix, Tolerance, matrix_from_json, matrix_to_json

#: kind tags used on the wire
KIND_CONINV_SUM = "coninvolutory-sum"
KIND_SKEW_SUM = "skew-sum"
KIND_INV_DIAG = "thm1a"
KIND_CONINV_CONDIAG = "thm1b"

#: flag set by the skew pipeline when it could not hold the 5-summand bound
FLAG_NONOPTIMAL = "nonoptimal_count"


@dataclass
class Decomposition:
    """A claimed decomposition: kind tag, summands, provenance log."""

    kind: str
    summands: list[Matrix]
    log: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.summands)


@dataclass
class Certificate:
    kind: str
    summand_residuals: list[float]
    sum_residual: float
    count: int
    passed: bool
    flags: list[str]
    tolerance: Tolerance


def coninvolutory_residual(k: Matrix) -> float:
    return (k.conj() @ k - Matrix.identity(k.n, k.pathway)).frobenius_norm()


def skew_coninvolutory_residual(k: Matrix) -> float:
    return (k.conj() @ k + Matrix.identity(k.n, k.pathway)).frobenius_norm()


def involutory_residual(k: Matrix) -> float:
    return (k @ k - Matrix.identity(k.n, k.pathway)).frobenius_norm()


def is_coninvolutory(k: Matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """conj(K) K = I within tol (reference: squared Frobenius norm of K)."""
    return coninvolutory_residual(k) <= tol.bound(k.frobenius_norm() ** 2)


def is_skew_coninvolutory(k: Matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """conj(K) K = -I within tol; odd dimension is rejected outright
    (det(conj(K) K) >= 0 obstructs odd sizes)."""
    if k.n % 2:
        return False
    return skew_coninvolutory_residual(k) <= tol.bound(k.frobenius_norm() ** 2)


def count_bound(kind: str, n: int, flags: list[str]) -> int:
    if kind == KIND_CONINV_SUM:
        return 4 if n == 2 else 5
    if kind == KIND_SKEW_SUM:
        return 6 if FLAG_NONOPTIMAL in flags else 5
    if kind in (KIND_INV_DIAG, KIND_CONINV_CONDIAG):
        return 2
    raise ValueError(f"unknown decomposition kind {kind!r}")


def _summand_residual(kind: str, index: int, k: Matrix) -> float:
    if kind == KIND_CONINV_SUM:
        return coninvolutory_residual(k)
    if kind == KIND_SKEW_SUM:
        return skew_coninvolutory_residual(k)
    if kind == KIND_INV_DIAG:
        # summand 0 is the involutory part; the diagonalizable part carries
        # no residual-style identity (its witness is exercised by oracles)
        return involutory_residual(k) if index == 0 else 0.0
    if kind == KIND_CONINV_CONDIAG:
        return coninvolutory_residual(k) if index == 0 else 0.0
    raise ValueError(f"unknown decomposition kind {kind!r}")


def verify_decomposition(a: Matrix, d: Decomposition, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Full certificate for a claimed decomposition of `a`; pure and
    deterministic, never mutates its inputs."""
    if any(s.n != a.n for s in d.summands):
        raise ValueError("summand dimension disagrees with the target")
    residuals = [_summand_residual(d.kind, i, k) for i, k in enumerate(d.summands)]
    total = d.summands[0]
    for k in d.summands[1:]:
        total = total + k
    sum_residual = (total - a).frobenius_norm()
    bound_sum = tol.bound(a.frobenius_norm())
    ok = sum_residual <= bound_sum
    for k, r in zip(d.summands, residuals):
        if r > tol.bound(k.frobenius_norm() ** 2):
            ok = False
    if d.count > count_bound(d.kind, a.n, d.flags):
        ok = False
    return Certificate(
        kind=d.kind,
        summand_residuals=residuals,
        sum_residual=sum_residual,
        count=d.count,
        passed=ok,
        flags=list(d.flags),
        tolerance=tol,
    )


def require_certificate(a: Matrix, d: Decomposition, tol: Tolerance, what: str) -> None:
    """`verify_decomposition`, raising ConvergenceFailure ("<what> misses
    its certificate") when the certificate does not pass."""
    cert = verify_decomposition(a, d, tol)
    if not cert.passed:
        raise ConvergenceFailure(
            f"{what} misses its certificate: sum residual {cert.sum_residual:.3g}, "
            f"bound {tol.bound(a.frobenius_norm()):.3g}; largest summand residual "
            f"{max(cert.summand_residuals):.3g}"
        )


def oracle_involutory_trace(d: Decomposition, tol: float = 1e-9) -> bool:
    """Trace of the involutory part must be an integer (exactly so on the
    exact pathway)."""
    if d.kind != KIND_INV_DIAG:
        raise ValueError("trace oracle applies to involutory+diagonalizable splits")
    v = d.summands[0]
    tr = v.trace()
    if v.pathway == "exact":
        return tr.denominator == 1
    return abs(tr.imag) <= tol and abs(tr.real - round(tr.real)) <= tol


def oracle_consim_invariant(a: Matrix, t: Matrix, param_tol: float = 1e-6) -> bool:
    """Canonical block multiset must be invariant under a consimilarity
    A -> conj(T)^{-1} A T with well-conditioned T."""
    from . import concanon  # deferred: concanon uses the predicates above

    moved = t.conj().inverse() @ a @ t
    f1 = concanon.concanonical_form(a)
    f2 = concanon.concanonical_form(moved)
    return _same_block_multiset(f1.blocks, f2.blocks, param_tol)


def _same_block_multiset(b1, b2, param_tol: float) -> bool:
    if len(b1) != len(b2):
        return False
    remaining = list(b2)
    for blk in b1:
        hit = None
        for i, other in enumerate(remaining):
            if blk.kind == other.kind and blk.size == other.size and abs(complex(blk.param) - complex(other.param)) <= param_tol:
                hit = i
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


# -- wire formats ------------------------------------------------------------


def decomposition_to_json(d: Decomposition) -> dict:
    out = {
        "kind": d.kind,
        "summands": [matrix_to_json(k) for k in d.summands],
        "log": d.log,
    }
    if d.kind == KIND_SKEW_SUM or d.flags:
        out["flags"] = list(d.flags)
    return out


def decomposition_from_json(doc: dict) -> Decomposition:
    return Decomposition(
        kind=doc["kind"],
        summands=[matrix_from_json(m) for m in doc["summands"]],
        log=list(doc.get("log", [])),
        flags=list(doc.get("flags", [])),
    )


def certificate_to_json(c: Certificate) -> dict:
    return {
        "kind": c.kind,
        "summand_residuals": [repr(r) for r in c.summand_residuals],
        "sum_residual": repr(c.sum_residual),
        "count": c.count,
        "pass": c.passed,
        "flags": list(c.flags),
        "tolerance": {"abs": c.tolerance.abs, "rel": c.tolerance.rel},
    }
