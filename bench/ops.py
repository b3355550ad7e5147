"""One benchmark operation: a call into a public entry point plus the full
check of its output.

The check goes beyond the library's certificate:

* ``verify_decomposition`` must pass;
* the decomposition survives a JSON round trip through
  ``decomposition_to_json`` / ``decomposition_from_json`` and the
  re-verified certificate is identical;
* thm1a: V V == I and V + D == A hold literally, and the witness
  W^{-1} D W == diag(spectrum) holds literally;
* thm1b: the witness D ~ conj(Q)^{-1} diag(values) Q holds at the stated
  tolerance (the half of the claim the certificate does not check).

Library functions are looked up on their module at call time, so the
span recorder in ``spans.py`` sees every call this module makes.

A failing operation is put in exactly one class: ``typed:<Error>`` for the
library's own exception types, ``unexpected:<Error>`` for anything else,
``check:<name>`` for a check that did not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import coninv
from coninv import ConCanonicalError, Matrix, MatrixError, certify
from coninv.certify import KIND_CONINV_CONDIAG, KIND_INV_DIAG, Decomposition
from coninv.matcore import DEFAULT_TOL

#: the library's own exception types; it also raises plain ArithmeticError
#: and ValueError on purpose (subclasses such as ZeroDivisionError are not)
TYPED_ERRORS = (MatrixError, ConCanonicalError)
PLAIN_ERRORS = (ArithmeticError, ValueError)


@dataclass
class Outcome:
    """Result of one checked operation; ``failure`` is None on success."""

    failure: str | None
    decomposition: Decomposition | None = None


class CheckFailed(Exception):
    """An output check did not hold; the message is the check's name."""


def decompose(kind: str, a: Matrix) -> tuple[Decomposition, object]:
    """Call the entry point for `kind`; returns the decomposition and the
    raw split (for the witness checks of thm1a / thm1b)."""
    if kind == "coninv":
        return coninv.coninvolutory_sum(a), None
    if kind == "skew":
        return coninv.skew_coninvolutory_sum(a), None
    if kind == "thm1a":
        split = coninv.involutory_diagonalizable_split(a)
        return Decomposition(kind=KIND_INV_DIAG, summands=[split.V, split.D]), split
    split = coninv.coninvolutory_condiagonalizable_split(a)
    return Decomposition(kind=KIND_CONINV_CONDIAG, summands=[split.C, split.D]), split


def _require(ok: bool, name: str) -> None:
    if not ok:
        raise CheckFailed(name)


def check(kind: str, a: Matrix, dec: Decomposition, split) -> None:
    """Raise CheckFailed naming the first check that does not hold."""
    cert = certify.verify_decomposition(a, dec)
    _require(cert.passed, "certificate")
    wire = json.loads(json.dumps(certify.decomposition_to_json(dec)))
    again = certify.verify_decomposition(a, certify.decomposition_from_json(wire))
    _require(
        again.passed
        and again.summand_residuals == cert.summand_residuals
        and again.sum_residual == cert.sum_residual,
        "roundtrip",
    )
    if kind == "thm1a":
        _require(split.V @ split.V == Matrix.identity(a.n, "exact") and split.V + split.D == a, "thm1a-identity")
        _require(split.W.inverse() @ split.D @ split.W == Matrix.diag(split.spectrum, "exact"), "witness")
    elif kind == "thm1b":
        q_arr = split.witness.to_array()
        rebuilt = np.linalg.solve(np.conj(q_arr), np.diag(split.values) @ q_arr)
        d = split.D.to_array()
        residual = float(np.linalg.norm(d - rebuilt, "fro"))
        _require(residual <= DEFAULT_TOL.bound(float(np.linalg.norm(d, "fro"))), "witness")


def run_op(kind: str, a: Matrix) -> Outcome:
    """One operation: entry-point call plus the full output check."""
    try:
        dec, split = decompose(kind, a)
        check(kind, a, dec, split)
    except CheckFailed as exc:
        return Outcome(f"check:{exc}")
    except Exception as exc:  # every error is a counted failure class
        typed = isinstance(exc, TYPED_ERRORS) or type(exc) in PLAIN_ERRORS
        return Outcome(f"{'typed' if typed else 'unexpected'}:{type(exc).__name__}")
    return Outcome(None, dec)
