"""Command-line surface: decompose, canonical, gen, verify.

stdout carries exactly one JSON document; diagnostics go to stderr.
Exit codes: 0 success, 2 parse/usage error (including the wrong pathway
for the exact kinds), 3 numerical failure (a failed certificate, no
verified canonical form, a LAPACK routine that did not converge, a skew
pair whose tuning parameter would leave its cap),
4 unsupported input (odd size for skew sums, desk-scale overflow).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import certify, concanon, conisum, exactcanon, skewsum
from .matcore import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DESK_SCALE,
    ConvergenceFailure,
    Matrix,
    MatrixError,
    PathwayMismatch,
    Tolerance,
    UnsupportedSize,
    direct_sum,
    matrix_from_json,
    matrix_to_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_UNSUPPORTED = 4


def _read_input(args) -> dict:
    if args.json is not None:
        text = args.json
    elif args.infile is not None:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return json.loads(text)


def _read_matrix(args) -> Matrix:
    matrix = matrix_from_json(_read_input(args))
    if matrix.n > DESK_SCALE:  # rejected eagerly, before any work
        raise UnsupportedSize(f"n={matrix.n} exceeds desk-scale bound {DESK_SCALE}")
    return matrix


def _emit(args, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tolerance(args) -> Tolerance:
    return Tolerance(
        abs=args.tol_abs if args.tol_abs is not None else DEFAULT_TOL.abs,
        rel=args.tol_rel if args.tol_rel is not None else DEFAULT_TOL.rel,
    )


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CONINV_SEED")
    if env is not None:
        return int(env, 0)
    return DEFAULT_SEED


def cmd_decompose(args) -> int:
    matrix = _read_matrix(args)
    tol = _tolerance(args)
    seed = _seed(args)
    if args.kind == "coninv":
        dec = conisum.coninvolutory_sum(matrix, seed=seed, tol=tol, pad_to=args.pad_to)
    elif args.kind == "skew":
        dec = skewsum.skew_coninvolutory_sum(matrix, seed=seed, tol=tol, pad_to=args.pad_to)
    elif args.kind == "thm1a":
        split = exactcanon.involutory_diagonalizable_split(matrix)
        dec = certify.Decomposition(
            kind=certify.KIND_INV_DIAG,
            summands=[split.V, split.D],
            log=[{"step": "exact-split", "spectrum": [str(x) for x in split.spectrum]}],
        )
    else:  # thm1b
        split = conisum.coninvolutory_condiagonalizable_split(matrix, seed=seed, tol=tol)
        dec = certify.Decomposition(
            kind=certify.KIND_CONINV_CONDIAG,
            summands=[split.C, split.D],
            log=[{"step": "condiag-split", "diagonal": [float(v) for v in split.values]}],
        )
    cert = certify.verify_decomposition(matrix, dec, tol)
    _emit(
        args,
        {
            "decomposition": certify.decomposition_to_json(dec),
            "certificate": certify.certificate_to_json(cert),
        },
    )
    if not cert.passed:
        print("certificate failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_canonical(args) -> int:
    matrix = _read_matrix(args)
    tol = _tolerance(args)
    seed = _seed(args)
    if args.kind == "frobenius":
        form = exactcanon.frobenius_form(matrix)
        doc = {
            "blocks": [exactcanon.poly_to_json(f) for f in form.blocks],
            "S": matrix_to_json(form.S),
            "residual": "0",
        }
    elif args.kind == "concanonical":
        form = concanon.concanonical_form(matrix, seed=seed, tol=tol)
        res = (matrix @ form.S - form.S.conj() @ form.assembled()).frobenius_norm()
        doc = concanon.concanonical_to_json(form)
        doc["residual"] = repr(res)
    else:  # real
        s, b = concanon.consimilar_to_real(matrix, seed=seed, tol=tol)
        res = (matrix @ s - s.conj() @ b).frobenius_norm()
        doc = {"S": matrix_to_json(s), "B": matrix_to_json(b), "residual": repr(res)}
    _emit(args, doc)
    return EXIT_OK


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _generate(spec: dict, rng: np.random.Generator) -> Matrix:
    kind = spec.get("kind")
    if kind == "random":
        n = int(spec["n"])
        scale = float(spec.get("scale", 1.0))
        arr = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Matrix.floating(arr)
    if kind == "jordan":
        blocks = spec["blocks"]  # [[n, lambda], ...]
        return direct_sum(*[concanon.jordan_block(int(n), float(lam)) for n, lam in blocks])
    if kind == "hblock":
        return concanon.build_block(
            concanon.ConCanonicalBlock("H", int(spec["m"]), complex(spec["mu"][0], spec["mu"][1]))
        )
    if kind == "dsum":
        return direct_sum(*[_generate(part, rng) for part in spec["parts"]])
    raise MatrixError(f"unknown generator kind {kind!r}")


def cmd_gen(args) -> int:
    rng = np.random.default_rng(_seed(args))
    if args.spec is not None:
        spec = json.loads(args.spec)
    elif args.kind == "random":
        spec = {"kind": "random", "n": args.n, "scale": args.scale}
    elif args.kind == "jordan":
        if args.blocks:
            blocks = [
                [int(part.split(":")[0]), float(part.split(":")[1])]
                for part in args.blocks.split(",")
            ]
        else:
            blocks = [[args.n, args.lam]]
        spec = {"kind": "jordan", "blocks": blocks}
    elif args.kind == "hblock":
        mu = _parse_complex(args.mu)
        spec = {"kind": "hblock", "m": args.m, "mu": [mu.real, mu.imag]}
    else:
        raise MatrixError("generator needs --spec for composite kinds")
    matrix = _generate(spec, rng)
    _emit(args, matrix_to_json(matrix))
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = _read_input(args)
    try:
        matrix = matrix_from_json(doc["matrix"])
        dec = certify.decomposition_from_json(doc["decomposition"])
    except KeyError as exc:
        raise MatrixError(f"verify input needs 'matrix' and 'decomposition': {exc}") from exc
    cert = certify.verify_decomposition(matrix, dec, _tolerance(args))
    _emit(args, certify.certificate_to_json(cert))
    return EXIT_OK if cert.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coninv",
        description="certified coninvolutory / skew-coninvolutory decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", help="input JSON path (default: stdin)")
        p.add_argument("--json", help="inline input JSON")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
        p.add_argument("--tol-abs", type=float, default=None)
        p.add_argument("--tol-rel", type=float, default=None)

    p = sub.add_parser("decompose", help="decompose a matrix and certify the result")
    common(p)
    p.add_argument("--kind", required=True, choices=["coninv", "skew", "thm1a", "thm1b"])
    p.add_argument("--pad-to", type=int, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("canonical", help="canonical forms with transforms")
    common(p)
    p.add_argument("--kind", required=True, choices=["frobenius", "concanonical", "real"])
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("gen", help="deterministic test-matrix generation")
    common(p)
    p.add_argument("--kind", choices=["random", "jordan", "hblock"], default="random")
    p.add_argument("--spec", help="composite generator JSON (kind dsum/...)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--blocks", help="jordan blocks as 'n:lam,n:lam,...'")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--mu", default="-1")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="re-check a decomposition certificate")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedSize as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ConvergenceFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PathwayMismatch as exc:
        print(f"input pathway: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MatrixError, json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except concanon.ConCanonicalError as exc:
        print(f"canonical-form failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
