"""Exact outputs of the Frobenius layer, pinned to the last digit.

`data/exact_digest.json` holds 40 seeded inputs, n = 1..12: small rationals
p/q (|p| <= 9, 1 <= q <= 4), dyadic roundings of Gaussians, rank-deficient
products, hidden direct sums of Jordan blocks and multi-component direct
sums.  For each it stores the sha256 of the canonical JSON of five exact
outputs: the inverse, the minimal polynomial, the Frobenius form (blocks, S
and S^-1), the right nullspace and the thm1a split (V, D, W, spectrum).
Over Q each of these has one correct value per input, so a kernel change
that keeps the results reproduces every digest.

Regenerate with ``python tests/test_exact_digest.py`` only when an output
is meant to change.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from coninv import (
    Matrix,
    direct_sum,
    frobenius_form,
    involutory_diagonalizable_split,
    matrix_from_json,
    matrix_to_json,
    minimal_polynomial,
)
from coninv.matcore import SingularMatrix

import exactref

DIGEST = Path(__file__).parent / "data" / "exact_digest.json"


def _strs(rows):
    return [[str(x) for x in row] for row in rows]


def exact_outputs(a):
    """The canonical JSON text of each pinned output of input `a`."""
    try:
        inverse = _strs(a.inverse().rows())
    except SingularMatrix:
        inverse = "singular"
    form = frobenius_form(a)
    split = involutory_diagonalizable_split(a)
    outputs = {
        "inverse": inverse,
        "minimal_polynomial": [str(c) for c in minimal_polynomial(a).a],
        "frobenius": {
            "blocks": [[str(c) for c in f.a] for f in form.blocks],
            "S": _strs(form.S.rows()),
            "S_inv": _strs(form.S_inv.rows()),
        },
        "nullspace": _strs(exactref.exact_nullspace(a)),
        "thm1a": {
            "V": _strs(split.V.rows()),
            "D": _strs(split.D.rows()),
            "W": _strs(split.W.rows()),
            "spectrum": [str(x) for x in split.spectrum],
        },
    }
    return {k: json.dumps(v, separators=(",", ":")) for k, v in outputs.items()}


def digests(a):
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in exact_outputs(a).items()}


# -- the seeded inputs ---------------------------------------------------------


def _rational(rng, n):
    return Matrix.exact([[F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n)] for _ in range(n)])


def _jordan(m, lam):
    return Matrix.exact([[F(lam) if i == j else F(int(j == i + 1)) for j in range(m)] for i in range(m)])


def _unimodular(rng, n):
    upper = [[int(rng.integers(-2, 3)) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    lower = [[int(rng.integers(-2, 3)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    return Matrix.exact(upper) @ Matrix.exact(lower)


def _hidden(rng, a):
    t = _unimodular(rng, a.n)
    return t.inverse() @ a @ t


def seeded_inputs():
    """(name, input) pairs; each input draws from its own seeded generator."""
    cases = []
    for n in range(1, 13):
        cases.append((f"rational-{n}", _rational(np.random.default_rng(100 + n), n)))
    for n in range(2, 10):
        rng = np.random.default_rng(200 + n)
        cases.append((f"dyadic-{n}", Matrix.floating(rng.standard_normal((n, n))).rationalize()))
    for n, rank in ((3, 1), (4, 2), (5, 3), (6, 4), (8, 5)):
        rng = np.random.default_rng(300 + n)
        left = Matrix.exact([[F(int(rng.integers(-4, 5))) if j < rank else F(0) for j in range(n)] for _ in range(n)])
        cases.append((f"rank{rank}-{n}", left @ _rational(rng, n)))
    jordan_sums = {
        "j2(1)+j1(1)": [(2, 1), (1, 1)],
        "j3(0)+j1(0)": [(3, 0), (1, 0)],
        "j2(2)+j2(2)+j1(-1)": [(2, 2), (2, 2), (1, -1)],
        "j3(1)+j2(-1)+j1(1)": [(3, 1), (2, -1), (1, 1)],
        "j2(0)^3+j1(1)^2": [(2, 0)] * 3 + [(1, 1)] * 2,
        "j3(1)^2+j2(1)^2+j1(1)^2": [(3, 1), (3, 1), (2, 1), (2, 1), (1, 1), (1, 1)],
        "j2(0)^4+j1(2)^4": [(2, 0)] * 4 + [(1, 2)] * 4,
        "j4(3/2)+j2(3/2)": [(4, F(3, 2)), (2, F(3, 2))],
    }
    for k, (name, blocks) in enumerate(jordan_sums.items()):
        a = direct_sum(*[_jordan(m, lam) for m, lam in blocks])
        cases.append((f"hidden-{name}", _hidden(np.random.default_rng(400 + k), a)))
    rng = np.random.default_rng(500)
    rot = Matrix.exact([[0, -1], [1, 0]])
    cases.append(("sum-rational3+rational4", direct_sum(_rational(rng, 3), _rational(rng, 4))))
    cases.append(("sum-j2(1)+rot+rot", direct_sum(_jordan(2, 1), rot, rot)))
    cases.append(("hidden-j2(1)+rot+rot", _hidden(rng, direct_sum(_jordan(2, 1), rot, rot))))
    cases.append(("scalar-3I-6", Matrix.identity(6, "exact") * 3))
    cases.append(("zero-4", Matrix.zeros(4, "exact")))
    cases.append(("dyadic10-7", Matrix.exact([[F(int(rng.integers(-2048, 2049)), 1024) for _ in range(7)] for _ in range(7)])))
    cases.append(("rational-hidden-sum-10", _hidden(rng, direct_sum(_rational(rng, 5), _rational(rng, 5)))))
    return cases


CASES = json.loads(DIGEST.read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_exact_outputs_reproduced(case):
    assert digests(matrix_from_json(case["input"])) == case["sha256"]


if __name__ == "__main__":
    records = [{"name": name, "input": matrix_to_json(a), "sha256": digests(a)} for name, a in seeded_inputs()]
    DIGEST.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {DIGEST}")
