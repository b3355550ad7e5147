import json
from pathlib import Path

import numpy as np
import pytest

from coninv.cli import main
from coninv.matcore import matrix_from_json

from conftest import read_pairs_as_h2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix_json(entries, pathway="floating"):
    n = int(len(entries) ** 0.5)
    return json.dumps({"n": n, "pathway": pathway, "entries": entries})


class TestDecompose:
    def test_coninv_2x2(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            "--kind",
            "coninv",
            "--json",
            matrix_json([[3, 0], [1, 0], [0, 0], [3, 0]]),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["pass"] is True
        assert doc["certificate"]["count"] <= 4
        assert len(doc["decomposition"]["summands"]) == doc["certificate"]["count"]

    def test_skew_odd_rejected(self, capsys):
        code, out, err = run(
            capsys,
            "decompose",
            "--kind",
            "skew",
            "--json",
            matrix_json([[1, 0]] * 9),
        )
        assert code == 4
        assert "even" in err

    def test_exact_split_rational_4x4(self, capsys):
        entries = ["1/2", "0", "1", "0", "0", "-2/3", "0", "0", "0", "1", "3", "0", "0", "0", "0", "7/5"]
        code, out, _ = run(
            capsys,
            "decompose",
            "--kind",
            "thm1a",
            "--json",
            matrix_json(entries, "exact"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["pass"] is True
        assert doc["certificate"]["summand_residuals"] == ["0.0", "0.0"]
        v = matrix_from_json(doc["decomposition"]["summands"][0])
        assert v.pathway == "exact"

    def test_condiag_split(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            "--kind",
            "thm1b",
            "--json",
            matrix_json([[0, 1]]),
        )
        assert code == 0
        assert json.loads(out)["certificate"]["pass"] is True

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--kind", "coninv", "--json", "{not json")
        assert code == 2

    def test_desk_scale_rejected_eagerly(self, capsys):
        n = 17
        entries = [[1.0 if i == j else 0.0, 0.0] for i in range(n) for j in range(n)]
        code, _, err = run(
            capsys,
            "decompose",
            "--kind",
            "coninv",
            "--json",
            json.dumps({"n": n, "pathway": "floating", "entries": entries}),
        )
        assert code == 4
        assert "desk-scale" in err

    def test_pad_to(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            "--kind",
            "coninv",
            "--pad-to",
            "5",
            "--json",
            matrix_json([[0, 0]] * 9),
        )
        assert code == 0
        assert json.loads(out)["certificate"]["count"] == 5


class TestCanonical:
    def test_real_of_imaginary_scalar(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "--kind", "real", "--json", matrix_json([[0, 1]])
        )
        assert code == 0
        doc = json.loads(out)
        b = matrix_from_json(doc["B"])
        assert abs(b[0, 0] - 1.0) < 1e-9

    def test_frobenius_blocks(self, capsys):
        code, out, _ = run(
            capsys,
            "canonical",
            "--kind",
            "frobenius",
            "--json",
            matrix_json(["2", "0", "0", "3"], "exact"),
        )
        assert code == 0
        doc = json.loads(out)
        # diag(2, 3) is cyclic: one invariant factor x^2 - 5x + 6
        assert [blk["a"] for blk in doc["blocks"]] == [["5", "-6"]]
        assert doc["residual"] == "0"

    def test_concanonical_h_block(self, capsys):
        code, out, _ = run(
            capsys,
            "canonical",
            "--kind",
            "concanonical",
            "--json",
            matrix_json([[0, 0], [1, 0], [-2, 0], [0, 0]]),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["blocks"] == [{"kind": "H", "m": 1, "mu": [-2.0, 0.0]}]


class TestGen:
    def test_jordan_block(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "jordan", "--n", "2", "--lam", "1")
        assert code == 0
        m = matrix_from_json(json.loads(out))
        assert np.allclose(m.to_array(), [[1, 1], [0, 1]])

    def test_hblock(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "hblock", "--m", "1", "--mu", "-2")
        assert code == 0
        m = matrix_from_json(json.loads(out))
        assert np.allclose(m.to_array(), [[0, 1], [-2, 0]])

    def test_random_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "gen", "--kind", "random", "--n", "4", "--seed", "7")
        code2, out2, _ = run(capsys, "gen", "--kind", "random", "--n", "4", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CONINV_SEED", "99")
        _, out_env, _ = run(capsys, "gen", "--kind", "random", "--n", "3")
        monkeypatch.delenv("CONINV_SEED")
        _, out_default, _ = run(capsys, "gen", "--kind", "random", "--n", "3")
        _, out_explicit, _ = run(capsys, "gen", "--kind", "random", "--n", "3", "--seed", "99")
        assert out_env == out_explicit
        assert out_env != out_default

    def test_dsum_spec(self, capsys):
        spec = json.dumps(
            {
                "kind": "dsum",
                "parts": [
                    {"kind": "jordan", "blocks": [[2, 1.0]]},
                    {"kind": "hblock", "m": 1, "mu": [-2, 0]},
                ],
            }
        )
        code, out, _ = run(capsys, "gen", "--spec", spec)
        assert code == 0
        m = matrix_from_json(json.loads(out))
        assert m.n == 4
        assert np.allclose(m.to_array()[2:, 2:], [[0, 1], [-2, 0]])


class TestVerify:
    def test_round_trip_pass_and_tamper_fail(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "decompose",
            "--kind",
            "skew",
            "--json",
            matrix_json([[0, 0], [1, 0], [-2, 0], [0, 0]]),
        )
        assert code == 0
        dec = json.loads(out)["decomposition"]
        matrix = {"n": 2, "pathway": "floating", "entries": [[0, 0], [1, 0], [-2, 0], [0, 0]]}
        payload = json.dumps({"matrix": matrix, "decomposition": dec})
        code, out, _ = run(capsys, "verify", "--json", payload)
        assert code == 0
        assert json.loads(out)["pass"] is True

        dec["summands"][0]["entries"][0] = [5.0, 0.0]
        payload = json.dumps({"matrix": matrix, "decomposition": dec})
        code, out, _ = run(capsys, "verify", "--json", payload)
        assert code == 3
        assert json.loads(out)["pass"] is False

    def test_missing_field(self, capsys):
        code, _, err = run(capsys, "verify", "--json", json.dumps({"matrix": {}}))
        assert code == 2


def test_stdout_is_json_only(capsys):
    code, out, err = run(
        capsys, "decompose", "--kind", "coninv", "--json", matrix_json([[1, 0], [0, 0], [0, 0], [2, 0]])
    )
    assert code == 0
    json.loads(out)  # must parse as a single document


def test_file_io(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(matrix_json([[1, 0], [0, 0], [0, 0], [2, 0]]))
    dst = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "decompose", "--kind", "coninv", "--in", str(src), "--out", str(dst)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(dst.read_text())
    assert doc["certificate"]["pass"] is True


def test_convergence_failure_is_numerical(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    code, _, err = run(capsys, "decompose", "--kind", "coninv", "--json", matrix_json([[k, 1] for k in range(9)]))
    assert code == 3
    assert "numerical failure" in err


def test_skew_parameter_cap_is_numerical(capsys, monkeypatch):
    # J2(1) + J3(2) + J1(3) with the cap lowered: J3(2) and J1(3) meet in
    # the window (2, 3), which needs |a| = 1.96
    from coninv import skewsum

    monkeypatch.setattr(skewsum, "PARAM_CAP", 1e-3)
    entries = [[0, 0]] * 36
    diagonal = [1, 1, 2, 2, 2, 3]
    for i, v in enumerate(diagonal):
        entries[7 * i] = [v, 0]
    for i in (0, 2, 3):
        entries[7 * i + 1] = [1, 0]
    code, _, err = run(capsys, "decompose", "--kind", "skew", "--json", matrix_json(entries))
    assert code == 3
    assert "numerical failure" in err and "pair values 2, 3 too close" in err and "parameter cap" in err


def test_missed_skew_certificate_is_numerical(capsys, monkeypatch):
    doc = (Path(__file__).parent / "data" / "skew_certificate_miss_n8.json").read_text()
    read_pairs_as_h2(monkeypatch)
    code, out, err = run(capsys, "decompose", "--kind", "skew", "--json", doc)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err and "skew sum misses its certificate" in err


def test_unread_canonical_form_is_numerical(capsys):
    doc = (Path(__file__).parent / "data" / "skew_certificate_miss_n8.json").read_text()
    code, out, err = run(capsys, "decompose", "--kind", "skew", "--json", doc)
    assert code == 3
    assert out == ""
    assert "canonical-form failure" in err and "empty kernel" in err


@pytest.mark.parametrize(
    "pathway, entry",
    [("floating", [1.0]), ("floating", 1.0), ("floating", "x"), ("exact", "1/0"), ("exact", None)],
)
def test_malformed_entry_is_an_input_error(capsys, pathway, entry):
    good = [1.0, 0.0] if pathway == "floating" else "1"
    code, out, err = run(capsys, "decompose", "--kind", "coninv", "--json", matrix_json([good] * 3 + [entry], pathway))
    assert code == 2
    assert out == ""
    assert "entry 3" in err and "Traceback" not in err
