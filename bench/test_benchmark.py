"""Tests of the benchmark itself: seeded inputs, the output checks, and the
span recorder.  Run with ``PYTHONPATH=src python -m pytest bench``."""

import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import get_clock_info

import pytest

import coninv
import ops
import run
import workloads
from coninv.matcore import Matrix


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = next(workloads.rounds(workload, 7))
    again = next(workloads.rounds(workload, 7))
    other = next(workloads.rounds(workload, 8))
    assert [(k, a.rows()) for k, a in first] == [(k, a.rows()) for k, a in again]
    assert [a.rows() for _, a in first] != [a.rows() for _, a in other]


def test_envelope_probes_are_fixed():
    first, again = workloads.envelope_probes(), workloads.envelope_probes()
    assert [(c, k, a.rows()) for c, k, a in first] == [(c, k, a.rows()) for c, k, a in again]


def _small_real_exact():
    return [(kind, a) for kind, a in next(workloads.rounds("real-exact", 3)) if a.n <= 5]


def test_real_exact_never_enters_concanon():
    op_list = _small_real_exact()
    assert {kind for kind, _ in op_list} == {"thm1a"}
    tracer, outcomes, plain, _, _ = run.trace_ops(op_list)
    assert plain == [o.failure for o in outcomes]
    assert any(s.name == "exactcanon.frobenius_form" for s in tracer.spans)
    assert not any(s.name.startswith("concanon.") for s in tracer.spans)


def test_self_times_add_up_to_the_root_span():
    op_list = next(workloads.rounds("complex-generic", 5))[:9]
    tracer, _, _, _, _ = run.trace_ops(op_list)
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    assert sorted(by_op) == list(range(len(op_list)))
    resolution = get_clock_info("perf_counter").resolution
    for group in by_op.values():
        (root,) = [s for s in group if s.parent is None]
        assert root.name == "bench.op" and len(group) > 1
        # each span adds at most a few roundings of a timestamp
        tol = resolution + 4 * len(group) * math.ulp(root.end)
        assert abs(sum(s.self_time for s in group) - root.duration) <= tol


def test_uninstall_restores_every_binding():
    from coninv import conisum

    before = (coninv.coninvolutory_sum, conisum.consimilar_to_real, Matrix.inverse)
    run.trace_ops(_small_real_exact()[:1])
    assert (coninv.coninvolutory_sum, conisum.consimilar_to_real, Matrix.inverse) == before


def test_checks_catch_a_wrong_witness():
    a = next(workloads.rounds("complex-generic", 1))[3][1]  # n = 4
    dec, split = ops.decompose("thm1b", a)
    ops.check("thm1b", a, dec, split)
    split.values = tuple(v + 1e-3 for v in split.values)
    with pytest.raises(ops.CheckFailed, match="witness"):
        ops.check("thm1b", a, dec, split)


def test_checks_catch_a_wrong_exact_split():
    a = next(workloads.rounds("real-exact", 1))[1][1]  # small rationals, n = 4
    dec, split = ops.decompose("thm1a", a)
    ops.check("thm1a", a, dec, split)
    split.spectrum = tuple(reversed(split.spectrum))
    with pytest.raises(ops.CheckFailed, match="witness"):
        ops.check("thm1a", a, dec, split)


def test_refuses_to_run_without_the_library(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "real-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
