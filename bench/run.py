"""Seeded end-to-end benchmark for coninv.

    python3 bench/run.py --workload complex-generic --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nothing is installed.  The load is a closed
loop: one client in one process, each operation starting when the previous
one has finished.  An operation is one call into a public entry point plus
the full output check in ``ops.py``.  BLAS is pinned to one thread before
numpy is imported.

``--trace 0`` runs whole rounds of the workload for at least ``--seconds``
(and at least ``MIN_ATTEMPTS`` operations) and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` replays a fixed number of
rounds, running each operation once untraced and once with every public
function of the library wrapped by the span recorder in ``spans.py``, and
reports the per-layer metrics, among them how often the fixed inputs of
``workloads.envelope_probes`` fail: the failure classes the timed workloads
leave out, because every timed operation has to succeed.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the host facts, sample
counts and failure classes.

``failed`` counts every operation without a fully checked result: typed
errors, unexpected exceptions and failed checks.  ``correct`` is false when
the library certified an output that then failed one of the benchmark's own
checks (a wrong answer it did not report), or when tracing changed an
outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: p90 needs at least 10 samples beyond it
MIN_ATTEMPTS = 100
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 9
#: cold `coninv decompose` subprocesses timed in a traced run
CLI_PROBES = 3
#: rounds replayed by a traced run, about 10 s of untraced work each
TRACE_ROUNDS = {"complex-generic": 12, "real-exact": 5, "structured-envelope": 12}
#: a certificate failure is reported by the library itself; any other
#: failed check means a certified output was wrong
REPORTED_CHECK = "check:certificate"


def _host_facts() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": metadata.version("sympy"),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:  # no procfs: the thread count stays unknown
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _warm_up(workload: str) -> None:
    import ops
    import workloads

    for kind, a in workloads.warmup_ops(workload):
        ops.run_op(kind, a)


def _probe(workload: str) -> int:
    """Child side of setup_s: import, warm up, say so."""
    import coninv  # noqa: F401  (the import is what is being timed)

    _warm_up(workload)
    print("ready", flush=True)
    return 0


def _setup_seconds(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return times


def _timed_run(workload: str, seed: int, seconds: float) -> dict:
    import ops
    import workloads

    setup = _setup_seconds(workload)
    _warm_up(workload)
    latencies: list[float] = []
    failures: Counter = Counter()
    round_rates: list[float] = []
    wall = 0.0
    stream = workloads.rounds(workload, seed)
    while wall < seconds or len(latencies) < MIN_ATTEMPTS:
        batch = next(stream)  # generated outside the clock
        certified = 0
        t_round = perf_counter()
        for kind, a in batch:
            t0 = perf_counter()
            outcome = ops.run_op(kind, a)
            latencies.append(perf_counter() - t0)
            if outcome.failure:
                failures[outcome.failure] += 1
            else:
                certified += 1
        elapsed = perf_counter() - t_round
        round_rates.append(certified / elapsed)
        wall += elapsed
    attempted = len(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": statistics.median(setup),
        "certified_per_s": statistics.median(round_rates),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "samples": {
            "latency": attempted,
            "beyond_p90": sum(1 for x in latencies if x > p90),
            "setup_probes": len(setup),
            "rounds": len(round_rates),
            "wall_s": wall,
        },
        "fail_ratio": sum(failures.values()) / attempted,
        "consistent": True,
    }


def _cli_cold(op_list) -> tuple[list[float], list[int]]:
    """Times and exit codes of cold `python -m coninv.cli decompose` runs on
    the first operations of the workload."""
    from coninv import matrix_to_json

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, codes = [], []
    for kind, a in op_list[:CLI_PROBES]:
        argv = [sys.executable, "-m", "coninv.cli", "decompose", "--kind", kind, "--json", json.dumps(matrix_to_json(a))]
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT, env=env, timeout=120)
        times.append(perf_counter() - t0)
        codes.append(proc.returncode)
    return times, codes


def _amplification(a, dec) -> float:
    norm = a.frobenius_norm()
    return max(k.frobenius_norm() for k in dec.summands) / norm if norm else 0.0


def trace_ops(op_list):
    """Run each operation untraced and traced, alternating which goes first
    so that warm-up and drift do not bias the overhead.  Returns the tracer,
    the traced outcomes, the untraced failure classes and both total times."""
    import layers
    import ops
    import spans

    tracer = spans.Tracer(keep=layers.KEEP)
    untraced = traced = 0.0
    plain, outcomes = [], []
    for i, (kind, a) in enumerate(op_list):
        for traced_pass in (False, True) if i % 2 == 0 else (True, False):
            if traced_pass:
                tracer.install()
                try:
                    t0 = perf_counter()
                    outcomes.append(tracer.root("bench.op", i, ops.run_op, kind, a))
                    traced += perf_counter() - t0
                finally:
                    tracer.uninstall()
            else:
                t0 = perf_counter()
                plain.append(ops.run_op(kind, a).failure)
                untraced += perf_counter() - t0
    return tracer, outcomes, plain, untraced, traced


def _envelope_probes() -> tuple[Counter, int]:
    """Failures of the fixed inputs from the classes the timed workloads
    leave out, counted as ``<input class> <failure class>``, and the number
    of those inputs."""
    import ops
    import workloads

    probes = workloads.envelope_probes()
    failures: Counter = Counter()
    for cls, kind, a in probes:
        failure = ops.run_op(kind, a).failure
        if failure:
            failures[f"{cls} {failure}"] += 1
    return failures, len(probes)


def _traced_run(workload: str, seed: int) -> dict:
    import layers
    import workloads

    _warm_up(workload)
    stream = workloads.rounds(workload, seed)
    op_list = [op for _ in range(TRACE_ROUNDS[workload]) for op in next(stream)]
    tracer, outcomes, plain, untraced, traced = trace_ops(op_list)

    failures = Counter(o.failure for o in outcomes if o.failure)
    done = [(kind, a, o.decomposition) for (kind, a), o in zip(op_list, outcomes) if o.decomposition]
    values = layers.per_layer(
        tracer.spans,
        len(op_list),
        [dec.log for kind, _, dec in done if kind == "coninv"],
        [_amplification(a, dec) for _, a, dec in done],
    )
    cli_times, cli_codes = _cli_cold(op_list)
    values["cli.decompose_cold_s"] = statistics.median(cli_times)
    values["trace.overhead_ratio"] = untraced / traced  # traced / untraced throughput
    probe_failures, probes = _envelope_probes()
    values["envelope.fail_ratio"] = sum(probe_failures.values()) / probes
    return {
        "metrics": values,
        "attempted": len(op_list),
        "failures": failures,
        "samples": {
            "spans": len(tracer.spans),
            "rounds": TRACE_ROUNDS[workload],
            "cli_exit_codes": cli_codes,
            "envelope_failure_classes": dict(sorted(probe_failures.items())),
        },
        "fail_ratio": sum(failures.values()) / len(op_list),
        "consistent": plain == [o.failure for o in outcomes],
    }


def _declared(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report to this JSON file")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "coninv" / "__init__.py").is_file():
        print(f"no library source under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import coninv
    import workloads

    if Path(coninv.__file__).resolve().parent != SRC / "coninv":
        print(f"imported coninv from {coninv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        return _probe(args.workload)

    if args.trace:
        run = _traced_run(args.workload, args.seed)
    else:
        run = _timed_run(args.workload, args.seed, args.seconds)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in declared.items()}
    failed = sum(run["failures"].values())
    wrong = sorted(c for c in run["failures"] if c.startswith("check:") and c != REPORTED_CHECK)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": None if args.trace else args.seconds,
        "trace": args.trace,
        "host": _host_facts(),
        "samples": run["samples"],
        "fail_ratio": run["fail_ratio"],
        "failure_classes": dict(sorted(run["failures"].items())),
        "certified_wrong_classes": wrong,
        "trace_changed_outcomes": not run["consistent"],
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_ratio':58s} {run['fail_ratio']:14.6g} ratio  {report['failure_classes']}")
    print("report " + json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    result = {
        "correct": not wrong and run["consistent"],
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
