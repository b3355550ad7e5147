"""Per-layer metrics from the spans of a traced run.

``*.self_ms`` is self time per operation attempted and ``*.calls`` a call
count over the whole traced run, which replays a fixed list of operations,
so counts repeat exactly for a seed.  Which end-to-end metric each of these
should move, and on which workload, is tabulated in ``bench/README.md``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: the seven ROADMAP table columns, by span name
ENTRY_POINTS = (
    "conisum.coninvolutory_sum",
    "skewsum.skew_coninvolutory_sum",
    "concanon.consimilar_to_real",
    "concanon.concanonical_form",
    "exactcanon.involutory_diagonalizable_split",
    "conisum.coninvolutory_condiagonalizable_split",
    "certify.verify_decomposition",
)
ENTRY_SIZES = (2, 4, 8, 12, 16)
SELF_MS = (
    "matcore.real_linear_nullspace",
    "matcore.rationalize",
    "concanon.solve_consimilarity",
    "concanon.concanonical_form",
    "concanon.consimilar_to_real",
    "exactcanon.frobenius_form",
    "exactcanon.minimal_polynomial",
    "exactcanon.factor_prime_powers",
    "exactcanon.involutory_diagonalizable_split",
    "conisum.coninvolutory_sum",
    "conisum.consim_conjugate_list",
    "skewsum.skew_sum_jordan",
    "skewsum.skew_sum_hblock",
    "certify.verify_decomposition",
)
CALLS = ("matcore.real_linear_nullspace", "concanon.solve_consimilarity")
#: routing steps of the coninvolutory-sum pipeline, as written to its log
ROUTE_STEPS = (
    "zero-input",
    "real-2x2",
    "even-split",
    "odd-borders",
    "lead-block-swap",
    "merge-scalars",
    "scalar-sign-flip",
)
#: spans whose return value is inspected after the run
KEEP = ("exactcanon.frobenius_form", "skewsum.skew_sum_jordan")


def _svd_gflop(m: int) -> float:
    """Operation count of a full SVD (U, S and V) of an m-by-m matrix,
    4m^3 + 8m^3 + 9m^3 (Golub and Van Loan, table 5.4.1)."""
    return 21.0 * m**3 / 1e9


def _outermost(spans, span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == span.name:
            return False
        parent = spans[parent].parent
    return True


def _max_bits(form) -> int:
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in form.S.rows() for x in row)


def per_layer(spans, n_ops: int, coninv_logs, amplifications) -> dict[str, float]:
    """Metric name -> value; `coninv_logs` are the logs of the coninvolutory
    sums that returned, `amplifications` the max ||K_i|| / ||A|| of every
    returned decomposition."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}

    def self_ms(group) -> float:
        return 1e3 * sum(s.self_time for s in group) / n_ops

    for name in CALLS:
        out[f"{name}.calls"] = len(by_name[name])
    for name in SELF_MS:
        out[f"{name}.self_ms"] = self_ms(by_name[name])
    out["matcore.real_linear_nullspace.computed_gflop"] = (
        sum(_svd_gflop(s.n) for s in by_name["matcore.real_linear_nullspace"]) / n_ops
    )
    for pathway in ("floating", "exact"):
        group = [s for s in by_name["matcore.inverse"] if s.pathway == pathway]
        out[f"matcore.inverse.{pathway}.calls"] = len(group)
        out[f"matcore.inverse.{pathway}.self_ms"] = self_ms(group)

    forms = by_name["concanon.concanonical_form"]
    form_ids = {s.id for s in forms}
    tried = sum(1 for s in by_name["concanon.solve_consimilarity"] if s.parent in form_ids)
    verified = sum(1 for s in forms if s.error is None)
    out["concanon.candidates_per_form"] = tried / len(forms) if forms else 0.0
    out["concanon.candidate_hit_ratio"] = verified / tried if tried else 0.0
    # errors that leave the layer, each counted where it crosses the boundary
    out["concanon.errors"] = sum(
        1
        for s in spans
        if s.error and s.name.startswith("concanon.")
        and (s.parent is None or not spans[s.parent].name.startswith("concanon."))
    )

    frob = [s.result for s in by_name["exactcanon.frobenius_form"] if s.result is not None]
    out["exactcanon.frobenius_S.max_bits"] = max((_max_bits(f) for f in frob), default=0)

    steps = [step["step"] for log in coninv_logs for step in log]
    for step in ROUTE_STEPS:
        out[f"conisum.route.{step}"] = steps.count(step)
    jordan_logs = [s.result.log for s in by_name["skewsum.skew_sum_jordan"] if s.result is not None]
    skew_steps = [step for log in jordan_logs for step in log]
    out["skewsum.search_restarts"] = sum(st["restarts"] for st in skew_steps if st["step"] == "randomized-search")
    out["skewsum.fallback_count"] = sum(1 for st in skew_steps if st["step"] == "rotation-fallback")

    out["certify.amplification_p90"] = (
        statistics.quantiles(amplifications, n=10, method="inclusive")[8] if len(amplifications) > 1 else 0.0
    )
    for name in ENTRY_POINTS:
        sizes = defaultdict(list)
        for s in by_name[name]:
            if _outermost(spans, s):
                sizes[s.n].append(s.duration)
        for k in ENTRY_SIZES:
            out[f"{name}.n{k}_ms"] = 1e3 * statistics.median(sizes[k]) if sizes[k] else 0.0
    return out
