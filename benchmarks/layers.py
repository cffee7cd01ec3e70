"""Per-layer metrics from the spans of a traced run.

Counts and seconds are per traced round (totals divided by the number of
traced rounds); `_ms` and `_us` values are per call.  Spans of the CLI
child processes are added to the benchmark process's own.  Which
end-to-end metric each layer metric should move is listed in README.md.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import MATVEC

SCHEMES = ("basic", "generalized")
MM_WRITE = {"linalg.write_matrix_market", "linalg.write_vector_market"}
MM_READ = {"linalg.read_matrix_market", "linalg.read_vector_market"}
CONJ_TRANSPOSE = {"linalg.ComplexSparseMatrix.conj_transpose", "linalg.conj_transpose"}
MEMBERSHIP = {"cheb_kernel.membership_defect", "cheb_kernel.deltoid_contains",
              "cheb_kernel.power_preimage_contains"}
SCHEME_RUNS = {f"bench.{kind}.{s}" for kind in ("solve", "fixed") for s in SCHEMES}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def measured_rate(trace) -> float | None:
    """Least-squares per-step rate over the last three quarters of a trace."""
    last = trace.steps[-1] if trace.steps else 0
    first = max(trace.steps[0], last // 4) if trace.steps else 0
    if last - first < 2:
        return None
    return trace.fitted_rate(first, last)


def scipy_matvec_ms(matrix) -> float:
    """Median time of scipy's CSR product on the same matrix; 0 without scipy.

    An external reference point only: scipy is not a gencheb dependency."""
    try:
        from scipy.sparse import csr_matrix
    except ImportError:
        return 0.0
    a = csr_matrix((matrix.values, matrix.col_indices, matrix.row_offsets),
                   shape=matrix.shape)
    v = np.ones(matrix.n_cols, dtype=complex)
    reps = max(5, min(200, int(2e7 // max(matrix.nnz, 1))))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ v
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_metrics(wl, spans, traced, untraced, refs) -> tuple[dict, dict]:
    sets = [spans] + [s for rd in traced for s in rd.child_spans]
    n = len(traced)

    def total(query):
        return sum(query(s) for s in sets)

    def per_round(names):
        return total(lambda s: s.covered(names)) / n

    m = {}
    calls = total(lambda s: s.count({MATVEC}))
    mv_time = total(lambda s: float(s.durations({MATVEC}).sum()))
    mv_bytes = sum(s.tally.get(MATVEC, 0.0) for s in sets)
    m["linalg.matvec.calls"] = calls / n
    m["linalg.matvec_ms"] = 1e3 * mv_time / calls if calls else 0.0
    m["linalg.matvec.bytes_computed"] = mv_bytes / calls if calls else 0.0
    m["linalg.matvec.gbps_computed"] = mv_bytes / mv_time / 1e9 if mv_time else 0.0
    m["linalg.mm_write_s"] = per_round(MM_WRITE)
    m["linalg.mm_read_s"] = per_round(MM_READ)
    m["linalg.mm_bytes"] = _mean(rd.mm_bytes for rd in traced)
    m["linalg.conj_transpose_s"] = per_round(CONJ_TRANSPOSE)
    m["linalg.from_triplets_s"] = per_round({"linalg.ComplexSparseMatrix.from_triplets"})
    m["linalg.geometric_sum_s"] = per_round({"linalg.geometric_sum_apply"})
    m["genmat.assemble_s"] = total(
        lambda s: s.layer_self("genmat", {"genmat.assemble_normal_system"})) / n
    m["genmat.write_system_s"] = per_round({"genmat.write_generated_system"})
    m["solvers.transform_s"] = per_round({"solvers.transform_system"})

    is_linalg = lambda name: name.startswith("linalg.")
    for scheme in SCHEMES:
        roots = {f"bench.solve.{scheme}"}
        solves = total(lambda s: s.count(roots))
        own = total(lambda s: s.covered({"solvers.solve"}, within=roots)
                    - s.covered(is_linalg, within=roots))
        m[f"solvers.self_s.{scheme}"] = own / solves if solves else 0.0
        records = [r for rd in traced for r in rd.solves if r.scheme == scheme]
        m[f"solvers.steps.{scheme}"] = _mean(len(r.trace.steps) for r in records)
        m[f"solvers.rate_per_product.{scheme}"] = _mean(
            r.err ** (1.0 / r.trace.total_matvecs) for r in records)
        ratios = [rate / r.predicted for r in records
                  if (rate := measured_rate(r.trace)) is not None]
        m[f"solvers.measured_over_predicted.{scheme}"] = _mean(ratios)

    all_products = total(lambda s: s.count({MATVEC}, within=SCHEME_RUNS))
    recurrence = sum(r.trace.total_matvecs for rd in traced for r in rd.solves)
    recurrence += sum(t.total_matvecs for rd in traced for t in rd.fixed)
    m["solvers.telemetry_products"] = total(
        lambda s: s.count({MATVEC}, within={"solvers.IterationSystem.residual_norm"})) / n
    m["solvers.products_all"] = all_products / n
    m["solvers.useful_product_ratio"] = recurrence / all_products if all_products else 0.0

    steps = total(lambda s: float(s.durations({"cheb_kernel.ChebCoefficientStream.step"}).sum()))
    nsteps = total(lambda s: s.count({"cheb_kernel.ChebCoefficientStream.step"}))
    m["cheb_kernel.stream_step_us"] = 1e6 * steps / nsteps if nsteps else 0.0
    m["cheb_kernel.membership_s"] = per_round(MEMBERSHIP)
    m["spectrum.build_report_s"] = per_round({"spectrum.build_report"})
    m["spectrum.classify_s"] = per_round({"spectrum.classify_dominant"})
    m["spectrum.select_k_geometric_s"] = per_round({"spectrum.select_k_geometric"})
    m["spectrum.estimate_s"] = refs.get("spectrum.estimate_s", 0.0)
    m["spectrum.estimate.products"] = refs.get("spectrum.estimate.products", 0)

    m["cli.self_s"] = total(lambda s: s.layer_self("cli", {"cli.main"})) / n
    m["cli.read_spectrum_file_s"] = per_round({"cli.read_spectrum_file"})
    starts = [v for rd in traced for v in rd.samples.get("process_start_s", [])]
    m["cli.process_start_s"] = statistics.median(starts) if starts else 0.0

    t_on = statistics.median(rd.seconds for rd in traced)
    t_off = statistics.median(rd.seconds for rd in untraced)
    m["trace.overhead_s"] = t_on - t_off
    m["trace.overhead_share"] = (t_on - t_off) / t_off
    m["ref.scipy_matvec_ms"] = scipy_matvec_ms(wl.matrix_system.M)

    stats = {
        "traced_rounds": n,
        "round_s_traced": t_on,
        "round_s_untraced": t_off,
        "useful_product_ratio_base": {"recurrence_products": recurrence,
                                      "all_products_in_scheme_runs": all_products},
        "matvec_calls_total": calls,
        "spans": int(sum(len(s.start) for s in sets)),
        "scipy_reference": "scipy.sparse csr_matrix @ vector, median; not a dependency",
    }
    return m, stats
