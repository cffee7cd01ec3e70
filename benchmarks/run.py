#!/usr/bin/env python3
"""gencheb benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload large-solve --seed 1 --seconds 30 --trace 0

Workloads: large-solve, cli-roundtrip, small-sweep (see README.md here).
`--trace 0` repeats the workload's round until `--seconds` have passed and
reports the end-to-end metrics (timings are medians over the rounds).
`--trace 1` alternates traced and untraced rounds after one untraced
warm-up round, checks that tracing changed no result bit, and reports the
per-layer metrics plus the tracing overhead.

Every output of the program is checked; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}, and the
exit code is 1 when any check failed.  gencheb is imported from `src/` of
the checkout this file sits in; without it the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, fixed before numpy loads: the library's only BLAS calls
# are in assembly (QR and a block product), and a fixed count keeps
# setup_s steady and the load within one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "solve_s.basic": "s",
    "solve_s.generalized": "s",
    "experiment_s": "s",
    "runs_per_s": "1/s",
    "products.basic": "count",
    "products.generalized": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.matvec.calls": "count",
    "linalg.matvec_ms": "ms",
    "linalg.matvec.bytes_computed": "B",
    "linalg.matvec.gbps_computed": "GB/s",
    "linalg.mm_write_s": "s",
    "linalg.mm_read_s": "s",
    "linalg.mm_bytes": "B",
    "linalg.conj_transpose_s": "s",
    "linalg.from_triplets_s": "s",
    "linalg.geometric_sum_s": "s",
    "genmat.assemble_s": "s",
    "genmat.write_system_s": "s",
    "solvers.transform_s": "s",
    "solvers.self_s.basic": "s",
    "solvers.self_s.generalized": "s",
    "solvers.steps.basic": "count",
    "solvers.steps.generalized": "count",
    "solvers.telemetry_products": "count",
    "solvers.products_all": "count",
    "solvers.useful_product_ratio": "ratio",
    "solvers.rate_per_product.basic": "ratio",
    "solvers.rate_per_product.generalized": "ratio",
    "solvers.measured_over_predicted.basic": "ratio",
    "solvers.measured_over_predicted.generalized": "ratio",
    "cheb_kernel.stream_step_us": "us",
    "cheb_kernel.membership_s": "s",
    "spectrum.build_report_s": "s",
    "spectrum.classify_s": "s",
    "spectrum.select_k_geometric_s": "s",
    "spectrum.estimate_s": "s",
    "spectrum.estimate.products": "count",
    "cli.self_s": "s",
    "cli.read_spectrum_file_s": "s",
    "cli.process_start_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "ref.scipy_matvec_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_gencheb():
    """Import gencheb from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "gencheb" / "__init__.py").is_file():
        print(f"error: no gencheb sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        import gencheb
    except ImportError as exc:
        print(f"error: cannot import gencheb from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(gencheb.__file__).resolve().parent != (SRC / "gencheb").resolve():
        print(f"error: gencheb imported from {gencheb.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def summary(values) -> dict:
    """Median, the highest percentile with ten samples beyond it (else the
    maximum), and the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n > 10:
        out[f"p{int(100 * (n - 10) / n)}"] = xs[n - 11]
    else:
        out["max"] = xs[-1]
    return out


def source_commit() -> str:
    """Commit of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "gencheb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(wl, args) -> dict:
    import numpy as np
    env = {
        "commit": source_commit(),
        "source_sha256_16": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    if wl.matrix_system is not None:
        env["matrix"] = wl.env()
        nnz, n = env["matrix"]["nnz"], env["matrix"]["n"]
        # stored operands (values, indices, offsets, x, y) up to the
        # temporaries np.add.at makes: gather, products, row ids, scatter
        env["matrix"]["product_bytes_computed"] = [
            24 * nnz + 8 * (n + 1) + 32 * n, 80 * nnz + 8 * (n + 1) + 32 * n]
        env["roofline"] = (
            "not claimed: one product at nnz 1.02M touches about 25-90 MB "
            "(computed from array sizes), below the 300 MiB L3 the reference "
            "VM reports, so bytes are labelled computed and no bandwidth "
            "ratio is given")
    return env


# -- measurement loops --------------------------------------------------------

def timed_round(wl, tr, traced, index):
    gc.collect()  # every round starts from the same collector state
    t0 = time.perf_counter()
    rd = wl.round(tr, traced, index)
    rd.seconds = time.perf_counter() - t0
    if not traced:
        # only traced rounds feed the layer metrics; keeping every round's
        # traces would grow the heap, and peak_rss_mb, with the round count
        rd.solves.clear()
        rd.fixed.clear()
    return rd


def tally_ops(rounds, extra_ops=()):
    attempted = sum(rd.attempted for rd in rounds) + len(extra_ops)
    failed = [f for rd in rounds for f in rd.failures]
    failed += [(label, problems) for label, problems in extra_ops if problems]
    return attempted, failed


def merged_samples(rounds) -> dict:
    samples = {}
    for rd in rounds:
        for name, values in rd.samples.items():
            samples.setdefault(name, []).extend(values)
    return samples


def end_to_end(wl, rounds, loop_s) -> tuple[dict, dict, list]:
    problems = []
    samples = merged_samples(rounds)
    metrics, stats = {}, {}
    for name in ("setup_s", "solve_s.basic", "solve_s.generalized", "experiment_s"):
        values = samples.get(name)
        if not values:
            problems.append(f"no samples for {name}")
            continue
        stats[name] = summary(values)
        metrics[name] = stats[name]["median"]
    # per-round rates, so one slow round moves the median little
    stats["runs_per_s"] = summary([rd.runs / rd.seconds for rd in rounds])
    stats["runs_per_s"].update(runs=sum(rd.runs for rd in rounds), loop_s=loop_s)
    metrics["runs_per_s"] = stats["runs_per_s"]["median"]
    for scheme in ("basic", "generalized"):
        seen = {rd.products.get(scheme) for rd in rounds}
        if len(seen) != 1 or None in seen:
            problems.append(f"products.{scheme} not repeatable across rounds: {seen}")
        else:
            metrics[f"products.{scheme}"] = seen.pop()
    metrics["peak_rss_mb"] = wl.peak_rss_mb(rounds)
    return metrics, stats, problems


def check_repeatable(rounds, reference) -> list:
    return [f"round {i} results differ from the reference round"
            for i, rd in enumerate(rounds) if rd.fingerprint() != reference.fingerprint()]


def measure(wl, seconds):
    from workloads import NullTracer
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(timed_round(wl, NullTracer, False, len(rounds)))
    loop_s = time.perf_counter() - t0
    metrics, stats, problems = end_to_end(wl, rounds, loop_s)
    problems += check_repeatable(rounds[1:], rounds[0])
    return rounds, metrics, stats, problems, []


def measure_traced(wl, seconds, span_dir):
    import layers
    from tracing import Tracer
    from workloads import NullTracer

    tracer = Tracer()
    reference = timed_round(wl, NullTracer, False, 0)   # warm-up and bit reference
    traced, untraced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        tracer.install()
        try:
            traced.append(timed_round(wl, tracer, True, 1 + 2 * len(traced)))
        finally:
            tracer.uninstall()
        untraced.append(timed_round(wl, NullTracer, False, 2 + 2 * len(untraced)))
    problems = [p.replace("round", "traced round", 1)
                for p in check_repeatable(traced, reference)]
    problems += [p.replace("round", "untraced round", 1)
                 for p in check_repeatable(untraced, reference)]
    spans = tracer.spans()
    spans.dump(span_dir / "process.npz")
    refs, extra_ops = wl.reference_metrics(Tracer())
    metrics, stats = layers.layer_metrics(wl, spans, traced, untraced, refs)
    rounds = [reference] + traced + untraced
    return rounds, metrics, stats, problems, extra_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    import_gencheb()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    span_dir = WORK / "spans" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, run_dir, span_dir)
    try:
        wl.prepare()
        if args.trace:
            rounds, metrics, stats, problems, extra_ops = measure_traced(
                wl, args.seconds, span_dir)
            units = PER_LAYER
        else:
            rounds, metrics, stats, problems, extra_ops = measure(wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = tally_ops(rounds, extra_ops)
    attempted += 1  # the run-level checks: repeatable results, every metric present
    missing = [name for name in units if name not in metrics]
    problems += [f"metric {name} missing" for name in missing]
    correct = not failed and not problems
    record = {
        "environment": environment(wl, args),
        "rounds": len(rounds),
        "statistics": stats,
        "failed_operations": [{"op": label, "problems": p} for label, p in failed[:20]],
        "problems": problems,
    }
    print("record " + json.dumps(record, default=str))
    record["round_seconds"] = [rd.seconds for rd in rounds]
    record["samples"] = merged_samples(rounds)
    WORK.mkdir(exist_ok=True)
    (WORK / f"BENCH_{tag}.json").write_text(json.dumps(record, default=str))
    for label, p in failed[:20]:
        print(f"FAILED {label}: {'; '.join(p)}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed) + (1 if problems else 0),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
