"""Batch experiment runner.

Subcommands build or load one iteration system, classify its spectrum,
pick the power-transform order k, run the requested schemes, and write a
plot-ready trace.csv plus a plain-text report.txt into the output
directory.  One experiment per process; exit codes are part of the
contract:

    0  success
    2  usage error (argparse)
    3  spectrum inapplicable to the acceleration, or a dominant eigenvalue
       that is zero or not inside the unit disc
    4  a requested run did not converge: it reached the step cap short of
       the tolerance, or the divergence guard stopped it (trace still
       written, and report.txt names the step)
    5  unreadable input / IO failure
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .cheb_kernel import DEFAULT_MEMBERSHIP_TOL, membership_defect
from .errors import (
    Divergence,
    GenChebError,
    InapplicableSpectrum,
    NoConvergence,
    NotConverged,
    UnreadableMatrix,
)
from .genmat import (
    NormalMatrixSpec,
    assemble_normal_system,
    example33_fixture,
    write_generated_system,
)
from .linalg import read_matrix_market, read_vector_market
from .solvers import SCHEMES, ConvergenceTrace, IterationSystem, run, transform_system
from .spectrum import (
    INAPPLICABLE,
    SpectrumInfo,
    build_report,
    estimate_dominant_eigenvalue,
)

EXIT_OK = 0
EXIT_INAPPLICABLE = 3
EXIT_NOT_CONVERGED = 4
EXIT_IO = 5

ENV_OUTDIR = "GENCHEB_OUTDIR"

# Measurement windows for the built-in experiments.  The accelerated error
# oscillates about its geometric trend and reaches the double-precision
# floor near m = 40 on the 4x4 fixture, so its rate is fitted by least
# squares over [10, 38] instead of endpoint ratios over [30, 60].
EX33_BASIC_WINDOW = (30, 60)
EX33_ACCEL_WINDOW = (10, 38)
NORMAL_SPARSE_WINDOW = (10, 20)

CSV_HEADER = ["m", "scheme", "err_norm", "residual", "ratio", "matvecs"]


@dataclass
class ExperimentConfig:
    subcommand: str
    out_dir: str
    steps: int = 200
    residual_tol: float = 1e-10
    schemes: tuple = ("basic", "generalized")
    k: str = "auto"
    k_max: int = 64
    seed: int = 42
    n: int = 1000
    block_size: int = 100
    planted_lambda1: float = 0.9
    inner_radius: float = 0.6
    matrix_path: str | None = None
    rhs_path: str | None = None
    tilde_path: str | None = None
    tilde_rhs_path: str | None = None
    spectrum_path: str | None = None
    lambda1: complex | None = None
    estimate: bool = False
    assume_normal: bool = False
    resolution: int = 201
    boundary_samples: int = 1000
    extra: dict = field(default_factory=dict)

    def metadata(self) -> str:
        pairs = [f"subcommand={self.subcommand}", f"version={__version__}"]
        for f in fields(self):
            if f.name in ("subcommand", "out_dir", "extra"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            pairs.append(f"{f.name}={value}")
        return "# " + " ".join(pairs)


def _ensure_outdir(cfg: ExperimentConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)


def _write_traces(cfg: ExperimentConfig, traces: list[ConvergenceTrace]) -> str:
    path = os.path.join(cfg.out_dir, "trace.csv")
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(cfg.metadata() + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for trace in traces:
            total = 0
            for i, m in enumerate(trace.steps):
                total += trace.matvecs[i]
                err = trace.err_norms[i]
                ratio = trace.ratios[i]
                writer.writerow([
                    m,
                    trace.scheme,
                    "" if err is None else repr(err),
                    repr(trace.residuals[i]),
                    "" if ratio is None else repr(ratio),
                    total,
                ])
    return path


def _write_report(cfg: ExperimentConfig, lines: list[str]) -> str:
    path = os.path.join(cfg.out_dir, "report.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(cfg.metadata().lstrip("# ") + "\n")
        for line in lines:
            fh.write(line + "\n")
    return path


def read_spectrum_file(path: str) -> list[complex]:
    """Eigenvalue list: one `re im` pair per line; # and % start comments."""
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty: refused below
            data = np.loadtxt(fh, dtype=float, comments=("#", "%"), ndmin=2)
    except OSError as exc:
        raise UnreadableMatrix(f"cannot read spectrum file {path}: {exc}") from exc
    except ValueError as exc:
        raise UnreadableMatrix(f"malformed spectrum file {path}: {exc}") from exc
    if data.size == 0:
        raise UnreadableMatrix(f"spectrum file {path} contains no eigenvalues")
    if data.shape[1] != 2:
        raise UnreadableMatrix(
            f"spectrum lines need two floats `re im`, got {data.shape[1]} in {path}"
        )
    values = np.empty(data.shape[0], dtype=complex)
    values.real, values.imag = data[:, 0], data[:, 1]  # keeps the sign of -0.0
    return values.tolist()


def _spectrum_info(cfg: ExperimentConfig) -> SpectrumInfo | None:
    """The spectrum given by --spectrum (full) or --lambda1 (partial), if any."""
    if cfg.spectrum_path:
        values = read_spectrum_file(cfg.spectrum_path)
        lam1 = max(values, key=abs)
        return SpectrumInfo(tuple(values), lambda1=lam1, source="user_supplied")
    if cfg.lambda1 is not None:
        return SpectrumInfo(
            (complex(cfg.lambda1),), lambda1=complex(cfg.lambda1),
            source="user_supplied", partial=True,
        )
    return None


def _run_schemes(
    cfg: ExperimentConfig,
    base_system: IterationSystem,
    k: int,
    reference_x=None,
    tol: float | None = None,
) -> tuple[list[ConvergenceTrace], list[str], int]:
    """Runs of the requested schemes on the k-transformed system.

    Fixed-step runs when `tol` is None, else runs to that relative residual.
    A run that stops short keeps its trace and gets a report line saying
    why.  Returns the traces, the report lines and the exit code.
    """
    work = transform_system(base_system, k)
    traces, lines, code = [], [], EXIT_OK
    for scheme in cfg.schemes:
        try:
            _, trace = run(work, scheme, steps=cfg.steps, tol=tol,
                           reference_x=reference_x, residual_system=base_system)
            if tol is not None:
                lines.append(f"{scheme}: converged in {len(trace.steps)} steps "
                             f"({trace.total_matvecs} matvecs)")
        except NotConverged as exc:
            trace, code = exc.trace, EXIT_NOT_CONVERGED
            if isinstance(exc, Divergence):
                lines.append(f"{scheme}: diverged at step {trace.steps[-1]}")
            else:
                lines.append(f"{scheme}: NOT converged within {cfg.steps} steps")
        traces.append(trace)
    return traces, lines, code


def _measured_lines(traces: list[ConvergenceTrace], windows: dict) -> list[str]:
    lines = []
    for trace in traces:
        window = windows.get(trace.scheme)
        if window is None or not trace.steps:
            continue
        first, last, estimator = window
        last = min(last, trace.steps[-1])
        if last <= first:
            continue
        if estimator == "geomean":
            value = trace.geometric_mean_ratio(first, last)
        else:
            value = trace.fitted_rate(first, last)
        lines.append(
            f"measured_{trace.scheme}_rate[{estimator} m={first}..{last}]: {value:.6f}"
        )
    return lines


def run_example33(cfg: ExperimentConfig) -> int:
    fixture = example33_fixture()
    info = SpectrumInfo(fixture.eigenvalues, lambda1=0.9, source="exact")
    report = build_report(info, k_max=cfg.k_max)
    k = report.k_selected if cfg.k == "auto" else int(cfg.k)
    traces, stops, code = _run_schemes(cfg, fixture.system, k, fixture.x)
    _write_traces(cfg, traces)
    lines = report.lines() + [f"k_used: {k}"] + stops
    lines += _measured_lines(traces, {
        "basic": (*EX33_BASIC_WINDOW, "geomean"),
        "generalized": (*EX33_ACCEL_WINDOW, "lsqfit"),
    })
    path = _write_report(cfg, lines)
    print(f"example33: wrote {path}")
    return code


def run_normal_sparse(cfg: ExperimentConfig) -> int:
    spec = NormalMatrixSpec(
        n=cfg.n, block_size=cfg.block_size, lambda1=cfg.planted_lambda1,
        inner_radius=cfg.inner_radius, seed=cfg.seed,
    )
    gen = assemble_normal_system(spec)
    write_generated_system(gen, spec, cfg.out_dir)
    info = SpectrumInfo(tuple(gen.planted), lambda1=spec.lambda1, source="exact")
    report = build_report(info, k_max=cfg.k_max)
    k = report.k_selected if cfg.k == "auto" else int(cfg.k)
    traces, stops, code = _run_schemes(cfg, gen.system, k, gen.x)
    _write_traces(cfg, traces)
    lines = report.lines() + [f"k_used: {k}", f"nnz: {gen.system.M.nnz}"] + stops
    lines += _measured_lines(traces, {
        "basic": (*NORMAL_SPARSE_WINDOW, "geomean"),
        "generalized": (*NORMAL_SPARSE_WINDOW, "geomean"),
    })
    path = _write_report(cfg, lines)
    print(f"normal-sparse: wrote {path}")
    return code


def _commutator_check(m, n_cap: int = 2048) -> float | None:
    """Relative commutator norm |MM* - M*M|_F / |M|_F^2; None if skipped."""
    if m.n_rows > n_cap:
        return None
    dense = m.to_dense()
    star = dense.conj().T
    comm = dense @ star - star @ dense
    denom = np.linalg.norm(dense, "fro") ** 2
    return float(np.linalg.norm(comm, "fro") / denom) if denom else 0.0


def _custom_spectrum(cfg: ExperimentConfig, matrix) -> SpectrumInfo:
    info = _spectrum_info(cfg)
    if info is not None:
        return info
    if cfg.estimate:
        lam1, _residual = estimate_dominant_eigenvalue(matrix, seed=cfg.seed)
        return SpectrumInfo((lam1,), lambda1=lam1, source="estimated", partial=True)
    raise UnreadableMatrix(
        "custom runs need one of --spectrum, --lambda1, or --estimate"
    )


def run_custom(cfg: ExperimentConfig) -> int:
    matrix = read_matrix_market(cfg.matrix_path)
    info = _custom_spectrum(cfg, matrix)
    report = build_report(info, k_max=cfg.k_max)
    lines = list(report.lines())

    default_convention = cfg.rhs_path is None
    x_ref = np.ones(matrix.n_rows, dtype=complex) if default_convention else None
    g = (
        x_ref - matrix.matvec(x_ref)
        if default_convention
        else read_vector_market(cfg.rhs_path)
    )

    m_tilde = g_tilde = None
    if cfg.tilde_path:
        m_tilde = read_matrix_market(cfg.tilde_path)
        if cfg.tilde_rhs_path:
            g_tilde = read_vector_market(cfg.tilde_rhs_path)
        elif default_convention:
            g_tilde = x_ref - m_tilde.matvec(x_ref)
        else:
            raise UnreadableMatrix(
                "--tilde with --rhs also needs --tilde-rhs (reference solution unknown)"
            )
    elif cfg.assume_normal:
        m_tilde = matrix.conj_transpose()
        rel = _commutator_check(matrix)
        if rel is None:
            lines.append("commutator_check: skipped (matrix too large)")
        else:
            lines.append(f"commutator_check: {rel:.3e}")
            if rel > 1e-6:
                print(
                    f"warning: --assume-normal but relative commutator norm is "
                    f"{rel:.3e}", file=sys.stderr,
                )
        if default_convention:
            g_tilde = x_ref - m_tilde.matvec(x_ref)
        else:
            raise UnreadableMatrix(
                "--assume-normal with --rhs also needs --tilde-rhs"
            )

    if report.classification.kind == INAPPLICABLE:
        _write_report(cfg, lines)
        print("custom: spectrum inapplicable; report written", file=sys.stderr)
        return EXIT_INAPPLICABLE

    k = report.k_selected if cfg.k == "auto" else int(cfg.k)
    if "generalized" in cfg.schemes and m_tilde is None:
        raise UnreadableMatrix(
            "generalized scheme needs --tilde (or --assume-normal for a normal matrix)"
        )
    system = IterationSystem(
        M=matrix, g=g, M_tilde=m_tilde, g_tilde=g_tilde, lambda1=info.lambda1,
    )
    traces, stops, code = _run_schemes(cfg, system, k, tol=cfg.residual_tol)
    _write_traces(cfg, traces)
    _write_report(cfg, lines + stops + [f"k_used: {k}"])
    return code


def run_deltoid_sample(cfg: ExperimentConfig) -> int:
    _ensure_outdir(cfg)
    grid_path = os.path.join(cfg.out_dir, "grid.csv")
    axis = np.linspace(-1.05, 1.05, cfg.resolution)
    with open(grid_path, "w", newline="", encoding="ascii") as fh:
        fh.write(cfg.metadata() + "\n")
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "inside_k1", "inside_k2", "inside_k3"])
        for im in axis:
            zs = axis + 1j * im
            flags = [
                membership_defect(zs**k) <= DEFAULT_MEMBERSHIP_TOL for k in (1, 2, 3)
            ]
            for j, re in enumerate(axis):
                writer.writerow([
                    repr(float(re)), repr(float(im)),
                    int(flags[0][j]), int(flags[1][j]), int(flags[2][j]),
                ])
    boundary_path = os.path.join(cfg.out_dir, "boundary.csv")
    ts = np.linspace(0.0, 2.0 * np.pi, cfg.boundary_samples, endpoint=False)
    zs = (2.0 * np.exp(1j * ts) + np.exp(-2j * ts)) / 3.0
    hs = membership_defect(zs)
    with open(boundary_path, "w", newline="", encoding="ascii") as fh:
        fh.write(cfg.metadata() + "\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "re", "im", "h"])
        for t, z, h in zip(ts, zs, hs):
            writer.writerow([repr(float(t)), repr(float(z.real)),
                             repr(float(z.imag)), repr(float(h))])
    written = [grid_path, boundary_path]
    if cfg.spectrum_path:
        # no SpectrumInfo: plotting quotients needs no |lambda1| < 1 check
        values = read_spectrum_file(cfg.spectrum_path)
        lam1 = max(values, key=abs)
        if lam1 == 0:
            raise UnreadableMatrix(
                f"spectrum file {cfg.spectrum_path} has no nonzero eigenvalue"
            )
        quot_path = os.path.join(cfg.out_dir, "quotients.csv")
        with open(quot_path, "w", newline="", encoding="ascii") as fh:
            fh.write(cfg.metadata() + "\n")
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "inside_k1", "inside_k2", "inside_k3"])
            for v in values:
                q = v / lam1
                writer.writerow(
                    [repr(q.real), repr(q.imag)]
                    + [
                        int(membership_defect(q**k) <= DEFAULT_MEMBERSHIP_TOL)
                        for k in (1, 2, 3)
                    ]
                )
        written.append(quot_path)
    print("deltoid-sample: wrote " + ", ".join(written))
    return EXIT_OK


def run_report(cfg: ExperimentConfig) -> int:
    info = _spectrum_info(cfg)
    if info is None:
        raise UnreadableMatrix("report needs --spectrum or --lambda1")
    report = build_report(info, k_max=cfg.k_max)
    path = _write_report(cfg, report.lines())
    for line in report.lines():
        print(line)
    print(f"report: wrote {path}")
    if report.classification.kind == INAPPLICABLE:
        return EXIT_INAPPLICABLE
    return EXIT_OK


def _default_outdir(subcommand: str) -> str:
    base = os.environ.get(ENV_OUTDIR, ".")
    return os.path.join(base, f"gencheb-{subcommand}")


def _count(minimum: int):
    """argparse type: an integer of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _k_order(text: str) -> str:
    """argparse type for --k: 'auto' or a positive integer."""
    if text != "auto":
        _count(1)(text)
    return text


def _scheme_list(text: str) -> tuple:
    """argparse type for --schemes: a non-empty comma list of known schemes."""
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    if not schemes or not set(schemes) <= set(SCHEMES):
        raise argparse.ArgumentTypeError(
            f"expected a comma list from {','.join(SCHEMES)}, got {text!r}")
    return schemes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencheb",
        description="Deltoid-accelerated stationary iteration experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_steps=200):
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${ENV_OUTDIR}/"
                            "gencheb-<subcommand>)")
        p.add_argument("--steps", type=_count(0), default=default_steps)
        p.add_argument("--tol", type=float, default=1e-10,
                       help="relative residual stopping tolerance")
        p.add_argument("--schemes", type=_scheme_list, default="basic,generalized",
                       help=f"comma list from {','.join(SCHEMES)}")
        p.add_argument("--k", type=_k_order, default="auto",
                       help="power-transform order, or 'auto'")
        p.add_argument("--k-max", type=_count(1), default=64)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("example33", help="run the built-in 4x4 system")
    common(p)

    p = sub.add_parser("normal-sparse", help="generate and run a random "
                       "normal sparse system")
    common(p, default_steps=20)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--block", type=int, default=100)
    p.add_argument("--lambda1", type=float, default=0.9,
                   help="planted dominant eigenvalue")
    p.add_argument("--inner-radius", type=float, default=0.6)

    p = sub.add_parser("custom", help="run a user-supplied Matrix Market system")
    common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--rhs", help="right-hand side vector (.mtx); defaults to "
                   "(I - M) * ones")
    p.add_argument("--tilde", help="companion matrix file")
    p.add_argument("--tilde-rhs", help="companion right-hand side (.mtx)")
    p.add_argument("--spectrum", help="full eigenvalue list file")
    p.add_argument("--lambda1", type=complex, default=None,
                   help="dominant eigenvalue, e.g. 0.9 or 0.4+0.7j")
    p.add_argument("--estimate", action="store_true",
                   help="estimate lambda1 by power iteration")
    p.add_argument("--assume-normal", action="store_true",
                   help="use M* as the companion matrix")

    p = sub.add_parser("deltoid-sample", help="write membership grids and the "
                       "boundary curve")
    common(p)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--boundary-samples", type=int, default=1000)
    p.add_argument("--spectrum", help="also write eigen-quotient positions")

    p = sub.add_parser("report", help="spectrum report without running solvers")
    common(p)
    p.add_argument("--spectrum")
    p.add_argument("--lambda1", type=complex, default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(
        subcommand=args.subcommand,
        out_dir=args.out or _default_outdir(args.subcommand),
        steps=args.steps,
        residual_tol=args.tol,
        schemes=args.schemes,
        k=args.k,
        k_max=args.k_max,
        seed=args.seed,
    )
    if args.subcommand == "normal-sparse":
        cfg.n = args.n
        cfg.block_size = args.block
        cfg.planted_lambda1 = args.lambda1
        cfg.inner_radius = args.inner_radius
    if args.subcommand == "custom":
        cfg.matrix_path = args.matrix
        cfg.rhs_path = args.rhs
        cfg.tilde_path = args.tilde
        cfg.tilde_rhs_path = args.tilde_rhs
        cfg.spectrum_path = args.spectrum
        cfg.lambda1 = args.lambda1
        cfg.estimate = args.estimate
        cfg.assume_normal = args.assume_normal
    if args.subcommand == "deltoid-sample":
        cfg.resolution = args.resolution
        cfg.boundary_samples = args.boundary_samples
        cfg.spectrum_path = args.spectrum
    if args.subcommand == "report":
        cfg.spectrum_path = args.spectrum
        cfg.lambda1 = args.lambda1
    return cfg


_RUNNERS = {
    "example33": run_example33,
    "normal-sparse": run_normal_sparse,
    "custom": run_custom,
    "deltoid-sample": run_deltoid_sample,
    "report": run_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    start = time.perf_counter()
    try:
        _ensure_outdir(cfg)
        code = _RUNNERS[cfg.subcommand](cfg)
    except (UnreadableMatrix, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NotConverged, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except InapplicableSpectrum as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except GenChebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(f"done in {elapsed:.2f}s (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
