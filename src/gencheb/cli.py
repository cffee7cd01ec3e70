"""Batch experiment runner.

Subcommands build or load one iteration system, classify its spectrum,
pick the power-transform order k, run the requested schemes, and write a
plot-ready trace.csv plus a plain-text report.txt into the output
directory.  Line 1 of every output file records the subcommand and the
flags it parsed, non-ASCII characters escaped as \\xNN.  One experiment per
process; exit codes, 1 and 3-5 as listed in `_EXIT_CODES`, are the contract:

    0  success
    2  usage error, before --out is created or any file is opened: a flag
       value or combination that argparse or `main` refuses, such as custom or
       report with no spectral flag, custom --rhs with a companion (--tilde or
       --assume-normal) but no --tilde-rhs, or generalized with no companion
    3  no power-transform order k: the spectrum is inapplicable to the
       acceleration, no k up to --k-max serves it, or its dominant
       eigenvalue is zero, not inside the unit disc, or has a k-th power
       below the smallest normal double or, for the three-term scheme, below
       the coefficient stream's floor (report.txt still written, except for
       those last cases)
    4  a requested run did not converge: it reached the step cap short of
       the tolerance, or the divergence guard stopped it (trace still
       written, and report.txt names the step)
    5  unreadable input / IO failure, or custom input files that disagree
       in shape (a non-square --matrix, a --tilde unlike it, or an --rhs
       or --tilde-rhs of the wrong length); the message names the file
    1  any other gencheb error
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .cheb_kernel import membership_defect, power_preimage_contains
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
from .solvers import SCHEMES, ConvergenceTrace, IterationSystem, run
from .spectrum import SpectrumInfo, build_report, estimate_dominant_eigenvalue

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

TRACE_HEADER = ["m", "scheme", "err_norm", "residual", "ratio", "matvecs"]


def _metadata(args: argparse.Namespace) -> str:
    """`subcommand=... version=...` and then each parsed flag as key=value."""
    pairs = {"subcommand": args.subcommand, "version": __version__, **vars(args)}
    return " ".join(
        f"{key}={','.join(value) if isinstance(value, tuple) else value}"
        for key, value in pairs.items()
    )


def _write_csv(args: argparse.Namespace, name: str, header: list[str], rows) -> str:
    """Write <out>/<name>: a `# metadata` line, the header, then the rows."""
    path = os.path.join(args.out, name)
    with open(path, "w", newline="", encoding="ascii", errors="backslashreplace") as fh:
        fh.write(f"# {_metadata(args)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _trace_rows(traces: list[ConvergenceTrace]):
    for trace in traces:
        total = 0
        for i, m in enumerate(trace.steps):
            total += trace.matvecs[i]
            err = trace.err_norms[i]
            ratio = trace.ratios[i]
            yield [
                m,
                trace.scheme,
                "" if err is None else repr(err),
                repr(trace.residuals[i]),
                "" if ratio is None else repr(ratio),
                total,
            ]


def _write_report(args: argparse.Namespace, lines: list[str]) -> str:
    path = os.path.join(args.out, "report.txt")
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.writelines(f"{line}\n" for line in [_metadata(args), *lines])
    return path


def read_spectrum_file(path: str) -> list[complex]:
    """Eigenvalue list: one finite `re im` pair per line; # and % start comments."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        # one comment character keeps loadtxt on its C path; two add a
        # Python step per line.  No number holds either character.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty: refused below
            data = np.loadtxt(io.StringIO(text.replace("%", "#")), dtype=float,
                              comments="#", ndmin=2)
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
    with np.errstate(over="ignore"):  # 1.5e308 1.5e308 is finite, its modulus not
        modulus = np.hypot(data[:, 0], data[:, 1])
    if not np.isfinite(modulus).all():
        raise UnreadableMatrix(f"spectrum file {path} holds a non-finite value or modulus")
    values = np.empty(data.shape[0], dtype=complex)
    values.real, values.imag = data[:, 0], data[:, 1]  # keeps the sign of -0.0
    return values.tolist()


def _spectrum_info(args: argparse.Namespace) -> SpectrumInfo:
    """The spectrum given by --spectrum (full) or else --lambda1 (partial)."""
    if args.spectrum is not None:
        values = read_spectrum_file(args.spectrum)
        lam1 = max(values, key=abs)
        return SpectrumInfo(tuple(values), lambda1=lam1, source="user_supplied")
    return SpectrumInfo(
        (args.lambda1,), lambda1=args.lambda1, source="user_supplied", partial=True,
    )


_ESTIMATORS = {"geomean": ConvergenceTrace.geometric_mean_ratio,
               "lsqfit": ConvergenceTrace.fitted_rate}


def _measured_lines(traces: list[ConvergenceTrace], windows: dict) -> list[str]:
    lines = []
    for trace in traces:
        window = windows.get(trace.scheme)
        if window is None or not trace.steps:
            continue
        first, last, estimator = window
        # the window ends at the trace's end, or before a value that is not
        # positive (an exact 0 has no logarithm)
        steps, values = trace.series()
        last = min([last, steps[-1],
                    *(m - 1 for m, v in zip(steps, values) if m >= first and not v > 0)])
        if last <= first:
            continue
        value = _ESTIMATORS[estimator](trace, first, last)
        lines.append(f"measured_{trace.scheme}_rate[{estimator} m={first}..{last}]: "
                     f"{value:.6f}")
    return lines


def _experiment(args: argparse.Namespace, info: SpectrumInfo, system: IterationSystem,
                lines: list[str], x=None, tol: float | None = None,
                windows: dict | None = None) -> int:
    """The experiment of example33, normal-sparse and custom: report on `info`
    (no k: report.txt and exit 3), run the schemes on `system` at --k or the
    selected k, write trace.csv, and write report.txt as the report, `k_used`,
    `lines`, the stop lines and the rates measured over `windows`.

    Each run is fixed-step when `tol` is None, else to that relative
    residual.  A run that stops short keeps its trace, gets a stop line
    saying why, and makes the exit code 4."""
    report = build_report(info, k_max=args.k_max)
    if report.k_selected is None:
        _write_report(args, report.lines() + lines)
        print(f"{args.subcommand}: no k selected ({report.classification}, "
              f"--k-max {args.k_max}); report written", file=sys.stderr)
        return EXIT_INAPPLICABLE
    k = report.k_selected if args.k == "auto" else args.k
    system = dataclasses.replace(system, k=k)
    for scheme in args.schemes:  # refuse a scheme that cannot run at k before any runs
        run(system, scheme, steps=0)
    traces, stops, code = [], [], EXIT_OK
    for scheme in args.schemes:
        try:
            _, trace = run(system, scheme, steps=args.steps, tol=tol, reference_x=x)
            if tol is not None:
                stops.append(f"{scheme}: converged in {len(trace.steps)} steps "
                             f"({trace.total_matvecs} matvecs)")
        except NotConverged as exc:
            trace, code = exc.trace, EXIT_NOT_CONVERGED
            if isinstance(exc, Divergence):
                stops.append(f"{scheme}: diverged at step {trace.steps[-1]}")
            else:
                stops.append(f"{scheme}: NOT converged within {args.steps} steps")
        traces.append(trace)
    _write_csv(args, "trace.csv", TRACE_HEADER, _trace_rows(traces))
    path = _write_report(args, [*report.lines(), f"k_used: {k}", *lines, *stops,
                                *_measured_lines(traces, windows or {})])
    print(f"{args.subcommand}: wrote {path}")
    return code


def run_example33(args: argparse.Namespace) -> int:
    fixture = example33_fixture()
    info = SpectrumInfo(fixture.eigenvalues, lambda1=0.9, source="exact")
    return _experiment(args, info, fixture.system, [], x=fixture.x, windows={
        "basic": (*EX33_BASIC_WINDOW, "geomean"),
        "generalized": (*EX33_ACCEL_WINDOW, "lsqfit"),
    })


def run_normal_sparse(args: argparse.Namespace) -> int:
    spec = NormalMatrixSpec(
        n=args.n, block_size=args.block, lambda1=args.lambda1,
        inner_radius=args.inner_radius, seed=args.seed,
    )
    gen = assemble_normal_system(spec)
    write_generated_system(gen, spec, args.out)
    info = SpectrumInfo(tuple(gen.planted), lambda1=spec.lambda1, source="exact")
    lines = [f"nnz: {gen.system.M.nnz}"]
    return _experiment(args, info, gen.system, lines, x=gen.x, windows={
        "basic": (*NORMAL_SPARSE_WINDOW, "geomean"),
        "generalized": (*NORMAL_SPARSE_WINDOW, "geomean"),
    })


def _commutator_check(m, m_star, seed: int) -> tuple[float, int]:
    """Randomized relative commutator norm |MM* - M*M|_F / |M|_F^2 and the
    products it spent.  For complex Gaussian x with E[xx*] = I,
    E|Cx|^2 = |C|_F^2, so the root mean square of |Cx| over the samples
    estimates |C|_F at 4 products per sample, at any n."""
    samples = 4
    fro2 = float(np.vdot(m.values, m.values).real)
    if fro2 == 0.0:
        return 0.0, 0
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(samples):
        x = np.array([1, 1j]) @ rng.standard_normal((2, m.n_cols)) / np.sqrt(2)
        cx = m.matvec(m_star.matvec(x)) - m_star.matvec(m.matvec(x))
        total += float(np.vdot(cx, cx).real)
    return float(np.sqrt(total / samples)) / fro2, 4 * samples


def _read_shaped(path: str, shape: tuple):
    """The matrix (2-D `shape`) or vector (1-D) in Matrix Market file `path`,
    refused with the file's name unless it has that shape."""
    data = (read_matrix_market if len(shape) == 2 else read_vector_market)(path)
    if data.shape != shape:
        raise UnreadableMatrix(f"{path} has shape {data.shape}, expected {shape}")
    return data


def run_custom(args: argparse.Namespace) -> int:
    matrix = read_matrix_market(args.matrix)
    n = matrix.n_rows
    if matrix.n_cols != n:
        raise UnreadableMatrix(f"{args.matrix} has shape {matrix.shape}, "
                               "expected a square matrix")
    if args.estimate:
        lam1, _residual = estimate_dominant_eigenvalue(matrix, seed=args.seed)
        info = SpectrumInfo((lam1,), lambda1=lam1, source="estimated", partial=True)
    else:
        info = _spectrum_info(args)

    def rhs(path, m):
        """The vector in `path`, else (I - m) ones; `main` refuses a companion
        with --rhs but no --tilde-rhs, as the solution x is then unknown."""
        if path is not None:
            return _read_shaped(path, (n,))
        ones = np.ones(n, dtype=complex)
        return ones - m.matvec(ones)

    g = rhs(args.rhs, matrix)
    m_tilde, lines = None, []
    if args.tilde:
        m_tilde = _read_shaped(args.tilde, matrix.shape)
    elif args.assume_normal:
        m_tilde = matrix.conj_transpose()
        rel, products = _commutator_check(matrix, m_tilde, args.seed)
        lines.append(f"commutator_check: {rel:.3e} (randomized, {products} products)")
        if rel > 1e-6:
            print(f"warning: --assume-normal but relative commutator norm is {rel:.3e}",
                  file=sys.stderr)
    g_tilde = None if m_tilde is None else rhs(args.tilde_rhs, m_tilde)
    system = IterationSystem(M=matrix, g=g, M_tilde=m_tilde, g_tilde=g_tilde,
                             lambda1=info.lambda1)
    return _experiment(args, info, system, lines, tol=args.tol)


def _inside_flags(zs) -> list[np.ndarray]:
    """Deltoid membership of zs**k for k = 1, 2, 3."""
    return [power_preimage_contains(zs, k) for k in (1, 2, 3)]


def _grid_rows(axis: np.ndarray):
    for im in axis:
        flags = _inside_flags(axis + 1j * im)
        for j, re in enumerate(axis):
            yield [repr(float(re)), repr(float(im)), *(int(f[j]) for f in flags)]


def run_deltoid_sample(args: argparse.Namespace) -> int:
    inside_header = ["re", "im", "inside_k1", "inside_k2", "inside_k3"]
    axis = np.linspace(-1.05, 1.05, args.resolution)
    written = [_write_csv(args, "grid.csv", inside_header, _grid_rows(axis))]
    ts = np.linspace(0.0, 2.0 * np.pi, args.boundary_samples, endpoint=False)
    zs = (2.0 * np.exp(1j * ts) + np.exp(-2j * ts)) / 3.0
    hs = membership_defect(zs)
    written.append(_write_csv(args, "boundary.csv", ["t", "re", "im", "h"], (
        [repr(float(t)), repr(float(z.real)), repr(float(z.imag)), repr(float(h))]
        for t, z, h in zip(ts, zs, hs)
    )))
    if args.spectrum is not None:
        # no SpectrumInfo: plotting quotients needs no |lambda1| < 1 check
        values = read_spectrum_file(args.spectrum)
        lam1 = max(values, key=abs)
        if lam1 == 0:
            raise UnreadableMatrix(
                f"spectrum file {args.spectrum} has no nonzero eigenvalue"
            )
        written.append(_write_csv(args, "quotients.csv", inside_header, (
            [repr(q.real), repr(q.imag), *(int(f) for f in _inside_flags(q))]
            for q in (v / lam1 for v in values)
        )))
    print("deltoid-sample: wrote " + ", ".join(written))
    return EXIT_OK


def run_report(args: argparse.Namespace) -> int:
    report = build_report(_spectrum_info(args), k_max=args.k_max)
    path = _write_report(args, report.lines())
    for line in report.lines():
        print(line)
    print(f"report: wrote {path}")
    return EXIT_INAPPLICABLE if report.k_selected is None else EXIT_OK


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


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    value = float(text)  # a ValueError is reported as a usage error too
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


def _finite_complex(text: str) -> complex:
    """argparse type: a finite complex number, e.g. 0.9 or 0.4+0.7j."""
    value = complex(text)  # a ValueError is reported as a usage error too
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _k_order(text: str) -> str | int:
    """argparse type for --k: 'auto' or a positive integer."""
    return text if text == "auto" else _count(1)(text)


def _scheme_list(text: str) -> tuple:
    """argparse type for --schemes: a non-empty comma list of distinct known schemes."""
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    if not schemes or not set(schemes) <= set(SCHEMES) or len(set(schemes)) < len(schemes):
        raise argparse.ArgumentTypeError(
            f"expected distinct names from {','.join(SCHEMES)}, got {text!r}")
    return schemes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencheb",
        description="Deltoid-accelerated stationary iteration experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, help, *flags, steps=200):
        """A subparser with --out and then the named shared flags, in order."""
        shared = {
            "--steps": dict(type=_count(0), default=steps),
            "--tol": dict(type=_positive_float, default=1e-10,
                          help="relative residual stopping tolerance"),
            "--schemes": dict(type=_scheme_list, default="basic,generalized",
                              help=f"comma list from {','.join(SCHEMES)}"),
            "--k": dict(type=_k_order, default="auto",
                        help="power-transform order, or 'auto'"),
            "--k-max": dict(type=_count(1), default=64),
            "--seed": dict(type=_count(0), default=42),
        }
        # no prefix matching: `report --k 2` must not be read as --k-max
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${ENV_OUTDIR}/"
                            "gencheb-<subcommand>)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    fixed_steps = ("--steps", "--schemes", "--k", "--k-max")
    subcommand("example33", "run the built-in 4x4 system", *fixed_steps)

    p = subcommand("normal-sparse", "generate and run a random normal sparse system",
                   *fixed_steps, "--seed", steps=20)
    p.add_argument("--n", type=_count(1), default=1000)
    p.add_argument("--block", type=_count(0), default=100, help="at most --n")
    p.add_argument("--lambda1", type=float, default=0.9,
                   help="planted dominant eigenvalue, in (0, 1)")
    p.add_argument("--inner-radius", type=float, default=0.6,
                   help="in (0, --lambda1)")

    p = subcommand("custom", "run a user-supplied Matrix Market system",
                   "--steps", "--tol", "--schemes", "--k", "--k-max", "--seed")
    # alternatives share a group, added in parser order (line 1 of outputs)
    spectrum = p.add_mutually_exclusive_group(required=True)
    companion = p.add_mutually_exclusive_group()
    p.add_argument("--matrix", required=True)
    p.add_argument("--rhs", help="right-hand side vector (.mtx); defaults to "
                   "(I - M) * ones")
    companion.add_argument("--tilde", help="companion matrix file")
    p.add_argument("--tilde-rhs", help="companion right-hand side (.mtx)")
    spectrum.add_argument("--spectrum", help="full eigenvalue list file")
    spectrum.add_argument("--lambda1", type=_finite_complex, default=None,
                          help="dominant eigenvalue, e.g. 0.9 or 0.4+0.7j")
    spectrum.add_argument("--estimate", action="store_true",
                          help="estimate lambda1 by power iteration")
    companion.add_argument("--assume-normal", action="store_true",
                           help="use M* as the companion matrix")

    p = subcommand("deltoid-sample", "write membership grids and the boundary curve")
    p.add_argument("--resolution", type=_count(0), default=201)
    p.add_argument("--boundary-samples", type=_count(0), default=1000)
    p.add_argument("--spectrum", help="also write eigen-quotient positions")

    p = subcommand("report", "spectrum report without running solvers", "--k-max")
    spectrum = p.add_mutually_exclusive_group(required=True)
    spectrum.add_argument("--spectrum")
    spectrum.add_argument("--lambda1", type=_finite_complex, default=None)
    return parser


#: Exit code of an error escaping a runner; the first matching entry wins.
_EXIT_CODES = (
    ((UnreadableMatrix, OSError), EXIT_IO),
    ((NotConverged, NoConvergence), EXIT_NOT_CONVERGED),
    (InapplicableSpectrum, EXIT_INAPPLICABLE),
    (GenChebError, 1),
)

_RUNNERS = {
    "example33": run_example33,
    "normal-sparse": run_normal_sparse,
    "custom": run_custom,
    "deltoid-sample": run_deltoid_sample,
    "report": run_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "normal-sparse":
        if args.block > args.n:
            parser.error(f"argument --block: must be at most --n ({args.n}), "
                         f"got {args.block}")
        if not 0 < args.lambda1 < 1:
            parser.error(f"argument --lambda1: must lie in (0, 1), got {args.lambda1}")
        if not 0 < args.inner_radius < args.lambda1:
            parser.error(f"argument --inner-radius: must lie in (0, --lambda1 = "
                         f"{args.lambda1}), got {args.inner_radius}")
    if args.subcommand == "custom":
        companion = args.tilde is not None or args.assume_normal
        if args.tilde_rhs is not None and not companion:
            parser.error("argument --tilde-rhs: needs --tilde or --assume-normal")
        if args.rhs is not None and companion and args.tilde_rhs is None:
            parser.error("argument --rhs: with --tilde/--assume-normal, needs --tilde-rhs")
        if "generalized" in args.schemes and not companion:
            parser.error("argument --schemes: generalized needs --tilde or "
                         "--assume-normal")
    if args.out is None:
        args.out = os.path.join(os.environ.get(ENV_OUTDIR, "."),
                                f"gencheb-{args.subcommand}")
    start = time.perf_counter()
    try:
        os.makedirs(args.out, exist_ok=True)
        code = _RUNNERS[args.subcommand](args)
    except (GenChebError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    elapsed = time.perf_counter() - start
    print(f"done in {elapsed:.2f}s (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
