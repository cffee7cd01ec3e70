"""The three benchmark workloads.

Each workload runs in rounds: one closed-loop pass over its inputs, every
call waiting for the one before it.  A round records timing samples for the
end-to-end metrics, the operations it attempted with any failed correctness
check, the sparse-product counts the program reported, and a digest of
every convergence trace so that two rounds on the same inputs can be
compared bit for bit.  All inputs come from the seed given to the
constructor; gencheb only ever sees what is generated here.

Calls go through module attributes (`solvers.solve`, not a name imported
once), so the wrappers the tracer installs are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from gencheb import cli, genmat, solvers, spectrum
from gencheb.errors import GenChebError

from tracing import Spans

perf = time.perf_counter

SCHEMES = ("basic", "generalized")
RESIDUAL_TOL = 1e-10
MAX_STEPS = 1000
#: Relative error of a converged solve against the all-ones reference.
ERR_TOL = 1e-8
#: The power-transform order every generated system here should select.
EXPECTED_K = 3
#: example33: auto-selected k, and the paper's rates at that k (basic
#: 0.9**2, accelerated g(0.81)), each to be met within RATE_TOL.
EX33_K = 2
EX33_RATES = {"basic": 0.81, "generalized": 0.44218}
EX33_STEPS = 200
RATE_TOL = 1e-3
#: A CLI child that runs this long is killed, so a run always ends.
CHILD_TIMEOUT_S = 150.0

CLI_CHILD = str(Path(__file__).with_name("cli_child.py"))


@dataclasses.dataclass
class SolveRecord:
    scheme: str
    trace: object        # gencheb ConvergenceTrace
    err: float           # final error relative to the reference
    predicted: float     # predicted per-step rate from the spectrum report


@dataclasses.dataclass
class Round:
    seconds: float = 0.0
    samples: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0                                       # checked operations
    failures: list = dataclasses.field(default_factory=list) # (label, problems)
    products: dict = dataclasses.field(default_factory=dict)
    runs: int = 0                                            # solves + fixed runs
    solves: list = dataclasses.field(default_factory=list)   # SolveRecord
    fixed: list = dataclasses.field(default_factory=list)    # ConvergenceTrace
    rss_mb: list = dataclasses.field(default_factory=list)   # per child process
    mm_bytes: int = 0                                        # Matrix Market files written
    child_spans: list = dataclasses.field(default_factory=list)
    _digest: object = dataclasses.field(default_factory=hashlib.sha256)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((label, list(problems)))

    def hash_trace(self, trace) -> None:
        h = self._digest
        h.update(f"{trace.scheme}|{trace.k}|{trace.steps}|{trace.matvecs}|".encode())
        h.update(np.asarray(trace.residuals, dtype=float).tobytes())
        errs = [np.nan if e is None else e for e in trace.err_norms]
        h.update(np.asarray(errs, dtype=float).tobytes())

    def hash_bytes(self, data: bytes) -> None:
        self._digest.update(data)

    def fingerprint(self) -> str:
        return self._digest.hexdigest()


class NullTracer:
    """Stands in for the tracer in untraced rounds."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 3, size=count)]


def _bytes_of(matrix) -> int:
    return int(matrix.values.nbytes + matrix.col_indices.nbytes + matrix.row_offsets.nbytes)


def _matrix_env(system) -> dict:
    return {
        "n": system.n,
        "nnz": system.M.nnz,
        "array_bytes_M": _bytes_of(system.M),
        "array_bytes_M_tilde": _bytes_of(system.M_tilde),
    }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, span_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.span_dir = span_dir
        self.matrix_system = None   # the system whose matrix the references use

    def prepare(self) -> None:
        """Untimed input generation before the first round."""

    def round(self, tr, traced: bool, index: int) -> Round:
        raise NotImplementedError

    def peak_rss_mb(self, rounds) -> float:
        return _self_rss_mb()

    def env(self) -> dict:
        return _matrix_env(self.matrix_system)

    def reference_metrics(self, tracer) -> tuple[dict, list]:
        """Layer references measured once per traced run, outside the rounds,
        with their checked operations as (label, problems)."""
        return {}, []

    # -- shared steps ----------------------------------------------------------

    def _setup(self, rd: Round, tr, spec):
        """Assemble, classify and transform; the span timed as `setup_s`."""
        t0 = perf()
        with tr.span("bench.setup"):
            gen = genmat.assemble_normal_system(spec)
            info = spectrum.SpectrumInfo(tuple(gen.planted), lambda1=spec.lambda1,
                                         source="exact")
            report = spectrum.build_report(info)
            solvers.transform_system(gen.system, report.k_selected)
        rd.sample("setup_s", perf() - t0)
        k = report.k_selected
        rd.op(f"setup n={spec.n} lambda1={spec.lambda1}",
              [] if k == EXPECTED_K else [f"k_selected {k} != {EXPECTED_K}"])
        return gen, report, dataclasses.replace(gen.system, k=k)

    def _solve(self, rd: Round, tr, system, x, report, scheme: str):
        label = f"solve {scheme} n={system.n} lambda1={system.lambda1}"
        t0 = perf()
        try:
            with tr.span(f"bench.solve.{scheme}"):
                y, trace = solvers.solve(system, max_steps=MAX_STEPS,
                                         residual_tol=RESIDUAL_TOL, scheme=scheme)
        except GenChebError as exc:
            rd.op(label, [f"{type(exc).__name__}: {exc}"])
            return None
        rd.sample(f"solve_s.{scheme}", perf() - t0)
        err = float(np.linalg.norm(y - x) / np.linalg.norm(x))
        rd.op(label, [] if err <= ERR_TOL else [f"relative error {err:.3e} > {ERR_TOL:.0e}"])
        predicted = (report.predicted_basic_rate if scheme == "basic"
                     else report.predicted_accel_rate)
        rd.solves.append(SolveRecord(scheme, trace, err, predicted))
        rd.hash_trace(trace)
        rd.runs += 1
        return trace


class LargeSolve(Workload):
    """One n=20000 system with a dense 1000-block (nnz about 1.02M), k=3."""

    name = "large-solve"
    N, BLOCK, LAMBDA1, INNER = 20000, 1000, 0.9, 0.6

    def __init__(self, *a):
        super().__init__(*a)
        self.spec = genmat.NormalMatrixSpec(
            n=self.N, block_size=self.BLOCK, lambda1=self.LAMBDA1,
            inner_radius=self.INNER, seed=_seeds(self.seed, 1)[0])

    def round(self, tr, traced, index):
        rd = Round()
        self.matrix_system = None   # never hold two large systems at once
        t0 = perf()
        gen, report, system = self._setup(rd, tr, self.spec)
        for scheme in SCHEMES:
            trace = self._solve(rd, tr, system, gen.x, report, scheme)
            if trace is not None:
                rd.products[scheme] = trace.total_matvecs
        rd.sample("experiment_s", perf() - t0)
        self.matrix_system = system
        return rd

    def reference_metrics(self, tracer):
        """Power iteration on the large matrix, as a layer reference only."""
        label = "estimate lambda1"
        tracer.install()
        try:
            with tracer.span("bench.estimate"):
                lam, _res = spectrum.estimate_dominant_eigenvalue(
                    self.matrix_system.M, seed=self.spec.seed)
        except GenChebError as exc:
            return {}, [(label, [f"{type(exc).__name__}: {exc}"])]
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        problems = [] if abs(lam - self.LAMBDA1) <= 1e-6 else [f"estimate {lam}"]
        return {
            "spectrum.estimate_s": spans.covered({"bench.estimate"}),
            "spectrum.estimate.products": spans.count(
                {"linalg.ComplexSparseMatrix.matvec"}, within={"bench.estimate"}),
        }, [(label, problems)]


class SmallSweep(Workload):
    """A grid of small systems plus the 4x4 example33 fixed-step runs."""

    name = "small-sweep"
    N, BLOCK = 400, 40
    LAMBDA1S = (0.6, 0.7, 0.8, 0.9, 0.95, 0.97)
    SEEDS_PER_LAMBDA = 8

    def __init__(self, *a):
        super().__init__(*a)
        seeds = _seeds(self.seed, self.SEEDS_PER_LAMBDA)
        self.specs = [
            genmat.NormalMatrixSpec(n=self.N, block_size=self.BLOCK, lambda1=lam,
                                    inner_radius=2.0 * lam / 3.0, seed=s)
            for lam in self.LAMBDA1S for s in seeds
        ]

    def round(self, tr, traced, index):
        rd = Round()
        rd.products = {s: 0 for s in SCHEMES}
        for spec in self.specs:
            t0 = perf()
            gen, report, system = self._setup(rd, tr, spec)
            for scheme in SCHEMES:
                trace = self._solve(rd, tr, system, gen.x, report, scheme)
                if trace is not None:
                    rd.products[scheme] += trace.total_matvecs
            rd.sample("experiment_s", perf() - t0)
            self.matrix_system = system
        self._example33(rd, tr)
        return rd

    def _example33(self, rd: Round, tr) -> None:
        with tr.span("bench.fixed_setup"):
            fx = genmat.example33_fixture()
            info = spectrum.SpectrumInfo(fx.eigenvalues, lambda1=0.9, source="exact")
            report = spectrum.build_report(info)
            work = solvers.transform_system(fx.system, report.k_selected)
        rd.op("example33 setup", [] if report.k_selected == EX33_K
              else [f"k_selected {report.k_selected} != {EX33_K}"])
        runs = (("basic", solvers.basic_iterate, cli.EX33_BASIC_WINDOW, "geometric_mean_ratio"),
                ("generalized", solvers.generalized_chebyshev_iterate,
                 cli.EX33_ACCEL_WINDOW, "fitted_rate"))
        for scheme, iterate, window, estimator in runs:
            label = f"example33 fixed {scheme}"
            try:
                with tr.span(f"bench.fixed.{scheme}"):
                    _, trace = iterate(work, steps=EX33_STEPS, reference_x=fx.x,
                                       residual_system=fx.system)
            except GenChebError as exc:
                rd.op(label, [f"{type(exc).__name__}: {exc}"])
                continue
            rate = getattr(trace, estimator)(*window)
            want = EX33_RATES[scheme]
            rd.op(label, [] if abs(rate - want) <= RATE_TOL
                  else [f"{estimator} {rate:.6f} vs predicted {want}"])
            rd.fixed.append(trace)
            rd.hash_trace(trace)
            rd.runs += 1


class CliRoundtrip(Workload):
    """`normal-sparse` writes the system, `custom` reads and solves it, each in
    a fresh process; the same system is also solved in-library for solve_s."""

    name = "cli-roundtrip"
    N, BLOCK, LAMBDA1, INNER = 20000, 300, 0.9, 0.6

    def __init__(self, *a):
        super().__init__(*a)
        self.spec = genmat.NormalMatrixSpec(
            n=self.N, block_size=self.BLOCK, lambda1=self.LAMBDA1,
            inner_radius=self.INNER, seed=_seeds(self.seed, 1)[0])
        self.gen_dir = self.work_dir / "gen"
        self.exp_dir = self.work_dir / "exp"
        self.spectrum_path = self.work_dir / "S.txt"
        self.child_env = dict(os.environ)
        src = str(Path(genmat.__file__).resolve().parent.parent)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    def prepare(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        gen = genmat.assemble_normal_system(self.spec)
        with open(self.spectrum_path, "w", encoding="ascii") as fh:
            for v in gen.planted:
                fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")
        info = spectrum.SpectrumInfo(tuple(gen.planted), lambda1=self.spec.lambda1,
                                     source="exact")
        self.report = spectrum.build_report(info)
        self.gen = gen
        self.matrix_system = dataclasses.replace(gen.system, k=self.report.k_selected)

    def _spawn(self, rd: Round, traced: bool, tag: str, args: list[str]):
        """Run one CLI process to completion; return (seconds, exit code, output)."""
        if traced:
            spans_path = self.span_dir / f"{tag}.npz"
            cmd = [sys.executable, CLI_CHILD, str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "gencheb.cli", *args]
        log_path = self.work_dir / f"{tag}.log"
        with open(log_path, "wb") as log:
            t0 = perf()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.child_env, cwd=self.work_dir)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = perf() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rd.rss_mb.append(usage.ru_maxrss / 1024.0)
        if traced and spans_path.exists():
            spans = Spans.load(spans_path)
            main_start = spans.first_start({"cli.main"})
            if main_start is not None:
                rd.sample("process_start_s", main_start - t0)
            rd.child_spans.append(spans)
        return elapsed, proc.returncode, log_path.read_text(errors="replace")

    def round(self, tr, traced, index):
        rd = Round()
        for out_dir in (self.gen_dir, self.exp_dir):  # no stale outputs pass a check
            shutil.rmtree(out_dir, ignore_errors=True)
        generate = ["normal-sparse", "--n", str(self.N), "--block", str(self.BLOCK),
                    "--lambda1", repr(self.LAMBDA1), "--inner-radius", repr(self.INNER),
                    "--seed", str(self.spec.seed), "--steps", "0",
                    "--out", str(self.gen_dir)]
        seconds, code, out = self._spawn(rd, traced, f"r{index}-normal-sparse", generate)
        problems = [] if code == 0 else [f"exit {code}: {out[-500:]}"]
        gen_report = self._read(self.gen_dir / "report.txt", problems)
        if gen_report is not None and f"k_selected: {EXPECTED_K}" not in gen_report:
            problems.append(f"normal-sparse report lacks k_selected: {EXPECTED_K}")
        for name in ("M.mtx", "M_tilde.mtx", "g.mtx", "g_tilde.mtx"):
            path = self.gen_dir / name
            if path.exists():
                rd.mm_bytes += path.stat().st_size
            else:
                problems.append(f"{name} not written")
        rd.op("cli normal-sparse", problems)
        rd.sample("setup_s", seconds)

        experiment = ["custom", "--matrix", str(self.gen_dir / "M.mtx"),
                      "--tilde", str(self.gen_dir / "M_tilde.mtx"),
                      "--spectrum", str(self.spectrum_path),
                      "--tol", repr(RESIDUAL_TOL), "--steps", str(MAX_STEPS),
                      "--seed", str(self.spec.seed), "--out", str(self.exp_dir)]
        seconds, code, out = self._spawn(rd, traced, f"r{index}-custom", experiment)
        rd.sample("experiment_s", seconds)
        problems = [] if code == 0 else [f"exit {code}: {out[-500:]}"]
        report = self._read(self.exp_dir / "report.txt", problems)
        if report is not None:
            for scheme in SCHEMES:
                if not re.search(rf"^{scheme}: converged in \d+ steps", report, re.M):
                    problems.append(f"custom report does not say {scheme} converged")
            if f"k_used: {EXPECTED_K}" not in report:
                problems.append(f"custom report lacks k_used: {EXPECTED_K}")
        cli_traces = self._read_trace_csv(self.exp_dir / "trace.csv", problems)
        for scheme, (_steps, _residuals, products) in cli_traces.items():
            rd.products[scheme] = products
        rd.runs += len(cli_traces)

        for scheme in SCHEMES:
            trace = self._solve(rd, tr, self.matrix_system, self.gen.x, self.report, scheme)
            if trace is None or scheme not in cli_traces:
                continue
            steps, residuals, products = cli_traces[scheme]
            if (steps, residuals, products) != (trace.steps, trace.residuals,
                                                trace.total_matvecs):
                problems.append(f"CLI {scheme} trace differs from the library solve")
        rd.op("cli custom", problems)
        for name in ("trace.csv", "report.txt"):
            path = self.exp_dir / name
            if path.exists():
                rd.hash_bytes(path.read_bytes())
        return rd

    @staticmethod
    def _read(path: Path, problems: list):
        try:
            return path.read_text(encoding="ascii")
        except OSError as exc:
            problems.append(f"cannot read {path.name}: {exc}")
            return None

    @staticmethod
    def _read_trace_csv(path: Path, problems: list) -> dict:
        """Per scheme: steps, residuals and recurrence products from trace.csv."""
        out = {}
        try:
            with open(path, encoding="ascii") as fh:
                fh.readline()  # metadata comment
                for row in csv.DictReader(fh):
                    steps, residuals, _ = out.setdefault(row["scheme"], ([], [], 0))
                    steps.append(int(row["m"]))
                    residuals.append(float(row["residual"]))
                    out[row["scheme"]] = (steps, residuals, int(row["matvecs"]))
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"cannot parse trace.csv: {exc}")
        return out

    def peak_rss_mb(self, rounds) -> float:
        return max(mb for rd in rounds for mb in rd.rss_mb)


WORKLOADS = {w.name: w for w in (LargeSolve, CliRoundtrip, SmallSweep)}
