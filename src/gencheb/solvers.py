"""Iteration schemes: basic, classical and three-term Chebyshev, in one loop.

Each scheme is a stepper in one registry; `run` drives any of them at the
system's own power-transform order k, either for a fixed number of steps or
until a residual tolerance is met, under one divergence guard.  `solve` is
`run` to tolerance.

Cost accounting: `run` takes M^k as k products of M.  A `PowerTransform`
takes each transformed side, (I + M + ... + M^(k-1)) g or the same of
(Mt, gt), at k - 1 products when the side is first read, so only the sides
a scheme reads are spent on; `transform_system` spends nothing.  The trace
records the sparse products of the scheme recurrence itself (k per basic
step, 2k per accelerated three-term step), none for M^k 0 or Mt^k 0 at a
zero start.  `run` takes each residual from the product M y that the next
step's M^k y starts with, so every run, fixed-step or to tolerance, spends
the recurrence's products plus one.

Threads: `run` hands the stepper each step's M^k y as an unfinished call.
A generalized run at k >= 2 whose Mt stores at least 2**18 entries submits
that call to a standard-library executor of one worker, whose thread starts
at the run's first step that takes both chains, with the serial run's bits
and products; `run` shuts it down before it returns or raises.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cheb_kernel import ChebCoefficientStream
from .errors import (
    DimensionMismatch,
    Divergence,
    InapplicableSpectrum,
    MissingLambda1,
    MissingTildeData,
    NotConverged,
)
from .linalg import ComplexSparseMatrix, as_vector, geometric_sum_apply

#: Residual growth factor that converts silent overflow into a typed error.
DIVERGENCE_GUARD = 1e12


@dataclass
class IterationSystem:
    """One accelerable fixed-point iteration y -> M y + g.

    `M_tilde`/`g_tilde` describe the companion iteration with conjugated
    eigenvalues on the same eigenvectors (equal to M*/its side for normal
    M).  `lambda1` is a dominant eigenvalue of M when known.  `k` is the
    power-transform order `run` applies to it.
    """

    M: ComplexSparseMatrix
    g: np.ndarray
    M_tilde: ComplexSparseMatrix | None = None
    g_tilde: np.ndarray | None = None
    lambda1: complex | None = None
    k: int = 1

    def __post_init__(self):
        for op in (self.M,) if self.M_tilde is None else (self.M, self.M_tilde):
            if not isinstance(op, ComplexSparseMatrix):
                raise TypeError(f"operators must be ComplexSparseMatrix, got {type(op).__name__}")
        n_rows, n_cols = self.M.shape
        if n_rows != n_cols:
            raise DimensionMismatch(f"iteration matrix must be square, got {self.M.shape}")
        self.g = as_vector(self.g, n_rows, "g")
        if (self.M_tilde is None) != (self.g_tilde is None):
            raise ValueError("M_tilde and g_tilde must be supplied together")
        if self.M_tilde is not None:
            if self.M_tilde.shape != self.M.shape:
                raise DimensionMismatch("M and M_tilde must have equal dimensions")
            self.g_tilde = as_vector(self.g_tilde, n_rows, "g_tilde")
        self.k = _order(self.k)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def residual_norm(self, y: np.ndarray, my: np.ndarray | None = None) -> float:
        """Euclidean norm of (I - M) y - g; `my` is M y when already known."""
        r = np.subtract(y, self.M.matvec(y) if my is None else my, dtype=complex)
        return _norm(np.subtract(r, self.g, out=r))


def _order(k) -> int:
    """The power-transform order k as an int: a positive integer, numpy's
    included; TypeError for any other type."""
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k


def _norm(r: np.ndarray) -> float:
    """Euclidean norm of a complex vector: np.linalg.norm's own sum, without
    its wrapper."""
    re, im = r.real, r.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class _Workspace:
    """base**k v by k successive products of base, for one run, in two zeroed
    buffers made at the first product: `first(v)` takes the first product,
    `finish()` the other k - 1 after the latest `first`, and `power(v)` both;
    a result lasts until the next."""

    def __init__(self, base: ComplexSparseMatrix, k: int):
        self.base, self.k, self.bound = base, k, None

    def first(self, v: np.ndarray) -> np.ndarray:
        if self.bound is None:
            self.out, other = np.zeros((2, self.base.n_rows), dtype=complex)
            self.bound = self.base._bind(self.out, other), self.base._bind(other, self.out)
        return self.base._into(v, self.out)

    def finish(self) -> np.ndarray:
        out = self.out
        for i in range(self.k - 1):
            out = self.bound[i & 1]()
        return out

    def power(self, v: np.ndarray) -> np.ndarray:
        self.first(v)
        return self.finish()


@dataclass
class ConvergenceTrace:
    """Per-step error/residual record for one scheme run, of steps 1..m.

    `err_norms[i]` is None when no reference solution was supplied.
    `matvecs[i]` counts the sparse products of the recurrence at that step
    only.
    """

    scheme: str
    k: int = 1
    initial_err: float | None = None
    initial_residual: float = 0.0
    err_norms: list[float | None] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    matvecs: list[int] = field(default_factory=list)

    def append(self, err: float | None, residual: float, cost: int) -> None:
        """Record the next step."""
        self.err_norms.append(err)
        self.residuals.append(residual)
        self.matvecs.append(cost)

    @property
    def steps(self) -> list[int]:
        return list(range(1, len(self.residuals) + 1))

    @property
    def ratios(self) -> list[float | None]:
        """Each step's error norm (else residual) over the previous step's,
        or over the initial value on the first step; None where that
        divisor is missing or 0."""
        _, values = self.series()
        initial = self.initial_residual if values is self.residuals else self.initial_err
        return [v / d if d else None for v, d in zip(values, [initial, *values])]

    @property
    def total_matvecs(self) -> int:
        return sum(self.matvecs)

    def series(self) -> tuple[list[int], list[float]]:
        """The steps and their error norms, or their residuals when no
        reference solution was supplied: the values the rates are taken of."""
        if self.err_norms and self.err_norms[0] is not None:
            return self.steps, self.err_norms
        return self.steps, self.residuals

    def _value_at(self, m: int) -> float:
        _, vals = self.series()
        if not 1 <= m <= len(vals):
            raise ValueError(f"step {m} not recorded in trace")
        return vals[m - 1]

    def geometric_mean_ratio(self, first: int, last: int) -> float:
        """Telescoped geometric mean of consecutive ratios over [first, last]."""
        if last <= first:
            raise ValueError("window must satisfy last > first")
        return (self._value_at(last) / self._value_at(first)) ** (1.0 / (last - first))

    def fitted_rate(self, first: int, last: int) -> float:
        """exp(slope) of a least-squares line through log values on [first, last].

        Robust to the quasi-periodic oscillation of accelerated error norms,
        unlike endpoint-sensitive consecutive ratios.
        """
        steps, vals = self.series()
        ms = [m for m in steps if first <= m <= last]
        if len(ms) < 2:
            raise ValueError("window contains fewer than two recorded steps")
        ys = [math.log(vals[m - 1]) for m in ms]
        slope = np.polyfit(np.array(ms, dtype=float), np.array(ys), 1)[0]
        return float(np.exp(slope))


class _BasicStepper:
    """The basic step y -> M^k y + g_k; subclasses recombine it with the
    earlier iterates they keep.

    Built on the untransformed system, it checks the scheme at the order k
    and spends nothing: its `PowerTransform` takes a side at its first
    read.  `step(y, forward)` takes the call that returns M^k y of the
    latest iterate y, or None at the first step of a run from zero, and
    reports the step's recurrence cost: k products for M^k y, none for
    M^k 0, plus what the scheme spends on the earlier iterates.
    """

    def __init__(self, sys: IterationSystem):
        self.sides, self.cost = PowerTransform(sys, sys.k), sys.k

    def step(self, y: np.ndarray, forward) -> tuple[np.ndarray, int]:
        if forward is None:
            return self.sides.g.copy(), 0  # never alias g
        return forward() + self.sides.g, self.cost

    def close(self) -> None:
        """End the run: a stepper that started a thread joins it."""


class _ClassicalStepper(_BasicStepper):
    """Classical Chebyshev acceleration with Golub and Varga's weights.

    From step 2, y_m = y_{m-2} + w_m (M y_{m-1} + g - y_{m-2}) with
    w_m = 1 / (1 - rho^2 w_{m-1} / 4) and w_1 = 2, so that w_m =
    2 C_{m-1}(1/rho) / (rho C_m(1/rho)).  The spectral radius bound rho is
    |lambda1|; the caller is responsible for the real-spectrum assumption.
    """

    def __init__(self, sys: IterationSystem):
        if sys.lambda1 is None:
            raise MissingLambda1("classical scheme needs lambda1 to set rho")
        super().__init__(sys)
        rho = abs(complex(self.sides.lambda1))
        if not 0.0 < rho < 1.0:
            raise InapplicableSpectrum(f"spectral radius must lie in (0, 1), got {rho}")
        self.quarter_rho2 = rho * rho / 4.0
        self.weight = 2.0
        self.prev = None  # y_{m-2}

    def step(self, y, forward):
        basic, cost = super().step(y, forward)
        if self.prev is not None:
            self.weight = 1.0 / (1.0 - self.quarter_rho2 * self.weight)
            basic = self.prev + self.weight * (basic - self.prev)
        self.prev = y
        return basic, cost


class _GeneralizedStepper(_BasicStepper):
    """Three-term scheme with coefficients from the f-ratio stream.

    Seeding: y1 is one basic step; y2 is the affine combination
    (3 (M y1 + g)/lambda1^2 - 2 (Mt y0 + gt)/conj(lambda1)) / f2(1/lambda1),
    whose weights sum to one.  This seed makes the error vector equal
    p_m(M) eps0 with p_m(z) = f_m(z/lambda1)/f_m(1/lambda1) exactly for
    every m, which the plain choice y2 = x2 does not.  Applicability (every
    eigenvalue quotient inside the deltoid, possibly after a power
    transform) is checked upstream by the spectrum module.
    """

    def __init__(self, sys: IterationSystem):
        if sys.M_tilde is None or sys.g_tilde is None:
            raise MissingTildeData("generalized scheme: the system has no M_tilde and g_tilde")
        if sys.lambda1 is None:
            raise MissingLambda1("generalized scheme: the system has no lambda1")
        super().__init__(sys)
        self.stream = ChebCoefficientStream(self.sides.lambda1)
        self.mt = _Workspace(sys.M_tilde, sys.k)  # Mt^k
        self.worker = None
        if sys.k > 1 and sys.M_tilde.nnz >= _OVERLAP_MIN_NNZ:
            # imported here: most runs, and every CLI process below the
            # floor, never overlap and never pay for the import
            from concurrent.futures import ThreadPoolExecutor

            self.worker = ThreadPoolExecutor(1, thread_name_prefix="gencheb-chain")
        self.prev = self.prev2 = None  # y_{m-2} and y_{m-3}

    def step(self, y, forward):
        prev, prev2 = self.prev, self.prev2
        self.prev, self.prev2 = y, prev
        if prev is None:
            self.zero = forward is None  # run passes None only from zero
            return super().step(y, forward)
        if prev2 is None and self.zero:  # the seed from a zero start: Mt^k 0 = 0
            (basic, cost), tilde = super().step(y, forward), self.sides.g_tilde
        else:
            # The two chains write separate workspaces, so M^k y may run on
            # the worker while the caller takes the longer Mt^k chain (k
            # products against k - 1).  The worker calls only private
            # product paths, never a public function: a tracer keeps one
            # span stack per process.
            power = forward if self.worker is None else self.worker.submit(forward).result
            tilde = self.mt.power(prev) + self.sides.g_tilde
            basic, cost = power() + self.sides.g, 2 * self.cost
        if prev2 is None:
            # the stream has not stepped yet: its window ends with f2(1/lambda1)
            lam1, f2 = self.stream.lambda1, self.stream.window[2]
            return (3 * basic / lam1**2 - 2 * tilde / lam1.conjugate()) / f2, cost
        c1, c2, c3 = self.stream.step()
        return c1 * basic - c2 * tilde + c3 * prev2, cost

    def close(self):
        if self.worker is not None:
            self.worker.shutdown()


#: Fewest stored entries of M_tilde for which a generalized run at k >= 2
#: takes each step's M^k y on its worker.  At k = 3 and n = 20000, whole
#: solves took 0.85 of the serial time threaded at 270k entries, and 0.96 at
#: 110k (2-vCPU host, one BLAS thread).
_OVERLAP_MIN_NNZ = 2**18


_STEPPERS = {
    "basic": _BasicStepper,
    "classical": _ClassicalStepper,
    "generalized": _GeneralizedStepper,
}

SCHEMES = tuple(_STEPPERS)


def run(
    system: IterationSystem,
    scheme: str,
    *,
    steps: int,
    tol: float | None = None,
    x0=None,
    reference_x=None,
):
    """Run `scheme` on `system` at its own order `system.k`, for `steps`
    steps or until the residual meets `tol`.

    `system` must be an `IterationSystem`; `run` takes its power transform at
    `system.k` itself and measures every residual on `system` itself, so that
    schemes and transform orders are comparable.  With `tol=None`, returns
    the final iterate and the trace after exactly `steps` steps.  With a
    tolerance, returns the first iterate whose residual is at most
    tol * |g| and the trace, or raises NotConverged with the best iterate
    and the trace attached.  A residual above the divergence guard, or not
    finite, raises Divergence (a NotConverged) under every scheme.  A run
    of no step checks the scheme at `system.k` and spends no product but the
    initial residual's M x0, none from zero.
    """
    stepper_class = _STEPPERS.get(scheme)
    if stepper_class is None:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if not isinstance(system, IterationSystem):
        raise ValueError("run needs an untransformed IterationSystem; store k in the system")
    y = np.zeros(system.n, dtype=complex) if x0 is None else as_vector(x0, system.n, "x0")
    ref = None if reference_x is None else as_vector(reference_x, system.n, "reference_x")
    zero = not y.any()
    stepper = stepper_class(system)
    power = _Workspace(system.M, system.k)
    trace = ConvergenceTrace(scheme=scheme, k=system.k)
    # One M y per iterate: its residual, and the first factor of the next M^k y.
    # A zero start has M y = 0 (None) and residual |g| at no product.
    g_norm = _norm(system.g)
    my = None if zero else power.first(y)
    residual = trace.initial_residual = g_norm if my is None else system.residual_norm(y, my)
    if ref is not None:
        trace.initial_err = _norm(ref - y)
    target = -math.inf if tol is None else tol * g_norm
    guard = DIVERGENCE_GUARD * max(residual, g_norm)
    best, best_residual, finish = y, residual, power.finish
    try:
        for _ in range(steps):
            if residual <= target:
                break
            y, cost = stepper.step(y, None if my is None else finish)
            my = power.first(y)
            residual = system.residual_norm(y, my)
            trace.append(None if ref is None else _norm(ref - y), residual, cost)
            if residual < best_residual:
                best, best_residual = y, residual
            if not residual <= guard:
                raise Divergence(
                    f"{scheme} scheme diverged at step {len(trace.residuals)}: residual"
                    f" {residual:.3e} is not below the guard {guard:.3e}",
                    best=best,
                    trace=trace,
                )
    finally:
        stepper.close()
    if tol is None or residual <= target:
        return y, trace
    raise NotConverged(
        f"{scheme} scheme: residual {best_residual:.3e} above target {target:.3e} "
        f"after {steps} steps",
        best=best,
        trace=trace,
    )


def _source(sys, residual_system: IterationSystem | None) -> IterationSystem:
    """The system the aliases run: `sys`, or the system a `PowerTransform`
    was taken of at its k; a given `residual_system` must be that system."""
    source = sys.system if isinstance(sys, PowerTransform) else sys
    if residual_system is not None and residual_system is not source:
        raise ValueError("residual_system must be the system `sys` was transformed from")
    return sys if source is sys else replace(source, k=sys.k)


def basic_iterate(sys, x0=None, steps: int = 50, reference_x=None,
                  residual_system: IterationSystem | None = None):
    """`run` of the basic scheme for a fixed number of steps: final iterate and trace.

    `sys` may be a `PowerTransform`, which runs as its system at its k; the
    `residual_system` pairing with the system it was taken of is kept only
    for the benchmark's call.
    """
    return run(_source(sys, residual_system), "basic", steps=steps, x0=x0,
               reference_x=reference_x)


def generalized_chebyshev_iterate(sys, x0=None, steps: int = 50,
                                  reference_x=None,
                                  residual_system: IterationSystem | None = None):
    """`run` of the three-term scheme for a fixed number of steps; see basic_iterate."""
    return run(_source(sys, residual_system), "generalized", steps=steps, x0=x0,
               reference_x=reference_x)


@dataclass(frozen=True)
class PowerTransform:
    """What the k-power transform of `system` changes besides M -> M^k: the
    sides (I + M + ... + M^(k-1)) g and the same of (M_tilde, g_tilde), and
    lambda1^k.  A side is taken at its first read, at k - 1 products, and
    kept; at k = 1 each is the system's own."""

    system: IterationSystem
    k: int

    @cached_property
    def g(self) -> np.ndarray:
        return geometric_sum_apply(self.system.M, self.k, self.system.g)

    @cached_property
    def g_tilde(self) -> np.ndarray | None:
        m_tilde, g_tilde = self.system.M_tilde, self.system.g_tilde
        return None if m_tilde is None else geometric_sum_apply(m_tilde, self.k, g_tilde)

    @cached_property
    def lambda1(self) -> complex | None:
        lambda1 = self.system.lambda1
        return lambda1 if lambda1 is None or self.k == 1 else complex(lambda1) ** self.k


def transform_system(sys: IterationSystem, k: int) -> PowerTransform:
    """The k-power transform of `sys`, which keeps its fixed point.  It
    spends nothing: each side costs k - 1 products when it is first read.
    `run` takes the transform itself at `sys.k`."""
    if not isinstance(sys, IterationSystem):
        raise ValueError("transform_system needs an untransformed IterationSystem")
    return PowerTransform(sys, _order(k))


def solve(
    sys: IterationSystem,
    x0=None,
    max_steps: int = 200,
    residual_tol: float = 1e-10,
    scheme: str = "basic",
):
    """`run` of `scheme` on the untransformed `sys`, at its order `sys.k`,
    until the relative residual of `sys` meets `residual_tol`.

    Raises NotConverged with the best iterate and trace attached.
    """
    return run(sys, scheme, steps=max_steps, tol=residual_tol, x0=x0)
