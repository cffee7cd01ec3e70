"""Iteration schemes: basic, k-transformed, classical and three-term Chebyshev.

All schemes share one telemetry type (ConvergenceTrace) and one stepping
core, so `solve` can drive any scheme with early stopping while the
`*_iterate` functions run a fixed number of steps.

Cost accounting: the trace records the sparse products consumed by the
scheme recurrence itself (k per basic step on a k-powered system, 2k per
accelerated three-term step).  `solve` takes each residual from the product
M y that the next step's M^k y starts with, so it spends the recurrence's
products plus one after the power transform.  The fixed-step `*_iterate`
runs spend one more, uncounted, product per step on the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb_kernel import classical_cheb_ratio_stream, coefficient_stream
from .errors import (
    DimensionMismatch,
    Divergence,
    MissingLambda1,
    MissingTildeData,
    NotConverged,
)
from .linalg import ComplexSparseMatrix, PoweredOperator, as_vector, geometric_sum_apply

#: Residual growth factor that converts silent overflow into a typed error.
DIVERGENCE_GUARD = 1e12

SCHEMES = ("basic", "classical", "generalized")


@dataclass
class IterationSystem:
    """One accelerable fixed-point iteration y -> M y + g.

    `M_tilde`/`g_tilde` describe the companion iteration with conjugated
    eigenvalues on the same eigenvectors (equal to M*/its side for normal
    M).  `lambda1` is a dominant eigenvalue of M when known.  `k` is the
    power-transform order this system should be run under; `transform_system`
    applies it.
    """

    M: ComplexSparseMatrix | PoweredOperator
    g: np.ndarray
    M_tilde: ComplexSparseMatrix | PoweredOperator | None = None
    g_tilde: np.ndarray | None = None
    lambda1: complex | None = None
    k: int = 1

    def __post_init__(self):
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
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def residual_norm(self, y: np.ndarray, my: np.ndarray | None = None) -> float:
        """Euclidean norm of (I - M) y - g; `my` is M y when already known."""
        my = self.M.matvec(y) if my is None else my
        return float(np.linalg.norm(y - my - self.g))

    def check_consistency(self, x: np.ndarray, tol: float = 1e-10) -> None:
        """Assert that x solves (I - M) x = g (and the tilde pair if present)."""
        if self.residual_norm(x) > tol * max(1.0, float(np.linalg.norm(x))):
            raise ValueError("reference solution does not satisfy (I - M) x = g")
        if self.M_tilde is not None:
            r = np.linalg.norm(x - self.M_tilde.matvec(x) - self.g_tilde)
            if r > tol * max(1.0, float(np.linalg.norm(x))):
                raise ValueError("reference solution does not satisfy the tilde pair")


@dataclass
class ConvergenceTrace:
    """Per-step error/residual record for one scheme run.

    `err_norms[i]` is None when no reference solution was supplied.
    `ratios[i]` is the consecutive quotient of error norms when available,
    else of residual norms.  `matvecs[i]` counts the sparse products of the
    recurrence at that step only.
    """

    scheme: str
    k: int = 1
    initial_err: float | None = None
    initial_residual: float = 0.0
    steps: list[int] = field(default_factory=list)
    err_norms: list[float | None] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    ratios: list[float | None] = field(default_factory=list)
    matvecs: list[int] = field(default_factory=list)

    def append(self, m: int, err: float | None, residual: float, cost: int) -> None:
        if err is not None and self.err_norms and self.err_norms[-1] not in (None, 0.0):
            ratio = err / self.err_norms[-1]
        elif err is not None and not self.steps and self.initial_err:
            ratio = err / self.initial_err
        elif err is None and self.residuals and self.residuals[-1] != 0.0:
            ratio = residual / self.residuals[-1]
        elif err is None and not self.steps and self.initial_residual:
            ratio = residual / self.initial_residual
        else:
            ratio = None
        self.steps.append(m)
        self.err_norms.append(err)
        self.residuals.append(residual)
        self.ratios.append(ratio)
        self.matvecs.append(cost)

    @property
    def total_matvecs(self) -> int:
        return sum(self.matvecs)

    def _series(self) -> tuple[list[int], list[float]]:
        if self.err_norms and self.err_norms[0] is not None:
            return self.steps, [e for e in self.err_norms]
        return self.steps, [r for r in self.residuals]

    def _value_at(self, m: int) -> float:
        steps, vals = self._series()
        try:
            return vals[steps.index(m)]
        except ValueError:
            raise ValueError(f"step {m} not recorded in trace") from None

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
        steps, vals = self._series()
        ms = [m for m in steps if first <= m <= last]
        if len(ms) < 2:
            raise ValueError("window contains fewer than two recorded steps")
        ys = [math.log(self._value_at(m)) for m in ms]
        slope = np.polyfit(np.array(ms, dtype=float), np.array(ys), 1)[0]
        return float(np.exp(slope))


class _BasicStepper:
    """The basic step y -> M y + g; subclasses recombine it with `prev`.

    `step(forward)` takes M y of the latest iterate y when the caller holds
    it, and reports the step's full recurrence cost either way.
    """

    def __init__(self, sys: IterationSystem, x0: np.ndarray):
        self.sys = sys
        self.y, self.prev = x0, None
        self.m = 0

    def step(self, forward=None) -> tuple[np.ndarray, int]:
        self.m += 1
        forward = self.sys.M.matvec(self.y) if forward is None else forward
        new, cost = self._combine(forward + self.sys.g)
        self.prev, self.y = self.y, new
        return new, cost

    def _combine(self, basic):
        return basic, self.sys.M.matvec_cost


class _ClassicalStepper(_BasicStepper):
    """Two-term weighted recurrence driven by the classical ratio stream."""

    def __init__(self, sys: IterationSystem, rho: float, x0: np.ndarray):
        super().__init__(sys, x0)
        self.stream = classical_cheb_ratio_stream(rho)

    def _combine(self, basic):
        if self.m > 1:
            w1, w2 = self.stream.step()
            basic = w1 * basic - w2 * self.prev
        return basic, self.sys.M.matvec_cost


class _GeneralizedStepper(_BasicStepper):
    """Three-term scheme with coefficients from the f-ratio stream.

    Seeding: y1 is one basic step; y2 is the affine combination
    (3 (M y1 + g)/lambda1^2 - 2 (Mt y0 + gt)/conj(lambda1)) / f2(1/lambda1),
    whose weights sum to one.  This seed makes the error vector equal
    p_m(M) eps0 with p_m(z) = f_m(z/lambda1)/f_m(1/lambda1) exactly for
    every m, which the plain choice y2 = x2 does not.
    """

    def __init__(self, sys: IterationSystem, x0: np.ndarray):
        if sys.M_tilde is None or sys.g_tilde is None:
            raise MissingTildeData(
                "generalized scheme needs M_tilde and g_tilde on the system"
            )
        if sys.lambda1 is None:
            raise MissingLambda1("generalized scheme needs lambda1 on the system")
        super().__init__(sys, x0)
        self.lam1 = complex(sys.lambda1)
        self.stream = coefficient_stream(self.lam1)
        self.prev2 = None  # the iterate before `prev`

    def _combine(self, forward):
        sys = self.sys
        if self.m == 1:
            return forward, sys.M.matvec_cost
        tilde = sys.M_tilde.matvec(self.prev) + sys.g_tilde
        if self.m == 2:
            w = 1.0 / self.lam1
            f2 = 3 * w * w - 2 * w.conjugate()
            new = (3 * forward / self.lam1**2 - 2 * tilde / self.lam1.conjugate()) / f2
        else:
            c1, c2, c3 = self.stream.step()
            new = c1 * forward - c2 * tilde + c3 * self.prev2
        self.prev2 = self.prev
        return new, sys.M.matvec_cost + sys.M_tilde.matvec_cost


def _prepare_x0(sys: IterationSystem, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(sys.n, dtype=complex)
    return as_vector(x0, sys.n, "x0")


def _run_fixed(
    stepper,
    sys: IterationSystem,
    x0: np.ndarray,
    steps: int,
    scheme: str,
    reference_x,
    residual_system: IterationSystem | None,
    divergence_guard: bool,
):
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rsys = residual_system if residual_system is not None else sys
    ref = None if reference_x is None else as_vector(reference_x, sys.n, "reference_x")
    trace = ConvergenceTrace(scheme=scheme, k=sys.k)
    trace.initial_residual = rsys.residual_norm(x0)
    if ref is not None:
        trace.initial_err = float(np.linalg.norm(ref - x0))
    guard = DIVERGENCE_GUARD * max(
        trace.initial_residual, float(np.linalg.norm(rsys.g))
    )
    iterates = [x0]
    for _ in range(steps):
        y, cost = stepper.step()
        residual = rsys.residual_norm(y)
        err = None if ref is None else float(np.linalg.norm(ref - y))
        trace.append(stepper.m, err, residual, cost)
        iterates.append(y)
        if divergence_guard and guard > 0.0 and residual > guard:
            raise Divergence(
                f"residual {residual:.3e} exceeded {DIVERGENCE_GUARD:.0e} x initial scale"
                f" at step {stepper.m}"
            )
    return iterates, trace


def basic_iterate(
    sys: IterationSystem,
    x0=None,
    steps: int = 50,
    reference_x=None,
    residual_system: IterationSystem | None = None,
):
    """Run y -> M y + g for a fixed number of steps.

    Returns all iterates (initial point included) and the trace.  Raises
    Divergence when the residual exceeds the guard, which signals an input
    with spectral radius at or above one.
    """
    x0 = _prepare_x0(sys, x0)
    return _run_fixed(
        _BasicStepper(sys, x0), sys, x0, steps, "basic", reference_x,
        residual_system, divergence_guard=True,
    )


def chebyshev_iterate(
    sys: IterationSystem,
    rho: float,
    x0=None,
    steps: int = 50,
    reference_x=None,
    residual_system: IterationSystem | None = None,
):
    """Classical Chebyshev acceleration for real spectra in (-1, 1).

    The caller is responsible for the spectrum assumption; rho is the
    spectral radius bound used for the weights.
    """
    x0 = _prepare_x0(sys, x0)
    return _run_fixed(
        _ClassicalStepper(sys, rho, x0), sys, x0, steps, "classical", reference_x,
        residual_system, divergence_guard=False,
    )


def generalized_chebyshev_iterate(
    sys: IterationSystem,
    x0=None,
    steps: int = 50,
    reference_x=None,
    residual_system: IterationSystem | None = None,
):
    """Three-term accelerated scheme using the system's tilde pair and lambda1.

    Applicability (every eigenvalue quotient inside the deltoid, possibly
    after a power transform) is checked upstream by the spectrum module.
    """
    x0 = _prepare_x0(sys, x0)
    return _run_fixed(
        _GeneralizedStepper(sys, x0), sys, x0, steps, "generalized", reference_x,
        residual_system, divergence_guard=False,
    )


def transform_system(sys: IterationSystem, k: int) -> IterationSystem:
    """Replace the operator by its k-th power, keeping the fixed point.

    The right-hand side becomes (I + M + ... + M^(k-1)) g, the tilde pair is
    transformed the same way, and lambda1 is raised to the k-th power.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k == 1:
        return sys
    if isinstance(sys.M, PoweredOperator):
        raise ValueError("system is already power-transformed")
    m_tilde = g_tilde = None
    if sys.M_tilde is not None:
        m_tilde = PoweredOperator(sys.M_tilde, k)
        g_tilde = geometric_sum_apply(sys.M_tilde, k, sys.g_tilde)
    return IterationSystem(
        M=PoweredOperator(sys.M, k),
        g=geometric_sum_apply(sys.M, k, sys.g),
        M_tilde=m_tilde,
        g_tilde=g_tilde,
        lambda1=None if sys.lambda1 is None else complex(sys.lambda1) ** k,
        k=k,
    )


def solve(
    sys: IterationSystem,
    x0=None,
    max_steps: int = 200,
    residual_tol: float = 1e-10,
    scheme: str = "basic",
):
    """Iterate until the relative residual of the ORIGINAL system is met.

    `sys` must be untransformed; its `k` field says which power transform to
    apply before running the scheme.  The stopping residual is always
    measured against the original (k = 1) system so schemes are comparable.
    Raises NotConverged with the best iterate and trace attached.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if isinstance(sys.M, PoweredOperator):
        raise ValueError(
            "solve needs the untransformed system; store the transform order in k"
        )
    work = transform_system(sys, sys.k) if sys.k > 1 else sys
    x0 = _prepare_x0(sys, x0)
    if scheme == "basic":
        stepper = _BasicStepper(work, x0)
    elif scheme == "classical":
        if work.lambda1 is None:
            raise MissingLambda1("classical scheme needs lambda1 to set rho")
        stepper = _ClassicalStepper(work, abs(complex(work.lambda1)), x0)
    else:
        stepper = _GeneralizedStepper(work, x0)

    # One M y per iterate: its residual, and the first factor of the next M^k y.
    power = PoweredOperator(sys.M, sys.k)
    my = sys.M.matvec(x0)
    trace = ConvergenceTrace(scheme=scheme, k=sys.k)
    trace.initial_residual = sys.residual_norm(x0, my)
    g_norm = float(np.linalg.norm(sys.g))
    target = residual_tol * g_norm
    guard = DIVERGENCE_GUARD * max(trace.initial_residual, g_norm)
    best, best_residual = x0, trace.initial_residual
    if trace.initial_residual <= target:
        return x0, trace
    for _ in range(max_steps):
        y, cost = stepper.step(power.finish(my))
        my = sys.M.matvec(y)
        residual = sys.residual_norm(y, my)
        trace.append(stepper.m, None, residual, cost)
        if residual < best_residual:
            best, best_residual = y, residual
        if residual <= target:
            return y, trace
        if scheme == "basic" and guard > 0.0 and residual > guard:
            raise Divergence(
                f"residual {residual:.3e} exceeded the divergence guard at step {stepper.m}"
            )
    raise NotConverged(
        f"{scheme} scheme: residual {best_residual:.3e} above target {target:.3e} "
        f"after {max_steps} steps",
        best=best,
        trace=trace,
    )
