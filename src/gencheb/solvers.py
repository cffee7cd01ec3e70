"""Iteration schemes: basic, classical and three-term Chebyshev, in one loop.

Each scheme is a stepper in one registry; `run` drives any of them, either
for a fixed number of steps or until a residual tolerance is met, under one
divergence guard.  `solve` applies a system's power transform and runs to
tolerance.

Cost accounting: the trace records the sparse products consumed by the
scheme recurrence itself (k per basic step on a k-powered system, 2k per
accelerated three-term step).  `run` takes each residual from the product
M y that the next step's M^k y starts with, so every run, fixed-step or to
tolerance, spends the recurrence's products plus one after the power
transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb_kernel import ChebCoefficientStream
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
        return _norm(y - (self.M.matvec(y) if my is None else my) - self.g)


def _norm(r: np.ndarray) -> float:
    """Euclidean norm of a complex vector: np.linalg.norm's own sum, without
    its wrapper."""
    return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))


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
        """Record step m; its ratio divides err (else the residual) by the
        previous step's, or by the initial value on the first step, and is
        None when that divisor is missing or 0."""
        if err is None:
            value, history, initial = residual, self.residuals, self.initial_residual
        else:
            value, history, initial = err, self.err_norms, self.initial_err
        divisor = history[-1] if history else initial
        self.ratios.append(value / divisor if divisor else None)
        self.steps.append(m)
        self.err_norms.append(err)
        self.residuals.append(residual)
        self.matvecs.append(cost)

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
        steps, vals = self.series()
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
        steps, vals = self.series()
        ms = [m for m in steps if first <= m <= last]
        if len(ms) < 2:
            raise ValueError("window contains fewer than two recorded steps")
        ys = [math.log(self._value_at(m)) for m in ms]
        slope = np.polyfit(np.array(ms, dtype=float), np.array(ys), 1)[0]
        return float(np.exp(slope))


class _BasicStepper:
    """The basic step y -> M y + g; subclasses recombine it with `prev`.

    `step(forward)` takes M y of the latest iterate y and reports the step's
    full recurrence cost, `cost`, read once per run.
    """

    def __init__(self, sys: IterationSystem, x0: np.ndarray):
        self.sys, self.cost = sys, sys.M.matvec_cost
        self.y, self.prev = x0, None
        self.m = 0

    def step(self, forward: np.ndarray) -> tuple[np.ndarray, int]:
        self.m += 1
        new, cost = self._combine(forward + self.sys.g)
        self.prev, self.y = self.y, new
        return new, cost

    def _combine(self, basic):
        return basic, self.cost


class _ClassicalStepper(_BasicStepper):
    """Classical Chebyshev acceleration with Golub and Varga's weights.

    From step 2, y_m = y_{m-2} + w_m (M y_{m-1} + g - y_{m-2}) with
    w_m = 1 / (1 - rho^2 w_{m-1} / 4) and w_1 = 2, so that w_m =
    2 C_{m-1}(1/rho) / (rho C_m(1/rho)).  The spectral radius bound rho is
    |lambda1|; the caller is responsible for the real-spectrum assumption.
    """

    def __init__(self, sys: IterationSystem, x0: np.ndarray):
        if sys.lambda1 is None:
            raise MissingLambda1("classical scheme needs lambda1 to set rho")
        rho = abs(complex(sys.lambda1))
        if not 0.0 < rho < 1.0:
            raise ValueError(f"spectral radius must lie in (0, 1), got {rho}")
        super().__init__(sys, x0)
        self.quarter_rho2 = rho * rho / 4.0
        self.weight = 2.0

    def _combine(self, basic):
        if self.m > 1:
            self.weight = 1.0 / (1.0 - self.quarter_rho2 * self.weight)
            basic = self.prev + self.weight * (basic - self.prev)
        return basic, self.cost


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

    def __init__(self, sys: IterationSystem, x0: np.ndarray):
        if sys.M_tilde is None or sys.g_tilde is None:
            raise MissingTildeData(
                "generalized scheme needs M_tilde and g_tilde on the system"
            )
        if sys.lambda1 is None:
            raise MissingLambda1("generalized scheme needs lambda1 on the system")
        super().__init__(sys, x0)
        self.stream = ChebCoefficientStream(sys.lambda1)
        self.prev2 = None  # the iterate before `prev`
        self.tilde_cost = self.cost + sys.M_tilde.matvec_cost  # from step 2

    def _combine(self, forward):
        sys = self.sys
        if self.m == 1:
            return forward, self.cost
        tilde = sys.M_tilde.matvec(self.prev) + sys.g_tilde
        if self.m == 2:
            # the stream has not stepped yet: its window ends with f2(1/lambda1)
            lam1, f2 = self.stream.lambda1, self.stream.window[2]
            new = (3 * forward / lam1**2 - 2 * tilde / lam1.conjugate()) / f2
        else:
            c1, c2, c3 = self.stream.step()
            new = c1 * forward - c2 * tilde + c3 * self.prev2
        self.prev2 = self.prev
        return new, self.tilde_cost


_STEPPERS = {
    "basic": _BasicStepper,
    "classical": _ClassicalStepper,
    "generalized": _GeneralizedStepper,
}

SCHEMES = tuple(_STEPPERS)


def _residual_view(system: IterationSystem, residual_system: IterationSystem | None):
    """The system residuals are measured on, and the map from its M y to
    the M y of `system` (the rest of M^k y when `system` is k-transformed)."""
    if residual_system is None or residual_system is system:
        return system, lambda my: my
    if isinstance(system.M, PoweredOperator) and system.M.base is residual_system.M:
        return residual_system, system.M.finish
    raise ValueError("residual_system must be the system `system` was transformed from")


def run(
    system: IterationSystem,
    scheme: str,
    *,
    steps: int,
    tol: float | None = None,
    x0=None,
    reference_x=None,
    residual_system: IterationSystem | None = None,
):
    """Run `scheme` on `system` for `steps` steps, or until the residual meets `tol`.

    Residuals are measured on `residual_system`, the system that `system`
    was transformed from (default: `system` itself), so that schemes and
    transform orders are comparable.  With `tol=None`, returns the final
    iterate and the trace after exactly `steps` steps.  With a tolerance,
    returns the first iterate whose residual is at most tol * |g| and the
    trace, or raises NotConverged with the best iterate and the trace
    attached.  A residual above the divergence guard, or not finite, raises
    Divergence (a NotConverged) under every scheme.
    """
    stepper_class = _STEPPERS.get(scheme)
    if stepper_class is None:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rsys, finish = _residual_view(system, residual_system)
    y = np.zeros(system.n, dtype=complex) if x0 is None else as_vector(x0, system.n, "x0")
    ref = None if reference_x is None else as_vector(reference_x, system.n, "reference_x")
    stepper = stepper_class(system, y)
    trace = ConvergenceTrace(scheme=scheme, k=system.k)
    # One M y per iterate: its residual, and the first factor of the next M^k y.
    my = rsys.M.matvec(y)
    residual = trace.initial_residual = rsys.residual_norm(y, my)
    if ref is not None:
        trace.initial_err = _norm(ref - y)
    g_norm = _norm(rsys.g)
    target = -math.inf if tol is None else tol * g_norm
    guard = DIVERGENCE_GUARD * max(residual, g_norm)
    best, best_residual = y, residual
    for _ in range(steps):
        if residual <= target:
            break
        y, cost = stepper.step(finish(my))
        my = rsys.M.matvec(y)
        residual = rsys.residual_norm(y, my)
        err = None if ref is None else _norm(ref - y)
        trace.append(stepper.m, err, residual, cost)
        if residual < best_residual:
            best, best_residual = y, residual
        if not residual <= guard:
            raise Divergence(
                f"{scheme} scheme diverged at step {stepper.m}: residual {residual:.3e}"
                f" is not below the guard {guard:.3e}",
                best=best,
                trace=trace,
            )
    if tol is None or residual <= target:
        return y, trace
    raise NotConverged(
        f"{scheme} scheme: residual {best_residual:.3e} above target {target:.3e} "
        f"after {steps} steps",
        best=best,
        trace=trace,
    )


def basic_iterate(sys: IterationSystem, x0=None, steps: int = 50, reference_x=None,
                  residual_system: IterationSystem | None = None):
    """`run` of the basic scheme for a fixed number of steps: final iterate and trace."""
    return run(sys, "basic", steps=steps, x0=x0, reference_x=reference_x,
               residual_system=residual_system)


def generalized_chebyshev_iterate(sys: IterationSystem, x0=None, steps: int = 50,
                                  reference_x=None,
                                  residual_system: IterationSystem | None = None):
    """`run` of the three-term scheme for a fixed number of steps; see basic_iterate."""
    return run(sys, "generalized", steps=steps, x0=x0, reference_x=reference_x,
               residual_system=residual_system)


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
    if isinstance(sys.M, PoweredOperator):
        raise ValueError(
            "solve needs the untransformed system; store the transform order in k"
        )
    return run(transform_system(sys, sys.k), scheme, steps=max_steps, tol=residual_tol,
               x0=x0, residual_system=sys)
