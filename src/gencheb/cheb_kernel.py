"""Two-variable Chebyshev-type polynomials and the deltoid region.

The degree-m family f_m satisfies

    f_m = 3*x*f_{m-1} - 3*conj(x)*f_{m-2} + f_{m-3},   m >= 3,

with seeds f_0 = 1, f_1 = x, f_2 = 3x^2 - 2*conj(x), and the functional
equation f_m(phi1(t)) = phi1(m*t) for the generalized cosine phi1.  Their
invariant region is the deltoid bounded by the Steiner hypocycloid with
cusps at the cube roots of unity (the analogue of [-1, 1] for the
classical Chebyshev polynomials, which are also provided here in ratio
form).  Ratio streams keep a renormalized three-value window so solver
coefficients never overflow even though f_m(w) grows geometrically for
|w| > 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCoefficient

TWO_PI_I = 2j * np.pi

#: Default absolute slack on the membership quartic.  Cusps are exact
#: algebraic points; eigenvalue quotients computed in floating point are not.
DEFAULT_MEMBERSHIP_TOL = 1e-9

# Window entries whose renormalized magnitude falls below this are treated
# as a hit on a polynomial root.
_UNDERFLOW = 1e-250


def phi1(theta1, theta2):
    """Generalized cosine: average of three unit-circle exponentials.

    Accepts scalars or arrays (broadcast).  Real angles give values of
    modulus at most 1; theta1 == theta2 gives real values in [-1/3, 1].
    """
    return (
        np.exp(TWO_PI_I * theta1)
        + np.exp(-TWO_PI_I * theta2)
        + np.exp(TWO_PI_I * (theta2 - theta1))
    ) / 3.0


def eval_f(m: int, x: complex) -> complex:
    """Evaluate f_m at x, with the second variable fixed to conj(x).

    Raw recurrence evaluation; values grow geometrically for |x| > 1, so
    solver code must use the ratio streams instead.
    """
    if m < 0:
        raise ValueError(f"degree must be non-negative, got {m}")
    x = complex(x)
    xb = x.conjugate()
    if m == 0:
        return 1.0 + 0j
    if m == 1:
        return x
    f0, f1, f2 = 1.0 + 0j, x, 3 * x * x - 2 * xb
    for _ in range(m - 2):
        f0, f1, f2 = f1, f2, 3 * x * f2 - 3 * xb * f1 + f0
    return f2


def membership_defect(z):
    """Quartic h with h(z) <= 0 exactly on the deltoid.

    h(z) = 3|z|^4 + 6|z|^2 - 8 Re(z^3) - 1.  Vanishes identically on the
    boundary curve (2 e^{it} + e^{-2it})/3; vectorized over arrays.
    """
    z = np.asarray(z, dtype=complex)
    r2 = z.real * z.real + z.imag * z.imag
    h = 3.0 * r2 * r2 + 6.0 * r2 - 8.0 * (z**3).real - 1.0
    return h if h.ndim else float(h)


def deltoid_contains(z: complex, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff z lies in the deltoid, up to absolute slack tol on h."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return bool(membership_defect(complex(z)) <= tol)


def power_preimage_contains(
    z: complex, k: int, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> bool:
    """True iff z**k lies in the deltoid (preimage under the power map)."""
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    return deltoid_contains(complex(z) ** k, tol)


class ChebCoefficientStream:
    """Per-step coefficient triples of the three-term accelerated scheme.

    Step m (starting at m = 3) emits

        (3 f_{m-1}(w) / (lambda1 f_m(w)),
         3 f_{m-2}(w) / (conj(lambda1) f_m(w)),
         f_{m-3}(w) / f_m(w)),                      w = 1/lambda1,

    which satisfy c1 - c2 + c3 = 1.  Only a three-value window of f values
    is kept, rescaled by its max magnitude each step; the coefficients are
    ratios and therefore invariant under that rescaling.  `scale_exponent`
    accumulates log of the discarded scale for introspection only.
    """

    def __init__(self, lambda1: complex):
        lambda1 = complex(lambda1)
        if not 0.0 < abs(lambda1) < 1.0:
            raise ValueError(
                f"dominant eigenvalue must satisfy 0 < |lambda1| < 1, got {lambda1}"
            )
        self.lambda1 = lambda1
        self.w = 1.0 / lambda1
        w, wb = self.w, self.w.conjugate()
        # window holds values proportional to (f_{m-3}, f_{m-2}, f_{m-1})(w)
        self.window = np.array([1.0 + 0j, w, 3 * w * w - 2 * wb])
        self.scale_exponent = 0.0
        self.m = 3

    def step(self) -> tuple[complex, complex, complex]:
        """Advance one step; return (c1, c2, c3) for the current m."""
        w, wb = self.w, self.w.conjugate()
        f_prev3, f_prev2, f_prev1 = self.window
        f_m = 3 * w * f_prev1 - 3 * wb * f_prev2 + f_prev3
        scale = max(abs(f_m), abs(f_prev1), abs(f_prev2))
        if not np.isfinite(scale) or abs(f_m) <= _UNDERFLOW * scale:
            raise DegenerateCoefficient(
                f"f_m(1/lambda1) vanished at m={self.m} for lambda1={self.lambda1}"
            )
        c1 = 3 * f_prev1 / (self.lambda1 * f_m)
        c2 = 3 * f_prev2 / (self.lambda1.conjugate() * f_m)
        c3 = f_prev3 / f_m
        self.window = np.array([f_prev2, f_prev1, f_m]) / scale
        self.scale_exponent += np.log(scale)
        self.m += 1
        return c1, c2, c3


class ClassicalChebRatioStream:
    """Classical Chebyshev ratio pairs, same renormalized-window technique.

    Step m (starting at m = 2) emits

        (2 C_{m-1}(t) / (rho C_m(t)),  C_{m-2}(t) / C_m(t)),   t = 1/rho,

    with the pair difference identically 1 by the C_m recurrence.
    """

    def __init__(self, rho: float):
        rho = float(rho)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"spectral radius must lie in (0, 1), got {rho}")
        self.rho = rho
        self.t = 1.0 / rho
        self.window = np.array([1.0, self.t])  # (C_{m-2}, C_{m-1})
        self.scale_exponent = 0.0
        self.m = 2

    def step(self) -> tuple[float, float]:
        c_prev2, c_prev1 = self.window
        c_m = 2 * self.t * c_prev1 - c_prev2
        scale = max(abs(c_m), abs(c_prev1))
        if not np.isfinite(scale) or abs(c_m) <= _UNDERFLOW * scale:
            raise DegenerateCoefficient(
                f"C_m(1/rho) vanished at m={self.m} for rho={self.rho}"
            )
        first = 2 * c_prev1 / (self.rho * c_m)
        second = c_prev2 / c_m
        self.window = np.array([c_prev1, c_m]) / scale
        self.scale_exponent += np.log(scale)
        self.m += 1
        return first, second

