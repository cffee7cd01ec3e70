"""Two-variable Chebyshev-type polynomials and the deltoid region.

The degree-m family f_m satisfies

    f_m = 3*x*f_{m-1} - 3*conj(x)*f_{m-2} + f_{m-3},   m >= 3,

with seeds f_0 = 1, f_1 = x, f_2 = 3x^2 - 2*conj(x), and the functional
equation f_m(phi1(t)) = phi1(m*t) for the generalized cosine phi1.  Their
invariant region is the deltoid bounded by the Steiner hypocycloid with
cusps at the cube roots of unity (the analogue of [-1, 1] for the
classical Chebyshev polynomials).  The coefficient stream keeps a
renormalized three-value window so solver coefficients never overflow
even though f_m(w) grows geometrically for |w| > 1.
"""

from __future__ import annotations

import numpy as np

from .errors import InapplicableSpectrum

TWO_PI_I = 2j * np.pi

#: Absolute slack on the membership quartic.  Cusps are exact
#: algebraic points; eigenvalue quotients computed in floating point are not.
DEFAULT_MEMBERSHIP_TOL = 1e-9

#: Smallest |lambda1| the coefficient stream takes.  Its first step forms
#: 3w f_2(w) from the unscaled window, a modulus up to about 9|w|^3 at
#: w = 1/lambda1; |w|^3 <= max/27 keeps that a factor of 3 below the largest
#: double, so the step's sum stays finite.
_FLOOR = (27 / np.finfo(float).max) ** (1 / 3)


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
    solver code must use the coefficient stream instead.
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


def deltoid_contains(z):
    """True iff z lies in the deltoid, up to DEFAULT_MEMBERSHIP_TOL on h;
    elementwise on arrays."""
    return membership_defect(z) <= DEFAULT_MEMBERSHIP_TOL


def power_preimage_contains(z, k: int):
    """True iff z**k lies in the deltoid (preimage under the power map)."""
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    return deltoid_contains(z ** k)


class ChebCoefficientStream:
    """Per-step coefficient triples of the three-term accelerated scheme.

    Step m (starting at m = 3) emits

        (3 f_{m-1}(w) / (lambda1 f_m(w)),
         3 f_{m-2}(w) / (conj(lambda1) f_m(w)),
         f_{m-3}(w) / f_m(w)),                      w = 1/lambda1,

    which satisfy c1 - c2 + c3 = 1.  Only a three-value window of f values
    is kept, rescaled by its max magnitude each step; the coefficients are
    ratios and therefore invariant under that rescaling.  A |lambda1| outside
    [_FLOOR, 1) is refused with InapplicableSpectrum: below the floor the
    unscaled first step overflows, and from 1 on the scheme does not apply.
    """

    def __init__(self, lambda1: complex):
        lambda1 = complex(lambda1)
        if not _FLOOR <= abs(lambda1) < 1.0:
            raise InapplicableSpectrum(
                f"dominant eigenvalue {lambda1} is outside the coefficient stream's "
                f"range: its modulus must be at least the floor {_FLOOR:.3g} and below 1")
        self.lambda1 = lambda1
        self.w = 1.0 / lambda1
        w, wb = self.w, self.w.conjugate()
        # numpy complex scalars proportional to (f_{m-3}, f_{m-2}, f_{m-1})(w)
        self.window = tuple(np.array([1.0 + 0j, w, 3 * w * w - 2 * wb]))

    def step(self) -> tuple[complex, complex, complex]:
        """Advance one step; return (c1, c2, c3) for the current m."""
        w, wb = self.w, self.w.conjugate()
        f_prev3, f_prev2, f_prev1 = self.window
        f_m = 3 * w * f_prev1 - 3 * wb * f_prev2 + f_prev3
        scale = max(abs(f_m), abs(f_prev1), abs(f_prev2))
        c1 = 3 * f_prev1 / (self.lambda1 * f_m)
        c2 = 3 * f_prev2 / (self.lambda1.conjugate() * f_m)
        c3 = f_prev3 / f_m
        self.window = (f_prev2 / scale, f_prev1 / scale, f_m / scale)
        return c1, c2, c3

