"""Applicability classification, k-selection, and rate prediction.

Given (possibly partial) spectral data for the iteration matrix, decide
whether the three-term acceleration applies, pick the power-transform
order k, and predict asymptotic convergence rates for both the plain and
the accelerated scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cheb_kernel import deltoid_contains
from .errors import InapplicableSpectrum, NotConverged

UNIQUE_DOMINANT = "unique_dominant"
ROOT_OF_UNITY_FAMILY = "root_of_unity_family"
INAPPLICABLE = "inapplicable"

#: Labels a spectrum's source may carry; the report prints it.
SOURCES = ("exact", "user_supplied", "estimated")
#: Relative modulus gap within which an eigenvalue counts as dominant, and
#: the slack on |ratio**n - 1| for a root-of-unity ratio; one for every source.
DOMINANCE_TOL = 1e-8
DEFAULT_ROU_MAX_ORDER = 64


@dataclass(frozen=True, eq=False)  # an array field does not compare as one bool
class SpectrumInfo:
    """Known eigenvalues plus the dominant one.

    `eigenvalues` may be a partial list (set `partial=True` so k selection
    falls back to the modulus bound instead of trusting membership of an
    incomplete quotient set).  It is stored as a read-only complex array.
    """

    eigenvalues: np.ndarray
    lambda1: complex
    source: str = "user_supplied"
    partial: bool = False

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown spectrum source {self.source!r}")
        lam1 = complex(self.lambda1)
        evs = np.array(self.eigenvalues)
        if evs.ndim != 1 or evs.dtype.kind not in "biufc":
            raise TypeError("eigenvalues must be a flat sequence of numbers")
        evs = evs.astype(complex, copy=False)
        if not (np.isfinite(evs).all() and np.isfinite(lam1)):
            raise ValueError("lambda1 and the eigenvalues must be finite")
        if abs(lam1) < np.finfo(float).tiny:  # zero, or its quotients would overflow
            raise InapplicableSpectrum(f"dominant eigenvalue {lam1} is zero or below "
                                       "the smallest normal double")
        if abs(lam1) >= 1.0:
            raise InapplicableSpectrum(f"spectral radius must be below one, got |{lam1}|")
        if not evs.size:
            raise ValueError("eigenvalue list must not be empty")
        with np.errstate(over="ignore"):  # a modulus above the largest double is inf
            if np.hypot(evs.real, evs.imag).max() > abs(lam1) * (1.0 + 1e-12):
                raise ValueError("lambda1 must have maximal modulus among eigenvalues")
        evs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", evs)
        object.__setattr__(self, "lambda1", lam1)


@dataclass(frozen=True)
class Classification:
    """The dominant set's regime and its order k0: 1 for a unique dominant
    eigenvalue, the family order for a root-of-unity family, None when
    inapplicable."""

    kind: str
    k0: int | None = None

    def __str__(self) -> str:
        if self.kind == ROOT_OF_UNITY_FAMILY:
            return f"{self.kind}(k0={self.k0})"
        return self.kind


def _root_of_unity_order(zeta: complex) -> int | None:
    power = 1.0 + 0j
    for n in range(1, DEFAULT_ROU_MAX_ORDER + 1):
        power *= zeta
        if abs(power - 1.0) <= DOMINANCE_TOL:
            return n
    return None


def _smallest_k_for_ratio(r: float) -> int:
    """Smallest k with 3**(-1/k) >= r, i.e. r**k <= 1/3."""
    if r <= 1.0 / 3.0:
        return 1
    k = max(1, math.ceil(math.log(3.0) / math.log(1.0 / r)))
    while 3.0 ** (-1.0 / k) < r:  # float edge: ceil landed one short
        k += 1
    while k > 1 and 3.0 ** (-1.0 / (k - 1)) >= r:  # or one past
        k -= 1
    return k


def _dominance(info: SpectrumInfo) -> tuple[Classification, int | None]:
    """The dominant set's classification and the modulus-bound k.

    Eigenvalues within DOMINANCE_TOL of |lambda1| in relative modulus are
    dominant.  Several dominants are workable only when every pairwise
    ratio is a root of unity (order capped at DEFAULT_ROU_MAX_ORDER); the
    family order k0 is the lcm of the minimal orders, and a family of
    order 1 is one eigenvalue.  The bound is k0 times the smallest k1 that
    shrinks the largest other quotient max |v / lambda1| (0 when there is
    none) into the |z| <= 1/3 disc; None for an inapplicable dominant set.
    """
    bar = (1.0 - DOMINANCE_TOL) * abs(info.lambda1)
    # abs(v) to the bit, as libm's hypot; np.abs can differ in the last place
    mods = np.hypot(info.eigenvalues.real, info.eigenvalues.imag)
    dominant = info.eigenvalues[mods >= bar].tolist()
    ratio = float(mods[mods < bar].max(initial=0.0)) / abs(info.lambda1)
    k0 = 1
    for i, a in enumerate(dominant):
        for b in dominant[i + 1:]:
            order = _root_of_unity_order(a / b)
            if order is None:
                return Classification(INAPPLICABLE), None
            k0 = math.lcm(k0, order)
    kind = UNIQUE_DOMINANT if k0 == 1 else ROOT_OF_UNITY_FAMILY
    return Classification(kind, k0), k0 * _smallest_k_for_ratio(ratio)


def select_k_bound(info: SpectrumInfo) -> int:
    """Transform order from the modulus bound: k0 * k1.

    k0 collapses the dominant set to one eigenvalue (1 when it is unique,
    the family order for a root-of-unity family); k1 is the smallest order
    that shrinks the largest other quotient into the |z| <= 1/3 disc, 1
    when no other eigenvalue is known.  Raises InapplicableSpectrum when
    the dominant set is not such a family.
    """
    cls, k_bound = _dominance(info)
    if k_bound is None:
        raise InapplicableSpectrum(f"no modulus-bound k: classification is {cls}")
    return k_bound


def select_k_geometric(info: SpectrumInfo,
                       k_max: int = DEFAULT_ROU_MAX_ORDER) -> int | None:
    """Smallest k putting every eigenvalue quotient in the deltoid preimage.

    Uses the full eigenvalue list, so it can beat the modulus bound when
    the quotients happen to be well positioned.  None if k_max is not
    enough.
    """
    quotients = info.eigenvalues / info.lambda1
    powers = quotients.copy()
    for k in range(1, k_max + 1):
        if np.all(deltoid_contains(powers)):
            return k
        powers = powers * quotients
    return None


def alpha_from_lambda1(lambda1: float) -> float:
    """Positive alpha with 1/lambda1 = (e^alpha + e^-alpha + 1) / 3.

    Defined for real lambda1 in (0, 1); alpha is the log of the larger
    root t of t^2 - 2h t + 1, h = (3/lambda1 - 1)/2.
    """
    lam = float(lambda1)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda1 must lie in (0, 1), got {lambda1}")
    h = (3.0 / lam - 1.0) / 2.0
    t = h + math.sqrt(h - 1.0) * math.sqrt(h + 1.0)  # no h * h to overflow
    alpha = math.log(t)
    round_trip = (math.exp(alpha) + math.exp(-alpha) + 1.0) / 3.0
    if abs(round_trip - 1.0 / lam) > 1e-12 * max(1.0, 1.0 / lam):
        raise ArithmeticError(f"alpha round-trip failed for lambda1={lambda1}")
    return alpha


def asymptotic_rate_g(lambda1: float) -> float:
    """Closed-form accelerated rate g = (1 - sqrt(1 - s^2)) / s, s = 2l/(3-l).

    Evaluated in the cancellation-free form s / (1 + sqrt(1 - s^2)); equals
    exp(-alpha_from_lambda1(lambda1)).
    """
    lam = float(lambda1)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda1 must lie in (0, 1), got {lambda1}")
    s = 2.0 * lam / (3.0 - lam)
    return s / (1.0 + math.sqrt(1.0 - s * s))


def mu_max(lam: complex, alpha: float) -> float:
    """Largest root modulus of the error-propagation cubic at eigenvalue lam.

    The cubic is mu^3 - a*lam*mu^2 - b*conj(lam)*mu - c with coefficients
    a = 1 + q + q^2, b = -(q + q^2 + q^3), c = q^3, q = e^-alpha; solved
    by np.roots.  At the dominant eigenvalue the cubic degenerates to a
    triple root, which double precision resolves only to ~eps^(1/3); an
    unresolvable root cluster is therefore reported through its centroid
    (exact for a true triple root) instead of the noisy individual roots.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lam = complex(lam)
    q = math.exp(-alpha)
    a = 1.0 + q + q * q
    b = -(q + q * q + q**3)
    c = q**3
    roots = np.roots([1.0, -a * lam, -b * lam.conjugate(), -c])
    centroid = roots.sum() / 3.0
    diameter = max(
        abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2])
    )
    if diameter <= 1e-4 * max(1.0, abs(centroid)):
        return float(abs(centroid))
    return float(np.max(np.abs(roots)))


def _stream_decay_rate(lam_k: complex) -> float:
    """Asymptotic decay modulus of the accelerated dominant component.

    Equals 1/|t_max| for the largest root of t^3 - 3wt^2 + 3*conj(w)*t - 1
    at w = 1/lam_k, the limit ratio |f_m(w)/f_{m+1}(w)|.  For real positive
    lam_k the roots are e^alpha, 1, e^-alpha and this reduces to e^-alpha.
    """
    w = 1.0 / complex(lam_k)
    roots = np.roots([1.0, -3.0 * w, 3.0 * w.conjugate(), -1.0])
    return float(1.0 / np.max(np.abs(roots)))


#: Real root of z^3 + z^2 + 2z - 1; the other two roots are complex.
_PRACTICAL_CONSTANT = float(
    min(np.roots([1.0, 1.0, 2.0, -1.0]), key=lambda z: abs(z.imag)).real)


def feasibility_threshold(k: int) -> float:
    """Smallest |lambda1| for which the accelerated scheme beats plain
    iteration at fair (per-matvec) cost, under a k-power transform."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _PRACTICAL_CONSTANT ** (1.0 / k)


def estimate_dominant_eigenvalue(m, iters: int = 1000, tol: float = 1e-8, seed: int = 0):
    """Power iteration with a Rayleigh-quotient estimate, on a square matrix
    `m` with a `matvec`.

    Returns (lambda1, residual) with residual = |M v - lambda1 v| for the
    unit-norm iterate v; M v = 0 gives (0, 0) at once.  Raises NotConverged
    when the residual stays above tol, which typically signals several
    dominant eigenvalues, and ValueError for a tol that is negative or NaN
    or for iters below 1.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    n = m.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = m.matvec(v)
        lam = np.vdot(v, w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol:
            return complex(lam), residual
        v = w / np.linalg.norm(w)
    raise NotConverged(
        f"power iteration residual {residual:.3e} above {tol:.1e} after {iters} steps")


@dataclass(frozen=True)
class SpectrumReport:
    """Classification, both k selectors, and predicted asymptotic rates.

    Rates are evaluated at lambda1**k for the selected k: basic |l1|^k,
    accelerated g(l1^k) (real case) or the cubic's largest root modulus
    (complex case), and the cost-normalized fair value |l1|^(2k).
    """

    classification: Classification
    lambda1: complex
    source: str
    k_bound: int | None = None
    k_geometric: int | None = None
    k_selected: int | None = None
    predicted_basic_rate: float | None = None
    predicted_accel_rate: float | None = None
    fair_comparison_rate: float | None = None
    practical: bool = False
    practical_threshold: float | None = None
    alpha: float | None = None
    g_rate: float | None = None

    def lines(self) -> list[str]:
        """Plain-text rendering used by report files."""
        out = [
            f"classification: {self.classification}",
            f"lambda1: {self.lambda1}",
            f"spectrum source: {self.source}",
            f"k_bound: {self.k_bound}",
            f"k_geometric: {self.k_geometric}",
            f"k_selected: {self.k_selected}",
        ]
        if self.k_selected is not None:
            out += [
                f"predicted_basic_rate (|lambda1|^k): {self.predicted_basic_rate:.6f}",
                f"predicted_accel_rate: {self.predicted_accel_rate:.6f}",
                f"fair_comparison_rate (|lambda1|^2k): {self.fair_comparison_rate:.6f}",
                f"alpha: {'n/a' if self.alpha is None else f'{self.alpha:.6f}'}",
                f"g_rate: {'n/a' if self.g_rate is None else f'{self.g_rate:.6f}'}",
                f"practical_threshold (k={self.k_selected}): "
                f"{self.practical_threshold:.6f}",
                f"practical: {self.practical}",
                "practical constant: real root of z^3 + z^2 + 2z - 1 "
                f"= {_PRACTICAL_CONSTANT:.6f}; threshold is its k-th root",
            ]
        else:
            reason = ("acceleration not applicable" if self.k_bound is None
                      else "k_bound above k_max")
            out += [f"{reason}; no rates predicted", "practical: False"]
        return out


def build_report(
    info: SpectrumInfo, k_max: int = DEFAULT_ROU_MAX_ORDER
) -> SpectrumReport:
    """Compose classification, k selection, and rate prediction.

    The selected k is the smaller of the modulus bound and, when the full
    spectrum is known, the geometric k (the |z| <= 1/3 disc lies inside
    the deltoid, so the bound's k passes the geometric test too).  An
    inapplicable spectrum, or a selected k above k_max, yields a report
    with no k_selected and no rates rather than an exception; a lambda1^k
    below the smallest normal double raises InapplicableSpectrum.
    """
    cls, k_bound = _dominance(info)
    if k_bound is None:
        return SpectrumReport(cls, info.lambda1, info.source)
    k_geometric = None if info.partial else select_k_geometric(info, k_max)
    k_selected = min(k_bound, k_geometric or k_bound)
    if k_selected > k_max:
        return SpectrumReport(cls, info.lambda1, info.source, k_bound=k_bound)
    lam_k = complex(info.lambda1) ** k_selected
    if abs(lam_k) < np.finfo(float).tiny:
        raise InapplicableSpectrum(
            f"lambda1^k = {lam_k} at k = {k_selected} is below the smallest normal "
            "double; no rate can be predicted from it")
    basic = abs(info.lambda1) ** k_selected
    fair = basic * basic
    if abs(lam_k.imag) <= 1e-12 * abs(lam_k) and lam_k.real > 0.0:
        alpha = alpha_from_lambda1(lam_k.real)
        g_rate = asymptotic_rate_g(lam_k.real)
        accel = g_rate
    else:
        # complex dominant eigenvalue: alpha and g are undefined; the decay
        # modulus comes from the characteristic cubic at 1/lambda1^k
        alpha = None
        g_rate = None
        accel = _stream_decay_rate(lam_k)
    threshold = feasibility_threshold(k_selected)
    return SpectrumReport(
        classification=cls, lambda1=info.lambda1, source=info.source,
        k_bound=k_bound, k_geometric=k_geometric, k_selected=k_selected,
        predicted_basic_rate=basic, predicted_accel_rate=accel,
        fair_comparison_rate=fair, practical=abs(info.lambda1) >= threshold,
        practical_threshold=threshold, alpha=alpha, g_rate=g_rate,
    )
