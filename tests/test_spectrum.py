import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gencheb.cheb_kernel import deltoid_contains
from gencheb.errors import InapplicableSpectrum, NotConverged
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system
from gencheb.linalg import ComplexSparseMatrix
from gencheb import spectrum
from gencheb.spectrum import (
    DEFAULT_ROU_MAX_ORDER,
    DOMINANCE_TOL,
    INAPPLICABLE,
    ROOT_OF_UNITY_FAMILY,
    UNIQUE_DOMINANT,
    _PRACTICAL_CONSTANT,
    Classification,
    SpectrumInfo,
    _dominance,
    _root_of_unity_order,
    _smallest_k_for_ratio,
    _stream_decay_rate,
    alpha_from_lambda1,
    asymptotic_rate_g,
    build_report,
    estimate_dominant_eigenvalue,
    feasibility_threshold,
    mu_max,
    select_k_bound,
    select_k_geometric,
)

EX33 = (0.9 + 0j, 0.4 + 0.7j, 0.4 - 0.7j, -0.5 + 0j)
# |lambda1| = 0.3 selects k = 22, so |w| = 1/|lambda1^22| is about 3e11
SMALL_COMPLEX = (0.2632747685671118 + 0.1438276615812609j,
                 -0.2379396538174393 + 0.17774622679887508j)


def info_for_ratio(r):
    return SpectrumInfo((0.9 + 0j, 0.9 * r), lambda1=0.9, source="exact")


class TestSelectKBound:
    def test_inside_third_disc(self):
        assert select_k_bound(info_for_ratio(0.3)) == 1

    def test_table_value_at_two(self):
        assert select_k_bound(info_for_ratio(0.577)) == 2

    def test_example_ratio_needs_ten(self):
        assert select_k_bound(info_for_ratio(0.895)) == 10

    def test_exact_threshold_is_tight(self):
        for k in (2, 3, 5, 7):
            r = 3.0 ** (-1.0 / k)
            assert select_k_bound(info_for_ratio(r)) == k
            assert select_k_bound(info_for_ratio(r + 1e-9)) == k + 1

    def test_lambda_only_gives_one(self):
        info = SpectrumInfo((0.9,), lambda1=0.9, source="exact", partial=True)
        assert select_k_bound(info) == 1

    def test_requires_unique_dominant(self):
        zeta = np.exp(2j * np.pi * np.sqrt(2) / 2)
        info = SpectrumInfo((0.8, 0.8 * zeta), lambda1=0.8, source="exact")
        with pytest.raises(InapplicableSpectrum):
            select_k_bound(info)

    def test_monotone_in_ratio(self):
        rs = np.linspace(0.05, 0.99, 60)
        ks = [select_k_bound(info_for_ratio(r)) for r in rs]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


class TestSelectKGeometric:
    def test_example33_needs_two(self):
        info = SpectrumInfo(EX33, lambda1=0.9, source="exact")
        assert select_k_geometric(info) == 2

    def test_real_quotients_in_deltoid(self):
        info = SpectrumInfo((0.9, 0.9 / 3, -0.9 / 4), lambda1=0.9, source="exact")
        assert select_k_geometric(info) == 1

    def test_negative_pair_needs_two(self):
        info = SpectrumInfo((0.8, -0.8), lambda1=0.8, source="exact")
        assert select_k_geometric(info) == 2

    def test_none_when_k_max_too_small(self):
        info = SpectrumInfo(EX33, lambda1=0.9, source="exact")
        assert select_k_geometric(info, k_max=1) is None

    def test_never_worse_than_bound_on_random_spectra(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            lam1 = 0.5 + 0.45 * rng.random()
            count = rng.integers(2, 9)
            mods = lam1 * (0.98 * rng.random(count))
            args = 2 * np.pi * rng.random(count)
            evs = (lam1,) + tuple(mods * np.exp(1j * args))
            info = SpectrumInfo(evs, lambda1=lam1, source="exact")
            k_b = select_k_bound(info)
            k_g = select_k_geometric(info, k_max=max(k_b, 64))
            assert k_g is not None
            assert k_g <= k_b


class TestClassify:
    def test_example33_unique(self):
        info = SpectrumInfo(EX33, lambda1=0.9, source="exact")
        assert build_report(info).classification.kind == UNIQUE_DOMINANT

    def test_plus_minus_pair_is_family_of_order_two(self):
        info = SpectrumInfo((0.8, -0.8), lambda1=0.8, source="exact")
        cls = build_report(info).classification
        assert cls.kind == ROOT_OF_UNITY_FAMILY
        assert cls.k0 == 2

    def test_mixed_orders_lcm(self):
        w3 = 0.7 * np.exp(2j * np.pi / 3)
        info = SpectrumInfo((0.7, w3, -0.7), lambda1=0.7, source="exact")
        cls = build_report(info).classification
        assert cls.kind == ROOT_OF_UNITY_FAMILY
        assert cls.k0 == 6

    def test_irrational_rotation_inapplicable(self):
        zeta = np.exp(2j * np.pi * np.sqrt(2) / 2)
        info = SpectrumInfo((0.8, 0.8 * zeta), lambda1=0.8, source="exact")
        assert build_report(info).classification.kind == INAPPLICABLE

    def test_repeated_dominant_eigenvalue_is_unique(self):
        info = SpectrumInfo((0.9, 0.9, 0.3), lambda1=0.9, source="exact")
        cls = build_report(info).classification
        assert cls.kind == UNIQUE_DOMINANT
        assert str(cls) == UNIQUE_DOMINANT
        assert select_k_bound(info) == 1

    def test_scale_invariance_under_global_phase(self):
        rng = np.random.default_rng(17)
        evs = (0.8, -0.8, 0.3 + 0.2j, -0.1j)
        base = build_report(SpectrumInfo(evs, lambda1=0.8, source="exact")).classification
        for _ in range(5):
            phase = np.exp(2j * np.pi * rng.random())
            rotated = tuple(phase * np.asarray(evs, complex))
            cls = build_report(
                SpectrumInfo(rotated, lambda1=phase * 0.8, source="exact")
            ).classification
            assert cls == base


class TestKForFamily:
    def test_all_dominant(self):
        info = SpectrumInfo((0.8, -0.8), lambda1=0.8, source="exact")
        assert select_k_bound(info) == 2

    def test_with_tail_at_table_ratio(self):
        info = SpectrumInfo((0.8, -0.8, 0.8 * 0.577), lambda1=0.8, source="exact")
        assert select_k_bound(info) == 4

    def test_tail_already_inside_disc(self):
        info = SpectrumInfo(
            (0.7, 0.7 * np.exp(2j * np.pi / 3), 0.7 * np.exp(-2j * np.pi / 3), 0.14),
            lambda1=0.7,
            source="exact",
        )
        assert select_k_bound(info) == 3


class TestAlphaAndG:
    def test_alpha_at_081(self):
        assert alpha_from_lambda1(0.81) == pytest.approx(0.816, abs=1e-3)

    def test_alpha_vanishes_toward_one(self):
        assert alpha_from_lambda1(1.0 - 1e-10) < 1e-4

    def test_alpha_unit_point(self):
        lam = 3.0 / (math.e + 1.0 / math.e + 1.0)
        assert alpha_from_lambda1(lam) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 1.2])
    def test_alpha_domain(self, lam):
        with pytest.raises(ValueError):
            alpha_from_lambda1(lam)

    def test_g_known_values(self):
        assert asymptotic_rate_g(0.81) == pytest.approx(0.442, abs=1e-3)
        assert asymptotic_rate_g(0.729) == pytest.approx(0.363, abs=1e-3)

    def test_g_small_lambda_series(self):
        lam = 1e-4
        s = 2 * lam / (3 - lam)
        assert asymptotic_rate_g(lam) == pytest.approx(s / 2, abs=s**3)

    def test_g_equals_exp_minus_alpha(self):
        for lam in np.linspace(0.05, 0.99, 100):
            assert abs(
                asymptotic_rate_g(lam) - math.exp(-alpha_from_lambda1(lam))
            ) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.1])
    def test_g_domain(self, lam):
        with pytest.raises(ValueError):
            asymptotic_rate_g(lam)


class TestMuMax:
    def test_dominant_real_case_equals_g(self):
        alpha = alpha_from_lambda1(0.81)
        assert mu_max(0.81, alpha) == pytest.approx(
            asymptotic_rate_g(0.81), abs=1e-6
        )

    def test_zero_lambda_gives_cube_root(self):
        alpha = alpha_from_lambda1(0.81)
        assert mu_max(0.0, alpha) == pytest.approx(math.exp(-alpha), abs=1e-10)

    def test_heuristic_max_at_dominant_over_example33(self):
        alpha = alpha_from_lambda1(0.81)
        lams2 = np.asarray(EX33) ** 2
        vals = [mu_max(l, alpha) for l in lams2]
        assert vals[0] >= max(vals) - 1e-9

    @pytest.mark.parametrize("lam1", [0.5, 0.7, 0.81, 0.9])
    def test_equals_exp_minus_alpha_at_dominant(self, lam1):
        alpha = alpha_from_lambda1(lam1)
        assert abs(mu_max(lam1, alpha) - math.exp(-alpha)) <= 1e-8

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            mu_max(0.5, 0.0)


class TestFeasibility:
    def test_constant_is_root_of_cubic(self):
        lam = feasibility_threshold(1)
        assert lam**3 + lam**2 + 2 * lam - 1 == pytest.approx(0.0, abs=1e-11)

    def test_k1_and_k3(self):
        assert feasibility_threshold(1) == pytest.approx(0.392646, abs=1e-6)
        assert feasibility_threshold(3) == pytest.approx(0.732263, abs=1e-6)

    def test_intersection_identity(self):
        lam = feasibility_threshold(1)
        assert asymptotic_rate_g(lam) == pytest.approx(lam * lam, abs=1e-10)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            feasibility_threshold(0)


class TestEstimate:
    def test_diagonal(self):
        m = ComplexSparseMatrix.from_dense(np.diag([0.9, 0.3, 0.1]))
        lam, resid = estimate_dominant_eigenvalue(m, tol=1e-12, seed=1)
        assert abs(lam - 0.9) <= 1e-10
        assert resid <= 1e-12

    def test_generated_normal_matrix(self):
        gen = assemble_normal_system(
            NormalMatrixSpec(n=200, block_size=50, seed=5)
        )
        lam, _ = estimate_dominant_eigenvalue(gen.system.M, tol=1e-8, seed=2)
        assert abs(lam - 0.9) <= 1e-6

    def test_dominant_pair_fails(self):
        m = ComplexSparseMatrix.from_dense(np.diag([0.9, -0.9, 0.3]))
        with pytest.raises(NotConverged):
            estimate_dominant_eigenvalue(m, iters=300, tol=1e-8, seed=3)

    def test_zero_matrix_returns_zero_at_once(self):
        m = ComplexSparseMatrix(3, 3, [0, 0, 0, 0], [], [])
        lam, resid = estimate_dominant_eigenvalue(m, tol=0.0)
        assert (lam, resid) == (0j, 0.0)
        assert type(lam) is complex and type(resid) is float

    @pytest.mark.parametrize("flags", [{"tol": -1.0}, {"tol": math.nan}, {"iters": 0},
                                       {"iters": -3}])
    def test_negative_or_nan_tol_and_no_iteration_refused(self, flags):
        m = ComplexSparseMatrix.from_dense(np.diag([0.9, 0.3]))
        with pytest.raises(ValueError):
            estimate_dominant_eigenvalue(m, **flags)

    def test_deterministic_under_seed(self):
        gen = assemble_normal_system(NormalMatrixSpec(n=80, block_size=16, seed=6))
        a = estimate_dominant_eigenvalue(gen.system.M, tol=1e-10, seed=9)
        b = estimate_dominant_eigenvalue(gen.system.M, tol=1e-10, seed=9)
        assert a == b


class TestReport:
    def test_example33(self):
        info = SpectrumInfo(EX33, lambda1=0.9, source="exact")
        report = build_report(info)
        assert report.classification.kind == UNIQUE_DOMINANT
        assert report.k_bound == 10
        assert report.k_geometric == 2
        assert report.k_selected == 2
        assert report.predicted_basic_rate == pytest.approx(0.81, abs=1e-12)
        assert report.predicted_accel_rate == pytest.approx(0.442, abs=1e-3)
        assert report.fair_comparison_rate == pytest.approx(0.6561, abs=1e-12)
        assert report.practical  # 0.9 >= 0.626

    def test_planted_cloud_spectrum(self):
        gen = assemble_normal_system(NormalMatrixSpec(n=1000, block_size=100, seed=42))
        info = SpectrumInfo(tuple(gen.planted), lambda1=0.9, source="exact")
        report = build_report(info)
        assert report.k_bound == 3
        assert report.k_selected == 3
        assert report.predicted_basic_rate == pytest.approx(0.729, abs=1e-12)
        assert report.predicted_accel_rate == pytest.approx(0.363, abs=1e-3)
        assert report.fair_comparison_rate == pytest.approx(0.531441, abs=1e-12)
        assert report.practical  # 0.9 >= 0.732

    def test_inapplicable(self):
        zeta = np.exp(2j * np.pi * np.sqrt(2) / 2)
        info = SpectrumInfo((0.8, 0.8 * zeta), lambda1=0.8, source="exact")
        report = build_report(info)
        assert report.classification.kind == INAPPLICABLE
        assert report.k_selected is None
        assert not report.practical

    def test_k_above_k_max_selects_none(self):
        info = SpectrumInfo((0.9, 0.8999 * np.exp(1j)), lambda1=0.9, source="exact")
        report = build_report(info)
        assert report.classification.kind == UNIQUE_DOMINANT
        assert report.k_bound == 9887
        assert report.k_geometric is None
        assert report.k_selected is None
        assert report.predicted_basic_rate is None
        assert report.predicted_accel_rate is None
        assert not report.practical
        assert "k_bound above k_max; no rates predicted" in report.lines()

    def test_k_max_caps_the_bound_too(self):
        info = SpectrumInfo(EX33, lambda1=0.9, source="exact")
        assert build_report(info, k_max=2).k_selected == 2
        report = build_report(info, k_max=1)
        assert (report.k_bound, report.k_geometric, report.k_selected) == (10, None, None)

    def test_family_selects_even_k(self):
        info = SpectrumInfo((0.8, -0.8, 0.2), lambda1=0.8, source="exact")
        report = build_report(info)
        assert report.classification.kind == ROOT_OF_UNITY_FAMILY
        assert report.k_bound == 2  # k0 = 2, and 0.2 / 0.8 already inside 1/3
        assert report.k_selected % 2 == 0
        assert report.predicted_basic_rate == pytest.approx(
            0.8**report.k_selected, abs=1e-12
        )

    def test_partial_info_uses_bound(self):
        info = SpectrumInfo((0.9,), lambda1=0.9, source="user_supplied", partial=True)
        report = build_report(info)
        assert report.k_geometric is None
        assert report.k_selected == 1

    def test_complex_lambda1_has_no_g_but_a_rate(self):
        lam1 = 0.9 * np.exp(1j * np.pi / 5)
        info = SpectrumInfo((lam1,), lambda1=lam1, source="user_supplied", partial=True)
        report = build_report(info)
        assert report.g_rate is None
        assert report.alpha is None
        assert report.predicted_accel_rate is not None
        assert 0.0 < report.predicted_accel_rate < 1.0

    def test_small_complex_lambda1_power_has_a_rate(self):
        report = build_report(SpectrumInfo(SMALL_COMPLEX, lambda1=SMALL_COMPLEX[0],
                                           source="user_supplied"))
        assert report.k_selected == 22
        # the largest root of the cubic tends to 3w as |w| grows
        assert report.predicted_accel_rate == pytest.approx(
            report.predicted_basic_rate / 3.0, rel=1e-9)

    @given(st.floats(0.05, 0.99), st.floats(-math.pi, math.pi),
           st.floats(0.0, 0.95), st.floats(-math.pi, math.pi))
    @example(0.3, 0.5, 0.99, 2.0)
    def test_complex_lambda1_rates_on_random_spectra(self, modulus, arg, ratio, arg2):
        lam1 = modulus * np.exp(1j * arg)
        info = SpectrumInfo((lam1, ratio * modulus * np.exp(1j * arg2)),
                            lambda1=lam1, source="exact")
        report = build_report(info)
        if report.k_selected is not None:
            assert 0.0 < report.predicted_accel_rate < report.predicted_basic_rate

    def test_complex_lambda1_rate_matches_scheme_decay(self):
        from gencheb.solvers import IterationSystem, generalized_chebyshev_iterate

        lam1 = 0.9 * np.exp(1j * np.pi / 5)
        lams = np.array([lam1, 0.2 * lam1, -0.15 * lam1], dtype=complex)
        info = SpectrumInfo(tuple(lams), lambda1=lam1, source="exact")
        report = build_report(info)
        assert report.k_selected == 1
        x = np.ones(3, dtype=complex)
        m = ComplexSparseMatrix.from_dense(np.diag(lams))
        mt = ComplexSparseMatrix.from_dense(np.diag(np.conj(lams)))
        sys_ = IterationSystem(M=m, g=x - lams * x, M_tilde=mt,
                               g_tilde=x - np.conj(lams) * x, lambda1=lam1)
        _, trace = generalized_chebyshev_iterate(sys_, steps=30, reference_x=x)
        # window ends before the error reaches the double-precision floor
        assert trace.fitted_rate(5, 25) == pytest.approx(
            report.predicted_accel_rate, abs=0.02
        )

    def test_report_lines_render(self):
        info = SpectrumInfo(EX33, lambda1=0.9, source="exact")
        lines = build_report(info).lines()
        assert any(line.startswith("k_bound: 10") for line in lines)
        assert any(line.startswith("k_geometric: 2") for line in lines)
        assert any("practical" in line for line in lines)


polar = st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@st.composite
def spectra(draw):
    """A unique dominant eigenvalue, a root-of-unity family of order 2-6, or a
    dominant pair at an arbitrary angle, each with random smaller others."""
    modulus = draw(st.floats(0.05, 0.99))
    lam1 = modulus * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    kind = draw(st.sampled_from(["unique", "family", "pair"]))
    if kind == "unique":
        dominant = [lam1]
    elif kind == "family":
        order = draw(st.integers(2, 6))
        dominant = list(lam1 * np.exp(2j * np.pi * np.arange(order) / order))
    else:
        dominant = [lam1, lam1 * np.exp(1j * draw(st.floats(0.01, 2 * math.pi - 0.01)))]
    others = [0.999 * modulus * r * np.exp(1j * t)
              for r, t in draw(st.lists(polar, max_size=6))]
    values = tuple(complex(v) for v in dominant + others)
    return SpectrumInfo(values, lambda1=max(values, key=abs), source="exact")


def separated(roots, gap=1e-2):
    return min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]) >= gap


class TestSinglePass:
    @given(spectra())
    def test_report_reads_the_public_selectors(self, info):
        report = build_report(info)
        assert report.classification == _dominance(info)[0]
        try:
            assert report.k_bound == select_k_bound(info)
        except InapplicableSpectrum:
            assert report.k_bound is None

    @given(spectra(), st.integers(1, 6))
    def test_membership_on_an_array_is_the_scalar_test(self, info, k):
        powers = (np.asarray(info.eigenvalues) / info.lambda1) ** k
        assert deltoid_contains(powers).tolist() == [
            deltoid_contains(complex(z)) for z in powers]

    @given(polar, st.floats(0.05, 3.0))
    def test_mu_max_is_the_largest_companion_root(self, lam, alpha):
        lam = lam[0] * np.exp(1j * lam[1])
        q = math.exp(-alpha)
        a, b, c = 1 + q + q * q, -(q + q * q + q**3), q**3
        roots = np.linalg.eigvals(np.array(
            [[0, 0, c], [1, 0, b * np.conj(lam)], [0, 1, a * lam]], dtype=complex))
        if separated(roots):
            assert mu_max(lam, alpha) == pytest.approx(max(abs(roots)), rel=1e-9)

    @given(st.floats(0.01, 0.99), st.floats(-math.pi, math.pi))
    def test_stream_decay_is_the_largest_companion_root(self, modulus, arg):
        w = 1.0 / (modulus * np.exp(1j * arg))
        roots = np.linalg.eigvals(np.array(
            [[0, 0, 1], [1, 0, -3 * np.conj(w)], [0, 1, 3 * w]], dtype=complex))
        if separated(roots):
            assert _stream_decay_rate(1.0 / w) == pytest.approx(
                1.0 / max(abs(roots)), rel=1e-9)

    def test_practical_constant_is_the_cubic_root(self):
        c = _PRACTICAL_CONSTANT
        assert abs(c**3 + c * c + 2.0 * c - 1.0) < 1e-15
        assert feasibility_threshold(1) == c

    def test_estimated_spectrum_uses_the_same_dominance_tolerance(self):
        pair = (0.9, 0.8995)
        estimated = build_report(SpectrumInfo(pair, lambda1=0.9, source="estimated"))
        exact = build_report(SpectrumInfo(pair, lambda1=0.9, source="exact"))
        assert estimated.classification == exact.classification
        assert estimated.k_bound == exact.k_bound == 1977


class TestInfoValidation:
    @pytest.mark.parametrize("values, lam1", [
        ((0.9, math.nan), 0.9), ((math.nan, 0.9), 0.9), ((0.5, math.inf), 0.5),
        ((0.5,), complex(0.5, math.nan)), ((math.nan,), math.nan),
        ((complex(0.0, -math.inf),), complex(0.0, -math.inf)),
    ])
    def test_non_finite_values_refused(self, values, lam1):
        with pytest.raises(ValueError, match="must be finite"):
            SpectrumInfo(values, lambda1=lam1, source="user_supplied")

    def test_lambda1_must_dominate(self):
        with pytest.raises(ValueError):
            SpectrumInfo((0.9, 0.5), lambda1=0.5, source="exact")

    def test_lambda1_nonzero(self):
        with pytest.raises(ValueError):
            SpectrumInfo((0.0,), lambda1=0.0, source="exact")

    def test_spectral_radius_below_one(self):
        with pytest.raises(ValueError):
            SpectrumInfo((1.1,), lambda1=1.1, source="exact")

    def test_source_names(self):
        with pytest.raises(ValueError):
            SpectrumInfo((0.5,), lambda1=0.5, source="guessed")


# -- the per-eigenvalue code that SpectrumInfo, _dominance and
#    select_k_geometric replaced by one array, kept as the reference for bits

def _loop_info(eigenvalues, lambda1):
    """(eigenvalues, lambda1) as SpectrumInfo stored them, or its refusal."""
    lam1 = complex(lambda1)
    evs = tuple(complex(v) for v in eigenvalues)
    if not np.all(np.isfinite((lam1, *evs))):
        raise ValueError("lambda1 and the eigenvalues must be finite")
    if lam1 == 0:
        raise InapplicableSpectrum("dominant eigenvalue must be nonzero")
    if abs(lam1) >= 1.0:
        raise InapplicableSpectrum(f"spectral radius must be below one, got |{lam1}|")
    if not evs:
        raise ValueError("eigenvalue list must not be empty")
    if any(abs(v) > abs(lam1) * (1.0 + 1e-12) for v in evs):
        raise ValueError("lambda1 must have maximal modulus among eigenvalues")
    return evs, lam1


def _loop_dominance(info):
    bar = (1.0 - DOMINANCE_TOL) * abs(info.lambda1)
    evs = info.eigenvalues.tolist()  # Python complex, as the tuple held them
    mods = list(map(abs, evs))
    dominant = [v for v, r in zip(evs, mods) if r >= bar]
    ratio = max((r for r in mods if r < bar), default=0.0) / abs(info.lambda1)
    k0 = 1
    for i, a in enumerate(dominant):
        for b in dominant[i + 1:]:
            order = _root_of_unity_order(a / b)
            if order is None:
                return Classification(INAPPLICABLE), None
            k0 = math.lcm(k0, order)
    kind = UNIQUE_DOMINANT if k0 == 1 else ROOT_OF_UNITY_FAMILY
    return Classification(kind, k0), k0 * _smallest_k_for_ratio(ratio)


def _loop_k_geometric(info, k_max=DEFAULT_ROU_MAX_ORDER):
    quotients = np.asarray(info.eigenvalues, dtype=complex) / complex(info.lambda1)
    powers = quotients.copy()
    for k in range(1, k_max + 1):
        if np.all(deltoid_contains(powers)):
            return k
        powers = powers * quotients
    return None


TINY = np.finfo(float).tiny


def _bits(values):
    return np.array(values, dtype=complex, ndmin=1).view(np.uint64).tolist()


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except (ValueError, ArithmeticError) as exc:
        return "refused", type(exc)


@st.composite
def edge_spectra(draw):
    """(eigenvalues, lambda1) on the edges of the validation and of the
    dominance test: moduli at and one ulp around the 1e-12 slack and the
    DOMINANCE_TOL bar, signed zeros, root-of-unity families, non-finite and
    subnormal values, and single eigenvalues, in the number types callers pass."""
    modulus = draw(st.one_of(st.floats(1e-3, 0.999), st.sampled_from(
        [1e-320, 5e-324, 2.2250738585072014e-308, 0.9999999999999999, 1.0, 0.0])))
    axis = draw(st.sampled_from([1, -1, 1j, -1j, None]))
    lam1 = (complex(modulus * np.exp(1j * draw(st.floats(-math.pi, math.pi))))
            if axis is None else complex(modulus * axis))
    lam1 = complex(lam1.real, draw(st.sampled_from([lam1.imag, -lam1.imag])))
    ulp = draw(st.integers(-1, 1))
    angles = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -math.pi, math.pi, 8)

    def at(r):  # modulus r, or one ulp off, on an axis or at eight angles
        r = float(np.nextafter(r, math.inf if ulp > 0 else 0.0)) if ulp else r
        turn = draw(st.sampled_from([1, -1, 1j, -1j, None]))
        return list(r * np.exp(1j * angles)) if turn is None else [r * turn]

    pieces = draw(st.lists(st.sampled_from(
        ["slack", "bar", "family", "zero", "nonfinite", "small"]), max_size=4))
    values = [] if draw(st.booleans()) else [lam1]
    for piece in pieces:
        if piece == "slack":
            values += at(abs(lam1) * (1.0 + 1e-12))
        elif piece == "bar":
            values += at((1.0 - DOMINANCE_TOL) * abs(lam1))
        elif piece == "family":
            order = draw(st.integers(2, 8))
            values += list(lam1 * np.exp(2j * np.pi * np.arange(1, order) / order))
        elif piece == "zero":
            values.append(complex(draw(st.sampled_from([0.0, -0.0])),
                                  draw(st.sampled_from([0.0, -0.0]))))
        elif piece == "nonfinite":
            values.append(complex(draw(st.sampled_from([math.nan, math.inf, -math.inf])),
                                  draw(st.sampled_from([0.0, math.nan, -math.inf]))))
        else:
            values += at(abs(lam1) * draw(st.floats(0.0, 0.999)))
    forms = [complex, np.complex128, lambda z: z.real, lambda z: np.float64(z.real)]
    values = [draw(st.sampled_from(forms[:4 if v.imag == 0 else 2]))(complex(v))
              for v in values]
    return tuple(values), draw(st.sampled_from([lam1, np.complex128(lam1)]))


class TestOneArrayGivesTheLoopBits:
    @given(edge_spectra(), st.booleans())
    @example(((1e-320 + 0j,), 1e-320 + 0j), False)
    @example(((0.9, 0.9 * (1.0 + 1e-12)), 0.9 + 0j), False)
    @example(((0.8, -0.8, 0.8j, -0.8j), 0.8 + 0j), False)
    @example(((-0.0, complex(0.0, -0.0), 0.5), 0.5 + 0j), False)
    def test_info_selectors_and_report(self, case, partial):
        values, lam1 = case
        want = _outcome(_loop_info, values, lam1)
        got = _outcome(SpectrumInfo, values, lam1, "exact", partial)
        if got == ("refused", InapplicableSpectrum) and abs(complex(lam1)) < TINY:
            # a subnormal lambda1 is refused first; where the loop accepted
            # it, its report raised or had no k, as every |lambda1^k| is
            # below the smallest normal double
            assert want[0] == "value" or issubclass(want[1], ValueError)
            return
        if want[0] == "refused":
            assert got == want
            return
        info = got[1]
        assert type(info.lambda1) is complex and _bits(info.lambda1) == _bits(want[1][1])
        assert info.eigenvalues.dtype == complex and not info.eigenvalues.flags.writeable
        assert _bits(info.eigenvalues) == _bits(want[1][0])
        assert _dominance(info) == _loop_dominance(info)
        for k_max in (1, 3, DEFAULT_ROU_MAX_ORDER):
            assert select_k_geometric(info, k_max) == _loop_k_geometric(info, k_max)
            report = _outcome(lambda: build_report(info, k_max).lines())
            with mock.patch.object(spectrum, "_dominance", _loop_dominance), \
                    mock.patch.object(spectrum, "select_k_geometric", _loop_k_geometric):
                assert report == _outcome(lambda: build_report(info, k_max).lines())

    @pytest.mark.parametrize("values", [
        None, 0.5, [[0.5, 0.1]], [[0.5]], [None], [b"0.5"], ["half"], [object()],
        [np.array([0.5])], [1.5e308 + 1.5e308j],
    ])
    def test_what_the_loop_refused_is_refused(self, values):
        with pytest.raises((TypeError, ValueError, OverflowError)):
            _loop_info(values, 0.5)
        with pytest.raises((TypeError, ValueError)):  # and no numpy warning
            SpectrumInfo(values, lambda1=0.5)
