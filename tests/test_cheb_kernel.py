import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gencheb.cheb_kernel import (
    _FLOOR,
    ChebCoefficientStream,
    deltoid_contains,
    eval_f,
    membership_defect,
    phi1,
    power_preimage_contains,
)
from gencheb.errors import InapplicableSpectrum


class TestPhi1:
    def test_origin(self):
        assert phi1(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_cusp_all_terms_coincide(self):
        # at (1/3, 2/3) the three exponentials are all the same cube root of 1
        terms = [
            np.exp(2j * np.pi * (1 / 3)),
            np.exp(-2j * np.pi * (2 / 3)),
            np.exp(2j * np.pi * (2 / 3 - 1 / 3)),
        ]
        cusp = np.exp(2j * np.pi / 3)
        for t in terms:
            assert abs(t - cusp) < 1e-14
        assert abs(phi1(1 / 3, 2 / 3) - cusp) < 1e-14

    def test_diagonal_is_real_in_range(self):
        for t in np.linspace(0.0, 1.0, 501):
            v = phi1(t, t)
            assert abs(v.imag) < 1e-15
            assert -1 / 3 - 1e-12 <= v.real <= 1.0 + 1e-12

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(7)
        th = rng.random((200, 2))
        vals = phi1(th[:, 0], th[:, 1])
        assert np.all(np.abs(vals) <= 1.0 + 1e-14)


class TestEvalF:
    def test_listed_degree_two(self):
        # 3 i^2 - 2 conj(i) = -3 + 2i
        assert eval_f(2, 1j) == pytest.approx(-3 + 2j, abs=1e-14)

    def test_cusp_fixed_point(self):
        for m in range(31):
            assert eval_f(m, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            eval_f(-1, 0.5)

    def test_degree_three_splits_the_angle(self):
        rng = np.random.default_rng(3)
        for t1, t2 in rng.random((20, 2)):
            x = complex(phi1(t1, t2))
            assert eval_f(3, x) == pytest.approx(
                complex(phi1(3 * t1, 3 * t2)), abs=1e-12
            )

    def test_functional_equation_up_to_degree_50(self):
        rng = np.random.default_rng(11)
        for t1, t2 in rng.random((200, 2)):
            x = complex(phi1(t1, t2))
            xb = x.conjugate()
            f0, f1, f2 = 1.0 + 0j, x, 3 * x * x - 2 * xb
            window = [f0, f1, f2]
            for m in range(51):
                if m < 3:
                    fm = window[m]
                else:
                    fm = 3 * x * window[2] - 3 * xb * window[1] + window[0]
                    window = [window[1], window[2], fm]
                assert abs(fm - phi1(m * t1, m * t2)) <= 1e-9

    def test_values_stay_in_deltoid(self):
        rng = np.random.default_rng(13)
        for t1, t2 in rng.random((200, 2)):
            x = complex(phi1(t1, t2))
            for m in range(0, 51, 5):
                assert deltoid_contains(eval_f(m, x))


class TestDeltoid:
    def test_center_inside(self):
        assert deltoid_contains(0.0)

    def test_cusp_on_boundary(self):
        assert membership_defect(1.0) == pytest.approx(0.0, abs=1e-15)
        assert deltoid_contains(1.0)

    def test_disc_point_inside(self):
        assert deltoid_contains(0.3)

    def test_minus_one_outside(self):
        assert membership_defect(-1.0) == pytest.approx(16.0, abs=1e-12)
        assert not deltoid_contains(-1.0)

    def test_quartic_vanishes_on_boundary_curve(self):
        t = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False)
        z = (2 * np.exp(1j * t) + np.exp(-2j * t)) / 3.0
        assert np.max(np.abs(membership_defect(z))) <= 1e-12

    def test_quartic_nonpositive_on_phi1_grid(self):
        t1, t2 = np.meshgrid(np.linspace(0, 1, 100), np.linspace(0, 1, 100))
        vals = phi1(t1, t2)
        assert np.max(membership_defect(vals)) <= 1e-12


class TestPowerPreimage:
    def test_example_quotient(self):
        q = (0.4 + 0.7j) / 0.9
        assert not power_preimage_contains(q, 1)
        assert power_preimage_contains(q, 2)

    def test_origin_any_power(self):
        for k in (1, 2, 5, 17):
            assert power_preimage_contains(0.0, k)

    def test_small_disc_is_always_inside(self):
        # |z| <= 3**(-1/k) puts z**k inside the radius-1/3 disc, hence inside
        rng = np.random.default_rng(5)
        for k in range(1, 7):
            radius = 3.0 ** (-1.0 / k)
            mods = radius * rng.random(100)
            args = 2 * np.pi * rng.random(100)
            for z in mods * np.exp(1j * args):
                assert power_preimage_contains(complex(z), k)

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError):
            power_preimage_contains(0.5, 0)


class TestCoefficientStream:
    def test_identity_first_step(self):
        c1, c2, c3 = ChebCoefficientStream(0.9).step()
        assert c1 - c2 + c3 == pytest.approx(1.0, abs=1e-13)

    def test_identity_many_lambdas(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            modulus = 0.1 + 0.89 * rng.random()
            lam = modulus * np.exp(2j * np.pi * rng.random())
            stream = ChebCoefficientStream(lam)
            for _ in range(3, 201):
                c1, c2, c3 = stream.step()
                assert abs(c1 - c2 + c3 - 1.0) <= 1e-12

    def test_real_lambda_gives_real_coefficients_and_known_limits(self):
        lam = 0.81
        # alpha solves (e^a + e^-a + 1)/3 = 1/lam; larger quadratic root
        b = 3.0 / lam - 1.0
        q = 2.0 / (b + np.sqrt(b * b - 4.0))  # e^{-alpha}
        stream = ChebCoefficientStream(lam)
        for _ in range(3, 201):
            c1, c2, c3 = stream.step()
            assert abs(c1.imag) < 1e-13 and abs(c2.imag) < 1e-13
        assert c1.real == pytest.approx(1 + q + q * q, abs=1e-10)
        assert c2.real == pytest.approx(q + q * q + q**3, abs=1e-10)
        assert c3.real == pytest.approx(q**3, abs=1e-10)

    def test_complex_lambda_identity_only(self):
        stream = ChebCoefficientStream(0.9 * np.exp(1j * np.pi / 7))
        saw_complex = False
        for _ in range(3, 101):
            c1, c2, c3 = stream.step()
            assert abs(c1 - c2 + c3 - 1.0) <= 1e-12
            saw_complex = saw_complex or abs(c1.imag) > 1e-6
        assert saw_complex

    def test_rescaling_window_leaves_coefficients_unchanged(self):
        a = ChebCoefficientStream(0.77 + 0.1j)
        b = ChebCoefficientStream(0.77 + 0.1j)
        for _ in range(5):
            a.step()
            b.step()
        b.window = tuple(f * 1e3 for f in b.window)
        ca = a.step()
        cb = b.step()
        for x, y in zip(ca, cb):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x))

    @pytest.mark.parametrize("lam1", [0.05, 0.3, 0.729, 0.9, 0.999, 0.5 + 0.4j, -0.7])
    def test_scalar_window_gives_the_array_window_bits(self, lam1):
        stream, reference = ChebCoefficientStream(lam1), _ArrayWindowStream(lam1)
        for _ in range(300):
            got, want = np.array(stream.step()), np.array(reference.step())
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("lam", [np.nextafter(_FLOOR, 0), 0.0, 1.0, 1.5, -2.0, 1j])
    def test_invalid_lambda_rejected(self, lam):
        with pytest.raises(InapplicableSpectrum, match="floor"):
            ChebCoefficientStream(lam)

    def test_floor_is_accepted(self):
        c1, c2, c3 = ChebCoefficientStream(_FLOOR).step()
        assert abs(c1 - c2 + c3 - 1.0) <= 1e-12

    @settings(max_examples=50)
    @given(log_modulus=st.floats(np.log(_FLOOR), 0.0, exclude_max=True),
           argument=st.one_of(st.sampled_from([0.0, np.pi, 2 * np.pi / 3, -2 * np.pi / 3]),
                              st.floats(-np.pi, np.pi)))
    @example(log_modulus=np.log(_FLOOR), argument=2 * np.pi / 3)
    @example(log_modulus=np.log1p(-2 ** -52), argument=0.0)
    def test_no_degenerate_step_from_the_floor_to_one(self, log_modulus, argument):
        # why the stream needs no check per step: from the floor up, every
        # coefficient is finite and f_m stays the window's largest value (up to
        # a half), so a step can neither overflow nor divide by a vanished f_m
        lam = np.exp(log_modulus) * np.exp(1j * argument)
        assume(_FLOOR <= abs(lam) < 1.0)
        stream = ChebCoefficientStream(lam)
        for _ in range(3000):
            c1, c2, c3 = stream.step()
            assert np.isfinite([c1, c2, c3]).all()
            assert abs(c1 - c2 + c3 - 1.0) <= 1e-12
            assert abs(stream.window[2]) >= 0.5



class _ArrayWindowStream:
    """The coefficient stream with its window kept as a numpy array, divided
    by its scale as one array each step: the reference for the bits."""

    def __init__(self, lambda1):
        self.lambda1 = complex(lambda1)
        self.w = 1.0 / self.lambda1
        w, wb = self.w, self.w.conjugate()
        self.window = np.array([1.0 + 0j, w, 3 * w * w - 2 * wb])

    def step(self):
        w, wb = self.w, self.w.conjugate()
        f_prev3, f_prev2, f_prev1 = self.window
        f_m = 3 * w * f_prev1 - 3 * wb * f_prev2 + f_prev3
        scale = max(abs(f_m), abs(f_prev1), abs(f_prev2))
        c1 = 3 * f_prev1 / (self.lambda1 * f_m)
        c2 = 3 * f_prev2 / (self.lambda1.conjugate() * f_m)
        c3 = f_prev3 / f_m
        self.window = np.array([f_prev2, f_prev1, f_m]) / scale
        return c1, c2, c3
