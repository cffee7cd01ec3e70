import dataclasses
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencheb.errors import (
    Divergence,
    MissingLambda1,
    MissingTildeData,
    NotConverged,
)
from gencheb import solvers
from gencheb.cheb_kernel import ChebCoefficientStream
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system, example33_fixture
from gencheb.linalg import ComplexSparseMatrix
from gencheb.solvers import (
    SCHEMES,
    IterationSystem,
    basic_iterate,
    generalized_chebyshev_iterate,
    run,
    solve,
    transform_system,
)


def dense_system(dense, x=None, tilde_dense=None, lambda1=None, k=1):
    """Build a system from dense data with g derived from a reference x."""
    dense = np.asarray(dense, dtype=complex)
    n = dense.shape[0]
    if x is None:
        x = np.ones(n, dtype=complex)
    m = ComplexSparseMatrix.from_dense(dense)
    g = x - dense @ x
    m_tilde = g_tilde = None
    if tilde_dense is not None:
        m_tilde = ComplexSparseMatrix.from_dense(np.asarray(tilde_dense, complex))
        g_tilde = x - np.asarray(tilde_dense, complex) @ x
    return IterationSystem(M=m, g=g, M_tilde=m_tilde, g_tilde=g_tilde,
                           lambda1=lambda1, k=k), x


def run_iterates(sys_, scheme, steps, **kwargs):
    """y_0 .. y_steps, y_m being the final iterate of a run of m steps.

    The loop is deterministic, so y_m is the m-th iterate of every longer run.
    """
    return [run(sys_, scheme, steps=m, **kwargs)[0] for m in range(steps + 1)]


def random_contraction(rng, n, radius):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (radius / max(np.abs(np.linalg.eigvals(a))))


class TestBasic:
    def test_zero_matrix_lands_on_g(self):
        sys_, x = dense_system(np.zeros((3, 3)), x=np.array([2.0, -1.0, 5.0 + 1j]))
        iterates = run_iterates(sys_, "basic", 4, reference_x=x)
        _, trace = basic_iterate(sys_, steps=4, reference_x=x)
        for it in iterates[1:]:
            assert np.allclose(it, sys_.g, atol=0)
        assert trace.err_norms[-1] == pytest.approx(0.0, abs=1e-14)

    def test_exact_start_is_fixed(self):
        rng = np.random.default_rng(0)
        sys_, x = dense_system(random_contraction(rng, 6, 0.8))
        iterates = run_iterates(sys_, "basic", 100, x0=x, reference_x=x)
        for it in iterates:
            assert np.linalg.norm(it - x) <= 1e-11

    def test_divergence_guard(self):
        sys_, _ = dense_system(1.5 * np.eye(3))
        with pytest.raises(Divergence):
            basic_iterate(sys_, steps=500)

    def test_final_iterate_is_the_last_step(self):
        rng = np.random.default_rng(2)
        sys_, x = dense_system(random_contraction(rng, 5, 0.5))
        y, trace = basic_iterate(sys_, steps=7, reference_x=x)
        assert len(trace.steps) == 7
        assert float(np.linalg.norm(x - y)) == trace.err_norms[-1]

    def test_ratio_definition(self):
        rng = np.random.default_rng(1)
        sys_, x = dense_system(random_contraction(rng, 5, 0.5))
        _, trace = basic_iterate(sys_, steps=10, reference_x=x)
        for i in range(1, len(trace.steps)):
            assert trace.ratios[i] == pytest.approx(
                trace.err_norms[i] / trace.err_norms[i - 1], rel=1e-12
            )

    def test_rates_without_a_reference_are_taken_of_residuals(self):
        sys_, _ = dense_system(np.eye(3) * 0.5)
        _, trace = basic_iterate(sys_, steps=8)
        assert trace.err_norms == [None] * 8
        assert trace.series() == (trace.steps, trace.residuals)
        assert trace.geometric_mean_ratio(2, 6) == pytest.approx(0.5, rel=1e-12)
        assert trace.fitted_rate(1, 8) == pytest.approx(0.5, rel=1e-12)


class TestTransform:
    def test_k_one_holds_the_systems_own_sides(self):
        sys_, _ = dense_system(np.eye(2) * 0.5, tilde_dense=np.eye(2) * 0.5, lambda1=0.5)
        out = transform_system(sys_, 1)
        assert out.system is sys_ and out.k == 1
        assert out.g is sys_.g and out.g_tilde is sys_.g_tilde and out.lambda1 is sys_.lambda1

    def test_scalar_diagonal_side(self):
        lam = 0.3 + 0.4j
        g = np.array([1.0 + 0j, 2.0])
        sys_ = IterationSystem(
            M=ComplexSparseMatrix.from_dense(lam * np.eye(2)), g=g
        )
        out = transform_system(sys_, 2)
        assert np.allclose(out.g, (1 + lam) * g, atol=1e-15)
        assert out.system is sys_ and out.k == 2 and out.g_tilde is None

    def test_lambda1_is_raised_to_k(self):
        sys_, _ = dense_system(np.eye(2) * 0.5, lambda1=0.5)
        assert transform_system(sys_, 3).lambda1 == pytest.approx(0.125)

    def test_fixed_points_agree_with_dense_solves(self):
        rng = np.random.default_rng(7)
        dense = random_contraction(rng, 20, 0.8)
        sys_, _ = dense_system(dense)
        out = transform_system(sys_, 3)
        direct = np.linalg.solve(np.eye(20) - dense, sys_.g)
        m3 = np.linalg.matrix_power(dense, 3)
        transformed = np.linalg.solve(np.eye(20) - m3, out.g)
        assert np.linalg.norm(direct - transformed) <= 1e-10

    def test_double_transform_rejected(self):
        sys_, _ = dense_system(np.eye(2) * 0.5)
        with pytest.raises(ValueError):
            transform_system(transform_system(sys_, 2), 2)

    def test_spends_nothing_until_a_side_is_read(self, product_counts):
        sys_, _ = dense_system(np.eye(3) * 0.5, tilde_dense=np.eye(3) * 0.5, lambda1=0.5)
        out = transform_system(sys_, 3)
        assert out.lambda1 == pytest.approx(0.125)
        assert not product_counts

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("side, matrix", [("g", "M"), ("g_tilde", "M_tilde")])
    def test_a_side_costs_k_minus_one_products_at_its_first_read_only(
        self, product_counts, side, matrix, k
    ):
        sys_, _ = dense_system(np.eye(3) * 0.5, tilde_dense=np.eye(3) * 0.5, lambda1=0.5)
        out = transform_system(sys_, k)
        first = getattr(out, side)
        spent = dict(product_counts)
        assert spent == ({id(getattr(sys_, matrix)): k - 1} if k > 1 else {})
        assert getattr(out, side) is first and product_counts == spent

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_order_refused(self, k):
        sys_, _ = dense_system(np.eye(2) * 0.5)
        with pytest.raises(ValueError, match="positive"):
            transform_system(sys_, k)


class TestClassical:
    def test_zero_matrix_converges_in_one_step(self):
        sys_, x = dense_system(np.zeros((3, 3)), x=np.array([1.0, 2.0, 3.0]),
                               lambda1=0.5)
        iterates = run_iterates(sys_, "classical", 3, reference_x=x)
        assert np.allclose(iterates[1], x, atol=1e-14)

    def test_beats_basic_on_symmetric_tridiagonal(self):
        n = 50
        tri = np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
        dense = tri * (0.95 / np.cos(np.pi / (n + 1)))
        sys_, x = dense_system(dense, lambda1=0.95)
        _, btrace = basic_iterate(sys_, steps=20, reference_x=x)
        _, ctrace = run(sys_, "classical", steps=20, reference_x=x)
        assert ctrace.err_norms[-1] < btrace.err_norms[-1]

    def test_scalar_closed_form(self):
        # 1-d system M = 0.9, g = 0.1, x0 = 0: the error after m steps is
        # 1/C_m(1/0.9), so y_m = 1 - 1/C_m(1/0.9)
        sys_ = IterationSystem(
            M=ComplexSparseMatrix.from_dense([[0.9]]), g=np.array([0.1 + 0j]),
            lambda1=0.9,
        )
        iterates = run_iterates(sys_, "classical", 30)
        t = 1.0 / 0.9
        c_prev, c_cur = 1.0, t
        for m in range(2, 31):
            c_prev, c_cur = c_cur, 2 * t * c_cur - c_prev
            assert iterates[m][0] == pytest.approx(1.0 - 1.0 / c_cur, abs=1e-12)

    def test_fixed_point_preserved(self):
        rng = np.random.default_rng(3)
        dense = (random_contraction(rng, 6, 0.7) + 0j).real * 1.0  # real spectrum not needed for fixed point
        sys_, x = dense_system(dense, lambda1=0.7)
        iterates = run_iterates(sys_, "classical", 100, x0=x, reference_x=x)
        for it in iterates:
            assert np.linalg.norm(it - x) <= 1e-11

    def test_requires_lambda1(self):
        sys_, _ = dense_system(np.eye(2) * 0.5)
        with pytest.raises(MissingLambda1):
            run(sys_, "classical", steps=5)

    @staticmethod
    def scalar_system(rho):
        """M = rho, g = 1 - rho: the fixed point is 1."""
        return IterationSystem(M=ComplexSparseMatrix.from_dense([[rho]]),
                               g=np.array([1.0 - rho + 0j]), lambda1=rho)

    @settings(max_examples=40)
    @given(st.floats(0.05, 0.999))
    @example(0.05)
    @example(0.999)
    def test_scalar_iterates_against_exact_chebyshev_values(self, rho):
        # from x0 = 0 the error after m steps is 1/C_m(1/rho); C_m in exact
        # rational arithmetic from the three-term recurrence
        iterates = run_iterates(self.scalar_system(rho), "classical", 40)
        t = 1 / Fraction(rho)
        c_prev, c_cur = Fraction(1), t
        for m in range(2, 41):
            c_prev, c_cur = c_cur, 2 * t * c_cur - c_prev
            assert abs(iterates[m][0] - (1.0 - float(1 / c_cur))) <= 1e-12

    @pytest.mark.parametrize("lambda1", [0.0, 1.0, -1.0, 1.5, 1j, 0.8 + 0.8j])
    def test_rho_outside_the_unit_interval_refused(self, lambda1):
        sys_ = self.scalar_system(0.5)
        sys_.lambda1 = lambda1
        with pytest.raises(ValueError, match="spectral radius"):
            run(sys_, "classical", steps=5)

    def test_tiny_rho_runs_500_finite_steps(self):
        # C_m(100) overflows near m = 134; the weights themselves stay near 1
        y, trace = run(self.scalar_system(0.01), "classical", steps=500)
        assert len(trace.steps) == 500
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(trace.residuals))


class TestGeneralized:
    def test_requires_tilde(self):
        sys_, _ = dense_system(np.eye(2) * 0.5, lambda1=0.5)
        with pytest.raises(MissingTildeData):
            generalized_chebyshev_iterate(sys_, steps=5)

    def test_requires_lambda1(self):
        sys_, _ = dense_system(
            np.eye(2) * 0.5, tilde_dense=np.eye(2) * 0.5
        )
        with pytest.raises(MissingLambda1):
            generalized_chebyshev_iterate(sys_, steps=5)

    def test_fixed_point_preserved(self):
        diag = np.diag([0.9, 0.3, -0.2])
        sys_, x = dense_system(diag, tilde_dense=np.conj(diag), lambda1=0.9)
        iterates = run_iterates(sys_, "generalized", 100, x0=x, reference_x=x)
        for it in iterates:
            assert np.linalg.norm(it - x) <= 1e-11

    def test_diagonal_matches_scalar_formula(self):
        # small spot check; the full oracle suite lives in the acceptance tests
        lams = np.array([0.9, 0.3, -0.2], dtype=complex)
        sys_, x = dense_system(np.diag(lams), tilde_dense=np.diag(np.conj(lams)),
                               lambda1=0.9)
        iterates = run_iterates(sys_, "generalized", 25, reference_x=x)
        lam1 = 0.9
        for i, lam in enumerate(lams):
            y = lam / lam1
            w = 1.0 / lam1
            num = [1.0 + 0j, y, 3 * y * y - 2 * np.conj(y)]
            den = [1.0 + 0j, w, 3 * w * w - 2 * np.conj(w)]
            for m in range(25 + 1):
                if m >= 3:
                    num = [num[1], num[2],
                           3 * y * num[2] - 3 * np.conj(y) * num[1] + num[0]]
                    den = [den[1], den[2],
                           3 * w * den[2] - 3 * np.conj(w) * den[1] + den[0]]
                p_m = (num[min(m, 2)] if m < 3 else num[2]) / (
                    den[min(m, 2)] if m < 3 else den[2]
                )
                eta = x[i] - iterates[m][i]
                assert abs(eta - p_m) <= 1e-9 * (1.0 + abs(p_m))

    def test_example33_transformed_rate(self):
        fixture = example33_fixture()
        work = transform_system(fixture.system, 2)
        _, trace = generalized_chebyshev_iterate(
            work, steps=40, reference_x=fixture.x, residual_system=fixture.system
        )
        assert trace.fitted_rate(10, 38) == pytest.approx(0.442, abs=0.02)


class TestMatvecAccounting:
    def test_basic_counts(self):
        sys_, x = dense_system(np.eye(3) * 0.5)
        _, trace = basic_iterate(sys_, steps=5, reference_x=x)
        assert trace.matvecs == [0, 1, 1, 1, 1]  # M 0 costs nothing

    def test_transformed_basic_counts(self):
        # `run` applies the system's own k; the residuals are those the former
        # `run(transform_system(sys_, 2), ..., residual_system=sys_)` recorded
        sys_, x = dense_system(np.eye(3) * 0.5)
        _, trace = run(dataclasses.replace(sys_, k=2), "basic", steps=4, reference_x=x)
        assert trace.k == 2
        assert trace.matvecs == [0, 2, 2, 2]
        assert trace.residuals == [0.21650635094610965, 0.05412658773652741,
                                   0.013531646934131853, 0.0033829117335329633]

    def test_classical_counts(self):
        sys_, x = dense_system(np.eye(3) * 0.5, lambda1=0.5)
        _, trace = run(sys_, "classical", steps=6, reference_x=x)
        assert trace.matvecs == [0, 1, 1, 1, 1, 1]

    def test_generalized_counts_untransformed(self):
        diag = np.diag([0.9, 0.3, -0.2])
        sys_, x = dense_system(diag, tilde_dense=np.conj(diag), lambda1=0.9)
        _, trace = generalized_chebyshev_iterate(sys_, steps=6, reference_x=x)
        assert trace.matvecs == [0, 1, 2, 2, 2, 2]  # the seed's Mt 0 is free too

    def test_generalized_counts_transformed(self):
        diag = np.diag([0.9, 0.3, -0.2])
        sys_, x = dense_system(diag, tilde_dense=np.conj(diag), lambda1=0.9)
        _, trace = run(dataclasses.replace(sys_, k=2), "generalized", steps=6,
                       reference_x=x)
        assert trace.matvecs == [0, 2, 4, 4, 4, 4]
        assert trace.residuals == [0.11328724553099521, 0.0937059764310878,
                                   0.31708494767338885, 0.04706429990993859,
                                   0.017527102275404008, 0.026523573116011532]


class TestSolve:
    def test_zero_matrix_converges_first_step(self):
        sys_, _ = dense_system(np.zeros((3, 3)), x=np.array([1.0, -2.0, 0.5]))
        solution, trace = solve(sys_, residual_tol=1e-12)
        assert np.allclose(solution, sys_.g, atol=0)
        assert trace.steps == [1]

    def test_not_converged_carries_best_and_trace(self):
        rng = np.random.default_rng(5)
        sys_, _ = dense_system(random_contraction(rng, 8, 0.95))
        with pytest.raises(NotConverged) as info:
            solve(sys_, max_steps=3, residual_tol=1e-14)
        assert info.value.best is not None
        assert len(info.value.trace.steps) == 3

    def test_residual_measured_against_original(self):
        fixture = example33_fixture()
        sys_ = IterationSystem(
            M=fixture.system.M, g=fixture.system.g,
            M_tilde=fixture.system.M_tilde, g_tilde=fixture.system.g_tilde,
            lambda1=0.9, k=2,
        )
        solution, trace = solve(sys_, max_steps=100, residual_tol=1e-8,
                                scheme="generalized")
        # converged in the original system's residual, not just the transformed one
        assert fixture.system.residual_norm(solution) <= 1e-8 * np.linalg.norm(
            fixture.system.g
        )
        assert trace.k == 2

    def test_generalized_beats_basic_matvec_budget(self):
        fixture = example33_fixture()
        base = fixture.system
        with_k = IterationSystem(M=base.M, g=base.g, M_tilde=base.M_tilde,
                                 g_tilde=base.g_tilde, lambda1=0.9, k=2)
        _, basic_trace = solve(with_k, max_steps=500, residual_tol=1e-8)
        _, gen_trace = solve(with_k, max_steps=500, residual_tol=1e-8,
                             scheme="generalized")
        assert gen_trace.total_matvecs < basic_trace.total_matvecs

    def test_generalized_beats_basic_on_normal_sparse_system(self):
        # same spectrum shape as the large experiment, at desk scale
        gen = assemble_normal_system(NormalMatrixSpec(n=200, block_size=40, seed=1))
        base = gen.system
        with_k = IterationSystem(M=base.M, g=base.g, M_tilde=base.M_tilde,
                                 g_tilde=base.g_tilde, lambda1=0.9, k=3)
        _, basic_trace = solve(with_k, max_steps=500, residual_tol=1e-8)
        _, gen_trace = solve(with_k, max_steps=500, residual_tol=1e-8,
                             scheme="generalized")
        assert gen_trace.total_matvecs < basic_trace.total_matvecs

    def test_short_run_overtakes_basic_and_heads_to_asymptote(self):
        fixture = example33_fixture()
        work = transform_system(fixture.system, 2)
        _, gen_trace = generalized_chebyshev_iterate(
            work, steps=10, reference_x=fixture.x, residual_system=fixture.system
        )
        _, basic_trace = basic_iterate(
            work, steps=10, reference_x=fixture.x, residual_system=fixture.system
        )
        # the accelerated scheme wins by m = 10, with its mean decay already
        # between the asymptote and the basic rate
        assert gen_trace.err_norms[-1] < basic_trace.err_norms[-1]
        late = gen_trace.geometric_mean_ratio(5, 10)
        assert 0.40 < late < 0.81

    def test_rejects_transformed_input(self):
        sys_, _ = dense_system(np.eye(2) * 0.5)
        work = transform_system(sys_, 2)
        with pytest.raises(ValueError):
            solve(work)

    def test_rejects_unknown_scheme(self):
        sys_, _ = dense_system(np.eye(2) * 0.5)
        with pytest.raises(ValueError):
            solve(sys_, scheme="sor")

    def test_divergence_guard(self):
        sys_, _ = dense_system(2.0 * np.eye(2))
        with pytest.raises(Divergence):
            solve(sys_, max_steps=500, residual_tol=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
    def test_refuses_a_tolerance_that_is_not_finite_and_non_negative(
        self, product_counts, tol
    ):
        sys_, _ = dense_system(np.eye(3) * 0.5, x=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            run(sys_, "basic", steps=5, tol=tol, x0=np.ones(3))
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            solve(sys_, residual_tol=tol)
        assert not product_counts  # refused before any product

    def test_zero_tolerance_is_met_by_an_exact_residual(self):
        sys_, x = dense_system(np.zeros((3, 3)), x=np.array([1.0, -2.0, 0.5]))
        y, trace = run(sys_, "basic", steps=5, tol=0.0)
        assert np.array_equal(y, x) and trace.residuals == [0.0]


class TestDivergenceGuard:
    """One guard for every scheme, fixed-step or run to tolerance."""

    @pytest.mark.parametrize("tol", [None, 1e-12])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_is_guarded(self, scheme, tol):
        sys_, _ = dense_system(1.5 * np.eye(3), tilde_dense=1.5 * np.eye(3),
                               lambda1=0.5)
        with pytest.raises(Divergence) as info:
            run(sys_, scheme, steps=500, tol=tol)
        exc = info.value
        assert isinstance(exc, NotConverged)
        assert len(exc.trace.steps) < 500
        assert exc.trace.residuals[-1] > solvers.DIVERGENCE_GUARD * np.linalg.norm(sys_.g)
        best = min([exc.trace.initial_residual] + exc.trace.residuals)
        assert best == sys_.residual_norm(exc.best)
        assert f"at step {exc.trace.steps[-1]}" in str(exc)

    def test_non_finite_residual_trips_the_guard(self):
        # an initial residual near the float limit makes the guard itself
        # infinite; the residual that overflows to nan must still stop the run
        sys_, _ = dense_system(1.5 * np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Divergence) as info:
                run(sys_, "basic", steps=5000, x0=np.full(2, 1e300))
        trace = info.value.trace
        assert len(trace.steps) < 5000
        assert not np.isfinite(trace.residuals[-1])


class TestSystemValidation:
    def test_tilde_dimension_mismatch(self):
        from gencheb.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            IterationSystem(
                M=ComplexSparseMatrix.from_dense(np.eye(3)),
                g=np.zeros(3),
                M_tilde=ComplexSparseMatrix.from_dense(np.eye(4)),
                g_tilde=np.zeros(4),
            )

    @pytest.mark.parametrize("k", [2.0, 2.5, "2"])
    def test_refuses_a_k_that_is_not_an_integer(self, k):
        # a float k built, and `run` then died inside `range`
        sys_, _ = dense_system(np.eye(3) * 0.5)
        with pytest.raises(TypeError):
            dataclasses.replace(sys_, k=k)
        with pytest.raises(TypeError):
            transform_system(sys_, k)

    def test_takes_a_numpy_integer_k(self):
        sys_, _ = dense_system(np.eye(3) * 0.5)
        assert dataclasses.replace(sys_, k=np.int64(2)).k == 2
        assert transform_system(sys_, np.int32(3)).k == 3

    def test_tilde_pair_must_be_complete(self):
        with pytest.raises(ValueError):
            IterationSystem(
                M=ComplexSparseMatrix.from_dense(np.eye(3)),
                g=np.zeros(3),
                M_tilde=ComplexSparseMatrix.from_dense(np.eye(3)),
            )

    @pytest.mark.parametrize("operator", [np.eye(3) * 0.5, None, "M"],
                             ids=["ndarray", "None", "str"])
    def test_refuses_an_M_that_is_not_a_sparse_matrix(self, operator):
        # run multiplies by ComplexSparseMatrix alone; a dense M failed there
        # with an AttributeError
        with pytest.raises(TypeError, match="ComplexSparseMatrix"):
            IterationSystem(M=operator, g=np.ones(3))

    def test_refuses_an_M_tilde_that_is_not_a_sparse_matrix(self):
        sys_, _ = dense_system(np.eye(3) * 0.5)
        with pytest.raises(TypeError, match="ndarray"):
            dataclasses.replace(sys_, M_tilde=np.eye(3) * 0.5, g_tilde=np.ones(3))
        with pytest.raises(TypeError, match="PowerTransform"):
            dataclasses.replace(sys_, M_tilde=transform_system(sys_, 2), g_tilde=np.ones(3))


@pytest.mark.parametrize("n", [1, 400])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_residual_norm_is_the_bits_of_np_linalg_norm(n, scale):
    rng = np.random.default_rng(n)
    draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dense = draw(n, n) * (rng.random((n, n)) < 0.05) * 0.5 / n
    sys_ = IterationSystem(M=ComplexSparseMatrix.from_dense(dense), g=draw(n) * scale)
    for _ in range(20):
        y = draw(n) * scale
        my = sys_.M.matvec(y)
        want = float(np.linalg.norm(y - my - sys_.g))
        for got in (sys_.residual_norm(y), sys_.residual_norm(y, my)):
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_residual_norm_takes_real_vectors():
    sys_ = IterationSystem(M=ComplexSparseMatrix.from_dense(np.eye(2)), g=np.array([1j, 2.0]))
    y, my = np.array([1.0, 3.0]), np.array([0.5, 0.0])
    assert sys_.residual_norm(y, my) == float(np.linalg.norm(y - my - sys_.g))


def _solve_trace(sys_, scheme):
    """Trace of a short `solve`, whether or not it reached the tolerance."""
    try:
        return solve(sys_, max_steps=30, residual_tol=1e-10, scheme=scheme)[1]
    except NotConverged as exc:
        return exc.trace


def _fixed_trace(sys_, scheme):
    """Trace of a 30-step fixed run at the system's k."""
    return run(sys_, scheme, steps=30)[1]


def _fixed_trace_from_ones(sys_, scheme):
    """Trace of a 30-step fixed run at the system's k from the nonzero x0 = ones."""
    return run(sys_, scheme, steps=30, x0=np.ones(sys_.n))[1]


class TestSolveSharesTheResidualProduct:
    """`run` takes each residual from the M y that the next step's M^k y
    starts with: a run, to tolerance or fixed-step, from zero or not, spends
    its recurrence products plus one."""

    @pytest.fixture(scope="class")
    def normal_system(self):
        return assemble_normal_system(NormalMatrixSpec(n=200, block_size=40, seed=1)).system

    @pytest.mark.parametrize("mode", [_solve_trace, _fixed_trace, _fixed_trace_from_ones],
                             ids=["solve", "fixed", "fixed-x0"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", ["basic", "classical", "generalized"])
    def test_products_are_recurrence_plus_one(
        self, normal_system, monkeypatch, product_counts, scheme, k, mode
    ):
        calls, spent = product_counts, Counter()  # made by matvec or by the run's workspace

        def counted_sum(*args):
            before = calls.copy()
            side = geometric_sum(*args)
            spent.update(calls - before)  # a transformed side's products are not the loop's
            return side

        geometric_sum = solvers.geometric_sum_apply
        monkeypatch.setattr(solvers, "geometric_sum_apply", counted_sum)
        sys_ = dataclasses.replace(normal_system, k=k)
        trace = mode(sys_, scheme)
        base = calls.get(id(sys_.M), 0) - spent[id(sys_.M)]
        tilde = calls.get(id(sys_.M_tilde), 0) - spent[id(sys_.M_tilde)]
        steps = len(trace.steps)
        assert steps > 1
        # from step 2 on; from a zero start the seed's Mt^k 0 is not taken
        tilde_steps = steps - 1 if mode is _fixed_trace_from_ones else steps - 2
        assert tilde == (k * tilde_steps if scheme == "generalized" else 0)
        assert base + tilde == trace.total_matvecs + 1

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", ["basic", "classical", "generalized"])
    def test_residuals_match_the_fixed_step_path(self, normal_system, scheme, k):
        sys_ = dataclasses.replace(normal_system, k=k)
        trace = _solve_trace(sys_, scheme)
        _, fixed = run(sys_, scheme, steps=len(trace.steps))
        assert fixed.initial_residual == trace.initial_residual
        assert fixed.residuals == trace.residuals
        assert fixed.matvecs == trace.matvecs

    @pytest.mark.parametrize("iterate", [basic_iterate, generalized_chebyshev_iterate])
    def test_aliases_refuse_a_mismatched_pair(self, normal_system, iterate):
        other = dataclasses.replace(normal_system)  # same matrices, another system
        work = transform_system(normal_system, 3)
        _, trace = iterate(work, steps=2, residual_system=normal_system)
        assert trace.steps == [1, 2] and trace.k == 3
        with pytest.raises(ValueError):
            iterate(work, steps=2, residual_system=transform_system(other, 3))
        with pytest.raises(ValueError):
            iterate(normal_system, steps=2, residual_system=other)

    def test_run_refuses_a_transformed_system(self, normal_system):
        with pytest.raises(ValueError):
            run(transform_system(normal_system, 3), "basic", steps=2)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_transform_spends_only_on_the_sides_the_scheme_reads(
        self, normal_system, monkeypatch, scheme, k
    ):
        calls, spent = {}, {}
        matvec = ComplexSparseMatrix.matvec

        def counting(self, v):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return matvec(self, v)

        def counted_sum(*args):
            calls.clear()
            side = geometric_sum(*args)
            spent.update(calls)  # each side has a matrix of its own
            return side

        geometric_sum = solvers.geometric_sum_apply
        monkeypatch.setattr(ComplexSparseMatrix, "matvec", counting)
        monkeypatch.setattr(solvers, "geometric_sum_apply", counted_sum)
        run(dataclasses.replace(normal_system, k=k), scheme, steps=2)
        assert spent.get(id(normal_system.M), 0) == k - 1
        reads_tilde = scheme == "generalized"
        assert spent.get(id(normal_system.M_tilde), 0) == (k - 1 if reads_tilde else 0)

    @pytest.mark.parametrize("scheme", ["basic", "classical"])
    def test_basic_and_classical_never_read_g_tilde(self, normal_system, monkeypatch, scheme):
        def refuse(self):
            raise AssertionError("g_tilde read")

        monkeypatch.setattr(solvers.PowerTransform, "g_tilde", property(refuse))
        sys_ = dataclasses.replace(normal_system, k=3)
        for x0 in (None, np.ones(sys_.n)):
            run(sys_, scheme, steps=5, x0=x0)
        with pytest.raises(AssertionError, match="g_tilde read"):
            run(sys_, "generalized", steps=5)


def _normal_test_system(seed: int, n: int) -> IterationSystem:
    """A normal system with a real dominant eigenvalue lambda1 in [0.3, 0.95]
    and every other eigenvalue within |lambda1|/3, so that each scheme
    converges at every k; M_tilde has the conjugate eigenvalues."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, _ = np.linalg.qr(draw(n, n))
    lambda1 = rng.uniform(0.3, 0.95)
    quotients = rng.uniform(0.0, 1.0 / 3.0, n) * np.exp(2j * np.pi * rng.random(n))
    evs = lambda1 * np.concatenate([[1.0], quotients[1:]])
    dense, dense_tilde = (q @ np.diag(d) @ q.conj().T for d in (evs, evs.conj()))
    x = draw(n)
    return IterationSystem(
        M=ComplexSparseMatrix.from_dense(dense), g=x - dense @ x,
        M_tilde=ComplexSparseMatrix.from_dense(dense_tilde), g_tilde=x - dense_tilde @ x,
        lambda1=lambda1,
    )


def _zero_start_reference(sys_, scheme, steps, x0=None):
    """Iterates y_0 .. y_steps and their residuals by a loop of public
    `matvec` calls, from x0 (default zero).  It takes M 0, M^k 0 and Mt^k 0
    like any other product, as `run` did before a zero start was made free."""
    work = transform_system(sys_, sys_.k)

    def power(a, v, times):
        for _ in range(times):
            v = a.matvec(v)
        return v

    y = np.zeros(sys_.n, dtype=complex) if x0 is None else x0
    my = sys_.M.matvec(y)
    iterates, residuals = [y], [sys_.residual_norm(y, my)]
    rho = abs(complex(work.lambda1))
    quarter_rho2, weight = rho * rho / 4.0, 2.0
    stream = ChebCoefficientStream(work.lambda1)
    prev = prev2 = None
    for m in range(1, steps + 1):
        new = power(sys_.M, my, sys_.k - 1) + work.g
        if m > 1 and scheme == "classical":
            weight = 1.0 / (1.0 - quarter_rho2 * weight)
            new = prev + weight * (new - prev)
        elif m > 1 and scheme == "generalized":
            tilde = power(sys_.M_tilde, prev, sys_.k) + work.g_tilde
            if m == 2:
                lam1, f2 = stream.lambda1, stream.window[2]
                new = (3 * new / lam1**2 - 2 * tilde / lam1.conjugate()) / f2
            else:
                c1, c2, c3 = stream.step()
                new = c1 * new - c2 * tilde + c3 * prev2
            prev2 = prev
        prev, y = y, new
        my = sys_.M.matvec(y)
        iterates.append(y)
        residuals.append(sys_.residual_norm(y, my))
    return iterates, residuals


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


class TestZeroStart:
    """A zero start skips M 0, M^k 0 and Mt^k 0 and changes no bit."""

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           steps=st.integers(0, 10), explicit=st.booleans())
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_bits_as_the_loop_that_multiplies_zero(
        self, scheme, k, seed, n, steps, explicit
    ):
        sys_ = dataclasses.replace(_normal_test_system(seed, n), k=k)
        x0 = np.zeros(n) if explicit else None
        want_iterates, want_residuals = _zero_start_reference(sys_, scheme, steps)
        got_iterates = run_iterates(sys_, scheme, steps, x0=x0)
        assert [_bits(y) for y in got_iterates] == [_bits(y) for y in want_iterates]
        _, trace = run(sys_, scheme, steps=steps, x0=x0)
        assert _bits([trace.initial_residual, *trace.residuals]) == _bits(want_residuals)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_iterate_aliases_g(self, scheme):
        sys_ = _normal_test_system(3, 4)
        y, trace = run(sys_, scheme, steps=1)
        assert trace.matvecs == [0]
        assert np.array_equal(y, sys_.g) and not np.shares_memory(y, sys_.g)


def _structured_system(seed: int) -> IterationSystem:
    """A system whose M has a 32 x 32 dense panel, a 128-row diagonal run,
    reduceat rows and empty rows, at random places, with max row sum 0.6;
    M_tilde is M*."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n = 200
    dense = draw(n, n) * (rng.random((n, n)) < 0.03)
    r0, c0, d0 = rng.integers(0, n - 160), rng.integers(0, n - 32), rng.integers(0, n - 128)
    dense[r0:r0 + 160] = 0.0
    dense[r0:r0 + 32, c0:c0 + 32] = draw(32, 32)
    dense[np.arange(r0 + 32, r0 + 160), np.arange(d0, d0 + 128)] = draw(128)
    dense[rng.choice(np.r_[:r0, r0 + 160:n], 8, replace=False)] = 0.0
    dense *= 0.6 / np.abs(dense).sum(axis=1).max()
    m = ComplexSparseMatrix.from_dense(dense)
    assert sorted(op.__name__ for op, *_ in m._runs) == ["dot", "multiply"]
    assert m._zero_fill and m._rest_rows.size
    x = draw(n)
    return IterationSystem(M=m, g=x - dense @ x, M_tilde=m.conj_transpose(),
                           g_tilde=x - dense.conj().T @ x, lambda1=0.6)


class TestWorkspace:
    """`run` multiplies into buffers of its own, by matvec's calls."""

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 6),
           nonzero=st.booleans())
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_bits_as_the_loop_of_public_products(
        self, scheme, k, seed, steps, nonzero
    ):
        sys_ = dataclasses.replace(_structured_system(seed), k=k)
        x0 = np.random.default_rng(seed).standard_normal(sys_.n) + 0.5j if nonzero else None
        want_iterates, want_residuals = _zero_start_reference(sys_, scheme, steps, x0)
        got_iterates = run_iterates(sys_, scheme, steps, x0=x0)
        assert [_bits(y) for y in got_iterates] == [_bits(y) for y in want_iterates]
        _, trace = run(sys_, scheme, steps=steps, x0=x0)
        assert _bits([trace.initial_residual, *trace.residuals]) == _bits(want_residuals)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_returned_iterates_keep_their_bytes(self, scheme, k):
        sys_ = dataclasses.replace(_structured_system(5), k=k)
        x0 = np.ones(sys_.n, dtype=complex)
        want, _ = _zero_start_reference(sys_, scheme, 4, x0)
        y, _ = run(sys_, scheme, steps=4, x0=x0)
        with pytest.raises(NotConverged) as exc:
            run(sys_, scheme, steps=4, tol=1e-300, x0=x0)
        best = exc.value.best
        kept = _bits(y), _bits(best)
        run(sys_, scheme, steps=4)
        assert (_bits(y), _bits(best)) == kept
        assert kept[0] == _bits(want[-1]) and kept[1] in [_bits(w) for w in want]

    def test_two_threads_on_one_system_get_the_single_thread_bits(self):
        sys_ = dataclasses.replace(_structured_system(6), k=3)
        x0 = np.ones(sys_.n, dtype=complex)

        def bits_of_runs():
            return [(_bits(y), _bits(trace.residuals), trace.matvecs)
                    for y, trace in (run(sys_, scheme, steps=12, x0=x0)
                                     for scheme in SCHEMES * 4)]

        want, got = bits_of_runs(), {}
        start = threading.Barrier(2)

        def caller(i):
            start.wait(timeout=60)
            got[i] = bits_of_runs()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {0: want, 1: want}


def _force_chains(monkeypatch, threaded: bool):
    """Take every generalized run at k >= 2 on two threads, or every run on
    the caller."""
    monkeypatch.setattr(solvers, "_OVERLAP_MIN_NNZ", 0 if threaded else math.inf)


def _chain_threads(monkeypatch):
    """The thread of each M^k call a workspace finishes, in call order."""
    threads, finish = [], solvers._Workspace.finish

    def recorded(self):
        threads.append(threading.current_thread())
        return finish(self)

    monkeypatch.setattr(solvers._Workspace, "finish", recorded)
    return threads


def _run_bits(sys_, x, **kwargs):
    """The bits of a generalized run's iterate and trace, or of the
    NotConverged it raised."""
    try:
        y, trace = run(sys_, "generalized", reference_x=x, **kwargs)
    except NotConverged as exc:
        y, trace = exc.best, exc.trace
    return (_bits(y), _bits([trace.initial_residual, *trace.residuals]),
            _bits([trace.initial_err, *trace.err_norms]), trace.matvecs)


class TestOverlappedChains:
    """A generalized run at k >= 2 above the size floor may take each step's
    M^k y on a worker thread while the caller takes Mt^k y_{m-2}; its bits,
    products and threads afterwards are the serial run's."""

    @pytest.fixture(scope="class", params=["linked", "unlinked"])
    def generated(self, request):
        # a 1000 x 1000 panel whose companion multiplies through M's panel,
        # and a 600 x 600 panel below the link's size, each with a diagonal
        n, block = (1000, 1000) if request.param == "linked" else (900, 600)
        gen = assemble_normal_system(NormalMatrixSpec(n=n, block_size=block, seed=4))
        ops = [op.__name__ for op, *_ in gen.system.M_tilde._runs]
        assert ops == (["_adjoint_dot"] if request.param == "linked" else ["dot", "multiply"])
        return dataclasses.replace(gen.system, k=3), gen.x

    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    @pytest.mark.parametrize("tol", [None, 1e-10])
    def test_same_bits_as_the_serial_path(self, generated, monkeypatch, tol, start):
        sys_, x = generated
        kwargs = dict(steps=30 if tol is None else 200, tol=tol,
                      x0=None if start == "zero" else np.full(sys_.n, 1j))
        _force_chains(monkeypatch, threaded=False)
        want = _run_bits(sys_, x, **kwargs)
        _force_chains(monkeypatch, threaded=True)
        threads = _chain_threads(monkeypatch)
        assert _run_bits(sys_, x, **kwargs) == want
        caller = threading.current_thread()
        assert len({t for t in threads if t is not caller}) == 1  # one worker took some
        assert tol is None or len(want[1]) < 201  # converged

    def test_spends_the_serial_products(self, generated, monkeypatch, product_counts):
        sys_, x = generated
        spent = {}
        for threaded in (False, True):
            _force_chains(monkeypatch, threaded)
            product_counts.clear()
            run(sys_, "generalized", steps=12, x0=np.full(sys_.n, 1j))
            spent[threaded] = dict(product_counts)
        assert spent[True] == spent[False]
        # each of the 12 steps: M^k y; from step 2: Mt^k; the first reads of
        # the sides: k - 1 each; and M x0
        assert spent[False] == {id(sys_.M): 3 * 12 + 2 + 1, id(sys_.M_tilde): 3 * 11 + 2}

    def test_the_worker_takes_every_two_chain_step(self, generated, monkeypatch):
        # from zero, steps 3 to 12 take both chains, each M^k call on the worker
        sys_, x = generated
        _force_chains(monkeypatch, threaded=True)
        threads = _chain_threads(monkeypatch)
        got = _run_bits(sys_, x, steps=12)
        caller = threading.current_thread()
        assert sum(t is not caller for t in threads) == 10
        _force_chains(monkeypatch, threaded=False)
        assert got == _run_bits(sys_, x, steps=12)

    @pytest.mark.parametrize("end", ["returns", "not-converged", "diverges", "worker-raises",
                                     "caller-raises"])
    def test_no_thread_outlives_a_run(self, generated, monkeypatch, end):
        sys_, x = generated
        _force_chains(monkeypatch, threaded=True)
        threads = _chain_threads(monkeypatch)
        caller, before = threading.current_thread(), set(threading.enumerate())
        if end == "diverges":  # the residual of step 8 is NaN, from zero
            residual_norm, calls = IterationSystem.residual_norm, []

            def failing(self, y, my=None):
                calls.append(1)
                return math.nan if len(calls) == 8 else residual_norm(self, y, my)

            monkeypatch.setattr(IterationSystem, "residual_norm", failing)
        if end == "worker-raises":
            finish = solvers._Workspace.finish

            def failing(self):
                if threading.current_thread() is not caller:
                    raise RuntimeError("a product on the worker failed")
                return finish(self)

            monkeypatch.setattr(solvers._Workspace, "finish", failing)
        if end == "caller-raises":  # Mt^k fails once the worker holds an M^k call
            finish, held = solvers._Workspace.finish, threading.Event()

            def holding(self):
                if threading.current_thread() is not caller:
                    held.set()
                return finish(self)

            def failing(self, v):
                assert held.wait(timeout=60)
                raise RuntimeError("a product on the caller failed")

            monkeypatch.setattr(solvers._Workspace, "finish", holding)
            monkeypatch.setattr(solvers._Workspace, "power", failing)
        raised = {"returns": None, "not-converged": NotConverged, "diverges": Divergence,
                  "worker-raises": RuntimeError, "caller-raises": RuntimeError}[end]
        tol = 1e-300 if end == "not-converged" else None
        if raised is None:
            run(sys_, "generalized", steps=12)
        else:
            with pytest.raises(raised) as exc:
                run(sys_, "generalized", steps=12, tol=tol)
            where = {"worker-raises": "worker", "caller-raises": "caller"}.get(end)
            assert where is None or str(exc.value) == f"a product on the {where} failed"
        assert set(threading.enumerate()) == before
        assert end == "worker-raises" or any(t is not caller for t in threads)

    def test_two_callers_get_the_serial_bits(self, generated, monkeypatch):
        sys_, x = generated
        _force_chains(monkeypatch, threaded=False)
        want = [_run_bits(sys_, x, steps=12, x0=x0) for x0 in (None, np.full(sys_.n, 1j))]
        _force_chains(monkeypatch, threaded=True)
        got, start = {}, threading.Barrier(2)

        def caller(i):
            start.wait(timeout=60)
            got[i] = [_run_bits(sys_, x, steps=12, x0=x0) for x0 in (None, np.full(sys_.n, 1j))]

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert got == {0: want, 1: want}

    @pytest.mark.parametrize("case", ["no-step", "two-from-zero", "k1", "below-floor", "basic"])
    def test_starts_no_thread(self, generated, monkeypatch, case):
        sys_, x = generated
        _force_chains(monkeypatch, threaded=True)
        if case == "below-floor":
            monkeypatch.setattr(solvers, "_OVERLAP_MIN_NNZ", sys_.M_tilde.nnz + 1)
        if case == "k1":
            sys_ = dataclasses.replace(sys_, k=1)

        def refused(self):
            raise AssertionError(f"thread {self.name} started")

        monkeypatch.setattr(threading.Thread, "start", refused)
        scheme = "basic" if case == "basic" else "generalized"
        # from zero, step 2 is the seed, which takes no Mt^k product
        steps = {"no-step": 0, "two-from-zero": 2}.get(case, 8)
        run(sys_, scheme, steps=steps, x0=None if case == "two-from-zero" else np.full(sys_.n, 1j))


_CHAINS_DIGEST = """
import dataclasses, hashlib, math
import numpy as np
from gencheb import solvers
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system
gen = assemble_normal_system(NormalMatrixSpec(n=1000, block_size=1000, seed=8))
assert [op.__name__ for op, *_ in gen.system.M_tilde._runs] == ["_adjoint_dot"]
sys_ = dataclasses.replace(gen.system, k=3)
digests = []
for floor in (math.inf, 0, math.inf, 0):
    solvers._OVERLAP_MIN_NNZ = floor
    digest = hashlib.sha256()
    for x0 in (None, np.full(sys_.n, 1j)):
        y, trace = solvers.run(sys_, "generalized", steps=60, tol=1e-10, x0=x0,
                               reference_x=gen.x)
        for values in (y, trace.residuals, trace.err_norms, trace.matvecs):
            digest.update(np.asarray(values).tobytes())
    digests.append(digest.hexdigest())
assert len(set(digests)) == 1, digests
print("ok")
"""


_FORK_AFTER_A_THREADED_RUN = """
import os, signal, threading
solvers._OVERLAP_MIN_NNZ = 0
def solve_digest():
    y, trace = solvers.run(sys_, "generalized", steps=60, tol=1e-10, reference_x=gen.x)
    return hashlib.sha256(np.asarray([*y, *trace.residuals]).tobytes()).hexdigest()
want = solve_digest()
assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    try:
        os._exit(0 if solve_digest() == want else 3)
    finally:
        os._exit(4)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
"""


@pytest.mark.parametrize("case", ["1", "2", "1-one-cpu", "1-fork"])
def test_overlapped_chains_at_one_and_two_blas_threads(case):
    # BLAS calls from the caller and the worker at once change no bit, at
    # either thread count, on a panel whose companion is linked to it; a
    # process pinned to one CPU, which takes the worker too, finishes; and
    # a child forked just after a threaded run, with no thread left (which
    # -W error enforces on Python >= 3.12), repeats the parent's bits
    threads, script = case[0], _CHAINS_DIGEST
    if case == "1-one-cpu":
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is not available")
        script = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})" + script
    if case == "1-fork":
        if not hasattr(os, "fork"):
            pytest.skip("os.fork is not available")
        script += _FORK_AFTER_A_THREADED_RUN
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class TestTransformEquivalence:
    """The power transform keeps the fixed point and the basic iterates."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
           k=st.sampled_from([2, 3, 4]), s=st.integers(1, 5),
           radius=st.floats(0.05, 0.95))
    def test_s_steps_at_order_k_are_k_s_steps_at_order_one(self, seed, n, k, s, radius):
        sys_, _ = dense_system(random_contraction(np.random.default_rng(seed), n, radius))
        y_k, _ = run(dataclasses.replace(sys_, k=k), "basic", steps=s)
        y_1, _ = run(sys_, "basic", steps=k * s)
        assert np.linalg.norm(y_k - y_1) <= 1e-12 * np.linalg.norm(y_1)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
           k=st.sampled_from([2, 3, 4]), radius=st.floats(0.05, 0.95))
    def test_transformed_g_is_the_geometric_sum(self, seed, n, k, radius):
        rng = np.random.default_rng(seed)
        dense = random_contraction(rng, n, radius)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sys_ = IterationSystem(M=ComplexSparseMatrix.from_dense(dense), g=g)
        want = sum(np.linalg.matrix_power(dense, j) @ g for j in range(k))
        got = transform_system(sys_, k).g
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
