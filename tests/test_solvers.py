import dataclasses

import numpy as np
import pytest

from gencheb.errors import (
    Divergence,
    MissingLambda1,
    MissingTildeData,
    NotConverged,
)
from gencheb import solvers
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system, example33_fixture
from gencheb.linalg import ComplexSparseMatrix, PoweredOperator
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


class TestTransform:
    def test_k_one_unchanged(self):
        sys_, _ = dense_system(np.eye(2) * 0.5)
        assert transform_system(sys_, 1) is sys_

    def test_scalar_diagonal_side(self):
        lam = 0.3 + 0.4j
        g = np.array([1.0 + 0j, 2.0])
        sys_ = IterationSystem(
            M=ComplexSparseMatrix.from_dense(lam * np.eye(2)), g=g
        )
        out = transform_system(sys_, 2)
        assert np.allclose(out.g, (1 + lam) * g, atol=1e-15)
        assert isinstance(out.M, PoweredOperator) and out.M.k == 2

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
        assert trace.matvecs == [1] * 5

    def test_transformed_basic_counts(self):
        sys_, x = dense_system(np.eye(3) * 0.5)
        work = transform_system(sys_, 3)
        _, trace = basic_iterate(work, steps=4, reference_x=x)
        assert trace.matvecs == [3] * 4

    def test_classical_counts(self):
        sys_, x = dense_system(np.eye(3) * 0.5, lambda1=0.5)
        _, trace = run(sys_, "classical", steps=6, reference_x=x)
        assert trace.matvecs == [1] * 6

    def test_generalized_counts_untransformed(self):
        diag = np.diag([0.9, 0.3, -0.2])
        sys_, x = dense_system(diag, tilde_dense=np.conj(diag), lambda1=0.9)
        _, trace = generalized_chebyshev_iterate(sys_, steps=6, reference_x=x)
        assert trace.matvecs == [1, 2, 2, 2, 2, 2]

    def test_generalized_counts_transformed(self):
        diag = np.diag([0.9, 0.3, -0.2])
        sys_, x = dense_system(diag, tilde_dense=np.conj(diag), lambda1=0.9)
        work = transform_system(sys_, 2)
        _, trace = generalized_chebyshev_iterate(work, steps=6, reference_x=x)
        assert trace.matvecs == [2, 4, 4, 4, 4, 4]


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
                M=ComplexSparseMatrix.identity(3),
                g=np.zeros(3),
                M_tilde=ComplexSparseMatrix.identity(4),
                g_tilde=np.zeros(4),
            )

    def test_tilde_pair_must_be_complete(self):
        with pytest.raises(ValueError):
            IterationSystem(
                M=ComplexSparseMatrix.identity(3),
                g=np.zeros(3),
                M_tilde=ComplexSparseMatrix.identity(3),
            )

    def test_consistency_check(self):
        fixture = example33_fixture()
        fixture.system.check_consistency(fixture.x)
        with pytest.raises(ValueError):
            fixture.system.check_consistency(fixture.x + 1.0)


def _solve_trace(sys_, scheme):
    """Trace of a short `solve`, whether or not it reached the tolerance."""
    try:
        return solve(sys_, max_steps=30, residual_tol=1e-10, scheme=scheme)[1]
    except NotConverged as exc:
        return exc.trace


def _fixed_trace(sys_, scheme):
    """Trace of a 30-step fixed run on the k-transformed system."""
    work = solvers.transform_system(sys_, sys_.k)
    return run(work, scheme, steps=30, residual_system=sys_)[1]


class TestSolveSharesTheResidualProduct:
    """`run` takes each residual from the M y that the next step's M^k y
    starts with: a run, to tolerance or fixed-step, spends its recurrence
    products plus one."""

    @pytest.fixture(scope="class")
    def normal_system(self):
        return assemble_normal_system(NormalMatrixSpec(n=200, block_size=40, seed=1)).system

    @pytest.mark.parametrize("mode", [_solve_trace, _fixed_trace], ids=["solve", "fixed"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", ["basic", "classical", "generalized"])
    def test_products_are_recurrence_plus_one(
        self, normal_system, monkeypatch, scheme, k, mode
    ):
        calls = {}
        matvec = ComplexSparseMatrix.matvec

        def counting(self, v):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return matvec(self, v)

        def transform_then_reset(*args):
            work = transform(*args)
            calls.clear()  # the transform's right-hand-side products are not the loop's
            return work

        transform = solvers.transform_system
        monkeypatch.setattr(ComplexSparseMatrix, "matvec", counting)
        monkeypatch.setattr(solvers, "transform_system", transform_then_reset)
        sys_ = dataclasses.replace(normal_system, k=k)
        trace = mode(sys_, scheme)
        base = calls.get(id(sys_.M), 0)
        tilde = calls.get(id(sys_.M_tilde), 0)
        steps = len(trace.steps)
        assert steps > 1
        assert tilde == (k * (steps - 1) if scheme == "generalized" else 0)
        assert base + tilde == trace.total_matvecs + 1

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", ["basic", "classical", "generalized"])
    def test_residuals_match_the_fixed_step_path(self, normal_system, scheme, k):
        sys_ = dataclasses.replace(normal_system, k=k)
        trace = _solve_trace(sys_, scheme)
        work = transform_system(normal_system, k)
        steps = len(trace.steps)
        _, fixed = run(work, scheme, steps=steps, residual_system=normal_system)
        assert fixed.initial_residual == trace.initial_residual
        assert fixed.residuals == trace.residuals
        assert fixed.matvecs == trace.matvecs

    def test_residual_system_must_be_the_transform_source(self, normal_system):
        other = dataclasses.replace(normal_system)  # same matrices, another system
        work = transform_system(normal_system, 3)
        _, trace = run(work, "basic", steps=2, residual_system=normal_system)
        assert trace.steps == [1, 2]
        with pytest.raises(ValueError):
            run(work, "basic", steps=2, residual_system=transform_system(other, 3))
        with pytest.raises(ValueError):
            run(normal_system, "basic", steps=2, residual_system=other)
