import numpy as np
import pytest

from gencheb.genmat import example33_fixture

from dense_eig import dense_eigendecomposition


class TestDenseEig:
    def test_diagonal(self):
        vals, _ = dense_eigendecomposition(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(sorted(vals.real), [1.0, 2.0, 3.0], atol=1e-12)

    def test_example33_eigenvalues(self):
        fixture = example33_fixture()
        vals, _ = dense_eigendecomposition(fixture.system.M)
        got = sorted(vals, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
        expected = sorted(
            fixture.eigenvalues, key=lambda z: (round(z.real, 8), round(z.imag, 8))
        )
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-8

    def test_rotation(self):
        vals, _ = dense_eigendecomposition(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert sorted(np.round(vals.imag, 12)) == [-1.0, 1.0]
        assert np.allclose(vals.real, 0.0, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            dense_eigendecomposition(np.eye(65))

    def test_residual_contract(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        vals, vecs = dense_eigendecomposition(a)
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert np.all(resid <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(vecs, axis=0))

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6, 1e8])
    def test_contract_is_relative_to_the_matrix_norm(self, scale):
        # an absolute bound refused 10 of these 50 draws at 1e6 and all at 1e8
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            vals, _ = dense_eigendecomposition(scale * a)
            assert np.allclose(np.sort_complex(vals / scale),
                               np.sort_complex(np.linalg.eigvals(a)), atol=1e-8)
