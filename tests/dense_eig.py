"""A guarded dense eigensolver, the tests' reference for small spectra."""

import numpy as np

from gencheb.errors import DimensionMismatch
from gencheb.linalg import ComplexSparseMatrix


def dense_eigendecomposition(a, max_dim: int = 64):
    """Eigenvalues and eigenvectors of a small dense matrix.

    Validation tool, not a production eigensolver; hence the dimension
    guard.  Each returned pair satisfies |A v - lambda v| <= 1e-8 |A|_F |v|,
    else AssertionError is raised.
    """
    if isinstance(a, ComplexSparseMatrix):
        a = a.to_dense()
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > max_dim:
        raise ValueError(
            f"dense eigendecomposition is guarded to n <= {max_dim}, got {a.shape[0]}"
        )
    eigenvalues, eigenvectors = np.linalg.eig(a)
    residual = np.linalg.norm(a @ eigenvectors - eigenvectors * eigenvalues, axis=0)
    norms = np.linalg.norm(eigenvectors, axis=0)
    if np.any(residual > 1e-8 * np.linalg.norm(a) * norms):
        raise AssertionError(f"eigenpair residual {residual.max():.3e} above contract")
    return eigenvalues, eigenvectors
