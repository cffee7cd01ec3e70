"""Complex sparse matrices (CSR), vectors, and matrix actions.

Vectors are plain 1-D complex128 numpy arrays; `as_vector` validates
finiteness on construction.

Summation contract of the matvec.  A dense panel (a run of at least two
consecutive rows that all store one contiguous column range, with at least
_PANEL_MIN_ENTRIES entries) is multiplied by one BLAS gemv, so its rows are
summed in BLAS dot order.  Every other row is summed with np.add.reduceat
over its stored entries in column order.  Which rows form panels depends
only on the stored pattern, so bits repeat run to run for a given numpy and
BLAS build and CPU, and the tests check that the panel bits do not depend on
the BLAS thread count.  A matrix without panels gives exactly the reduceat
bits; panel rows differ from them by rounding only.

Matrix Market exchange: `coordinate complex general`, entries `row col
real imag` with integer 1-based indices and shortest round-trip floats, a
byte format that stays fixed; read(write(A)) reproduces A bit-identically,
signed zeros included.  `%` comment lines and blank lines may appear
anywhere in the body.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, UnreadableMatrix


def as_vector(values, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D complex128 array with finite entries."""
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


# Fewest stored entries in a dense panel.  The BLAS product overtakes the
# reduceat one between about 1,000 and 2,300 entries (x86_64, OpenBLAS 0.3.31,
# one thread); smaller runs save too little to measure and keep reduceat bits.
_PANEL_MIN_ENTRIES = 4096


class ComplexSparseMatrix:
    """Compressed-sparse-row matrix of complex entries.

    Invariants checked on construction: row_offsets is nondecreasing with
    length n_rows+1 and final entry nnz; column indices are in bounds and
    strictly increasing within each row.  Instances are immutable by
    convention (arrays are not written to after construction).
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values",
                 "_panels", "_rest_values", "_rest_cols", "_starts",
                 "_stored_rows")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=complex)
        self._validate()
        # dense panels are (rows, w) views of values, multiplied by BLAS
        counts = np.diff(self.row_offsets)
        in_panel = np.zeros(self.n_rows, dtype=bool)
        self._panels = []
        for r0, r1, c0, w in _dense_panels(self.row_offsets, self.col_indices):
            entries = slice(self.row_offsets[r0], self.row_offsets[r1])
            panel = self.values[entries].reshape(r1 - r0, w)
            self._panels.append((r0, r1, c0, c0 + w, panel))
            in_panel[r0:r1] = True
        # the other rows are summed by reduceat from their starts in the rest
        # arrays; a panel row keeps its first entry there, so the sums line up
        # with the rows, and its panel product overwrites that sum
        self._rest_values, self._rest_cols = self.values, self.col_indices
        rest_offsets = self.row_offsets
        if self._panels:
            keep = np.repeat(~in_panel, counts)
            keep[self.row_offsets[:-1][in_panel]] = True
            counts = np.where(in_panel, 1, counts)
            rest_offsets = np.concatenate(([0], np.cumsum(counts)))
            self._rest_values = self.values[keep]
            self._rest_cols = self.col_indices[keep]
        # empty rows need a scatter
        stored = counts > 0
        self._starts = rest_offsets[:-1][stored]
        self._stored_rows = None if stored.all() else np.flatnonzero(stored)

    def _validate(self):
        ro, ci = self.row_offsets, self.col_indices
        if ro.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if ro[0] != 0 or np.any(np.diff(ro) < 0):
            raise ValueError("row_offsets must be nondecreasing and start at 0")
        nnz = int(ro[-1])
        if ci.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("col_indices/values length must equal row_offsets[-1]")
        if nnz:
            if ci.min() < 0 or ci.max() >= self.n_cols:
                raise ValueError("column index out of bounds")
            # strictly increasing within each row: diffs may only be <= 0 at
            # row boundaries
            inner = np.ones(nnz, dtype=bool)
            starts = ro[1:-1]
            inner[starts[starts < nnz]] = False  # first entry of each later row
            bad = (np.diff(ci) <= 0) & inner[1:]
            if np.any(bad):
                raise ValueError("column indices must strictly increase within a row")
        if not np.all(np.isfinite(self.values.real)) or not np.all(
            np.isfinite(self.values.imag)
        ):
            raise ValueError("matrix values contain NaN or Inf")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, values):
        """Build from COO triplets; duplicates are summed, order normalized."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=complex)
        if not (rows.shape == cols.shape == values.shape):
            raise DimensionMismatch("triplet arrays must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of bounds")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            keys = rows * n_cols + cols
            first = np.concatenate(([True], np.diff(keys) != 0))
            idx = np.flatnonzero(first)
            summed = np.add.reduceat(values, idx)
            rows, cols, values = rows[first], cols[first], summed
        counts = np.bincount(rows, minlength=n_rows)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return cls(n_rows, n_cols, offsets, cols, values)

    @classmethod
    def from_dense(cls, dense, drop_tol: float = 0.0):
        """Build from a dense array, dropping entries with |a_ij| <= drop_tol."""
        a = np.asarray(dense, dtype=complex)
        if a.ndim != 2:
            raise DimensionMismatch("dense input must be 2-D")
        rows, cols = np.nonzero(np.abs(a) > drop_tol)
        return cls.from_triplets(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n)
        return cls(n, n, np.arange(n + 1), idx, np.ones(n, dtype=complex))

    # -- queries -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def matvec_cost(self) -> int:
        """Sparse products consumed by one apply (unit for the base matrix)."""
        return 1

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[_entry_rows(self), self.col_indices] = self.values
        return out

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)))

    # -- operations ---------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Sparse product A @ v.  Each dense panel is one BLAS gemv
        `panel @ v[c0:c0+w]`, summed in BLAS dot order; every other row is
        summed by np.add.reduceat over its stored entries in column order.
        Equal inputs give equal bits for a given numpy/BLAS build and CPU."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.n_cols,):
            raise DimensionMismatch(
                f"matvec of {self.shape} matrix with vector of shape {v.shape}"
            )
        sums = np.add.reduceat(self._rest_values * v[self._rest_cols], self._starts)
        if self._stored_rows is not None:
            out = np.zeros(self.n_rows, dtype=complex)
            out[self._stored_rows] = sums
            sums = out
        for r0, r1, c0, c1, panel in self._panels:
            sums[r0:r1] = panel @ v[c0:c1]
        return sums

    def conj_transpose(self) -> "ComplexSparseMatrix":
        """Return A* with CSR invariants restored."""
        return ComplexSparseMatrix.from_triplets(
            self.n_cols, self.n_rows, self.col_indices, _entry_rows(self),
            np.conj(self.values),
        )


def _dense_panels(row_offsets: np.ndarray, col_indices: np.ndarray) -> list:
    """Maximal runs of consecutive rows that all store one contiguous column
    range [c0, c0 + w), as (r0, r1, c0, w).  A run counts from two rows and
    _PANEL_MIN_ENTRIES entries up: numpy hands a one-row product to BLAS dot,
    whose threaded sum of a long row depends on the BLAS thread count."""
    if row_offsets[-1] < _PANEL_MIN_ENTRIES:
        return []
    counts = np.diff(row_offsets)
    stored = counts > 0
    first = np.zeros_like(counts)
    first[stored] = col_indices[row_offsets[:-1][stored]]
    last = np.zeros_like(counts)
    last[stored] = col_indices[row_offsets[1:][stored] - 1]
    # columns strictly increase within a row, so a stored row is contiguous
    # exactly when last - first + 1 == count (never true for an empty row)
    dense = last - first + 1 == counts
    joins = (dense[1:] & dense[:-1] & (first[1:] == first[:-1])
             & (counts[1:] == counts[:-1]))
    r0 = np.flatnonzero(np.concatenate(([True], ~joins)))
    r1 = np.append(r0[1:], counts.size)
    big = dense[r0] & (r1 - r0 > 1) & ((r1 - r0) * counts[r0] >= _PANEL_MIN_ENTRIES)
    return [(int(a), int(b), int(first[a]), int(counts[a]))
            for a, b in zip(r0[big], r1[big])]


def _entry_rows(a: ComplexSparseMatrix) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets))


@dataclass(frozen=True)
class PoweredOperator:
    """Action of base**k realized as k successive matvecs; never materialized."""

    base: ComplexSparseMatrix
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"power must be positive, got {self.k}")
        if self.base.n_rows != self.base.n_cols:
            raise DimensionMismatch("powered operator needs a square base")

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def matvec_cost(self) -> int:
        return self.k * self.base.matvec_cost

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.finish(self.base.matvec(v))

    def finish(self, base_v: np.ndarray) -> np.ndarray:
        """Return base**k v from base_v = base @ v, spending k - 1 products."""
        for _ in range(self.k - 1):
            base_v = self.base.matvec(base_v)
        return base_v


def geometric_sum_apply(a, k: int, v: np.ndarray) -> np.ndarray:
    """Return (I + A + ... + A**(k-1)) v by Horner accumulation.

    Costs k-1 matvecs; no matrix powers are formed.  Assumes the spectral
    radius of A is below one (not checked here).
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    v = np.asarray(v, dtype=complex)
    acc = v
    for _ in range(k - 1):
        acc = v + a.matvec(acc)
    return acc


def dense_eigendecomposition(a, max_dim: int = 64):
    """Eigenvalues and eigenvectors of a small dense matrix.

    Validation tool, not a production eigensolver; hence the dimension
    guard.  Each returned pair satisfies |A v - lambda v| <= 1e-8 for the
    unit-norm eigenvector, else ConvergenceFailure is raised.
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
    try:
        eigenvalues, eigenvectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise ConvergenceFailure(f"dense eigensolve failed: {exc}") from exc
    residual = np.linalg.norm(a @ eigenvectors - eigenvectors * eigenvalues, axis=0)
    norms = np.linalg.norm(eigenvectors, axis=0)
    if np.any(residual > 1e-8 * norms):
        raise ConvergenceFailure(
            f"eigenpair residual {residual.max():.3e} above contract"
        )
    return eigenvalues, eigenvectors


# -- Matrix Market exchange --------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate complex general"
_MM_BATCH = 8192  # entries formatted per write


def write_matrix_market(a: ComplexSparseMatrix, path: str | os.PathLike) -> None:
    """Write CSR contents in coordinate complex general format (1-based)."""
    rows, cols = _entry_rows(a) + 1, a.col_indices + 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_MM_HEADER + "\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        # Python scalars in bounded batches: no numpy scalar per field, and
        # no whole-file string in memory
        for s in range(0, a.nnz, _MM_BATCH):
            batch = slice(s, s + _MM_BATCH)
            fh.write("".join(map("%d %d %r %r\n".__mod__, zip(
                rows[batch].tolist(), cols[batch].tolist(),
                a.values.real[batch].tolist(), a.values.imag[batch].tolist(),
            ))))


def read_matrix_market(path: str | os.PathLike) -> ComplexSparseMatrix:
    """Read a coordinate complex general file written by this package."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header.lower() != _MM_HEADER.lower():
                raise UnreadableMatrix(
                    f"unsupported Matrix Market header in {path}: {header!r}"
                )
            size_line = fh.readline()
            while size_line.lstrip().startswith("%"):
                size_line = fh.readline()
            parts = size_line.split()
            if len(parts) != 3:
                raise UnreadableMatrix(f"bad size line in {path}: {size_line!r}")
            n_rows, n_cols, nnz = (int(p) for p in parts)
            with warnings.catch_warnings():  # an empty body is valid for nnz 0
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, dtype=float, comments="%", ndmin=2)
        if data.shape[0] != nnz or (nnz and data.shape[1] != 4):
            raise UnreadableMatrix(f"{path} declares {nnz} `row col real imag` "
                                   f"entries, found {data.shape[0]} lines of "
                                   f"{data.shape[1]} fields")
        data = data.reshape(nnz, 4)  # an empty body parses as shape (0, 1)
        index = data[:, :2]
        if np.any(index != np.floor(index)):
            raise UnreadableMatrix(f"non-integer index in {path}")
        if np.any((index < 1) | (index > (n_rows, n_cols))):
            raise UnreadableMatrix(
                f"index outside the declared {n_rows}x{n_cols} shape in {path}"
            )
        vals = np.empty(nnz, dtype=complex)
        vals.real, vals.imag = data[:, 2], data[:, 3]  # keeps the sign of -0.0
        rows, cols = index.astype(np.int64).T - 1
        return ComplexSparseMatrix.from_triplets(n_rows, n_cols, rows, cols, vals)
    except OSError as exc:
        raise UnreadableMatrix(f"cannot read {path}: {exc}") from exc
    except UnreadableMatrix:
        raise
    except ValueError as exc:
        raise UnreadableMatrix(f"malformed entry in {path}: {exc}") from exc


def write_vector_market(v: np.ndarray, path: str | os.PathLike) -> None:
    """Write a vector as an n-by-1 coordinate complex general matrix."""
    v = as_vector(v)
    mat = ComplexSparseMatrix.from_triplets(
        v.shape[0], 1, np.arange(v.shape[0]), np.zeros(v.shape[0], dtype=np.int64), v
    )
    write_matrix_market(mat, path)


def read_vector_market(path: str | os.PathLike) -> np.ndarray:
    """Read an n-by-1 Matrix Market file back into a dense vector."""
    mat = read_matrix_market(path)
    if mat.n_cols != 1:
        raise UnreadableMatrix(f"expected an n-by-1 vector file, got {mat.shape}")
    return mat.to_dense()[:, 0]
