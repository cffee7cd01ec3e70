"""Complex sparse matrices (CSR), vectors, and matrix actions.

Vectors are plain 1-D complex128 numpy arrays; `as_vector` validates
finiteness on construction.

Summation contract of the matvec.  When a matrix is built, its rows are
split by their stored pattern alone, and each product spends one numpy call
per run of rows:
- a dense panel, at least two consecutive rows that store one contiguous
  range of at least two columns, with at least _PANEL_MIN_ENTRIES (1024)
  entries, is one BLAS gemv, so its rows are summed in BLAS dot order;
- a diagonal run, at least _DIAGONAL_MIN_ROWS (128) consecutive one-entry
  rows, each a column right of the one above, is one elementwise multiply;
- every other row is summed with np.add.reduceat over its products in
  column order, each product np.multiply(value, v[col]) with the stored
  value first, whatever the number of entries.
So bits repeat run to run for a given numpy and BLAS build and CPU, and the
tests check that they do not depend on the BLAS thread count.  A diagonal run
gives the reduceat bits of its rows; panel rows differ from them by rounding
only, so a matrix without panels gives exactly the reduceat bits.  Products
into a caller's buffers make the same calls.

Matrix Market exchange: `coordinate complex general`, entries `row col
real imag` with integer 1-based indices and shortest round-trip floats, a
byte format that stays fixed; read(write(A)) reproduces A bit-identically,
signed zeros included.  The writer can write A* beside A from A's own
formatted fields, in the same bytes as a write of A*.  `%` comment lines
and blank lines may appear anywhere in the body.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnreadableMatrix


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


# Fewest stored entries in a dense panel and fewest rows in a diagonal run.
# A run costs one numpy call, 1.5-2.5 us; the same rows cost reduceat 1 us
# at a 24 x 24 panel, 4.4 us at 32 x 32 and 1.7 us at 128 diagonal rows
# (x86_64 Xeon, OpenBLAS 0.3.31, one thread).  Smaller runs keep reduceat
# bits; 4 x 4 is 16 entries.
_PANEL_MIN_ENTRIES = 1024
_DIAGONAL_MIN_ROWS = 128
# A panel's call: the gemv of np.dot without its __array_function__ dispatch.
_DOT = np.ndarray.dot


class ComplexSparseMatrix:
    """Compressed-sparse-row matrix of complex entries.

    Invariants checked on construction: row_offsets is nondecreasing with
    length n_rows+1 and final entry nnz; column indices are in bounds and
    strictly increasing within each row.  Instances are immutable by
    convention (arrays are not written to after construction).
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values",
                 "_runs", "_zero_fill", "_rest_values", "_rest_cols",
                 "_starts", "_rest_rows")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=complex)
        counts = self._validate()
        # dense panels and diagonal runs, as (call, block, columns, rows): one
        # numpy call each, on a view of values and into a slice of the product
        rest = counts > 0
        self._zero_fill = not rest.all()  # no call writes an empty row
        self._runs = []
        for op, r0, r1, c0, c1 in _row_runs(self.row_offsets, self.col_indices, counts):
            block = self.values[self.row_offsets[r0]:self.row_offsets[r1]]
            self._runs.append((op, block.reshape(r1 - r0, -1) if op is _DOT else block,
                               slice(c0, c1), slice(r0, r1)))
            rest[r0:r1] = False
        # the other stored rows are summed by reduceat from their starts; the
        # sums are scattered unless they are all the rows
        self._rest_rows = np.flatnonzero(rest) if self._runs or self._zero_fill else None
        self._rest_values, self._rest_cols = self.values, self.col_indices
        self._starts = self.row_offsets[:-1][rest]
        if self._runs and self._rest_rows.size:
            keep = np.repeat(rest, counts)
            self._rest_values, self._rest_cols = self.values[keep], self.col_indices[keep]
            self._starts = np.cumsum(counts[rest]) - counts[rest]

    def _validate(self) -> np.ndarray:
        """Check the invariants; return the number of entries in each row."""
        ro, ci = self.row_offsets, self.col_indices
        if ro.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        counts = ro[1:] - ro[:-1]
        if ro[0] != 0 or counts.min() < 0:
            raise ValueError("row_offsets must be nondecreasing and start at 0")
        nnz = int(ro[-1])
        if ci.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("col_indices/values length must equal row_offsets[-1]")
        if nnz:
            if ci.min() < 0 or ci.max() >= self.n_cols:
                raise ValueError("column index out of bounds")
            # strictly increasing within each row: falls[i], entry i is not
            # right of entry i - 1, is allowed only where a row starts
            falls = np.zeros(nnz + 1, dtype=bool)
            np.less_equal(ci[1:], ci[:-1], out=falls[1:-1])
            falls[ro] = False
            if falls.any():
                raise ValueError("column indices must strictly increase within a row")
        if not np.isfinite(self.values).all():  # both parts of every entry
            raise ValueError("matrix values contain NaN or Inf")
        return counts

    # -- construction -----------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, values):
        """Build from COO triplets; duplicates are summed, order normalized.
        Triplets in strictly increasing (row, col) order skip the sort."""
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
        keys = rows * n_cols + cols
        if np.any(keys[1:] <= keys[:-1]):  # unsorted or duplicated
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            first = np.concatenate(([True], np.diff(keys[order]) != 0))
            values = np.add.reduceat(values, np.flatnonzero(first))
            rows, cols = rows[first], cols[first]
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

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[_entry_rows(self), self.col_indices] = self.values
        return out

    # -- operations ---------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Sparse product A @ v: `panel.dot(v[c0:c1])` per dense panel and
        `np.multiply(d, v[c0:c1])` per diagonal run, into slices of the
        product, and np.add.reduceat over `np.multiply(values, v[cols])` for
        the other rows, all on the calling thread.  Equal inputs give equal
        bits for a given numpy/BLAS build and CPU."""
        return self._into(v, None)

    def _into(self, v, out: np.ndarray | None) -> np.ndarray:
        """matvec(v), by its check, calls and bits, into `out` if given: n_rows
        complex entries, zero in every empty row, since no call writes one."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.n_cols,):
            raise DimensionMismatch(
                f"matvec of {self.shape} matrix with vector of shape {v.shape}"
            )
        if out is None:
            if self._rest_rows is None:  # reduceat's own array is the cheapest
                return self._rest_into(v, None)
            out = (np.zeros if self._zero_fill else np.empty)(self.n_rows, dtype=complex)
        for op, block, cols, rows in self._runs:
            op(block, v[cols], out=out[rows])
        return self._rest_into(v, out)

    def _bind(self, src: np.ndarray, out: np.ndarray):
        """The product src -> out of two fixed buffers as a call of no
        arguments: _into's calls and bits, with every run's views cut once."""
        for buf, n in ((src, self.n_cols), (out, self.n_rows)):
            if buf.shape != (n,) or buf.dtype != complex:
                raise DimensionMismatch(f"{buf.dtype} buffer {buf.shape} for {self.shape}")
        calls = [(op, block, src[cols], out[rows]) for op, block, cols, rows in self._runs]

        def product() -> np.ndarray:
            for op, block, v, o in calls:
                op(block, v, out=o)
            return self._rest_into(src, out)
        return product

    def _rest_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        rest = self._rest_rows
        if rest is not None and not rest.size:
            return out
        # `values * v[cols]` lets numpy reuse the gathered temporary from
        # 256 KiB up, multiplying it first.  In place, the explicit product
        # has the fresh-array bits at every size but one entry, which numpy
        # then multiplies by its scalar loop.
        gathered = v[self._rest_cols]
        products = np.multiply(self._rest_values, gathered,
                               out=gathered if gathered.size > 1 else None)
        if rest is None:  # all the rows
            return np.add.reduceat(products, self._starts, out=out)
        out[rest] = np.add.reduceat(products, self._starts)
        return out

    def conj_transpose(self) -> "ComplexSparseMatrix":
        """Return A*: the entries in column order, conjugated."""
        order = _column_order(self)
        counts = np.bincount(self.col_indices, minlength=self.n_cols)
        rows, values = _entry_rows(self)[order], self.values[order]
        del order  # not alive beside the constructor's temporaries
        return ComplexSparseMatrix(
            self.n_cols, self.n_rows, np.concatenate(([0], np.cumsum(counts))),
            rows, np.conj(values, out=values),
        )


def _row_runs(row_offsets: np.ndarray, col_indices: np.ndarray,
              counts: np.ndarray) -> list:
    """Dense panels and diagonal runs (see the summation contract), as (op,
    r0, r1, c0, c1): rows r0..r1-1 store the (r1 - r0, c1 - c0) block at
    column c0 (op _DOT), or one entry each on the diagonal from (r0, c0)
    (op np.multiply).  A panel has two rows or more: numpy hands a one-row
    product to BLAS dot, whose threaded sum depends on the thread count."""
    n = counts.size
    if col_indices.size < min(_PANEL_MIN_ENTRIES, _DIAGONAL_MIN_ROWS):
        return []
    # first and last stored column of each row; an empty row gets its
    # neighbours' and joins only empty rows, in runs of no entries
    first = col_indices.take(row_offsets[:-1], mode="clip")
    last = col_indices[row_offsets[1:] - 1]
    # columns strictly increase within a row, so a row is contiguous exactly
    # when last - first + 1 == count
    dense = last - first + 1 == counts
    # joins[i + 1]: row i + 1 continues row i, in the same columns or, for
    # one-entry rows, one column right
    joins = np.zeros(n + 1, dtype=bool)
    np.equal(first[1:] - first[:-1], counts[1:] == 1, out=joins[1:-1])
    joins[1:-1] &= dense[1:] & dense[:-1] & (counts[1:] == counts[:-1])
    edges = np.flatnonzero(joins[1:] != joins[:-1])
    r0, r1 = edges[0::2], edges[1::2] + 1
    width = counts[r0]
    big = (r1 - r0) * width >= np.where(width > 1, _PANEL_MIN_ENTRIES, _DIAGONAL_MIN_ROWS)
    return [(_DOT, a, b, c, c + w) if w > 1 else (np.multiply, a, b, c, c + b - a)
            for a, b, c, w in np.array((r0, r1, first[r0], width))[:, big].T.tolist()]


def _entry_rows(a: ComplexSparseMatrix) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets))


def _column_order(a: ComplexSparseMatrix) -> np.ndarray:
    """Storage positions of the entries sorted by column, rows ascending
    within a column: the storage order of A*."""
    return np.argsort(a.col_indices, kind="stable")


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


# -- Matrix Market exchange --------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate complex general"
_MM_BATCH = 2048  # entries formatted per write


def write_matrix_market(a: ComplexSparseMatrix, path: str | os.PathLike,
                        adjoint_path: str | os.PathLike | None = None) -> None:
    """Write CSR contents in coordinate complex general format (1-based).

    With `adjoint_path`, also write A* there, byte-identical to
    write_matrix_market(a.conj_transpose(), adjoint_path) but with each
    float formatted once: A*'s lines are A's fields in column order, row
    and column swapped, with the sign of the imaginary part toggled
    (repr(-x) is "-" + repr(x), zeros included).
    """
    rows = _entry_rows(a)
    re, im_abs, im_neg = _value_fields(a.values)
    _write_entries(path, a.shape, rows, a.col_indices, re, im_abs, im_neg)
    if adjoint_path is not None:
        _write_entries(adjoint_path, a.shape[::-1], a.col_indices, rows, re, im_abs,
                       ~im_neg, _column_order(a))


def _value_fields(values: np.ndarray):
    """repr of each real part and of each |imaginary part| as fixed-width
    ASCII bytes (a compact store, no str object per field), plus the sign
    bit of each imaginary part."""
    re, im = values.real, values.imag
    # 24 bytes: the widest repr of a double, e.g. "-2.2250738585072014e-308"
    fields = np.empty((2, values.size), dtype="S24")
    for s in range(0, values.size, _MM_BATCH):
        batch = slice(s, s + _MM_BATCH)
        fields[0, batch] = list(map(float.__repr__, re[batch].tolist()))
        fields[1, batch] = list(map(float.__repr__, np.abs(im[batch]).tolist()))
    return fields[0], fields[1], np.signbit(im)


def _write_entries(path, shape, rows, cols, re, im_abs, im_neg, order=None):
    """Write the header and a `row col re im` line per entry (0-based
    `rows`/`cols`), taking entries in `order` (default: as stored)."""
    nnz = rows.size
    index = np.arange(1, max(shape) + 1).astype(f"S{len(str(max(shape)))}")
    with open(path, "wb") as fh:
        fh.write(f"{_MM_HEADER}\n{shape[0]} {shape[1]} {nnz}\n".encode("ascii"))
        # fields padded with NUL side by side, one line per row of bytes;
        # dropping the NULs joins them into text in bounded batches
        for s in range(0, nnz, _MM_BATCH):
            e = slice(s, s + _MM_BATCH) if order is None else order[s:s + _MM_BATCH]
            k = min(_MM_BATCH, nnz - s)
            space, newline = np.full(k, b" "), np.full(k, b"\n")
            parts = (index[rows[e]], space, index[cols[e]], space, re[e], space,
                     np.where(im_neg[e], b"-", b""), im_abs[e], newline)
            line = np.concatenate([p.view(np.uint8).reshape(k, -1) for p in parts], axis=1)
            fh.write(line[line != 0])


def read_matrix_market(path: str | os.PathLike) -> ComplexSparseMatrix:
    """Read a coordinate complex general file written by this package."""
    return _read_market(path)


def _read_market(path: str | os.PathLike, vector: bool = False) -> ComplexSparseMatrix:
    """read_matrix_market; `vector` refuses more than one column before the body."""
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
            if vector and n_cols != 1:
                raise UnreadableMatrix(f"{path} has shape {(n_rows, n_cols)}, "
                                       "expected an n-by-1 vector")
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
    n = v.shape[0]
    _write_entries(path, (n, 1), np.arange(n), np.zeros(n, dtype=np.int64),
                   *_value_fields(v))


def read_vector_market(path: str | os.PathLike) -> np.ndarray:
    """Read an n-by-1 Matrix Market file back into a dense vector."""
    return _read_market(path, vector=True).to_dense()[:, 0]
