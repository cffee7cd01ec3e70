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
One exception keeps A and A* from streaming two copies of one large panel:
a panel of A* of at least _ADJOINT_PANEL_MIN_ENTRIES (2**19) entries that is
bit for bit the conjugate transpose of a panel P of A is multiplied through
P, as conj(conj(v) . P), so its rows are summed in BLAS's vector-times-matrix
order on P.  `conj_transpose` links such panels with no compare;
`_link_adjoint` links those of a companion read from a file after comparing
their bits.  A* keeps its CSR arrays.  Unlike a gemv's, the bits of a linked
product can depend on the BLAS thread count: OpenBLAS splits its outputs
among the threads, and outputs next to a split are summed in another order.

Matrix Market exchange: `coordinate complex general`, entries `row col
real imag` with integer 1-based indices and shortest round-trip floats, a
byte format that stays fixed; read(write(A)) reproduces A bit-identically,
signed zeros included.  Each part is written as its sign and the bytes of
float.__repr__ of its magnitude, formatted with whole-array steps; a part
goes to float.__repr__ itself only where those steps cannot be sure of its
digits (subnormal, outside [1e-250, 1e250], or next to a tie or a half-ulp
edge).  The writer can write A* beside A from A's own formatted fields, in
the same bytes as a write of A*.  `%` comment lines and blank lines may
appear anywhere in the body.  The reader takes files from any writer and
gives each real and imaginary part the bits float() gives its text; it
parses with whole-array steps, not a call per field.
"""

from __future__ import annotations

import functools
import os
import re

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
# Fewest entries in a panel of A* multiplied through A's panel.  Products in
# the order M M M* M* M* M cost about the same either way from 600 x 600 to
# 725 x 725; at 1000 x 1000 (32 MB for both panels) 1.0-1.4 ms against
# 0.78-0.89 ms through one panel (2 MiB L2 per core, OpenBLAS 0.3.31, one
# thread), and below 600 x 600 the stored panel is as fast or faster.
_ADJOINT_PANEL_MIN_ENTRIES = 2**19


def _adjoint_dot(panel, v, out):
    """panel* v into `out`: the vector-times-matrix product conj(v) . panel,
    conjugated in place."""
    return np.conjugate(_DOT(np.conjugate(v), panel, out=out), out=out)


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
        """Sparse product A @ v: `panel.dot(v[c0:c1])` per dense panel (or
        _adjoint_dot on a linked one) and `np.multiply(d, v[c0:c1])` per
        diagonal run, into slices of the product, and np.add.reduceat over
        `np.multiply(values, v[cols])` for the other rows, all on the calling
        thread.  Equal inputs give equal bits for a given numpy/BLAS build
        and CPU."""
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
        adjoint = ComplexSparseMatrix(
            self.n_cols, self.n_rows, np.concatenate(([0], np.cumsum(counts))),
            rows, np.conj(values, out=values),
        )
        adjoint._link_adjoint(self, check=False)
        return adjoint

    def _link_adjoint(self, a: "ComplexSparseMatrix", check: bool = True) -> None:
        """Multiply each panel of this matrix that is the conjugate transpose
        of a panel of `a` with at least _ADJOINT_PANEL_MIN_ENTRIES entries
        through a's panel.  With `check`, only a panel whose bits equal the
        conjugate transpose of a's, signed zeros included, is linked; without,
        the caller knows this matrix is a*.  A link keeps a's values alive."""
        panels = {(rows.start, rows.stop, cols.start, cols.stop): block
                  for op, block, cols, rows in a._runs
                  if op is _DOT and block.size >= _ADJOINT_PANEL_MIN_ENTRIES}
        for i, (op, block, cols, rows) in enumerate(self._runs):
            panel = panels.get((cols.start, cols.stop, rows.start, rows.stop))
            if op is _DOT and panel is not None and (not check or _is_adjoint(block, panel)):
                self._runs[i] = (_adjoint_dot, panel, cols, rows)


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


def _is_adjoint(block: np.ndarray, panel: np.ndarray) -> bool:
    """Whether `block` holds the bits of panel*, compared a band of about
    65536 entries of `panel` at a time."""
    step = max(1, 2**16 // panel.shape[1])
    for r in range(0, panel.shape[0], step):
        mine, theirs = block[:, r:r + step], np.conjugate(panel[r:r + step]).T
        if not all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
                   for x, y in ((mine.real, theirs.real), (mine.imag, theirs.imag))):
            return False
    return True


def _entry_rows(a: ComplexSparseMatrix) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets))


def _column_order(a: ComplexSparseMatrix) -> np.ndarray:
    """Storage positions of the entries sorted by column, rows ascending
    within a column: the storage order of A*."""
    return np.argsort(a.col_indices, kind="stable")


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
_MM_BATCH = 4096  # entries formatted and written per step


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
    fields, signs = _value_fields(a.values)
    _write_entries(path, a.shape, rows, a.col_indices, fields, signs)
    if adjoint_path is not None:
        signs[1] = ~signs[1]
        _write_entries(adjoint_path, a.shape[::-1], a.col_indices, rows, fields, signs,
                       _column_order(a))


def _value_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr of |real part| and of |imaginary part| of each value, as (2, n)
    24-byte ASCII fields whose NUL bytes, also any before an exponent, are
    padding (a compact store, no str object per field); and the (2, n) sign
    bits of the parts."""
    fields = np.empty((2, values.size), dtype="S24")
    words = fields.view("<u8").reshape(2, values.size, 3)  # bytes in little-endian words
    for i, part in enumerate((values.real, values.imag)):
        for s in range(0, values.size, _MM_BATCH):
            x = np.abs(part[s:s + _MM_BATCH])
            digits, e10, unsure = _shortest_digits(x)
            _lay_out(digits, e10, words[i, s:s + _MM_BATCH])
            slow = np.flatnonzero(unsure)
            if slow.size:
                fields[i, s + slow] = _repr_bytes(x[slow])
    signs = np.empty((2, values.size), bool)
    np.signbit(values.real, out=signs[0])
    np.signbit(values.imag, out=signs[1])
    return fields, signs


def _repr_bytes(x: np.ndarray) -> list[bytes]:
    """float.__repr__ of each double of x, as ASCII: the fields that
    _shortest_digits leaves."""
    return [float.__repr__(v).encode("ascii") for v in x.tolist()]


def _write_entries(path, shape, rows, cols, fields, signs, order=None):
    """Write the header and a `row col re im` line per entry (0-based
    `rows`/`cols`, the parts from _value_fields), taking entries in `order`
    (default: as stored)."""
    nnz = rows.size
    index = _index_text(max(shape))
    # one record of NUL-padded fields per line, each part after its sign
    # byte; dropping the NULs joins them into text
    line = np.zeros(min(nnz, _MM_BATCH), dtype=[
        ("row", index.dtype), ("sp1", "u1"), ("col", index.dtype), ("sp2", "u1"),
        ("sign0", "u1"), ("part0", "S24"), ("sp3", "u1"), ("sign1", "u1"),
        ("part1", "S24"), ("end", "u1")])
    for name in ("sp1", "sp2", "sp3"):
        line[name] = ord(" ")
    line["end"] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"{_MM_HEADER}\n{shape[0]} {shape[1]} {nnz}\n".encode("ascii"))
        for s in range(0, nnz, _MM_BATCH):
            e = slice(s, s + _MM_BATCH) if order is None else order[s:s + _MM_BATCH]
            block = line[:min(_MM_BATCH, nnz - s)]
            block["row"], block["col"] = index[rows[e]], index[cols[e]]
            for i in range(2):
                np.multiply(signs[i, e], np.uint8(ord("-")), out=block[f"sign{i}"])
                block[f"part{i}"] = fields[i, e]
            fh.write(block.tobytes().translate(None, b"\0"))


@functools.lru_cache(maxsize=1)
def _index_text(n: int) -> np.ndarray:
    """1 to n as ASCII, NUL-padded to the width of n (read-only): the index
    fields of the files of one matrix and its vectors."""
    index = np.arange(1, n + 1).astype(f"S{len(str(n))}")
    index.flags.writeable = False
    return index


def read_matrix_market(path: str | os.PathLike) -> ComplexSparseMatrix:
    """Read a coordinate complex general file, such as one written by this
    package.  Each real and imaginary part gets the bits float() gives its
    text."""
    return _read_market(path)


def _read_market(path: str | os.PathLike, vector: bool = False) -> ComplexSparseMatrix:
    """read_matrix_market; `vector` refuses more than one column before the body."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").strip()
            if header.lower() != _MM_HEADER.lower():
                raise UnreadableMatrix(
                    f"unsupported Matrix Market header in {path}: {header!r}"
                )
            size_line = fh.readline().decode("ascii")
            while size_line.lstrip().startswith("%"):
                size_line = fh.readline().decode("ascii")
            parts = size_line.split()  # three counts, each 1 to 19 digits below 2**63
            if len(parts) != 3 or not all(p.isdigit() and len(p) <= 19 and int(p) < 2**63
                                          for p in parts):
                raise UnreadableMatrix(f"bad size line in {path}: {size_line!r}")
            n_rows, n_cols, nnz = (int(p) for p in parts)
            if vector and n_cols != 1:
                raise UnreadableMatrix(f"{path} has shape {(n_rows, n_cols)}, "
                                       "expected an n-by-1 vector")
            index, re_im = _read_entries(fh, nnz)
        vals = np.empty(nnz, dtype=complex)
        vals.real, vals.imag = re_im[:, 0], re_im[:, 1]  # keeps the sign of -0.0
        # 19 digits past 2**63 wrap below 1; from_triplets refuses what is
        # outside the shape
        rows, cols = index.astype(np.int64).T - 1
        return ComplexSparseMatrix.from_triplets(n_rows, n_cols, rows, cols, vals)
    except OSError as exc:
        raise UnreadableMatrix(f"cannot read {path}: {exc}") from exc
    except MemoryError as exc:  # no room for the entry count of the size line
        raise UnreadableMatrix(f"{path} declares more entries than fit: {exc}") from exc
    except UnreadableMatrix:
        raise
    except ValueError as exc:
        raise UnreadableMatrix(f"malformed entry in {path}: {exc}") from exc


# -- reading entry lines -----------------------------------------------------
# The body is parsed with whole-array numpy steps, not one strtod per field
# as np.loadtxt does: at nnz 110k, about 40 against 72 ms per file (2-vCPU
# x86_64, Python 3.11, numpy 2.4).  A real or imaginary part is read as a
# uint64 mantissa m of at most 19 digits and an exponent e; m * 10**e is
# formed in double-double arithmetic to about 2**-100 and rounded to
# nearest.  A field whose product lies too close to a midpoint between
# doubles for that to be certain, or whose digits or exponent are out of
# that range, goes to float(), so every field gets float()'s bits.

_ENTRY_CHUNK = 1 << 18  # bytes read per pass, then to the end of a line: bounds the memory
_PAD = 24  # zero bytes around a chunk's digits: the widest window a field is read through
_U10 = 10 ** np.arange(25, dtype=np.uint64)  # past 10**19 they wrap, and are not used
_SIGN = np.array([1.0, -1.0])
# _KEEP[k][n]: the bytes of word k (of three, the last holding the lowest
# digits) that lie in an n-digit field ending at the window's end
_KEEP = np.array([[2**64 - 2 ** (8 * min(max(24 - n - 8 * k, 0), 8)) for n in range(25)]
                  for k in range(3)], dtype=np.uint64)


def _read_entries(fh, nnz: int) -> tuple[np.ndarray, np.ndarray]:
    """The `nnz` lines `row col real imag` in the rest of binary file `fh`:
    the indices as uint64 and the parts as float64, each of shape (nnz, 2).
    Fields are separated by spaces, tabs or other bytes up to 32; lines end
    in `\n`.  `%` starts a comment to the end of its line, and blank lines
    are skipped.  Raises ValueError on another number of lines, a line of
    other than 4 fields, an index that is not 1 to 19 digits, and a part
    that is not a decimal number [+-](d[.d] | .d)[(e|E)[+-]d]."""
    # filled in place: per-block arrays joined at the end would leave the
    # heap fragmented, about 5 MB more peak RSS at nnz 110k
    index, re_im = np.empty((nnz, 2), np.uint64), np.empty((nnz, 2))
    done = 0
    for i, x in _read_blocks(fh):
        if done + len(i) > nnz:
            raise ValueError(f"declares {nnz} entries, found more")
        index[done:done + len(i)], re_im[done:done + len(i)] = i, x
        done += len(i)
    if done != nnz:
        raise ValueError(f"declares {nnz} entries, found {done}")
    return index, re_im


def _read_blocks(fh, indices: int = 2, comments: bytes = b"%"):
    """_read_lines on the rest of binary file `fh`, a block of whole lines
    at a time, each of the `comments` bytes starting a comment to the end
    of its line: yields the indices and parts of each block."""
    strip = re.compile(b"[" + re.escape(comments) + rb"][^\n]*")
    while lines := fh.read(_ENTRY_CHUNK) + fh.readline():  # to the end of a line
        if any(c in lines for c in comments):  # a scan by re costs more than the parse
            lines = strip.sub(b"", lines)
        yield _read_lines(lines, indices)


def _read_lines(lines: bytes, indices: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The lines of `indices` index fields (2, or 0 for `re im` lines) and a
    real and an imaginary part in `lines`, which hold no comment, parsed as
    _read_entries parses its lines: the indices as uint64, shape (n,
    indices), and the parts as float64, shape (n, 2)."""
    width = indices + 2
    buf = np.frombuffer(lines, np.uint8)
    white = buf <= 32
    edges = np.flatnonzero(np.diff(white, prepend=True, append=True))
    start, end = edges[0::2], edges[1::2]  # of each field
    n = start.size
    if n == 0:
        return np.empty((0, indices), np.uint64), np.empty((0, 2))
    # a line ends between two fields whose gap holds a newline
    line_end = buf[end[:-1]] == 10
    wide = np.flatnonzero(start[1:] - end[:-1] > 1)
    if wide.size:
        newlines = np.flatnonzero(buf == 10)
        line_end[wide] = (np.searchsorted(newlines, start[wide + 1])
                          > np.searchsorted(newlines, end[wide]))
    breaks = np.flatnonzero(line_end)
    if n % width or not np.array_equal(breaks, np.arange(width - 1, n - 1, width)):
        widths = np.diff(breaks, prepend=-1, append=n - 1)
        form = "row col real imag" if indices else "re im"
        raise ValueError(f"a line of {widths[widths != width][0]} fields, not the {width} "
                         f"of `{form}`")
    # the digit value of each byte, 0 where it is no digit; read 8 at a
    # time, from any offset
    digits = np.zeros(buf.size + 2 * _PAD, np.uint8)
    d = digits[_PAD:-_PAD]
    np.subtract(buf, np.uint8(48), out=d)
    is_digit = d <= 9
    d *= is_digit
    words = np.ndarray((digits.size - 7,), dtype="<u8", buffer=digits, strides=(1,))
    start, end = start.reshape(-1, width), end.reshape(-1, width)
    index_len = end[:, :indices] - start[:, :indices]
    if index_len.max(initial=0) > 19:
        raise ValueError("an index of more than 19 digits")
    index, _ = _digit_runs(words, end[:, :indices], index_len)
    parts, marks = _read_decimals(lines, buf, words, start[:, indices:].ravel(),
                                  end[:, indices:].ravel())
    # so each byte that is no digit and no separator is a sign, point or
    # exponent mark in its place in a part
    if d.size - np.count_nonzero(is_digit) - np.count_nonzero(white) != marks:
        raise ValueError("a character out of place in a number")
    return index, parts.reshape(-1, 2)


def _read_decimals(lines, buf, words, start, end):
    """The decimal fields lines[start:end] as float64, and the count of the
    signs, points and exponent marks they hold."""
    last = buf.size - 1
    lead = buf[start]
    neg = lead == 45
    s0 = start + (neg | (lead == 43))  # first digit or point
    e_at = np.flatnonzero((buf | 32) == 101)  # e or E
    e_tok = np.searchsorted(start, e_at, "right") - 1
    if np.any(e_tok < 0) or np.any(e_at >= end[e_tok]) or np.any(e_tok[1:] == e_tok[:-1]):
        raise ValueError("an exponent mark outside a real or imaginary part")
    e_pos = end.copy()  # end of the digits before any exponent
    e_pos[e_tok] = e_at
    # the point: most often after one leading digit, else searched for (the
    # search costs about 9 ms per file at nnz 110k)
    dot = s0 + 1
    found = (buf.take(np.minimum(dot, last)) == 46) & (dot < e_pos)
    if not found.all():
        dot_at = np.flatnonzero(buf == 46)
        dot_tok = np.searchsorted(start, dot_at, "right") - 1
        if (np.any(dot_tok < 0) or np.any(dot_at >= e_pos[dot_tok])
                or np.any(dot_tok[1:] == dot_tok[:-1])):
            raise ValueError("a point outside the digits of a real or imaginary part")
        found[:] = False
        found[dot_tok] = True
        dot = e_pos.copy()
        dot[dot_tok] = dot_at
    n_int = dot - s0
    n_frac = np.maximum(e_pos - dot - 1, 0)
    if np.any(n_int + n_frac == 0):
        raise ValueError("a real or imaginary part without digits")
    x0 = e_at + 1  # first exponent digit, after any sign
    sign = buf.take(np.minimum(x0, last))
    has_sign = ((sign == 43) | (sign == 45)) & (x0 < end[e_tok])
    x0 += has_sign
    n_exp = end[e_tok] - x0
    if np.any(n_exp <= 0):
        raise ValueError("an exponent without digits")
    marks = (np.count_nonzero(s0 > start) + np.count_nonzero(found) + e_at.size
             + np.count_nonzero(has_sign))

    m, _ = _digit_runs(words, dot, np.minimum(n_int, 19))
    n_frac_read = np.minimum(n_frac, 24)
    frac, fits = _digit_runs(words, e_pos, n_frac_read)
    slow = (n_int > 19) | (n_frac > 24) | ~fits | ((m > 0) & (n_int + n_frac > 19))
    m = (m * _U10[n_frac_read] + frac) * ~slow  # a wrapped m is not converted
    e10 = -n_frac
    if e_at.size:
        slow[e_tok] |= n_exp > 19
        exp, _ = _digit_runs(words, end[e_tok], np.minimum(n_exp, 19))
        exp = np.minimum(exp, np.uint64(10**6)).astype(np.int64)
        e10[e_tok] += np.where(sign == 45, -exp, exp)
    x, sure = _round_decimal(m, e10)
    for i in np.flatnonzero(slow | ~sure):
        x[i] = float(lines[s0[i]:end[i]])
    x *= _SIGN[neg.view(np.uint8)]
    return x, marks


def _digit_runs(words, stop, length):
    """The integers whose `length` (0 to 24) digits end before each `stop`,
    and whether each is below 10**19; past that the integer has wrapped."""
    nw = max(1, -(-int(length.max(initial=0)) // 8))
    out, fits = None, np.True_
    for k in range(3 - nw, 3):
        v = _eight_digits(words[stop + (_PAD - 24 + 8 * k)] & _KEEP[k].take(length))
        if k == 0:
            fits = v < 1000  # the top 8 of 24 digits
        out = v if out is None else out * np.uint64(10**8) + v
    return out, fits


_SWAR_LOW = np.uint64(0x000000FF000000FF)
_SWAR_HI = np.uint64(100 + (1000000 << 32))
_SWAR_LO = np.uint64(1 + (10000 << 32))


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The integer of the 8 digit values packed in each uint64, first digit
    in the lowest byte: pairs, then quads, then the eight are combined."""
    v = v * np.uint64(10) + (v >> np.uint64(8))
    return ((v & _SWAR_LOW) * _SWAR_HI + ((v >> np.uint64(16)) & _SWAR_LOW) * _SWAR_LO
            ) >> np.uint64(32)


def _pow10_dd(e: int) -> tuple[float, float]:
    """10**e as hi + lo, each rounded to nearest from exact integers."""
    if e >= 0:
        hi = float(10**e)
        return hi, float(10**e - int(hi))
    k = 10**-e
    hi = 1 / k
    num, den = hi.as_integer_ratio()
    return hi, (den - num * k) / (den * k)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into two halves of 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_table() -> np.ndarray:
    """_pow10_dd(e) for e from -270 to 285, as rows hi and lo (read-only)."""
    table = np.array([_pow10_dd(e) for e in range(-270, 286)]).T
    table.flags.writeable = False
    return table


def _pow10_terms(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_pow10_dd(k) for each k, from -270 to 285, of the int64 array e, as
    arrays hi and lo."""
    hi_t, lo_t = _pow10_table()
    return hi_t.take(e + 270), lo_t.take(e + 270)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product: a * b rounded, and the exact error of that rounding."""
    prod = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return prod, ((ah * bh - prod) + ah * bl + al * bh) + al * bl


def _round_decimal(m: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m * 10**e10 rounded to nearest, and where that is certain.  Dekker's
    product of m and 10**e10 as double-doubles, prod + t, is within about
    2**-100 of the exact one.  Rounding is monotonic, so where prod + t
    rounds to the same double when moved by 2**-95 either way, the exact
    product rounds to it too.  Exponents out of [-270, 285], where a term
    could underflow or the product overflow, are not certain."""
    e = np.clip(e10, -270, 285)
    hi, lo = _pow10_terms(e)
    mf = m.astype(np.float64)
    m_lo = (m - mf.astype(np.uint64)).view(np.int64).astype(np.float64)  # exact
    prod, t = _two_product(mf, hi)
    t += mf * lo + m_lo * hi
    slack = prod * 2.0**-95
    r = prod + (t + slack)
    return r, (r == prod + (t - slack)) & (e == e10)


# -- writing shortest fields -------------------------------------------------
# A part is written as its sign and the repr of its magnitude a, formatted
# with whole-array steps, not one float.__repr__ per field.  repr writes the
# fewest significant digits that read back as a (the nearer decimal if two
# do), in fixed notation for 1e-4 <= a < 1e16 and as d.ddde±XX otherwise.
# Here a * 10**(16 - E), E = floor(log10 a), is formed as a double-double
# q + f to about 2**-100: X, a scaled into [1e16, 1e17).  A decimal reads
# back as a when it is nearer to X than half an ulp of a, scaled the same
# way (a quarter of an ulp below a power of two).  A decimal of 15 digits or
# fewer that reads back as a is a's rounding to 15 digits (DBL_DIG), so the
# shortest is that rounding with its trailing zeros dropped, if one of the
# two 15-digit neighbours of X reads back, or else a 16-digit neighbour that
# does, or else the nearer 17-digit one; of two neighbours that both read
# back, the nearer.  A field goes to float.__repr__ (_repr_bytes) where one
# of these tests falls within _SLACK of its edge (a decimal half an ulp from
# a, or two neighbours equally near), or where a is subnormal or outside
# [1e-250, 1e250].

_SLACK = 2.0**-30  # far above the error of q + f, about 2**-43 near 1e17
_ASCII_ZEROS = 0x3030303030303030


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables that lay the 17 digits of a scaled decimal out as
    its repr.  By E + 400: the first column of the masks that serve E, and
    `e±XX` or `e±XXX` at bytes 18 to 22 of a field (none in fixed notation).
    The masks, in columns (min(max(E, -5), 16) + 5) * 18 + digit count, E
    -5 and 16 standing for every E written as d.ddde±XX; in rows, the shift
    of the digits in bits past the zeros of `0.000ddd` (all but its first),
    those zeros, then per 8-byte word of the field the digits that stay, the
    point, and the digits that move up one byte past it."""
    low = [(1 << 8 * n) - 1 for n in range(25)]
    columns = []
    for e in range(-5, 17):
        sci = e in (-5, 16)
        lead = -e if not sci and e < 0 else 0
        point = 1 if sci or e < 0 else e + 1
        for count in range(18):
            length = count + (count > 1) if sci else max(count + lead, e + 2) + 1
            masks = (low[min(point, length)], ord(".") << 8 * point if point < length else 0,
                     low[length] & ~low[point + 1])
            columns.append([8 * lead, low[lead] & _ASCII_ZEROS]
                           + [m >> 64 * j & (2**64 - 1) for j in range(3) for m in masks])
    first = (np.clip(np.arange(-400, 401), -5, 16) + 5) * 18
    exponent = np.array([0 if -4 <= e < 16 else
                         int.from_bytes(f"e{e:+03d}".encode("ascii"), "little") << 16
                         for e in range(-400, 401)], dtype=np.uint64)
    tables = first, exponent, np.array(columns, dtype=np.uint64).T.copy()
    for t in tables:
        t.flags.writeable = False
    return tables


def _shortest_digits(x: np.ndarray):
    """The digits of repr(v) for each double v >= 0 of x, as a 17-digit
    integer (0 for 0.0); E; and where they are not certain."""
    in_range = (x >= 1e-250) & (x <= 1e250)
    a = np.where(in_range, x, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    q, f, hi = _scaled(a, e10)
    # log10 can miss by one next to a power of ten: correct E from q + f
    above = (q > 1e17) | ((q == 1e17) & (f >= 0))
    below = (q < 1e16) | ((q == 1e16) & (f < 0))
    off = np.flatnonzero(above | below)
    if off.size:
        e10[off] += above[off].astype(np.int64) * 2 - 1
        q[off], f[off], hi[off] = _scaled(a[off], e10[off])
        in_range[off[(q[off] < 1e16) | (q[off] > 1e17)]] = False
    floor = np.floor(f)
    digits = q.astype(np.int64) + floor.astype(np.int64)
    frac = np.subtract(f, floor, out=f)  # X = digits + frac
    bits = a.view(np.uint64)
    half_ulp = np.multiply((((bits >> 52) - 53) << 52).view(np.float64), hi, out=hi)
    half_below = np.where(bits & 0xFFFFFFFFFFFFF, half_ulp, 0.5 * half_ulp)
    # reads back: for sure below the first bound, perhaps below the second
    below_bounds = half_below - _SLACK, half_below + _SLACK
    above_bounds = half_ulp - _SLACK, half_ulp + _SLACK
    # 17 digits: the nearer of digits and digits + 1 always reads back; then
    # a 16- and a 15-digit neighbour replace it where one reads back
    cand = digits + (frac > 0.5)
    unsure = np.abs(frac - 0.5) <= _SLACK
    for u in (10, 100):
        base = digits // u * u
        s = (digits - base) + frac  # X - base, in [0, u)
        below, below_maybe = (s < b for b in below_bounds)
        s_up = u - s
        above, above_maybe = (s_up < b for b in above_bounds)
        take = below | above
        up = above & (~below | (s_up <= s))  # the nearer of two
        edge = (below != below_maybe) | (above != above_maybe)
        edge |= below & above & (np.abs(s - s_up) <= 2 * _SLACK)
        cand = np.where(take, base + u * up, cand)
        unsure = edge | unsure & ~take
    carry = cand == 10**17
    e10 += carry
    cand[carry] = 10**16
    cand *= x != 0
    return cand.view(np.uint64), e10, unsure | ~in_range & (x != 0)


def _scaled(a: np.ndarray, e10: np.ndarray):
    """a * 10**(16 - e10) as q + f, q rounded; and 10**(16 - e10) rounded."""
    hi, lo = _pow10_terms(16 - e10)
    q, f = _two_product(a, hi)
    f += a * lo
    return q, f, hi


def _lay_out(digits: np.ndarray, e10: np.ndarray, out: np.ndarray) -> None:
    """Write the repr text of each 17-digit decimal `digits` * 10**(e10 - 16)
    into the rows of `out`, the (k, 3) uint64 words of 24-byte fields."""
    lead = digits // 10**16
    rest = digits - lead * 10**16
    eights = np.empty((digits.size, 2), np.uint64)  # the other 16 digits
    eights[:, 0] = rest // 10**8
    eights[:, 1] = rest - eights[:, 0] * 10**8
    eights = _eight_digit_values(eights.ravel()).reshape(-1, 2)
    # 1 + the highest nonzero byte of each eight, from its exponent as a
    # double (< 0 for 0): the significant digits, trailing zeros dropped
    top = ((eights.astype(np.float64).view(np.int64) >> 52) - 1015) >> 3
    count = np.maximum(np.maximum(top[:, 0] + 1, top[:, 1] + 9), 1)
    first, exponent, masks = _layout()
    key = first.take(e10 + 400) + count
    # the digits as text from byte 0 of three words, moved up past the zeros
    # of any `0.000`
    hi8, lo8 = eights[:, 0], eights[:, 1]
    words = ((lead | hi8 << 8) + _ASCII_ZEROS, (hi8 >> 56 | lo8 << 8) + _ASCII_ZEROS,
             (lo8 >> 56) + 0x30)
    shift = masks[0].take(key)
    back = 63 - shift
    moved = [words[0] << shift | masks[1].take(key)]
    moved += [w << shift | (v >> 1) >> back for w, v in zip(words[1:], words)]
    # then the point put in, every digit past it one byte up
    for j in range(3):
        up = moved[j] << 8
        if j:
            up |= moved[j - 1] >> 56
        keep, point, past = (masks[2 + 3 * j + i].take(key) for i in range(3))
        out[:, j] = moved[j] & keep | point | up & past
    out[:, 2] |= exponent.take(e10 + 400)


def _eight_digit_values(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10**8 as byte values packed in a
    uint64, the first in the lowest byte: _eight_digits in reverse, quads,
    then pairs, then digits, each split off by a multiply and a shift."""
    hi = v // 10000
    v = hi | (v - hi * 10000) << 32
    hi = (v * 10486) >> 20 & 0x0000007F0000007F  # v // 100 per 32-bit lane
    v = hi | (v - hi * 100) << 16
    hi = (v * 103) >> 10 & 0x000F000F000F000F  # v // 10 per 16-bit lane
    return hi | (v - hi * 10) << 8


def write_vector_market(v: np.ndarray, path: str | os.PathLike) -> None:
    """Write a vector as an n-by-1 coordinate complex general matrix."""
    v = as_vector(v)
    n = v.shape[0]
    _write_entries(path, (n, 1), np.arange(n), np.zeros(n, dtype=np.int64),
                   *_value_fields(v))


def read_vector_market(path: str | os.PathLike) -> np.ndarray:
    """Read an n-by-1 Matrix Market file back into a dense vector."""
    return _read_market(path, vector=True).to_dense()[:, 0]
