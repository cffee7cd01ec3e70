import gc
import os
from decimal import Decimal, localcontext
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gencheb
import gencheb.linalg as linalg
from gencheb.errors import DimensionMismatch, UnreadableMatrix
from gencheb.genmat import (
    NormalMatrixSpec,
    assemble_normal_system,
    example33_fixture,
    write_generated_system,
)
from gencheb.linalg import (
    _DIAGONAL_MIN_ROWS,
    _PANEL_MIN_ENTRIES,
    ComplexSparseMatrix,
    as_vector,
    geometric_sum_apply,
    read_matrix_market,
    read_vector_market,
    write_matrix_market,
    write_vector_market,
)


def random_sparse(rng, n_rows, n_cols, density=0.3):
    dense = np.where(
        rng.random((n_rows, n_cols)) < density,
        rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols)),
        0.0,
    )
    return ComplexSparseMatrix.from_dense(dense), dense


def _eye(n):
    """The n x n identity: from_dense(np.eye(n))'s CSR, without the dense array."""
    idx = np.arange(n)
    return ComplexSparseMatrix.from_triplets(n, n, idx, idx, np.ones(n))


class TestMatvec:
    def test_identity(self):
        eye = _eye(5)
        v = np.arange(5, dtype=complex) + 1j
        assert np.array_equal(eye.matvec(v), v)

    def test_permutation_swap(self):
        swap = ComplexSparseMatrix.from_dense(np.array([[0, 1], [1, 0]], dtype=complex))
        out = swap.matvec(np.array([3.0 + 1j, 7.0]))
        assert np.array_equal(out, np.array([7.0, 3.0 + 1j]))

    def test_example33_row_sums(self):
        fixture = example33_fixture()
        out = fixture.system.M.matvec(np.ones(4, dtype=complex))
        # first row summed by hand: 1.40-1.80+1.20+0.20 + (0.70-2.80-2.80)i
        assert out[0] == pytest.approx(1.0 - 4.9j, abs=1e-14)
        dense = fixture.system.M.to_dense()
        assert np.allclose(out, dense.sum(axis=1), atol=1e-14)

    def test_dimension_mismatch(self):
        eye = _eye(4)
        with pytest.raises(DimensionMismatch):
            eye.matvec(np.ones(5, dtype=complex))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, _ = random_sparse(rng, 12, 9)
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            w = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            lhs = a.matvec(alpha * v + w)
            rhs = alpha * a.matvec(v) + a.matvec(w)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_frobenius_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, _ = random_sparse(rng, 10, 10)
            v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            bound = np.linalg.norm(a.values) * np.linalg.norm(v)  # |A|_F |v|
            assert np.linalg.norm(a.matvec(v)) <= bound * (1 + 1e-12)

    def test_empty_rows_are_fine(self):
        a = ComplexSparseMatrix.from_triplets(4, 4, [1, 3], [2, 0], [2.0, 5.0])
        out = a.matvec(np.ones(4, dtype=complex))
        assert np.array_equal(out, np.array([0.0, 2.0, 0.0, 5.0], dtype=complex))


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def stored_pattern_and_vector(draw):
    """A stored-entry mask (explicit zeros allowed), its values and a vector."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    stored = draw(hnp.arrays(bool, shape))
    values = draw(hnp.arrays(float, shape, elements=_FINITE)) + 1j * draw(
        hnp.arrays(float, shape, elements=_FINITE)
    )
    v = draw(hnp.arrays(float, shape[1], elements=_FINITE)) + 1j * draw(
        hnp.arrays(float, shape[1], elements=_FINITE)
    )
    return stored, values, v


def _case(stored, v):
    stored = np.array(stored, dtype=bool)
    return stored, np.where(stored, 1.5 - 0.5j, 0.0), np.asarray(v, dtype=complex)


@st.composite
def stacked_runs(draw):
    """Rows stacked from pieces that form, or nearly form, runs: diagonal
    stretches and dense blocks around both floors, two-entry rows and empty
    rows; adjacent pieces may join.  Returns (n_cols, columns per row, seed)."""
    pieces = draw(st.lists(st.one_of(
        st.tuples(st.just("diagonal"), st.integers(100, 160), st.integers(0, 160)),
        st.tuples(st.just("block"), st.integers(1, 40), st.integers(2, 40),
                  st.integers(0, 280)),
        st.tuples(st.just("pair"), st.integers(0, 318)),
        st.tuples(st.just("empty")),
    ), min_size=1, max_size=6))
    rows = []
    for kind, *p in pieces:
        if kind == "diagonal":
            rows += [[p[1] + i] for i in range(p[0])]
        elif kind == "block":
            rows += [list(range(p[2], p[2] + p[1]))] * p[0]
        else:
            rows.append([p[0], p[0] + 1] if kind == "pair" else [])
    return 320, rows, draw(st.integers(0, 2**32 - 1))


def _kernel_plan(a):
    """The rows of `a` by kernel: panels and diagonal runs as (r0, r1, c0,
    c1), the reduceat rows and the empty rows.  Asserts that every row is in
    exactly one of them and that each run multiplies a view of values."""
    panels, diagonals = [], []
    owners = np.zeros(a.n_rows, dtype=int)
    for op, block, cols, rows in a._runs:
        (r0, r1), (c0, c1) = (rows.start, rows.stop), (cols.start, cols.stop)
        assert np.shares_memory(block, a.values)
        if op is np.ndarray.dot:
            panels.append((r0, r1, c0, c1))
            assert block.shape == (r1 - r0, c1 - c0)
        else:
            assert op is np.multiply
            diagonals.append((r0, r1, c0, c1))
            assert block.shape == (r1 - r0,) == (c1 - c0,)
        owners[r0:r1] += 1
    rest = np.arange(a.n_rows) if a._rest_rows is None else a._rest_rows
    empty = np.flatnonzero(np.diff(a.row_offsets) == 0)
    owners[rest] += 1
    owners[empty] += 1
    assert np.all(owners == 1)
    return panels, diagonals, rest, empty


def _loop_runs(a):
    """Panels and diagonal runs found by a plain loop over the rows."""
    rows = [a.col_indices[a.row_offsets[r]:a.row_offsets[r + 1]].tolist()
            for r in range(a.n_rows)]

    def contiguous(cols):
        return bool(cols) and cols == list(range(cols[0], cols[0] + len(cols)))

    def continues(r):  # row r extends the run of row r - 1
        prev, cur = rows[r - 1], rows[r]
        return (contiguous(prev) and contiguous(cur) and len(prev) == len(cur)
                and cur[0] == prev[0] + (len(cur) == 1))

    panels, diagonals, r0 = [], [], 0
    for r in range(1, a.n_rows + 1):
        if r < a.n_rows and continues(r):
            continue
        height, width = r - r0, len(rows[r0])
        if height > 1 and width > 1 and height * width >= _PANEL_MIN_ENTRIES:
            panels.append((r0, r, rows[r0][0], rows[r0][0] + width))
        if height >= max(2, _DIAGONAL_MIN_ROWS) and width == 1:
            diagonals.append((r0, r, rows[r0][0], rows[r0][0] + height))
        r0 = r
    return panels, diagonals


def _reduceat_product(a, v):
    """A @ v summed by reduceat alone, the products made in a fresh array."""
    out = np.zeros(a.n_rows, dtype=complex)
    stored = np.diff(a.row_offsets) > 0
    if a.nnz:
        out[stored] = np.add.reduceat(np.multiply(a.values, v[a.col_indices]),
                                      a.row_offsets[:-1][stored])
    return out


def _assert_product(a, v):
    """matvec matches the dense product to 1e-13 of |A| |v| and repeats its
    bits; rows outside panels have the reduceat bits."""
    got = a.matvec(v)
    dense = a.to_dense()
    assert got.shape == (a.n_rows,)
    assert np.all(np.abs(got - dense @ v) <= 1e-13 * (np.abs(dense) @ np.abs(v)))
    assert np.array_equal(a.matvec(v.copy()), got)
    outside = np.ones(a.n_rows, dtype=bool)
    for r0, r1, _, _ in _kernel_plan(a)[0]:
        outside[r0:r1] = False
    assert np.array_equal(got[outside], _reduceat_product(a, v)[outside])


MAIN_200 = [(0, 200, 0)]


class TestMatvecProperties:
    @given(stored_pattern_and_vector())
    # 1x1; nnz 0; an empty first, middle and last row
    @example(_case([[True]], [2.0]))
    @example(_case([[False, False, False], [False, False, False]], [1.0, 2.0, 3.0]))
    @example(_case([[False, False], [True, True], [True, False]], [1.0, -2.0]))
    @example(_case([[True, False], [False, False], [True, True]], [1.0, -2.0]))
    @example(_case([[True, True, False], [False, True, True], [False] * 3], [1.0, 1j, 3.0]))
    def test_matches_dense_product_and_repeats_bits(self, case):
        stored, values, v = case
        rows, cols = np.nonzero(stored)
        a = ComplexSparseMatrix.from_triplets(*stored.shape, rows, cols, values[rows, cols])
        _assert_product(a, v)

    @given(stacked_runs())
    def test_runs_are_the_row_loop_runs_and_match_the_dense_product(self, case):
        n_cols, stored_rows, seed = case
        rows = np.repeat(np.arange(len(stored_rows)), [len(c) for c in stored_rows])
        cols = np.array([c for r in stored_rows for c in r], dtype=np.int64)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
        a = ComplexSparseMatrix.from_triplets(len(stored_rows), n_cols, rows, cols, values)
        panels, diagonals, _, _ = _kernel_plan(a)
        assert (panels, diagonals) == _loop_runs(a)
        _assert_product(a, rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols))

    @given(stacked_runs())
    def test_products_into_buffers_have_the_matvec_bits(self, case):
        # _into and a bound product write matvec's bits, again and again into
        # the same zeroed buffer, and a bound product reads what its source
        # buffer holds at the call
        n_cols, stored_rows, seed = case
        rows = np.repeat(np.arange(len(stored_rows)), [len(c) for c in stored_rows])
        cols = np.array([c for r in stored_rows for c in r], dtype=np.int64)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
        a = ComplexSparseMatrix.from_triplets(len(stored_rows), n_cols, rows, cols, values)
        bits = lambda v: v.view(np.uint64).tolist()
        src, out = np.zeros(n_cols, dtype=complex), np.zeros(a.n_rows, dtype=complex)
        product = a._bind(src, out)
        for _ in range(3):
            v = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
            assert a._into(v, out) is out and bits(out) == bits(a.matvec(v))
            src[:] = rng.standard_normal(n_cols) + 1j * rng.standard_normal(n_cols)
            assert product() is out and bits(out) == bits(a.matvec(src))

    @pytest.mark.parametrize("src, out", [
        (np.zeros(3, complex), np.zeros(2, complex)),
        (np.zeros(2, complex), np.zeros(3, complex)),
        (np.zeros(2, complex), np.zeros((2, 1), complex)),
        (np.zeros(2), np.zeros(2, complex)),
        (np.zeros(2, complex), np.zeros(2, np.complex64)),
    ])
    def test_bound_buffers_are_checked_when_bound(self, src, out):
        a = ComplexSparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(DimensionMismatch):
            a._bind(src, out)

    def test_a_product_into_a_buffer_checks_its_vector_as_matvec_does(self):
        a = ComplexSparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        out = np.zeros(2, dtype=complex)
        for v in (np.zeros(3), np.zeros((2, 1))):
            with pytest.raises(DimensionMismatch):
                a.matvec(v)
            with pytest.raises(DimensionMismatch):
                a._into(v, out)
        assert a._into([1, 1j], out) is out and out.tolist() == [1 + 2j, 3j]

    # (shape, dense blocks (r0, r1, c0, c1), dropped entries, diagonal
    # stretches (r0, r1, c0), panels, diagonal runs); a block replaces its rows
    PANEL_CASES = {
        "first rows": ((200, 200), [(0, 64, 0, 64)], [], MAIN_200,
                       [(0, 64, 0, 64)], [(64, 200, 64, 200)]),
        # 70 and 66 diagonal rows are below the run floor
        "middle rows": ((200, 200), [(70, 134, 30, 94)], [], MAIN_200,
                        [(70, 134, 30, 94)], []),
        "last rows": ((200, 200), [(136, 200, 136, 200)], [], MAIN_200,
                      [(136, 200, 136, 200)], [(0, 136, 0, 136)]),
        "adjacent, other start": ((200, 200), [(0, 64, 0, 64), (64, 128, 10, 74)], [],
                                  MAIN_200, [(0, 64, 0, 64), (64, 128, 10, 74)], []),
        "adjacent, other width": ((200, 200), [(0, 64, 0, 64), (64, 128, 0, 80)], [],
                                  MAIN_200, [(0, 64, 0, 64), (64, 128, 0, 80)], []),
        "dropped entry splits": ((200, 200), [(0, 140, 0, 64)], [(64, 30)], MAIN_200,
                                 [(0, 64, 0, 64), (65, 140, 0, 64)], []),
        "empty rows around": ((200, 100), [(10, 74, 20, 84)], [], [],
                              [(10, 74, 20, 84)], []),
        # one-entry rows in one column are neither a panel nor a diagonal
        "n x 1": ((5000, 1), [(0, 5000, 0, 1)], [], [], [], []),
        "panel at the floor": ((200, 200), [(0, 32, 0, 32)], [], MAIN_200,
                               [(0, 32, 0, 32)], [(32, 200, 32, 200)]),
        "the n=400, block 40 systems": ((400, 400), [(0, 40, 0, 40)], [], [(0, 400, 0)],
                                        [(0, 40, 0, 40)], [(40, 400, 40, 400)]),
        # two-entry rows below the floor around the diagonal runs
        "diagonal, first rows": ((300, 300), [(200, 300, 0, 2)], [], [(0, 200, 0)],
                                 [], [(0, 200, 0, 200)]),
        "diagonal, middle rows": ((300, 300), [(0, 50, 0, 2), (250, 300, 0, 2)], [],
                                  [(50, 250, 50)], [], [(50, 250, 50, 250)]),
        "diagonal, last rows": ((300, 300), [(0, 100, 0, 2)], [], [(100, 300, 100)],
                                [], [(100, 300, 100, 300)]),
        "diagonal at the floor": ((300, 300), [(128, 300, 0, 2)], [], [(0, 128, 0)],
                                  [], [(0, 128, 0, 128)]),
        "shifted diagonal": ((300, 400), [], [], [(0, 300, 100)], [], [(0, 300, 100, 400)]),
        "below the diagonal, empty rows above": ((400, 300), [], [], [(100, 400, 0)],
                                                 [], [(100, 400, 0, 300)]),
        "a column gap splits": ((400, 401), [], [], [(0, 200, 0), (200, 400, 201)],
                                [], [(0, 200, 0, 200), (200, 400, 201, 401)]),
        "a two-entry row splits": ((400, 400), [(200, 201, 200, 202)], [], [(0, 400, 0)],
                                   [], [(0, 200, 0, 200), (201, 400, 201, 400)]),
        "an empty row splits": ((400, 400), [], [(200, 200)], [(0, 400, 0)],
                                [], [(0, 200, 0, 200), (201, 400, 201, 400)]),
    }

    @staticmethod
    def _pattern_matrix(shape, blocks, dropped, diagonals, seed=0):
        stored = np.zeros(shape, dtype=bool)
        for r0, r1, c0 in diagonals:
            stored[np.arange(r0, r1), np.arange(c0, c0 + r1 - r0)] = True
        for r0, r1, c0, c1 in blocks:
            stored[r0:r1] = False
            stored[r0:r1, c0:c1] = True
        for r, c in dropped:
            stored[r, c] = False
        rows, cols = np.nonzero(stored)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        v = rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1])
        return ComplexSparseMatrix.from_triplets(*shape, rows, cols, values), v

    @pytest.mark.parametrize("case", list(PANEL_CASES))
    def test_dense_panels_match_dense_product_and_repeat_bits(self, case):
        shape, blocks, dropped, diagonals, panels, runs = self.PANEL_CASES[case]
        a, v = self._pattern_matrix(shape, blocks, dropped, diagonals)
        assert _kernel_plan(a)[:2] == (panels, runs) == _loop_runs(a)
        _assert_product(a, v)

    @pytest.mark.parametrize("shape, blocks, diagonals", [
        ((200, 200), [(0, 31, 0, 33)], MAIN_200),    # 1023 entries
        ((200, 200), [(0, 200, 0, 5)], []),          # 1000 entries
        ((200, 200), [(127, 200, 0, 2)], [(0, 127, 0)]),  # 127 diagonal rows
        ((3, 5000), [(1, 2, 0, 5000)], [(0, 3, 0)]),  # one long row is not a panel
    ])
    def test_below_the_floor_gives_the_reduceat_bits(self, shape, blocks, diagonals):
        a, v = self._pattern_matrix(shape, blocks, [], diagonals)
        assert _kernel_plan(a)[0] == []
        assert np.array_equal(a.matvec(v), _reduceat_product(a, v))

    @pytest.mark.parametrize("n, runs", [(1, []), (127, []), (128, [(0, 128, 0, 128)]),
                                         (3000, [(0, 3000, 0, 3000)])])
    def test_identity_is_one_diagonal_run(self, n, runs):
        eye = _eye(n)
        assert _kernel_plan(eye)[:2] == ([], runs)
        v = np.random.default_rng(n).standard_normal(n) + 1j
        assert np.array_equal(eye.matvec(v), v)

    def test_example33_has_no_run(self):
        fixture = example33_fixture()
        for m in (fixture.system.M, fixture.system.M_tilde):
            assert m._runs == [] and m._rest_rows is None

    # `values * v[cols]` reuses the gathered temporary from 16,384 entries
    # (256 KiB) up and multiplies it first, which changes imaginary-part bits
    @pytest.mark.parametrize("n", [4000, 4096, 10000])
    def test_reduceat_products_have_fresh_array_bits_at_every_size(self, n):
        rng = np.random.default_rng(n)
        cols = np.sort((np.arange(n)[:, None] + [0, 3, 7, 11]) % n, axis=1).ravel()
        rows = np.repeat(np.arange(n), 4)
        values = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
        a = ComplexSparseMatrix.from_triplets(n, n, rows, cols, values)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert a._rest_rows is None
        assert np.array_equal(a.matvec(v), _reduceat_product(a, v))

    def test_one_entry_product_has_fresh_array_bits(self):
        # numpy multiplies one entry in place by a scalar loop of other bits
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = ComplexSparseMatrix.from_triplets(3, 3, [1], [2], [x])
            v = np.array([0.0, 0.0, y])
            assert np.array_equal(a.matvec(v), _reduceat_product(a, v))


def _run_python(code, timeout=120):
    src = os.path.dirname(os.path.dirname(gencheb.__file__))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


_PANEL_DIGEST = """
import hashlib
import numpy as np
from gencheb.linalg import ComplexSparseMatrix
rng = np.random.default_rng(5)
digest = hashlib.sha256()
# panels up to a million entries, among them odd heights and widths
for rows, w in ((400, 400), (40, 40), (2, 32768), (8000, 1), (1, 32768),
                (1000, 1000), (1233, 131), (515, 517), (19, 8999), (18, 9999)):
    dense = rng.standard_normal((rows, w)) + 1j * rng.standard_normal((rows, w))
    v = rng.standard_normal(w) + 1j * rng.standard_normal(w)
    digest.update(ComplexSparseMatrix.from_dense(dense).matvec(v).tobytes())
n = 20000
d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
digest.update(ComplexSparseMatrix(n, n, np.arange(n + 1), np.arange(n), d).matvec(v).tobytes())
# two panels and a diagonal run in one matrix
dense = np.zeros((804, 804), dtype=complex)
for r0, r1 in ((0, 401), (401, 804)):
    dense[r0:r1, r0:r1] = rng.standard_normal((r1 - r0,) * 2) + 1j
rows, cols = np.nonzero(dense)
tail = np.arange(804, 2804)
d = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
a = ComplexSparseMatrix.from_triplets(2804, 2804, np.r_[rows, tail], np.r_[cols, tail],
                                      np.r_[dense[rows, cols], d])
assert [op.__name__ for op, *_ in a._runs] == ["dot", "dot", "multiply"]
v = rng.standard_normal(2804) + 1j * rng.standard_normal(2804)
digest.update(a.matvec(v).tobytes())
print(digest.hexdigest())
"""


def test_panel_bits_do_not_depend_on_the_blas_thread_count():
    # the 1 x 32768 row is summed by reduceat: numpy would hand a one-row
    # product to BLAS dot, whose threaded sum of a long row differs
    src = os.path.dirname(os.path.dirname(gencheb.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _PANEL_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


_LINKED_PRODUCTS = """
import numpy as np
from gencheb.linalg import ComplexSparseMatrix
rng = np.random.default_rng(6)
bits = lambda x: x.view(np.uint64).tolist()
# the large-solve panel, the smallest linked square panel, and an odd shape
for rows, width in ((1000, 1000), (725, 725), (1233, 431)):
    dense = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
    a = ComplexSparseMatrix.from_dense(dense)
    at = a.conj_transpose()
    assert [op.__name__ for op, *_ in at._runs] == ["_adjoint_dot"]
    stored = ComplexSparseMatrix(width, rows, at.row_offsets, at.col_indices, at.values.copy())
    v = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    got, want = at.matvec(v), stored.matvec(v)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    src, out = v.copy(), np.zeros(width, dtype=complex)
    assert bits(at.matvec(v.copy())) == bits(at._bind(src, out)()) == bits(got)
print("ok")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_linked_products_at_one_and_two_blas_threads(threads):
    # A linked panel's product is BLAS's vector-times-matrix product, which
    # OpenBLAS splits among its threads by output: at 725 x 725 the outputs
    # next to the split are summed in another order at 2 threads than at 1.
    # So at each thread count the values are checked against the stored
    # panel, and the bits against each other path.
    src = os.path.dirname(os.path.dirname(gencheb.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _LINKED_PRODUCTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


_NEW_THREADS = """
import threading
import numpy as np
from gencheb.linalg import ComplexSparseMatrix
a = ComplexSparseMatrix.from_dense(np.ones((1000, 1000)) + 1j)
assert [block.size for _, block, *_ in a._runs] == [1_000_000]
before = set(threading.enumerate())
for _ in range(3):
    a.matvec(np.ones(1000, dtype=complex))
print(sorted(t.name for t in set(threading.enumerate()) - before))
"""


def test_a_product_starts_no_thread():
    # in a fresh process: a thread a product started would be alive after it
    done = _run_python(_NEW_THREADS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _two_panels_and_a_diagonal(rng):
    """A 2804 x 2804 matrix of two 400-odd-row panels and a 2000-row diagonal
    run, with the dense matrix it stores."""
    dense = np.zeros((2804, 2804), dtype=complex)
    for r0, r1 in ((0, 401), (401, 804)):
        dense[r0:r1, r0:r1] = rng.standard_normal((r1 - r0,) * 2) + 1j
    dense[804:, 804:] = np.diag(rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
    return ComplexSparseMatrix.from_dense(dense), dense


class TestLargePanels:
    """Panels above 160,000 entries take the one product path: one gemv per
    panel on the calling thread, whatever the threads or CPUs around it."""

    @staticmethod
    def _cases(seed):
        """(matrix, vector, product) for a panel and a matrix of three runs."""
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((1233, 131)) + 1j * rng.standard_normal((1233, 131))
        cases = []
        for a in (ComplexSparseMatrix.from_dense(dense), _two_panels_and_a_diagonal(rng)[0]):
            v = rng.standard_normal(a.n_cols) + 1j * rng.standard_normal(a.n_cols)
            cases.append((a, v, a.matvec(v)))
        return cases

    # odd heights and widths, a million entries, and two panels below 160,000
    @pytest.mark.parametrize("rows, width", [
        (1000, 1000), (1233, 131), (515, 517), (19, 8999), (18, 9999),
        (399, 400), (2, 70_000),
    ])
    def test_a_panel_has_the_bits_of_one_gemv(self, rows, width):
        rng = np.random.default_rng(rows)
        dense = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        a = ComplexSparseMatrix.from_dense(dense)
        assert [block.shape for _, block, *_ in a._runs] == [(rows, width)]
        v = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        assert np.array_equal(a.matvec(v), np.dot(dense, v))

    def test_each_run_has_the_bits_of_its_own_product(self):
        rng = np.random.default_rng(14)
        a, dense = _two_panels_and_a_diagonal(rng)
        assert [op.__name__ for op, *_ in a._runs] == ["dot", "dot", "multiply"]
        v = rng.standard_normal(2804) + 1j * rng.standard_normal(2804)
        want = np.concatenate([np.dot(dense[:401, :401], v[:401]),
                               np.dot(dense[401:804, 401:804], v[401:804]),
                               np.multiply(np.diag(dense[804:, 804:]), v[804:])])
        assert np.array_equal(a.matvec(v), want)

    def test_concurrent_callers_get_the_same_bits(self):
        cases = self._cases(11)
        wrong = []

        def caller(k):
            for i in range(20):
                a, v, want = cases[(k + i) % len(cases)]
                if not np.array_equal(a.matvec(v), want):
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_a_matrix_is_freed_after_its_products(self):
        # nothing in the library keeps a matrix or its panels past the product
        (a, v, _), *_ = self._cases(12)
        for _ in range(3):
            a.matvec(v)
        values = weakref.ref(a.values)
        del a
        gc.collect()
        assert values() is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_the_parents_bits(self):
        done = _run_python(_FORK_CHILD)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_bits_do_not_depend_on_the_cpu_affinity(self):
        # pinned to one CPU before gencheb is imported, and not pinned
        outputs = [_run_python(pin + _PANEL_DIGEST) for pin in (_PIN_ONE_CPU, "")]
        for done in outputs:
            assert done.returncode == 0, done.stderr
        assert outputs[0].stdout == outputs[1].stdout


_PIN_ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"

_FORK_CHILD = """
import os
import signal
import threading
import numpy as np
from gencheb.linalg import ComplexSparseMatrix
signal.alarm(60)
a = ComplexSparseMatrix.from_dense(np.ones((1000, 1000)) + 1j)
v = np.arange(1000) + 0.5j
want = a.matvec(v)
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child does not inherit the alarm
    ok = np.array_equal(a.matvec(v), want)
    os._exit(0 if ok and threading.active_count() == 1 else 1)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


class TestConjTranspose:
    def test_hermitian_fixed_point(self):
        h = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
        a = ComplexSparseMatrix.from_dense(h)
        assert np.allclose(a.conj_transpose().to_dense(), h, atol=0)

    def test_involution_exact(self):
        rng = np.random.default_rng(9)
        a, dense = random_sparse(rng, 8, 5)
        back = a.conj_transpose().conj_transpose()
        assert np.array_equal(back.to_dense(), dense)

    def test_adjoint_property(self):
        rng = np.random.default_rng(10)
        a, _ = random_sparse(rng, 11, 7)
        at = a.conj_transpose()
        for _ in range(20):
            v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            w = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            lhs = np.vdot(w, a.matvec(v))
            rhs = np.vdot(at.matvec(w), v)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(stored_pattern_and_vector())
    # 1x1; nnz 0; empty first, middle and last rows and columns; rectangular
    @example(_case([[True]], [2.0]))
    @example(_case([[False, False, False], [False, False, False]], [1.0, 2.0, 3.0]))
    @example(_case([[False, False, True], [True, False, True], [False] * 3], [1.0] * 3))
    @example(_case([[True, False], [False, False], [True, False]], [1.0, -2.0]))
    @example(_case([[False, True, False, True]], [1.0, 1j, 3.0, 4.0]))
    def test_bits_equal_the_triplet_transpose(self, case):
        stored, values, _ = case
        rows, cols = np.nonzero(stored)
        a = ComplexSparseMatrix.from_triplets(*stored.shape, rows, cols, values[rows, cols])
        _assert_same_arrays(a.conj_transpose(), _triplet_conj_transpose(a))

    @pytest.mark.parametrize("case", ["first rows", "middle rows", "adjacent, other start",
                                      "dropped entry splits", "empty rows around",
                                      "diagonal, middle rows", "a two-entry row splits"])
    def test_panel_bits_equal_the_triplet_transpose(self, case):
        shape, blocks, dropped, diagonals, _, _ = TestMatvecProperties.PANEL_CASES[case]
        a, _ = TestMatvecProperties._pattern_matrix(shape, blocks, dropped, diagonals)
        _assert_same_arrays(a.conj_transpose(), _triplet_conj_transpose(a))


def _stored_copy(a):
    """A matrix of a's arrays whose panels all multiply their own values."""
    return ComplexSparseMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_indices,
                               a.values.copy())


def _ops(a):
    return [op.__name__ for op, *_ in a._runs]


def _relative_gap(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


class TestAdjointLink:
    """A panel of A* of at least _ADJOINT_PANEL_MIN_ENTRIES entries that is
    the conjugate transpose of a panel of A multiplies through A's panel."""

    @pytest.fixture(autouse=True)
    def small_panels_link(self, monkeypatch):
        monkeypatch.setattr(linalg, "_ADJOINT_PANEL_MIN_ENTRIES", 1024)

    @staticmethod
    def _matrix(rng):
        """A 2804 x 2900 matrix of three panels, 401 x 500, 32 x 33 and 27 x
        40, and a diagonal run.  An entry right of the diagonal in the rows of
        neither splits the third panel's columns, so A* does not store it as
        a panel.  One entry of the first panel has a zero imaginary part."""
        dense = np.zeros((2804, 2900), dtype=complex)
        for r0, r1, c0, c1 in ((0, 401, 0, 500), (401, 433, 600, 633), (433, 460, 700, 740)):
            dense[r0:r1, c0:c1] = (rng.standard_normal((r1 - r0, c1 - c0))
                                   + 1j * rng.standard_normal((r1 - r0, c1 - c0)))
        dense[3, 5] = 0.75
        dense[500, 710] = 1.5j
        dense[804:, 804:2804] = np.diag(rng.standard_normal(2000) + 1j)
        return ComplexSparseMatrix.from_dense(dense)

    def test_conj_transpose_links_the_panels_at_the_floor(self):
        a = self._matrix(np.random.default_rng(1))
        at = a.conj_transpose()
        assert _ops(a) == ["dot", "dot", "dot", "multiply"]
        assert _ops(at) == ["_adjoint_dot", "_adjoint_dot", "multiply"]
        for (_, panel, *_), (_, mine, *_) in zip(at._runs[:2], a._runs[:2]):
            assert panel is mine
        # the CSR arrays of A* stay complete and its own
        _assert_same_arrays(at, _triplet_conj_transpose(a))
        assert not np.shares_memory(at.values, a.values)

    def test_a_linked_product_agrees_with_the_stored_kernel(self):
        rng = np.random.default_rng(2)
        a = self._matrix(rng)
        at, stored = a.conj_transpose(), _stored_copy(a.conj_transpose())
        assert _ops(stored)[:2] == ["dot", "dot"]
        bits = lambda v: v.view(np.uint64).tolist()
        src, out = np.zeros(at.n_cols, dtype=complex), np.zeros(at.n_rows, dtype=complex)
        product = at._bind(src, out)
        for _ in range(3):
            v = rng.standard_normal(at.n_cols) + 1j * rng.standard_normal(at.n_cols)
            got = at.matvec(v)
            assert _relative_gap(got, stored.matvec(v)) <= 1e-14
            assert _relative_gap(got, at.to_dense() @ v) <= 1e-14
            assert at._into(v, out) is out and bits(out) == bits(got)
            src[:] = v
            assert product() is out and bits(out) == bits(got)

    def test_a_companion_equal_to_the_adjoint_is_linked_after_the_check(self):
        rng = np.random.default_rng(3)
        a = self._matrix(rng)
        at, read = a.conj_transpose(), _stored_copy(a.conj_transpose())
        read._link_adjoint(a)
        assert _ops(read) == _ops(at)
        v = rng.standard_normal(a.n_rows) + 1j * rng.standard_normal(a.n_rows)
        assert np.array_equal(read.matvec(v).view(np.uint64), at.matvec(v).view(np.uint64))

    @pytest.mark.parametrize("change", ["one ulp, first entry", "one ulp, last entry",
                                        "sign of a zero imaginary part"])
    def test_a_companion_unlike_the_adjoint_runs_on_its_own_values(self, change):
        rng = np.random.default_rng(4)
        a = self._matrix(rng)
        at = a.conj_transpose()
        values = at.values.copy()
        # A*'s 500 x 401 panel holds the first 200,500 entries, row by row
        if change == "sign of a zero imaginary part":
            k = 5 * 401 + 3  # (5, 3) of A*, where A holds 0.75
            assert values[k] == 0.75 and np.signbit(values[k].imag)
            values[k] = complex(0.75, 0.0)
        else:
            k = 0 if change.endswith("first entry") else 500 * 401 - 1
            values[k] = complex(np.nextafter(values[k].real, np.inf), values[k].imag)
        read = ComplexSparseMatrix(at.n_rows, at.n_cols, at.row_offsets, at.col_indices,
                                   values)
        read._link_adjoint(a)
        assert _ops(read) == ["dot", "_adjoint_dot", "multiply"]
        v = rng.standard_normal(a.n_rows) + 1j * rng.standard_normal(a.n_rows)
        own = np.dot(values[:200_500].reshape(500, 401), v[:401])
        assert np.array_equal(read.matvec(v)[:500].view(np.uint64), own.view(np.uint64))

    def test_panels_below_the_floor_stay_unlinked(self, monkeypatch):
        a = self._matrix(np.random.default_rng(5))
        monkeypatch.setattr(linalg, "_ADJOINT_PANEL_MIN_ENTRIES", 32 * 33)
        assert _ops(a.conj_transpose()) == ["_adjoint_dot", "_adjoint_dot", "multiply"]
        monkeypatch.setattr(linalg, "_ADJOINT_PANEL_MIN_ENTRIES", 32 * 33 + 1)
        assert _ops(a.conj_transpose()) == ["_adjoint_dot", "dot", "multiply"]


def _triplet_conj_transpose(a):
    """A* through a full triplet sort: the reference `conj_transpose` must
    reproduce bit for bit."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets))
    return ComplexSparseMatrix.from_triplets(
        a.n_cols, a.n_rows, a.col_indices, rows, np.conj(a.values))


def _assert_same_arrays(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.row_offsets, b.row_offsets)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


class TestGeometricSum:
    def test_k_one_is_identity(self):
        a = _eye(3)
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.array_equal(geometric_sum_apply(a, 1, v), v)

    def test_scalar_geometric_sum(self):
        a = ComplexSparseMatrix.from_dense(0.5 * np.eye(4))
        out = geometric_sum_apply(a, 3, np.ones(4, dtype=complex))
        assert np.allclose(out, 1.75 * np.ones(4), atol=1e-15)

    def test_against_dense_powers(self):
        rng = np.random.default_rng(21)
        dense = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        dense *= 0.5 / max(np.abs(np.linalg.eigvals(dense)))
        a = ComplexSparseMatrix.from_dense(dense)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        expected = (
            np.eye(10) + dense + dense @ dense + dense @ dense @ dense
        ) @ v
        got = geometric_sum_apply(a, 4, v)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestVectorValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_vector(np.array([np.inf, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            as_vector(np.ones(3), n=4)

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_vector(np.ones((2, 2)))


class TestCSRInvariants:
    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            ComplexSparseMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 2.0, 3.0])

    def test_out_of_bounds_column(self):
        with pytest.raises(ValueError):
            ComplexSparseMatrix(2, 2, [0, 1, 1], [5], [1.0])

    @pytest.mark.parametrize("row", [2, -1])
    def test_from_triplets_refuses_a_row_outside_the_shape(self, row):
        with pytest.raises(ValueError, match="row index out of bounds"):
            ComplexSparseMatrix.from_triplets(2, 3, [0, row], [1, 2], [1.0, 2.0])

    def test_unsorted_columns_in_row(self):
        with pytest.raises(ValueError):
            ComplexSparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0])

    def test_duplicates_summed_by_from_triplets(self):
        a = ComplexSparseMatrix.from_triplets(2, 2, [0, 0], [1, 1], [1.0, 2.0 + 1j])
        assert a.nnz == 1
        assert a.to_dense()[0, 1] == 3.0 + 1j

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            ComplexSparseMatrix(1, 1, [0, 1], [0], [np.nan])

    def test_adjacent_duplicates_in_sorted_triplets_are_summed(self):
        a = ComplexSparseMatrix.from_triplets(
            2, 3, [0, 0, 0, 1], [0, 2, 2, 1], [1.0, 2.0, 0.5j, 4.0])
        assert a.nnz == 3
        assert np.array_equal(a.col_indices, [0, 2, 1])
        assert np.array_equal(a.values, [1.0, 2.0 + 0.5j, 4.0])


class TestMatrixMarket:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        a, _ = random_sparse(rng, 13, 9, density=0.4)
        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        _assert_same_arrays(read_matrix_market(path), a)

    def test_header_format(self, tmp_path):
        path = tmp_path / "i.mtx"
        write_matrix_market(_eye(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate complex general"
        assert lines[1] == "2 2 2"
        assert lines[2].split() == ["1", "1", "1.0", "0.0"]

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v[0] = _complex(-0.0, 5e-324)
        path = tmp_path / "v.mtx"
        write_vector_market(v, path)
        assert np.array_equal(read_vector_market(path).view(np.uint64), v.view(np.uint64))

    def test_vector_shape_refused_before_the_body(self, tmp_path):
        # the body does not parse: only a size-line check can name the shape
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n3 3 1\n1 1 xyz 0.0\n"
        )
        with pytest.raises(UnreadableMatrix,
                           match=r"has shape \(3, 3\), expected an n-by-1 vector"):
            read_vector_market(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableMatrix):
            read_matrix_market(tmp_path / "nope.mtx")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        with pytest.raises(UnreadableMatrix):
            read_matrix_market(path)

    def test_truncated_entries(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.0 0.0\n"
        )
        with pytest.raises(UnreadableMatrix):
            read_matrix_market(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "mal.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 xyz 0.0\n"
        )
        with pytest.raises(UnreadableMatrix):
            read_matrix_market(path)


# -- Matrix Market round trip and malformed input ------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate complex general\n"

# signed zeros, subnormals and magnitudes near the ends of the double range
# (-2.2250738585072014e-308 has the longest repr of a double, 24 characters)
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.7976931348623157e308,
                -2.2250738585072014e-308)
_ANY_FINITE = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def _complex(re, im):
    """re + i*im without the arithmetic that turns an imaginary -0.0 into +0.0."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@st.composite
def stored_pattern_and_parts(draw):
    """A stored-entry mask and the real and imaginary parts of every cell."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    stored = draw(hnp.arrays(bool, shape))
    re = draw(hnp.arrays(float, shape, elements=_ANY_FINITE))
    im = draw(hnp.arrays(float, shape, elements=_ANY_FINITE))
    return stored, re, im


def _mm_case(stored, re, im):
    stored = np.array(stored, dtype=bool)
    return stored, np.broadcast_to(re, stored.shape), np.broadcast_to(im, stored.shape)


class TestTripletOrder:
    @given(stored_pattern_and_parts(), st.randoms(use_true_random=False))
    def test_sorted_and_shuffled_duplicated_triplets_agree(self, case, random):
        # one extra term per duplicated cell: a sum of two terms does not
        # depend on their order, so both routes must give the same bits
        # (terms scaled by 1e-10 so that no sum overflows)
        stored, re, im = case
        rows, cols = np.nonzero(stored)
        first = _complex(re[rows, cols], im[rows, cols]) * 1e-10
        dup = np.array([random.random() < 0.5 for _ in rows], dtype=bool)
        extra = _complex(im[rows, cols], re[rows, cols])[dup] * 1e-10
        summed = first.copy()
        summed[dup] += extra
        shape = stored.shape
        ref = ComplexSparseMatrix.from_triplets(*shape, rows, cols, summed)
        order = list(range(rows.size + int(dup.sum())))
        random.shuffle(order)
        all_rows = np.concatenate([rows, rows[dup]])[order]
        all_cols = np.concatenate([cols, cols[dup]])[order]
        all_vals = np.concatenate([first, extra])[order]
        _assert_same_arrays(
            ComplexSparseMatrix.from_triplets(*shape, all_rows, all_cols, all_vals), ref)


class TestMatrixMarketProperties:
    @given(stored_pattern_and_parts())
    # 1x1; n x 1; nnz 0; an empty first, middle and last row; edge values
    @example(_mm_case([[True]], -0.0, -0.0))
    @example(_mm_case([[True], [False], [True]], 5e-324, -1e300))
    @example(_mm_case([[False, False], [False, False]], 1.0, 1.0))
    @example(_mm_case([[False, False], [True, True], [True, False]], 1e-300, 0.0))
    @example(_mm_case([[True, False], [False, False], [True, True]], -2.5e-310, -0.0))
    @example(_mm_case([[True, True], [False, True], [False, False]],
                      1.7976931348623157e308, -1e-300))
    def test_bytes_and_bits_round_trip(self, tmp_path_factory, case):
        stored, re, im = case
        rows, cols = np.nonzero(stored)
        a = ComplexSparseMatrix.from_triplets(
            *stored.shape, rows, cols, _complex(re[rows, cols], im[rows, cols])
        )
        path = tmp_path_factory.mktemp("mm") / "a.mtx"
        write_matrix_market(a, path)
        expected = _MM_HEADER + f"{stored.shape[0]} {stored.shape[1]} {rows.size}\n"
        expected += "".join(
            f"{r + 1} {c + 1} {float(x)!r} {float(y)!r}\n"
            for r, c, x, y in zip(rows, cols, re[rows, cols], im[rows, cols])
        )
        assert path.read_text(encoding="ascii") == expected
        b = read_matrix_market(path)
        assert b.shape == a.shape
        assert np.array_equal(b.row_offsets, a.row_offsets)
        assert np.array_equal(b.col_indices, a.col_indices)
        assert np.array_equal(b.values.view(np.uint64), a.values.view(np.uint64))

    @given(stored_pattern_and_parts())
    @example(_mm_case([[True]], -0.0, -0.0))
    @example(_mm_case([[True, False], [False, False], [True, True]], -2.5e-310, 0.0))
    @example(_mm_case([[False, False, False], [False, False, False]], 1.0, 1.0))
    @example(_mm_case([[False, True], [False, True], [False, False]],
                      -1.7976931348623157e308, -2.2250738585072014e-308))
    def test_adjoint_writer_bytes_equal_two_single_writes(self, tmp_path_factory, case):
        stored, re, im = case
        rows, cols = np.nonzero(stored)
        a = ComplexSparseMatrix.from_triplets(
            *stored.shape, rows, cols, _complex(re[rows, cols], im[rows, cols])
        )
        d = tmp_path_factory.mktemp("mm")
        write_matrix_market(a, d / "a.mtx", adjoint_path=d / "a_star.mtx")
        write_matrix_market(a, d / "a.ref")
        write_matrix_market(a.conj_transpose(), d / "a_star.ref")
        assert (d / "a.mtx").read_bytes() == (d / "a.ref").read_bytes()
        assert (d / "a_star.mtx").read_bytes() == (d / "a_star.ref").read_bytes()


_MALFORMED_BODIES = {
    "non-integer index": "2 2 1\n1.5 1 1.0 0.0\n",
    "three fields": "2 2 2\n1 1 1.0 0.0\n2 2 1.0\n",
    "three fields everywhere": "2 2 1\n1 1 1.0\n",
    "one entry more": "2 2 1\n1 1 1.0 0.0\n2 2 1.0 0.0\n",
    "one entry fewer": "2 2 2\n1 1 1.0 0.0\n",
    "a field moved to the next line": "2 2 2\n1 1 1.0\n0.0 2 2 1.0 0.0\n",
    "xyz value": "2 2 1\n1 1 xyz 0.0\n",
    "row past the shape": "2 2 1\n3 1 1.0 0.0\n",
    "column past the shape": "2 2 1\n1 3 1.0 0.0\n",
    "zero index": "2 2 1\n0 1 1.0 0.0\n",
    "infinite index": "2 2 1\n1 inf 1.0 0.0\n",
    "index past int64": "2 2 1\n1e30 1 1.0 0.0\n",
    "nan value": "2 2 1\n1 1 nan 0.0\n",
    "inf value": "2 2 1\n1 1 1.0 inf\n",
    "two-field size line": "2 2\n1 1 1.0 0.0\n",
    "underscore in a count": "2 2_0 1\n1 1 1.0 0.0\n",
    "plus sign on a count": "+2 2 1\n1 1 1.0 0.0\n",
    "negative count": "2 2 -1\n",
    "count past int64": "2 9999999999999999999 1\n1 1 1.0 0.0\n",
    "count of 20 digits": "2 2 00000000000000000001\n1 1 1.0 0.0\n",
}


class TestMatrixMarketInputs:
    @pytest.mark.filterwarnings("error")  # no stray cast or parse warnings
    @pytest.mark.parametrize("body", _MALFORMED_BODIES.values(), ids=_MALFORMED_BODIES)
    def test_malformed_raises(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_text(_MM_HEADER + body)
        with pytest.raises(UnreadableMatrix, match="bad.mtx"):
            read_matrix_market(path)

    @pytest.mark.parametrize("entry, axis", [
        ("3 1", "row"), ("1 3", "column"), ("0 1", "row"), ("1 0", "column"),
        ("9223372036854775809 1", "row"),  # wraps below 1 as an int64
    ])
    def test_an_index_outside_the_shape_names_its_axis(self, tmp_path, entry, axis):
        path = tmp_path / "M.mtx"
        path.write_text(_MM_HEADER + f"2 2 1\n{entry} 1.0 0.0\n")
        with pytest.raises(UnreadableMatrix) as exc:
            read_matrix_market(path)
        assert str(exc.value) == f"malformed entry in {path}: {axis} index out of bounds"

    def test_a_last_line_without_newline(self, tmp_path):
        # the last field ends the file: no newline, blank or comment after it
        path = tmp_path / "end.mtx"
        path.write_bytes(_MM_HEADER.encode("ascii") + b"2 2 2\n1 2 0.5 -0.0\n2 1 -2.5 1e-3")
        a = read_matrix_market(path)
        assert np.array_equal(a.to_dense(), [[0, 0.5], [-2.5 + 1e-3j, 0]])
        assert np.signbit(a.values[0].imag)

    @pytest.mark.parametrize("text", [
        _MM_HEADER + "2 2 1\n3 1 1.0 0.0\n", _MM_HEADER + "2 2 1\n1 1 nan 0.0\n",
        _MM_HEADER + "2 2 1\n1.5 1 1.0 0.0\n", _MM_HEADER + "2 2 2\n1 1 1.0 0.0\n",
        _MM_HEADER + "2 2\n", "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
    ])
    def test_message_names_the_file(self, tmp_path, text):
        path = tmp_path / "named.mtx"
        path.write_text(text)
        with pytest.raises(UnreadableMatrix, match="named.mtx"):
            read_matrix_market(path)

    def test_comments_and_blank_lines_in_body_tolerated(self, tmp_path):
        path = tmp_path / "ok.mtx"
        path.write_text(
            _MM_HEADER + "% leading comment\n3 2 3\n\n% entries follow\n"
            "1 2 1.0 -0.0\n\n   \n% between\n2 1 -2.5 0.5\n3 2 0.0 4.0\n%\n\n"
        )
        a = read_matrix_market(path)
        assert a.shape == (3, 2)
        expected = np.array([[0, 1.0], [-2.5 + 0.5j, 0], [0, 4.0j]])
        assert np.array_equal(a.to_dense(), expected)
        assert np.signbit(a.values[0].imag)

    def test_empty_body_reads_without_warning(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text(_MM_HEADER + "4 3 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = read_matrix_market(path)
        assert a.shape == (4, 3) and a.nnz == 0


# Texts of one double in the forms other writers use: shortest repr, C
# formats with 17, 16 and 20 significant digits, fixed point with 3 and 25
# decimals, upper-case exponents, explicit plus signs.
_FORMATS = (repr, "%.16e".__mod__, "%.15E".__mod__, "%.17g".__mod__, "%+.19e".__mod__,
            "%.3f".__mod__, "%+.25f".__mod__, lambda x: repr(x).upper())


def _parts_file(path, texts):
    """A 1 x n file whose entry j has the real and imaginary part texts[2j],
    texts[2j + 1]."""
    assert len(texts) % 2 == 0
    n = len(texts) // 2
    path.write_text(_MM_HEADER + f"1 {n} {n}\n" + "".join(
        f"1 {j + 1} {texts[2 * j]} {texts[2 * j + 1]}\n" for j in range(n)))


def _assert_float_bits(path, texts):
    """read_matrix_market(path) holds float(text) for each part, bit for bit."""
    values = read_matrix_market(path).values
    got = np.stack([values.real, values.imag], axis=1).ravel()
    assert np.array_equal(got.view(np.uint64),
                          np.array([float(t) for t in texts]).view(np.uint64))


class TestDecimalParts:
    @given(st.lists(st.tuples(_ANY_FINITE, st.integers(0, len(_FORMATS) - 1)),
                    min_size=2, max_size=40).filter(lambda c: len(c) % 2 == 0))
    @example([(5e-324, 0), (-0.0, 6)])
    @example([(0.1, 1), (9007199254740993.0, 3)])
    def test_each_part_gets_the_bits_of_float(self, tmp_path_factory, cases):
        texts = [_FORMATS[f](x) for x, f in cases]
        texts = [t if np.isfinite(float(t)) else "-0.0" for t in texts]  # 1.8E+308
        path = tmp_path_factory.mktemp("mm") / "a.mtx"
        _parts_file(path, texts)
        _assert_float_bits(path, texts)

    def test_texts_next_to_a_midpoint_round_as_float_does(self, tmp_path):
        # the midpoint between a double and the next, and the 19-digit texts
        # just below and above it, decided by the last digit
        rng = np.random.default_rng(23)
        xs = rng.standard_normal(400) * 10.0 ** rng.integers(-250, 250, 400)
        texts = []
        with localcontext() as ctx:
            ctx.prec = 800
            for x in xs:
                mid = (Decimal(float(x)) + Decimal(float(np.nextafter(x, np.inf)))) / 2
                ctx.prec = 19
                texts += [str(+mid), str(mid.next_minus()), str(mid.next_plus())]
                ctx.prec = 800
                texts.append(str(mid))
        # exact midpoints of 18 or 19 digits: doubles in [2**51, 2**52) are
        # 0.5 apart, in [2**49, 2**50) 0.125.  The double-double product of
        # m and 10**-4 misses about 1 in 250 of the second kind by a hair,
        # to the side that float() does not round to
        for j in rng.integers(2**51, 2**52, 200):
            texts += [f"{j}.25", f"{j}.75", f"-{j}.25e-3"]
        for j in rng.integers(2**49, 2**50, 2000):
            texts += [f"{j}.0625", f"{j}.1875"]
        # and the midpoints next to a power of two, whose gap below is half
        # the gap above
        for k in range(54, 60):
            for mid in (2**k - 2 ** (k - 54), 2**k + 2 ** (k - 53)):
                texts += [f"{mid}0e-1", f"-{mid}", f"{mid // 10}.{mid % 10}e1"]
        _parts_file(tmp_path / "mid.mtx", texts)
        _assert_float_bits(tmp_path / "mid.mtx", texts)

    def test_digits_and_exponents_past_the_fast_range_read_as_float(self, tmp_path):
        texts = ["1e-320", "-2.5e-310", "123456789012345678901234", "0." + "0" * 30 + "17",
                 "1." + "3" * 40, "1e0000000000000000000000005", "-0e-999",
                 "1.7976931348623157e308", "4e-300", "7e290", "00000000000000000000012.5",
                 "9007199254740993", "18446744073709551615.5", "9999999999999999999.99999",
                 "0." + "9" * 24, "1e23"]
        _parts_file(tmp_path / "far.mtx", texts)
        _assert_float_bits(tmp_path / "far.mtx", texts)

    def test_chunk_edges_change_nothing(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(29)
        a, _ = random_sparse(rng, 40, 30, density=0.5)
        write_matrix_market(a, tmp_path / "a.mtx")
        for chunk in (1, 37, 100):  # each cut lands after the next newline
            monkeypatch.setattr(linalg, "_ENTRY_CHUNK", chunk)
            _assert_same_arrays(read_matrix_market(tmp_path / "a.mtx"), a)

    def test_tabs_crlf_trailing_comments_and_no_last_newline(self, tmp_path):
        path = tmp_path / "sep.mtx"
        path.write_bytes((_MM_HEADER + "2 2 3\r\n1\t1\t1.5\t-0.0\r\n"
                          "1 2   2.5e1 3 % a note\n  2 2 -.5 +5.\t").encode())
        a = read_matrix_market(path)
        assert np.array_equal(a.to_dense(), [[1.5, 25 + 3j], [0, -0.5 + 5j]])
        assert np.signbit(a.values[0].imag)

    @pytest.mark.parametrize("part", ["1.2.3", "1e5e6", "--1", "+-1", "1-2", ".", "-", "e5",
                                      "1e", "1e+", "1e-+5", ".e1", "1e5.5", "0x10", "1_0",
                                      "1,5", "nan", "Infinity", "\u0661"])
    def test_a_malformed_part_is_refused(self, tmp_path, part):
        for texts in ([part, "0.0"], ["0.0", part]):
            _parts_file(tmp_path / "bad.mtx", texts)
            with pytest.raises(UnreadableMatrix, match="bad.mtx"):
                read_matrix_market(tmp_path / "bad.mtx")

    @pytest.mark.parametrize("row", ["+1", "-1", "1.0", "1e0", "0x1", "99999999999999999999"])
    def test_an_index_is_digits_only(self, tmp_path, row):
        path = tmp_path / "bad.mtx"
        path.write_text(_MM_HEADER + f"2 2 1\n{row} 1 1.0 0.0\n")
        with pytest.raises(UnreadableMatrix, match="bad.mtx"):
            read_matrix_market(path)

    @pytest.mark.parametrize("size, found", [(2, 1), (1, 2)])
    def test_the_entry_count_must_match_the_size_line(self, tmp_path, size, found):
        path = tmp_path / "count.mtx"
        path.write_text(_MM_HEADER + f"2 2 {size}\n" + "1 1 1.0 0.0\n2 2 1.0 0.0\n"[:12 * found])
        with pytest.raises(UnreadableMatrix, match=f"declares {size} entries, found "
                           + ("1" if found < size else "more")):
            read_matrix_market(path)

    def test_an_entry_count_past_memory_is_refused(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_text(_MM_HEADER + "2 2 1000000000000000\n1 1 1.0 0.0\n")
        with pytest.raises(UnreadableMatrix, match="huge.mtx declares more entries than fit"):
            read_matrix_market(path)

    def test_leading_zeros_in_an_index_are_read(self, tmp_path):
        path = tmp_path / "z.mtx"
        path.write_text(_MM_HEADER + "12 2 1\n0012 01 1.0 0.0\n")
        assert read_matrix_market(path).to_dense()[11, 0] == 1.0


# -- shortest fields -----------------------------------------------------------

def _written_parts(values):
    """The text the writer gives each real part, then each imaginary part
    of `values`: its sign byte and its field, without the NUL padding."""
    fields, signs = linalg._value_fields(np.asarray(values, dtype=complex))
    return [("-" if neg else "") + field.replace(b"\0", b"").decode("ascii")
            for field, neg in zip(fields.ravel().tolist(), signs.ravel().tolist())]


def _assert_repr_bytes(xs):
    """Written as the real and (reversed) imaginary parts of one vector, each
    double of xs has the text of float.__repr__."""
    xs = np.asarray(xs, dtype=float)
    assert _written_parts(_complex(xs, xs[::-1])) == [
        float.__repr__(x) for x in xs.tolist() + xs[::-1].tolist()]


def _neighbours(xs, count):
    """xs and the `count` doubles on either side of each."""
    out, up, down = [xs], xs, xs
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestShortestFields:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=40))
    @example([5e-324, -0.0, 9.999999999999998e-237, 1e23, 0.5])
    def test_each_field_has_the_bytes_of_repr(self, xs):
        _assert_repr_bytes(xs)

    def test_a_sweep_of_hard_cases_has_the_bytes_of_repr(self):
        rng = np.random.default_rng(31)
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        # where repr turns to and from fixed notation, and carries into the
        # next power of ten: 9.999999999999999e22 and 1e23 are one double
        # apart, and 1e23 is a tie between two
        switches = np.array([1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 1e17,
                             9.999999999999999e22, 1e23, 0.0, 9.999999999999998e-237])
        random_bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        xs = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), _neighbours(tens, 8),
                             _neighbours(switches, 8), random_bits[np.isfinite(random_bits)]])
        _assert_repr_bytes(np.concatenate([xs, -xs]))


class TestFastPath:
    """Common values take no float.__repr__ call."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        counted = []
        repr_bytes = linalg._repr_bytes

        def counting(x):
            counted.append(x.size)
            return repr_bytes(x)
        monkeypatch.setattr(linalg, "_repr_bytes", counting)
        return counted

    def test_the_generated_system(self, tmp_path, fallbacks):
        spec = NormalMatrixSpec(n=2000, block_size=100, seed=1)
        gen = assemble_normal_system(spec)
        write_generated_system(gen, spec, tmp_path)
        assert fallbacks == []
        assert (tmp_path / "M.mtx").read_text(encoding="ascii") == _mm_text(gen.system.M)

    @pytest.mark.parametrize("kind", ["real", "integers_and_halves"])
    def test_a_matrix(self, tmp_path, fallbacks, kind):
        rng = np.random.default_rng(37)
        if kind == "real":  # stored as complex, every imaginary part 0.0
            dense = rng.standard_normal((30, 20)).astype(complex)
        else:
            dense = _complex(rng.integers(-40, 41, (30, 20)) / 2,
                             rng.integers(-40, 41, (30, 20)) / 2)
        a = ComplexSparseMatrix.from_dense(dense)
        write_matrix_market(a, tmp_path / "a.mtx", adjoint_path=tmp_path / "a_star.mtx")
        assert fallbacks == []
        assert (tmp_path / "a.mtx").read_text(encoding="ascii") == _mm_text(a)
        assert (tmp_path / "a_star.mtx").read_text(encoding="ascii") == _mm_text(
            a.conj_transpose())


def _mm_text(a):
    """The file write_matrix_market(a) should give, line by line with repr."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.row_offsets))
    return _MM_HEADER + f"{a.n_rows} {a.n_cols} {a.nnz}\n" + "".join(
        f"{r + 1} {c + 1} {x!r} {y!r}\n"
        for r, c, x, y in zip(rows.tolist(), a.col_indices.tolist(),
                              a.values.real.tolist(), a.values.imag.tolist()))
