import gc
import os
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
from gencheb.errors import DimensionMismatch, UnreadableMatrix
from gencheb.genmat import example33_fixture
from gencheb.linalg import (
    _DIAGONAL_MIN_ROWS,
    _PANEL_MIN_ENTRIES,
    ComplexSparseMatrix,
    PoweredOperator,
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


class TestMatvec:
    def test_identity(self):
        eye = ComplexSparseMatrix.identity(5)
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
        eye = ComplexSparseMatrix.identity(4)
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
        eye = ComplexSparseMatrix.identity(n)
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
        a = ComplexSparseMatrix.identity(3)
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


class TestPoweredOperator:
    def test_matches_dense_powers(self):
        rng = np.random.default_rng(31)
        dense = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        a = ComplexSparseMatrix.from_dense(dense)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for k in range(1, 6):
            got = PoweredOperator(a, k).matvec(v)
            expected = np.linalg.matrix_power(dense, k) @ v
            assert np.linalg.norm(got - expected) <= 1e-10 * max(
                1.0, np.linalg.norm(expected)
            )

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            PoweredOperator(ComplexSparseMatrix.identity(2), 0)


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
        b = read_matrix_market(path)
        assert np.array_equal(a.row_offsets, b.row_offsets)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(a.values, b.values)

    def test_header_format(self, tmp_path):
        path = tmp_path / "i.mtx"
        write_matrix_market(ComplexSparseMatrix.identity(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate complex general"
        assert lines[1] == "2 2 2"
        assert lines[2].split() == ["1", "1", "1.0", "0.0"]

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        path = tmp_path / "v.mtx"
        write_vector_market(v, path)
        assert np.array_equal(read_vector_market(path), v)

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
    "xyz value": "2 2 1\n1 1 xyz 0.0\n",
    "row past the shape": "2 2 1\n3 1 1.0 0.0\n",
    "column past the shape": "2 2 1\n1 3 1.0 0.0\n",
    "zero index": "2 2 1\n0 1 1.0 0.0\n",
    "infinite index": "2 2 1\n1 inf 1.0 0.0\n",
    "index past int64": "2 2 1\n1e30 1 1.0 0.0\n",
    "nan value": "2 2 1\n1 1 nan 0.0\n",
    "inf value": "2 2 1\n1 1 1.0 inf\n",
    "two-field size line": "2 2\n1 1 1.0 0.0\n",
}


class TestMatrixMarketInputs:
    @pytest.mark.filterwarnings("error")  # no stray cast or parse warnings
    @pytest.mark.parametrize("body", _MALFORMED_BODIES.values(), ids=_MALFORMED_BODIES)
    def test_malformed_raises(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_text(_MM_HEADER + body)
        with pytest.raises(UnreadableMatrix):
            read_matrix_market(path)

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
