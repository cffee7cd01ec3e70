import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gencheb
from gencheb.errors import DimensionMismatch, UnreadableMatrix
from gencheb.genmat import example33_fixture
from gencheb.linalg import (
    ComplexSparseMatrix,
    PoweredOperator,
    as_vector,
    dense_eigendecomposition,
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
            assert np.linalg.norm(a.matvec(v)) <= a.frobenius_norm() * np.linalg.norm(
                v
            ) * (1 + 1e-12)

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
        got = a.matvec(v)
        dense = a.to_dense()
        scale = np.abs(dense) @ np.abs(v)
        assert got.shape == (stored.shape[0],)
        assert np.all(np.abs(got - dense @ v) <= 1e-13 * scale)
        assert np.array_equal(a.matvec(v.copy()), got)

    # dense blocks of at least _PANEL_MIN_ENTRIES entries (64 x 64 = 4096),
    # with a diagonal on the other rows as in the generated normal systems:
    # (shape, blocks (r0, r1, c0, c1), dropped entries, diagonal?, panels)
    PANEL_CASES = {
        "first rows": ((200, 200), [(0, 64, 0, 64)], [], True,
                       [(0, 64, 0, 64)]),
        "middle rows": ((200, 200), [(70, 134, 30, 94)], [], True,
                        [(70, 134, 30, 94)]),
        "last rows": ((200, 200), [(136, 200, 136, 200)], [], True,
                      [(136, 200, 136, 200)]),
        "adjacent, other start": ((200, 200), [(0, 64, 0, 64), (64, 128, 10, 74)],
                                  [], True, [(0, 64, 0, 64), (64, 128, 10, 74)]),
        "adjacent, other width": ((200, 200), [(0, 64, 0, 64), (64, 128, 0, 80)],
                                  [], True, [(0, 64, 0, 64), (64, 128, 0, 80)]),
        "dropped entry splits": ((200, 200), [(0, 140, 0, 64)], [(64, 30)], True,
                                 [(0, 64, 0, 64), (65, 140, 0, 64)]),
        "empty rows around": ((200, 100), [(10, 74, 20, 84)], [], False,
                              [(10, 74, 20, 84)]),
        "n x 1": ((5000, 1), [(0, 5000, 0, 1)], [], False, [(0, 5000, 0, 1)]),
    }

    @staticmethod
    def _pattern_matrix(shape, blocks, dropped, diagonal, seed=0):
        stored = np.zeros(shape, dtype=bool)
        if diagonal:
            np.fill_diagonal(stored, True)
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
        shape, blocks, dropped, diagonal, panels = self.PANEL_CASES[case]
        a, v = self._pattern_matrix(shape, blocks, dropped, diagonal)
        assert [p[:4] for p in a._panels] == panels
        for r0, r1, c0, c1, panel in a._panels:
            assert panel.shape == (r1 - r0, c1 - c0)
            assert np.shares_memory(panel, a.values)
        got = a.matvec(v)
        dense = a.to_dense()
        assert np.all(np.abs(got - dense @ v) <= 1e-13 * (np.abs(dense) @ np.abs(v)))
        assert np.array_equal(a.matvec(v.copy()), got)

    @pytest.mark.parametrize("shape, blocks", [
        ((200, 200), [(0, 63, 0, 64)]),    # one row short of the floor
        ((400, 400), [(0, 40, 0, 40)]),    # the n=400, block 40 systems
        ((3, 5000), [(1, 2, 0, 5000)]),    # one long row is not a panel
    ])
    def test_below_the_floor_gives_the_reduceat_bits(self, shape, blocks):
        a, v = self._pattern_matrix(shape, blocks, [], True)
        assert a._panels == []
        plain = np.add.reduceat(a.values * v[a.col_indices], a.row_offsets[:-1])
        assert np.array_equal(a.matvec(v), plain)


_PANEL_DIGEST = """
import hashlib
import numpy as np
from gencheb.linalg import ComplexSparseMatrix
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for rows, w in ((400, 400), (2, 32768), (8000, 1), (1, 32768)):
    dense = rng.standard_normal((rows, w)) + 1j * rng.standard_normal((rows, w))
    v = rng.standard_normal(w) + 1j * rng.standard_normal(w)
    digest.update(ComplexSparseMatrix.from_dense(dense).matvec(v).tobytes())
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

    def test_cost(self):
        a = ComplexSparseMatrix.identity(3)
        assert PoweredOperator(a, 4).matvec_cost == 4

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            PoweredOperator(ComplexSparseMatrix.identity(2), 0)


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
        assert np.all(resid <= 1e-8 * np.linalg.norm(vecs, axis=0))


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
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.7976931348623157e308)
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
