import tracemalloc

import numpy as np
import pytest

from gencheb import genmat
from gencheb.genmat import (
    SPARSITY_DROP_TOL,
    NormalMatrixSpec,
    _block_and_tail,
    _conjugated_block,
    _random_unitary_block,
    assemble_normal_system,
    example33_fixture,
    random_spectrum,
    write_generated_system,
)
from gencheb.linalg import (
    ComplexSparseMatrix,
    read_matrix_market,
    write_matrix_market,
)

from dense_eig import dense_eigendecomposition


def greedy_match_distance(planted, computed):
    """Max distance of a greedy nearest-neighbor pairing of two multisets."""
    pool = list(computed)
    worst = 0.0
    for p in planted:
        gaps = [abs(p - c) for c in pool]
        i = int(np.argmin(gaps))
        worst = max(worst, gaps[i])
        pool.pop(i)
    return worst


class TestRandomSpectrum:
    def test_moduli(self):
        spec = NormalMatrixSpec(n=500, block_size=50, seed=1)
        d = random_spectrum(spec)
        assert d[0] == 0.9
        assert np.max(np.abs(d)) == pytest.approx(0.9, abs=0)
        assert np.max(np.abs(d[1:])) <= 0.6
        assert np.all(d != 0)

    def test_single_entry(self):
        spec = NormalMatrixSpec(n=1, block_size=0, seed=1)
        assert np.array_equal(random_spectrum(spec), np.array([0.9 + 0j]))

    def test_determinism(self):
        spec = NormalMatrixSpec(n=64, block_size=8, seed=123)
        assert np.array_equal(random_spectrum(spec), random_spectrum(spec))
        other = NormalMatrixSpec(n=64, block_size=8, seed=124)
        assert not np.array_equal(random_spectrum(spec), random_spectrum(other))


class TestEmbeddedUnitary:
    def test_small_block_is_unitary(self):
        u = _random_unitary_block(2, seed=3)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12

    def test_zero_block_gives_the_permuted_diagonal(self):
        spec = NormalMatrixSpec(n=5, block_size=0, seed=3)
        gen = assemble_normal_system(spec)
        d_eff = gen.planted[np.argsort(gen.permutation)]
        assert np.array_equal(gen.system.M.to_dense(), np.diag(d_eff))

    def test_nnz_pattern(self):
        assert np.count_nonzero(_random_unitary_block(100, seed=4)) == 100 * 100
        gen = assemble_normal_system(NormalMatrixSpec(n=1000, block_size=100, seed=4))
        assert gen.system.M.nnz == 100 * 100 + 900

    def test_embedded_is_unitary(self):
        u = np.eye(30, dtype=complex)
        u[:7, :7] = _random_unitary_block(7, seed=5)
        assert np.abs(u.conj().T @ u - np.eye(30)).max() <= 1e-12


def _conjugated_diagonal(diag, block, n):
    """CSR form of U0ext* diag(d) U0ext, the way the assembly builds it."""
    return _block_and_tail(_conjugated_block(diag, block), diag, n)


def _triplet_conjugated_diagonal(diag, block, n):
    """The triplet construction the CSR assembly replaced, kept as its
    reference: the kept block entries and the diagonal tail as COO triplets,
    sorted by `from_triplets`."""
    if block.shape[0] == 0:
        idx = np.arange(n)
        keep = np.abs(diag) > SPARSITY_DROP_TOL
        return ComplexSparseMatrix.from_triplets(n, n, idx[keep], idx[keep], diag[keep])
    b = block.shape[0]
    dense_block = block.conj().T @ (diag[:b, None] * block)
    rows, cols = np.nonzero(np.abs(dense_block) > SPARSITY_DROP_TOL)
    tail = np.arange(b, n)
    tail = tail[np.abs(diag[b:]) > SPARSITY_DROP_TOL]
    return ComplexSparseMatrix.from_triplets(
        n, n, np.concatenate([rows, tail]), np.concatenate([cols, tail]),
        np.concatenate([dense_block[rows, cols], diag[tail]]),
    )


class TestConjugatedDiagonal:
    @pytest.mark.parametrize("n, b", [(1, 0), (1, 1), (12, 0), (12, 5), (12, 12),
                                      (300, 70)])
    @pytest.mark.parametrize("block_kind", ["unitary", "identity"])
    def test_bits_equal_the_triplet_construction(self, n, b, block_kind):
        rng = np.random.default_rng(n + b)
        diag = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        diag[::3] = 1e-16  # below SPARSITY_DROP_TOL: dropped from the tail
        if block_kind == "unitary":
            block = _random_unitary_block(b, seed=b + 1)
        else:  # exact zeros off the diagonal of the block are dropped too
            block = np.eye(b, dtype=complex)
        got = _conjugated_diagonal(diag, block, n)
        ref = _triplet_conjugated_diagonal(diag, block, n)
        assert got.shape == ref.shape == (n, n)
        assert np.array_equal(got.row_offsets, ref.row_offsets)
        assert np.array_equal(got.col_indices, ref.col_indices)
        assert np.array_equal(got.values.view(np.uint64), ref.values.view(np.uint64))


def _reference_assembly(spec, block=None):
    """The assembly before each CSR array was written once, kept as the
    reference of `assemble_normal_system`: the unitary's phases applied out
    of place, the CSR arrays from np.nonzero and concatenate, and M* from a
    conjugated copy of the gathered values.  Returns M, M*, g and g~."""
    n, b = spec.n, spec.block_size
    if block is None:
        rng = np.random.default_rng(spec.seed + 1)
        z = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        q, r = np.linalg.qr(z / np.sqrt(2.0))
        phases = np.diagonal(r)
        block = q * (phases / np.abs(phases))
    perm = np.random.default_rng(spec.seed + 2).permutation(n)
    diag = random_spectrum(spec)[np.argsort(perm)]
    dense_block = block.conj().T @ (diag[:b, None] * block)
    keep = np.abs(dense_block) > SPARSITY_DROP_TOL
    tail = b + np.flatnonzero(np.abs(diag[b:]) > SPARSITY_DROP_TOL)
    counts = np.zeros(n, dtype=np.int64)
    counts[:b] = keep.sum(axis=1)
    counts[tail] = 1
    m = ComplexSparseMatrix(
        n, n, np.concatenate(([0], np.cumsum(counts))),
        np.concatenate([np.nonzero(keep)[1], tail]),
        np.concatenate([dense_block[keep], diag[tail]]),
    )
    order = np.argsort(m.col_indices, kind="stable")
    rows = np.repeat(np.arange(n), np.diff(m.row_offsets))
    counts = np.bincount(m.col_indices, minlength=n)
    m_tilde = ComplexSparseMatrix(
        n, n, np.concatenate(([0], np.cumsum(counts))), rows[order],
        np.conj(m.values[order]),
    )
    x = np.ones(n, dtype=complex)
    return m, m_tilde, x - m.matvec(x), x - m_tilde.matvec(x)


def _assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


class TestAssemble:
    @staticmethod
    def _assert_equals_the_reference(spec, block=None):
        system = assemble_normal_system(spec).system
        m, m_tilde, g, g_tilde = _reference_assembly(spec, block)
        for got, ref in ((system.M, m), (system.M_tilde, m_tilde)):
            assert got.shape == ref.shape
            for name in ("row_offsets", "col_indices", "values"):
                _assert_same_bits(getattr(got, name), getattr(ref, name))
        _assert_same_bits(system.g, g)
        _assert_same_bits(system.g_tilde, g_tilde)
        return system

    @pytest.mark.parametrize("n, b", [(1, 0), (30, 6), (300, 70), (2000, 100)])
    def test_bits_equal_the_reference_assembly(self, n, b):
        self._assert_equals_the_reference(NormalMatrixSpec(n=n, block_size=b, seed=17))

    def test_bits_equal_the_reference_with_exact_zeros(self, monkeypatch):
        # a unitary block with exact zeros, a random 5 x 5 unitary beside an
        # anti-diagonal of i, so the conjugated block drops whole regions
        block = np.zeros((12, 12), dtype=complex)
        block[:5, :5] = _random_unitary_block(5, seed=8)
        block[5:, 5:] = 1j * np.eye(7)[::-1]
        monkeypatch.setattr(genmat, "_random_unitary_block",
                            lambda size, seed: block.copy())
        spec = NormalMatrixSpec(n=30, block_size=12, seed=17)
        system = self._assert_equals_the_reference(spec, block)
        assert system.M.nnz == 5 * 5 + 7 + 18

    def test_default_spec_nnz(self):
        gen = assemble_normal_system(NormalMatrixSpec(n=1000, block_size=100, seed=42))
        assert 8000 <= gen.system.M.nnz <= 13000

    def test_full_block_spectrum_matches_planted(self):
        spec = NormalMatrixSpec(n=16, block_size=16, seed=7)
        gen = assemble_normal_system(spec)
        vals, _ = dense_eigendecomposition(gen.system.M)
        assert greedy_match_distance(gen.planted, vals) <= 1e-8

    def test_identity_pieces_give_back_the_diagonal(self):
        d = np.array([0.9, 0.1 + 0.2j, -0.3, 0.05j], dtype=complex)
        m = _conjugated_diagonal(d, np.eye(4, dtype=complex), 4)
        assert np.allclose(m.to_dense(), np.diag(d), atol=1e-15)
        m2 = _conjugated_diagonal(d, np.zeros((0, 0), dtype=complex), 4)
        assert np.array_equal(m2.to_dense(), np.diag(d))

    def test_normality_over_seeds(self):
        for seed in range(10):
            gen = assemble_normal_system(
                NormalMatrixSpec(n=200, block_size=40, seed=seed)
            )
            dense = gen.system.M.to_dense()
            star = dense.conj().T
            comm = np.linalg.norm(dense @ star - star @ dense, "fro")
            assert comm <= 1e-10 * np.linalg.norm(dense, "fro") ** 2

    def test_determinism_bit_identical(self):
        spec = NormalMatrixSpec(n=120, block_size=30, seed=11)
        a = assemble_normal_system(spec).system.M
        b = assemble_normal_system(spec).system.M
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(a.row_offsets, b.row_offsets)

    def test_sides_consistent_by_construction(self):
        gen = assemble_normal_system(NormalMatrixSpec(n=50, block_size=10, seed=2))
        sysm = gen.system
        assert np.linalg.norm(gen.x - sysm.M.matvec(gen.x) - sysm.g) <= 1e-12
        assert (
            np.linalg.norm(gen.x - sysm.M_tilde.matvec(gen.x) - sysm.g_tilde) <= 1e-12
        )

    def test_tilde_is_conj_transpose(self):
        gen = assemble_normal_system(NormalMatrixSpec(n=40, block_size=8, seed=3))
        assert np.array_equal(
            gen.system.M_tilde.to_dense(), gen.system.M.to_dense().conj().T
        )

    def test_spectrum_recovery_at_desk_scale(self):
        spec = NormalMatrixSpec(n=32, block_size=8, seed=9)
        gen = assemble_normal_system(spec)
        vals, _ = dense_eigendecomposition(gen.system.M)
        assert greedy_match_distance(gen.planted, vals) <= 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, block_size=0),
            dict(n=10, block_size=11),
            dict(n=10, block_size=2, lambda1=1.2),
            dict(n=10, block_size=2, inner_radius=0.95),
            dict(n=10, block_size=2, inner_radius=0.0),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            NormalMatrixSpec(seed=1, **kwargs)


class TestWriteSystem:
    def test_files_and_sidecar(self, tmp_path):
        spec = NormalMatrixSpec(n=30, block_size=6, seed=13)
        gen = assemble_normal_system(spec)
        written = write_generated_system(gen, spec, tmp_path)
        names = {p.split("/")[-1] for p in map(str, written)}
        assert names == {"M.mtx", "M_tilde.mtx", "g.mtx", "g_tilde.mtx", "system.meta"}
        back = read_matrix_market(tmp_path / "M.mtx")
        assert np.array_equal(back.values, gen.system.M.values)
        meta = (tmp_path / "system.meta").read_text()
        assert "n=30" in meta and "seed=13" in meta
        assert f"nnz={gen.system.M.nnz}" in meta

    @pytest.mark.parametrize("n, b", [(1, 0), (30, 0), (30, 6), (30, 30), (300, 70)])
    def test_matrix_files_equal_the_single_writer(self, tmp_path, n, b):
        spec = NormalMatrixSpec(n=n, block_size=b, seed=13)
        gen = assemble_normal_system(spec)
        write_generated_system(gen, spec, tmp_path)
        for name, m in (("M", gen.system.M), ("M_tilde", gen.system.M_tilde)):
            write_matrix_market(m, tmp_path / f"{name}.ref")
            assert ((tmp_path / f"{name}.mtx").read_bytes()
                    == (tmp_path / f"{name}.ref").read_bytes())

    def test_peak_memory_per_entry(self, tmp_path):
        # the formatted fields live in fixed-width bytes arrays: about 110 B
        # per entry on CPython 3.11 and numpy 2.4, against about 260 when
        # every repr is also kept as a Python str
        nnz, peak = _traced_write(2000, 100, tmp_path)
        assert nnz == 11900
        assert peak < 180 * nnz

    def test_peak_memory_per_added_entry(self, tmp_path):
        # at nnz 11,900 the write's batch temporaries, of one size at any
        # nnz, are a large share of the peak; what the peak gains per entry
        # added is what grows with the matrix: about 64 B on CPython 3.11
        # and numpy 2.4, where the whole peak reads 138 B per entry at
        # nnz 11,900 and 75 at nnz 110k
        nnz0, peak0 = _traced_write(2000, 100, tmp_path)
        nnz1, peak1 = _traced_write(8000, 200, tmp_path)
        assert (nnz0, nnz1) == (11900, 47800)
        assert peak1 - peak0 < 80 * (nnz1 - nnz0)


def _traced_write(n: int, block: int, out) -> tuple[int, int]:
    """nnz of the seed-1 system of size n and block, and the traced peak of
    writing it to `out`."""
    spec = NormalMatrixSpec(n=n, block_size=block, seed=1)
    gen = assemble_normal_system(spec)
    tracemalloc.start()
    try:
        write_generated_system(gen, spec, out)
        return gen.system.M.nnz, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAssemblyMemory:
    def test_peak_in_unitary_blocks(self):
        # traced peak of one assembly in blocks of 16 b^2 bytes, numpy 2.4:
        # 4.24, set by the QR; 4.61 when a local name keeps the unitary block
        # alive to the end; 5.77 when, besides, the CSR arrays and M*'s values
        # were built through copies
        spec = NormalMatrixSpec(n=6000, block_size=600, seed=1)
        tracemalloc.start()
        try:
            gen = assemble_normal_system(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.system.M.nnz == 600 * 600 + 5400
        assert peak < 4.5 * 16 * spec.block_size ** 2

    def test_helpers_leave_their_inputs_unchanged(self):
        rng = np.random.default_rng(5)
        diag = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        diag[::4] = 1e-16
        block = _random_unitary_block(9, seed=6)
        before = [diag.copy(), block.copy()]
        dense = _conjugated_block(diag, block)
        before.append(dense.copy())
        m = _block_and_tail(dense, diag, 40)
        before.append(m.values.copy())
        m.conj_transpose()
        for old, now in zip(before, (diag, block, dense, m.values)):
            _assert_same_bits(now, old)


class TestExample33:
    def test_eigenvalues(self):
        fixture = example33_fixture()
        assert fixture.eigenvalues == (0.9 + 0j, 0.4 + 0.7j, 0.4 - 0.7j, -0.5 + 0j)

    def test_diagonalization_matches_printed_diagonal(self):
        fixture = example33_fixture()
        p_inv = np.linalg.inv(fixture.P)
        check = p_inv @ fixture.system.M.to_dense() @ fixture.P
        assert np.abs(check - fixture.D).max() <= 1e-12

    def test_matrix_is_not_normal(self):
        dense = example33_fixture().system.M.to_dense()
        star = dense.conj().T
        comm = np.linalg.norm(dense @ star - star @ dense, "fro")
        assert comm > 1.0  # clearly non-normal; the P conj(D) P^-1 route is required

    def test_system_consistency(self):
        fixture = example33_fixture()
        sysm, x = fixture.system, fixture.x
        assert np.linalg.norm(x - sysm.M.matvec(x) - sysm.g) <= 1e-12
        assert np.linalg.norm(x - sysm.M_tilde.matvec(x) - sysm.g_tilde) <= 1e-12

    def test_tilde_shares_eigenvectors_with_conjugated_eigenvalues(self):
        fixture = example33_fixture()
        mt = fixture.system.M_tilde.to_dense()
        p_inv = np.linalg.inv(fixture.P)
        check = p_inv @ mt @ fixture.P
        assert np.abs(check - np.conj(fixture.D)).max() <= 1e-12
