"""Seeded construction of normal sparse test systems, plus the 4x4 fixture.

The random generator plants a prescribed dominant eigenvalue and scatters
the rest uniformly in a smaller disc, then conjugates the diagonal by a
permuted embedded random unitary.  The result is normal by construction,
so the companion matrix is just the conjugate transpose.

Memory: assembly peaks in the QR of the b x b Gaussian block, where it,
numpy's copy of it, Q and R are alive (about four blocks of 16 b^2 bytes).
The unitary block is freed before any CSR array exists and the dense
block before M* is built; no helper writes into an array its caller holds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ComplexSparseMatrix,
    write_matrix_market,
    write_vector_market,
)
from .solvers import IterationSystem

#: Assembled entries below this magnitude are dropped; far beneath any test
#: tolerance, and the identity tail produces many exact zeros anyway.
SPARSITY_DROP_TOL = 1e-14


@dataclass(frozen=True)
class NormalMatrixSpec:
    """Parameters of one random normal sparse system."""

    n: int
    block_size: int
    lambda1: float = 0.9
    inner_radius: float = 0.6
    seed: int = 42

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.block_size <= self.n:
            raise ValueError("block_size must lie in [0, n]")
        if not 0.0 < self.inner_radius < self.lambda1 < 1.0:
            raise ValueError(
                "need 0 < inner_radius < lambda1 < 1, got "
                f"inner_radius={self.inner_radius}, lambda1={self.lambda1}"
            )


def random_spectrum(spec: NormalMatrixSpec) -> np.ndarray:
    """Planted diagonal: entry 0 is lambda1, the rest random in the inner disc.

    Uses a * exp(2*pi*i*b) with (a, b) uniform on the unit square, scaled
    by inner_radius; zero draws are rejected so every eigenvalue is
    nonzero.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    rest = spec.n - 1
    a = rng.random(rest)
    b = rng.random(rest)
    while np.any(a == 0.0):
        redo = a == 0.0
        a[redo] = rng.random(int(redo.sum()))
    d = np.empty(spec.n, dtype=complex)
    d[0] = spec.lambda1
    d[1:] = spec.inner_radius * a * np.exp(2j * np.pi * b)
    return d


def _random_unitary_block(block_size: int, seed: int) -> np.ndarray:
    """Dense random unitary block: QR of a complex Gaussian matrix with the
    R-diagonal phases folded into Q."""
    rng = np.random.default_rng(seed)
    z = (
        rng.standard_normal((block_size, block_size))
        + 1j * rng.standard_normal((block_size, block_size))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q *= diag / np.abs(diag)
    return q


def _conjugated_block(diag: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Dense U0* diag(d[:b]) U0 for the b x b block U0 (b may be 0)."""
    return block.conj().T @ (diag[:block.shape[0], None] * block)


def _block_and_tail(
    dense_block: np.ndarray, diag: np.ndarray, n: int
) -> ComplexSparseMatrix:
    """CSR form of the n x n matrix with dense_block (b x b) at the top left
    and diag[b:] on the rest of the diagonal: the kept entries of the block
    row by row, then the tail.  Each CSR array is written once."""
    b = dense_block.shape[0]
    keep = np.abs(dense_block) > SPARSITY_DROP_TOL
    tail = b + np.flatnonzero(np.abs(diag[b:]) > SPARSITY_DROP_TOL)
    counts = np.zeros(n, dtype=np.int64)
    counts[:b] = keep.sum(axis=1)
    counts[tail] = 1
    flat = np.flatnonzero(keep)
    head = flat.size
    cols = np.empty(head + tail.size, dtype=np.int64)
    values = np.empty(head + tail.size, dtype=complex)
    # mode="clip": in the default mode np.take fills a copy of `out` first
    np.take(dense_block, flat, out=values[:head], mode="clip")
    np.remainder(flat, b, out=cols[:head])
    cols[head:], values[head:] = tail, diag[tail]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return ComplexSparseMatrix(n, n, offsets, cols, values)


@dataclass(frozen=True)
class GeneratedSystem:
    """Assembled system plus the ground truth used to build it."""

    system: IterationSystem
    x: np.ndarray              # reference solution (all ones)
    planted: np.ndarray        # planted eigenvalues (diagonal of D)
    permutation: np.ndarray


def assemble_normal_system(spec: NormalMatrixSpec) -> GeneratedSystem:
    """Build M = U* D U with U = P U0ext, plus the tilde pair M* and sides.

    P is a seeded random permutation; conjugating the diagonal by it only
    reshuffles which planted eigenvalues meet the unitary block, so the
    assembly works on the permuted diagonal directly.  g and g_tilde are
    created from the all-ones reference solution.
    """
    d = random_spectrum(spec)
    perm = np.random.default_rng(spec.seed + 2).permutation(spec.n)
    # U[i, :] = U0ext[perm[i], :]  =>  M = U0ext* diag(d[argsort(perm)]) U0ext
    d_eff = d[np.argsort(perm)]
    # no name holds the unitary or the dense block: each is freed when the
    # helper that reads it last returns, before the next one allocates
    m = _block_and_tail(
        _conjugated_block(d_eff, _random_unitary_block(spec.block_size, spec.seed + 1)),
        d_eff, spec.n)
    m_tilde = m.conj_transpose()
    x = np.ones(spec.n, dtype=complex)
    g = x - m.matvec(x)
    g_tilde = x - m_tilde.matvec(x)
    system = IterationSystem(
        M=m, g=g, M_tilde=m_tilde, g_tilde=g_tilde, lambda1=spec.lambda1
    )
    return GeneratedSystem(system=system, x=x, planted=d, permutation=perm)


def write_generated_system(
    gen: GeneratedSystem, spec: NormalMatrixSpec, out_dir: str | os.PathLike
) -> list[str]:
    """Write Matrix Market files plus a key=value metadata sidecar.
    M_tilde.mtx is written as M*, the companion the assembly stores."""
    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, name) for name in ("M.mtx", "M_tilde.mtx")]
    write_matrix_market(gen.system.M, *written)
    for name, vec in (("g.mtx", gen.system.g), ("g_tilde.mtx", gen.system.g_tilde)):
        path = os.path.join(out_dir, name)
        write_vector_market(vec, path)
        written.append(path)
    meta = os.path.join(out_dir, "system.meta")
    with open(meta, "w", encoding="ascii") as fh:
        fh.write(f"n={spec.n}\n")
        fh.write(f"seed={spec.seed}\n")
        fh.write(f"lambda1={spec.lambda1!r}\n")
        fh.write(f"inner_radius={spec.inner_radius!r}\n")
        fh.write(f"block_size={spec.block_size}\n")
        fh.write(f"nnz={gen.system.M.nnz}\n")
    written.append(meta)
    return written


# -- 4x4 reference fixture ----------------------------------------------------

_EX33_M = np.array(
    [
        [1.40 + 0.70j, -1.80 - 2.80j, 1.20 - 2.80j, 0.20 + 0.00j],
        [0.25 + 0.35j, -0.95 - 1.05j, -0.60 - 0.70j, -0.85 + 0.35j],
        [0.00 + 0.00j, 0.90 + 0.70j, 1.30 + 1.40j, 0.90 + 0.70j],
        [-0.25 - 0.35j, -0.45 + 0.35j, -1.20 - 0.70j, -0.55 - 1.05j],
    ]
)

_EX33_P = np.array(
    [
        [-2.0, 3.0, 1.0, -1.0],
        [-0.5, 1.0, 0.5, -0.75],
        [0.0, -1.0, 0.0, 0.5],
        [0.5, 0.0, -0.5, -0.25],
    ]
)

_EX33_EIGENVALUES = (0.9 + 0j, 0.4 + 0.7j, 0.4 - 0.7j, -0.5 + 0j)


@dataclass(frozen=True)
class Example33Fixture:
    """The built-in 4x4 system with its diagonalization ground truth."""

    system: IterationSystem
    x: np.ndarray
    eigenvalues: tuple
    P: np.ndarray
    D: np.ndarray


def example33_fixture() -> Example33Fixture:
    """4x4 complex system with eigenvalues 0.9, 0.4 +- 0.7i, -0.5.

    The matrix is not normal, so the companion matrix is built from the
    diagonalizing P as P conj(D) P^-1.
    """
    p = _EX33_P
    d = np.diag(_EX33_EIGENVALUES)
    m_tilde_dense = p @ np.conj(d) @ np.linalg.inv(p)
    x = np.ones(4, dtype=complex)
    g = x - _EX33_M @ x
    g_tilde = x - m_tilde_dense @ x
    system = IterationSystem(
        M=ComplexSparseMatrix.from_dense(_EX33_M),
        g=g,
        M_tilde=ComplexSparseMatrix.from_dense(m_tilde_dense, drop_tol=1e-15),
        g_tilde=g_tilde,
        lambda1=0.9,
    )
    return Example33Fixture(
        system=system, x=x, eigenvalues=_EX33_EIGENVALUES, P=p.copy(), D=d
    )
