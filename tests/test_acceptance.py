"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks the corresponding criterion FAILED.
"""

import math
import re
import time

import numpy as np
import pytest

from gencheb.cli import EXIT_OK, main
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system, example33_fixture
from gencheb.linalg import ComplexSparseMatrix
from gencheb.solvers import (
    IterationSystem,
    basic_iterate,
    generalized_chebyshev_iterate,
    transform_system,
)
from gencheb.spectrum import (
    SpectrumInfo,
    alpha_from_lambda1,
    asymptotic_rate_g,
    feasibility_threshold,
    mu_max,
    select_k_bound,
    select_k_geometric,
)

from dense_eig import dense_eigendecomposition


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def measured_rates(report_text):
    out = {}
    for scheme, _est, value in re.findall(
        r"measured_(\w+)_rate\[(\w+) m=\d+\.\.\d+\]: ([0-9.eE+-]+)", report_text
    ):
        out[scheme] = float(value)
    return out


def test_criterion_01_example33_basic_rate():
    start = time.perf_counter()
    fixture = example33_fixture()
    work = transform_system(fixture.system, 2)
    _, trace = basic_iterate(
        work, steps=61, reference_x=fixture.x, residual_system=fixture.system
    )
    rate = trace.geometric_mean_ratio(30, 60)
    elapsed = time.perf_counter() - start
    assert rate == pytest.approx(0.81, abs=0.02)
    assert elapsed < 1.0
    ok(1, f"basic tail ratio over m=30..60 is {rate:.4f}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_example33_accelerated_rate():
    # The exact error norms oscillate quasi-periodically about the geometric
    # trend and hit the double-precision floor near m = 40, so the tail rate
    # is the least-squares slope of log |eta_m| over m = 10..38 rather than
    # an endpoint ratio over m = 30..60.
    start = time.perf_counter()
    fixture = example33_fixture()
    work = transform_system(fixture.system, 2)
    _, trace = generalized_chebyshev_iterate(
        work, steps=40, reference_x=fixture.x, residual_system=fixture.system
    )
    rate = trace.fitted_rate(10, 38)
    elapsed = time.perf_counter() - start
    assert rate == pytest.approx(0.442, abs=0.02)
    assert elapsed < 1.0
    ok(2, f"accelerated fitted rate over m=10..38 is {rate:.4f}, "
          f"{elapsed * 1e3:.0f} ms")


def test_criterion_03_k_selection():
    info_bound = SpectrumInfo((0.9 + 0j, 0.9 * 0.895), lambda1=0.9, source="exact")
    k_bound = select_k_bound(info_bound)
    assert k_bound == 10
    fixture = example33_fixture()
    info_geo = SpectrumInfo(fixture.eigenvalues, lambda1=0.9, source="exact")
    k_geo = select_k_geometric(info_geo)
    assert k_geo == 2
    ok(3, f"k_bound(r=0.895) = {k_bound}, k_geometric(example33) = {k_geo}")


def test_criterion_04_k_ratio_table():
    table = [0.333, 0.577, 0.693, 0.759, 0.802, 0.832, 0.854]
    for k, expected in enumerate(table, start=1):
        assert abs(3.0 ** (-1.0 / k) - expected) <= 1e-3
    ok(4, "3^(-1/k) matches the k=1..7 table to 3 decimals")


def test_criterion_05_feasibility_table():
    table = [0.392, 0.626, 0.732, 0.791, 0.829, 0.855, 0.874]
    for k, expected in enumerate(table, start=1):
        assert abs(feasibility_threshold(k) - expected) <= 1e-3
    lam = feasibility_threshold(1)
    assert lam**3 + lam**2 + 2 * lam - 1 == pytest.approx(0.0, abs=1e-11)
    ok(5, f"lambda*^(1/k) table reproduced from lambda* = {lam:.6f}")


def test_criterion_06_rate_formulas():
    alpha = alpha_from_lambda1(0.81)
    assert alpha == pytest.approx(0.816, abs=1e-3)
    g81 = asymptotic_rate_g(0.81)
    assert g81 == pytest.approx(0.442, abs=1e-3)
    assert asymptotic_rate_g(0.729) == pytest.approx(0.363, abs=1e-3)
    assert abs(mu_max(0.81, alpha) - g81) <= 1e-6
    for lam in np.linspace(0.05, 0.99, 100):
        assert abs(asymptotic_rate_g(lam) - math.exp(-alpha_from_lambda1(lam))) <= 1e-12
    ok(6, f"alpha(0.81)={alpha:.4f}, g(0.81)={g81:.4f}, "
          f"g(0.729)={asymptotic_rate_g(0.729):.4f}, mu_max consistent")


def test_criterion_07_normal_sparse_experiment(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "default"
    assert main(["normal-sparse", "--out", str(out)]) == EXIT_OK
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report = (out / "report.txt").read_text()
    assert "k_used: 3" in report
    rates = measured_rates(report)
    assert rates["basic"] == pytest.approx(0.729, abs=0.02)
    assert 0.34 < rates["generalized"] < 0.53

    start_small = time.perf_counter()
    out_small = tmp_path / "small"
    assert main([
        "normal-sparse", "--out", str(out_small), "--n", "50", "--block", "10",
        "--k", "3",
    ]) == EXIT_OK
    elapsed_small = time.perf_counter() - start_small
    assert elapsed_small < 1.0
    small = measured_rates((out_small / "report.txt").read_text())
    assert small["basic"] == pytest.approx(0.729, abs=0.05)
    assert 0.34 - 0.05 < small["generalized"] < 0.53 + 0.05
    ok(7, f"n=1000 in {elapsed:.1f}s: basic {rates['basic']:.4f}, "
          f"accel {rates['generalized']:.4f}; n=50 in {elapsed_small:.2f}s: "
          f"basic {small['basic']:.4f}, accel {small['generalized']:.4f}")


def test_criterion_08_transform_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        raw = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        rho = 0.3 + 0.6 * rng.random()
        dense = raw * (rho / max(np.abs(np.linalg.eigvals(raw))))
        x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        g = x - dense @ x
        sys_ = IterationSystem(M=ComplexSparseMatrix.from_dense(dense), g=g)
        direct = np.linalg.solve(np.eye(30) - dense, g)
        for k in (2, 3, 5):
            out = transform_system(sys_, k)
            mk = np.linalg.matrix_power(dense, k)
            transformed = np.linalg.solve(np.eye(30) - mk, out.g)
            worst = max(worst, float(np.linalg.norm(direct - transformed)))
    assert worst <= 1e-8
    ok(8, f"20 systems x k in (2,3,5): fixed points agree to {worst:.2e}")


def test_criterion_09_polynomial_properties():
    # functional equation
    rng = np.random.default_rng(31)
    worst_fe = 0.0
    for t1, t2 in rng.random((200, 2)):
        x = complex(
            (np.exp(2j * np.pi * t1) + np.exp(-2j * np.pi * t2)
             + np.exp(2j * np.pi * (t2 - t1))) / 3.0
        )
        xb = x.conjugate()
        window = [1.0 + 0j, x, 3 * x * x - 2 * xb]
        for m in range(51):
            if m < 3:
                fm = window[m]
            else:
                fm = 3 * x * window[2] - 3 * xb * window[1] + window[0]
                window = [window[1], window[2], fm]
            target = complex(
                (np.exp(2j * np.pi * m * t1) + np.exp(-2j * np.pi * m * t2)
                 + np.exp(2j * np.pi * m * (t2 - t1))) / 3.0
            )
            worst_fe = max(worst_fe, abs(fm - target))
    assert worst_fe <= 1e-9

    # coefficient identity
    from gencheb.cheb_kernel import ChebCoefficientStream

    worst_id = 0.0
    for _ in range(50):
        lam = (0.1 + 0.89 * rng.random()) * np.exp(2j * np.pi * rng.random())
        stream = ChebCoefficientStream(lam)
        for _ in range(3, 201):
            c1, c2, c3 = stream.step()
            worst_id = max(worst_id, abs(c1 - c2 + c3 - 1.0))
    assert worst_id <= 1e-12

    # membership quartic on the boundary curve
    from gencheb.cheb_kernel import membership_defect

    t = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False)
    z = (2 * np.exp(1j * t) + np.exp(-2j * t)) / 3.0
    worst_h = float(np.max(np.abs(membership_defect(z))))
    assert worst_h <= 1e-12
    ok(9, f"functional eq {worst_fe:.2e}, identity {worst_id:.2e}, "
          f"boundary quartic {worst_h:.2e}")


def _scalar_pm_sequence(lam, lam1, mmax):
    """Oracle: p_m(lam) by jointly rescaled numerator/denominator recurrences."""
    y = lam / lam1
    w = 1.0 / lam1
    num = np.array([1.0 + 0j, y, 3 * y * y - 2 * np.conj(y)])
    den = np.array([1.0 + 0j, w, 3 * w * w - 2 * np.conj(w)])
    out = [num[0] / den[0], num[1] / den[1], num[2] / den[2]]
    for _ in range(3, mmax + 1):
        num = np.array([num[1], num[2],
                        3 * y * num[2] - 3 * np.conj(y) * num[1] + num[0]])
        den = np.array([den[1], den[2],
                        3 * w * den[2] - 3 * np.conj(w) * den[1] + den[0]])
        scale = np.abs(den).max()
        num /= scale
        den /= scale
        out.append(num[2] / den[2])
    return out


def test_criterion_10_diagonal_oracle():
    spectra = [
        np.array([0.9, 0.3, -0.2], dtype=complex),
        0.9 * np.array([1.0, 0.3 + 0.1j, -0.2 + 0.15j, 0.25j], dtype=complex),
    ]
    worst_scaled = 0.0
    worst_rel = 0.0
    for lams in spectra:
        lam1 = complex(lams[0])
        n = len(lams)
        x = np.ones(n, dtype=complex)
        sys_ = IterationSystem(
            M=ComplexSparseMatrix.from_dense(np.diag(lams)),
            g=x - lams * x,
            M_tilde=ComplexSparseMatrix.from_dense(np.diag(np.conj(lams))),
            g_tilde=x - np.conj(lams) * x,
            lambda1=lam1,
        )
        # y_m is the final iterate of a run of m steps: the loop is deterministic
        iterates = [generalized_chebyshev_iterate(sys_, steps=m, reference_x=x)[0]
                    for m in range(61)]
        oracles = [_scalar_pm_sequence(lam, lam1, 60) for lam in lams]
        for m in range(61):
            eta = x - iterates[m]
            for i in range(n):
                expected = oracles[i][m]  # eps0_i = 1
                dev = abs(eta[i] - expected)
                worst_scaled = max(worst_scaled, dev / (1.0 + abs(expected)))
                if abs(expected) >= 1e-4:
                    worst_rel = max(worst_rel, dev / abs(expected))
    # strict relative agreement where the expected value is representable;
    # scale-aware agreement everywhere (the error polynomial decays below
    # double-precision resolution well before m = 60)
    assert worst_rel <= 1e-9
    assert worst_scaled <= 1e-9
    ok(10, f"relative dev {worst_rel:.2e} (|p_m| >= 1e-4), "
           f"scale-aware dev {worst_scaled:.2e}, m <= 60")


def test_criterion_11_generator_contracts():
    worst_comm = 0.0
    for seed in range(10):
        gen = assemble_normal_system(NormalMatrixSpec(n=200, block_size=40, seed=seed))
        dense = gen.system.M.to_dense()
        star = dense.conj().T
        rel = np.linalg.norm(dense @ star - star @ dense, "fro") / (
            np.linalg.norm(dense, "fro") ** 2
        )
        worst_comm = max(worst_comm, float(rel))
    assert worst_comm <= 1e-10

    spec = NormalMatrixSpec(n=32, block_size=8, seed=77)
    gen = assemble_normal_system(spec)
    vals, _ = dense_eigendecomposition(gen.system.M)
    pool = list(vals)
    worst_plant = 0.0
    for p in gen.planted:
        gaps = [abs(p - c) for c in pool]
        i = int(np.argmin(gaps))
        worst_plant = max(worst_plant, gaps[i])
        pool.pop(i)
    assert worst_plant <= 1e-8

    nnz = assemble_normal_system(
        NormalMatrixSpec(n=1000, block_size=100, seed=42)
    ).system.M.nnz
    assert 8000 <= nnz <= 13000
    ok(11, f"commutator {worst_comm:.2e}, planting {worst_plant:.2e}, nnz {nnz}")
