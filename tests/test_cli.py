import csv
import dataclasses
import math
import os
import re
import shutil
import threading

import numpy as np
import pytest

from gencheb import cli, linalg, solvers
from gencheb.cheb_kernel import power_preimage_contains
from gencheb.cli import (
    EXIT_INAPPLICABLE,
    EXIT_IO,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    _commutator_check,
    main,
    read_spectrum_file,
)
from gencheb.errors import (
    Divergence,
    GenChebError,
    InapplicableSpectrum,
    NotConverged,
    UnreadableMatrix,
)
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system, example33_fixture
from gencheb.linalg import (
    ComplexSparseMatrix,
    read_matrix_market,
    write_matrix_market,
    write_vector_market,
)
from gencheb.solvers import solve
from gencheb.spectrum import SpectrumInfo, build_report


def read_trace(path):
    with open(path) as fh:
        meta = fh.readline()
        assert meta.startswith("# ")
        rows = list(csv.DictReader(fh))
    return meta, rows


def report_value(text, label):
    match = re.search(rf"^{re.escape(label)}(\[[^\]]*\])?: (.+)$", text, re.M)
    assert match, f"{label} not found in report"
    return match.group(2)


#: lambda1 = 0.9 and a second eigenvalue of modulus 0.8999 at an irrational
#: angle: unique dominant, but the modulus bound needs k = 9887.
NEAR_DOMINANT = (0.9 + 0j, 0.8999 * np.exp(1j))


def write_spectrum(path, values):
    path.write_text("".join(f"{float(v.real)!r} {float(v.imag)!r}\n"
                            for v in map(complex, values)))
    return path


def measured_rates(text):
    out = {}
    for scheme, _est, value in re.findall(
        r"measured_(\w+)_rate\[(\w+) m=\d+\.\.\d+\]: ([0-9.eE+-]+)", text
    ):
        out[scheme] = float(value)
    return out


class TestExample33Command:
    def test_default_run(self, tmp_path):
        out = tmp_path / "ex"
        assert main(["example33", "--out", str(out), "--steps", "65"]) == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_bound") == "10"
        assert report_value(report, "k_geometric") == "2"
        assert report_value(report, "k_used") == "2"
        rates = measured_rates(report)
        assert rates["basic"] == pytest.approx(0.81, abs=0.02)
        assert rates["generalized"] == pytest.approx(0.442, abs=0.02)
        meta, rows = read_trace(out / "trace.csv")
        assert "subcommand=example33" in meta and "steps=65" in meta
        assert set(rows[0]) == {"m", "scheme", "err_norm", "residual", "ratio",
                                "matvecs"}
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"basic", "generalized"}
        # per-scheme cumulative matvec counters; step 1 from y0 = 0 costs nothing
        basic_rows = [r for r in rows if r["scheme"] == "basic"]
        assert int(basic_rows[-1]["matvecs"]) == 2 * (len(basic_rows) - 1)

    def test_zero_steps_header_only(self, tmp_path):
        out = tmp_path / "zero"
        assert main(["example33", "--out", str(out), "--steps", "0"]) == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 2  # metadata + header
        assert lines[1] == "m,scheme,err_norm,residual,ratio,matvecs"

    def test_explicit_k_override(self, tmp_path):
        out = tmp_path / "k1"
        assert main(["example33", "--out", str(out), "--steps", "5", "--k", "2",
                     "--schemes", "basic"]) == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_used") == "2"

    @pytest.mark.parametrize("flags", [[], ["--k", "2"]])
    def test_k_above_k_max_refused(self, tmp_path, flags):
        # k_geometric = 2 needs --k-max 2; the bound alone would be k = 10
        out = tmp_path / "cap"
        assert main(["example33", "--out", str(out), "--k-max", "1",
                     *flags]) == EXIT_INAPPLICABLE
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_bound") == "10"
        assert report_value(report, "k_selected") == "None"
        assert "k_used" not in report
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("k, scheme, shown", [
        ("7000", "generalized", "dominant eigenvalue (4.985e-321+0j)"),
        ("8000", "generalized", "dominant eigenvalue 0j"),
        ("8000", "classical", "spectral radius must lie in (0, 1), got 0.0"),
    ])
    def test_forced_k_with_lambda1_power_below_the_normal_range_refused(
            self, tmp_path, capsys, k, scheme, shown):
        # 0.9^7000 is subnormal and 0.9^8000 underflows to 0
        out = tmp_path / "k"
        assert main(["example33", "--out", str(out), "--k", k, "--steps", "2",
                     "--schemes", scheme]) == EXIT_INAPPLICABLE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown}") and "Traceback" not in err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("k, shown", [
        ("8000", "dominant eigenvalue 0j"),
        ("2300", "dominant eigenvalue (5.724950163680305e-106+0j) is outside the "
                 "coefficient stream's range: its modulus must be at least the floor "
                 "5.32e-103"),
    ], ids=["8000", "2300"])
    def test_forced_k_refused_before_any_scheme_runs(self, tmp_path, capsys,
                                                     product_counts, k, shown):
        # basic runs at k = 8000 and 2300 and generalized does not: neither runs
        out = tmp_path / "k"
        assert main(["example33", "--out", str(out), "--k", k, "--steps", "2",
                     "--schemes", "basic,generalized"]) == EXIT_INAPPLICABLE
        assert capsys.readouterr().err.startswith(f"error: {shown}")
        assert not (out / "trace.csv").exists()
        assert sum(product_counts.values()) == 0

    @pytest.mark.parametrize("k, code", [
        ("2235", EXIT_OK), ("2236", EXIT_INAPPLICABLE), ("2300", EXIT_INAPPLICABLE),
    ])
    def test_forced_k_at_the_stream_floor(self, tmp_path, capsys, k, code):
        # 0.9^2235 = 5.4e-103 is above the floor; 0.9^2236 = 4.9e-103 and
        # 0.9^2300 = 5.7e-106 are normal doubles below it, where the stream's
        # first step would overflow
        out = tmp_path / "k"
        assert main(["example33", "--out", str(out), "--k", k, "--steps", "3",
                     "--schemes", "generalized"]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            _, rows = read_trace(out / "trace.csv")
            assert [row["m"] for row in rows] == ["1", "2", "3"]
            assert all(math.isfinite(float(row["residual"])) for row in rows)
        else:
            assert err.startswith("error: dominant eigenvalue") and err.count("\n") == 1
            assert "the floor 5.32e-103" in err
            assert not (out / "trace.csv").exists()

    def test_repeated_scheme_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "twice"
        with pytest.raises(SystemExit) as exc:
            main(["example33", "--out", str(out), "--schemes", "basic,basic"])
        assert exc.value.code == 2
        assert "error: argument --schemes: expected distinct names" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_fixed_step_divergence_keeps_the_trace(self, tmp_path):
        # at k = 1 the quotients 0.4/0.9 +- 0.7i/0.9 lie outside the deltoid
        out = tmp_path / "k1"
        assert main(["example33", "--out", str(out), "--k", "1",
                     "--schemes", "generalized"]) == EXIT_NOT_CONVERGED
        report = (out / "report.txt").read_text()
        stop = re.fullmatch(r"diverged at step (\d+)",
                            report_value(report, "generalized"))
        assert stop
        _, rows = read_trace(out / "trace.csv")
        assert int(rows[-1]["m"]) == int(stop.group(1)) < 200

    @pytest.mark.parametrize("flags, scheme, final", [
        # classical's ellipse on [-0.81, 0.81] misses (0.4 +- 0.7i)^2; at k = 3
        # the pair's quotients leave the deltoid
        (["--schemes", "basic,classical,generalized"], "classical", 6.315e+01),
        (["--k", "3", "--schemes", "generalized"], "generalized", 5.096e+02),
        ([], None, None),
    ], ids=["classical", "k3", "default"])
    def test_a_fixed_step_run_that_grows_says_so(self, tmp_path, flags, scheme, final):
        out = tmp_path / "grow"
        assert main(["example33", "--out", str(out), *flags]) == EXIT_OK
        grown = re.findall(r"^(\w+): residual grew from (\S+) to (\S+) over (\d+) steps$",
                           (out / "report.txt").read_text(), re.M)
        if scheme is None:
            assert grown == []
            return
        [(name, initial, last, steps)] = grown
        assert (name, initial, steps) == (scheme, "7.890e+00", "200")
        assert float(last) == pytest.approx(final, rel=1e-3)
        _, rows = read_trace(out / "trace.csv")
        last_row = [row for row in rows if row["scheme"] == scheme][-1]
        assert float(last_row["residual"]) == pytest.approx(final, rel=1e-3)


class TestNormalSparseCommand:
    def test_scaled_run(self, tmp_path):
        out = tmp_path / "ns"
        code = main([
            "normal-sparse", "--out", str(out), "--n", "50", "--block", "10",
            "--k", "3", "--seed", "42",
        ])
        assert code == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_used") == "3"
        rates = measured_rates(report)
        assert rates["basic"] == pytest.approx(0.729, abs=0.05)
        assert 0.29 < rates["generalized"] < 0.58
        for name in ("M.mtx", "M_tilde.mtx", "g.mtx", "g_tilde.mtx",
                     "system.meta", "trace.csv", "report.txt"):
            assert (out / name).exists()
        assert "nnz=" in (out / "system.meta").read_text()

    @pytest.mark.parametrize("k, first_zero, lines", [
        # both errors are exactly 0 before step 10 at k = 64: no line is left
        ("64", 6, []),
        # at k = 20 the basic window ends before its first 0
        ("20", 18, ["measured_basic_rate[geomean m=10..17]",
                    "measured_generalized_rate[geomean m=10..20]"]),
    ])
    def test_rate_window_stops_before_an_exact_zero(self, tmp_path, k, first_zero,
                                                     lines):
        out = tmp_path / "ns"
        code = main(["normal-sparse", "--n", "1", "--block", "0", "--k", k,
                     "--out", str(out)])
        assert code == EXIT_OK
        _meta, rows = read_trace(out / "trace.csv")
        assert min(int(r["m"]) for r in rows
                   if r["scheme"] == "basic" and float(r["err_norm"]) == 0) == first_zero
        report = (out / "report.txt").read_text()
        assert [line.split(":")[0] for line in report.splitlines()
                if line.startswith("measured_")] == lines


    @pytest.mark.parametrize("steps", ["0", "40"])
    def test_two_thread_chains_write_the_serial_bytes(self, tmp_path, monkeypatch, steps):
        # a 760 x 760 panel whose companion is linked to it; with no step the
        # run starts no thread, and otherwise its files are the serial run's
        argv = ["normal-sparse", "--n", "800", "--block", "760", "--steps", steps]
        written = {}
        for threaded in (False, True):
            monkeypatch.setattr(solvers, "_OVERLAP_MIN_NNZ", 0 if threaded else math.inf)
            before = threading.active_count()
            if threaded and steps == "0":
                def refused(self):
                    raise AssertionError(f"thread {self.name} started")
                monkeypatch.setattr(threading.Thread, "start", refused)
            out = tmp_path / "ns"  # the trace's header names it
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            assert threading.active_count() == before
            written[threaded] = [(out / name).read_bytes() for name in (
                "M.mtx", "M_tilde.mtx", "trace.csv", "report.txt")]
        assert written[True] == written[False]


#: `custom` on the 4x4 example33 files of `TestCustomCommand._write_inputs`.
CUSTOM_TILDE = ["custom", "--matrix", "M.mtx", "--tilde", "Mt.mtx",
                "--spectrum", "spectrum.txt"]


class TestCustomCommand:
    def _write_inputs(self, tmp_path):
        fixture = example33_fixture()
        mpath = tmp_path / "M.mtx"
        tpath = tmp_path / "Mt.mtx"
        write_matrix_market(fixture.system.M, mpath)
        write_matrix_market(fixture.system.M_tilde, tpath)
        spath = tmp_path / "spectrum.txt"
        spath.write_text(
            "# eigenvalues\n0.9 0.0\n0.4 0.7\n0.4 -0.7\n-0.5 0.0\n"
        )
        return mpath, tpath, spath

    def test_round_trip_matches_fixture_selection(self, tmp_path):
        mpath, tpath, spath = self._write_inputs(tmp_path)
        out = tmp_path / "custom"
        code = main([
            "custom", "--matrix", str(mpath), "--tilde", str(tpath),
            "--spectrum", str(spath), "--out", str(out),
        ])
        assert code == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_bound") == "10"
        assert report_value(report, "k_geometric") == "2"
        assert report_value(report, "k_used") == "2"
        assert "basic: converged" in report
        assert "generalized: converged" in report

    def test_inapplicable_exit_code(self, tmp_path):
        fixture = example33_fixture()
        mpath = tmp_path / "M.mtx"
        write_matrix_market(fixture.system.M, mpath)
        spath = tmp_path / "spec.txt"
        zeta = 0.8 * np.exp(1j * 1.0)  # irrational rotation of the dominant pair
        spath.write_text(f"0.8 0.0\n{float(zeta.real)!r} {float(zeta.imag)!r}\n")
        out = tmp_path / "bad"
        code = main([
            "custom", "--matrix", str(mpath), "--spectrum", str(spath),
            "--out", str(out), "--schemes", "basic",
        ])
        assert code == EXIT_INAPPLICABLE
        assert (out / "report.txt").exists()

    def test_k_above_k_max_refused(self, tmp_path):
        lams = np.array(NEAR_DOMINANT)
        mpath = tmp_path / "M.mtx"
        write_matrix_market(ComplexSparseMatrix.from_dense(np.diag(lams)), mpath)
        spath = write_spectrum(tmp_path / "s.txt", lams)
        out = tmp_path / "cap"
        code = main(["custom", "--matrix", str(mpath), "--spectrum", str(spath),
                     "--schemes", "basic", "--out", str(out)])
        assert code == EXIT_INAPPLICABLE
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_bound") == "9887"
        assert report_value(report, "k_selected") == "None"
        assert not (out / "trace.csv").exists()

    def test_not_converged_exit_code(self, tmp_path):
        mpath, tpath, spath = self._write_inputs(tmp_path)
        out = tmp_path / "short"
        code = main([
            "custom", "--matrix", str(mpath), "--tilde", str(tpath),
            "--spectrum", str(spath), "--out", str(out), "--steps", "2",
            "--schemes", "basic",
        ])
        assert code == EXIT_NOT_CONVERGED
        assert (out / "trace.csv").exists()
        report = (out / "report.txt").read_text()
        assert "NOT converged" in report

    @pytest.mark.parametrize("flags", [
        ["--spectrum", "s.txt"],
        ["--lambda1", "0.99+0.5j"],
    ])
    def test_dominant_eigenvalue_outside_the_disc(self, tmp_path, capsys, flags):
        mpath, _tpath, _spath = self._write_inputs(tmp_path)
        (tmp_path / "s.txt").write_text("0.9 0.0\n-1.0 0.5\n")
        flags = [str(tmp_path / f) if f == "s.txt" else f for f in flags]
        code = main([
            "custom", "--matrix", str(mpath), *flags, "--schemes", "basic",
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_INAPPLICABLE
        assert "error: spectral radius must be below one" in capsys.readouterr().err

    def test_subnormal_dominant_eigenvalue_refused_before_any_quotient(self, tmp_path,
                                                                       capsys):
        mpath, _tpath, _spath = self._write_inputs(tmp_path)
        (tmp_path / "s.txt").write_text("1e-320 0\n5e-321 0\n")
        code = main(["custom", "--matrix", str(mpath), "--spectrum",
                     str(tmp_path / "s.txt"), "--schemes", "basic",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INAPPLICABLE
        err = capsys.readouterr().err
        assert err == ("error: dominant eigenvalue (1e-320+0j) is zero or below the "
                       "smallest normal double\n")

    @pytest.mark.parametrize("schemes, code", [
        ([], EXIT_INAPPLICABLE),
        (["--schemes", "basic"], EXIT_OK),
    ], ids=["basic,generalized", "basic"])
    def test_lambda1_below_the_stream_floor(self, tmp_path, capsys, schemes, code):
        # the three-term scheme is refused before its seed divides by
        # lambda1^2 = 1e-400; basic needs no stream and converges
        gen = tmp_path / "gen"
        assert main(["normal-sparse", "--n", "400", "--block", "40", "--steps", "0",
                     "--out", str(gen)]) == EXIT_OK
        out = tmp_path / "o"
        assert main(["custom", "--matrix", str(gen / "M.mtx"), "--tilde",
                     str(gen / "M_tilde.mtx"), "--lambda1", "1e-200", *schemes,
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
            assert "basic: converged" in (out / "report.txt").read_text()
        else:
            assert err.startswith("error: dominant eigenvalue (1e-200+0j)")
            assert "the floor 5.32e-103" in err
            assert not (out / "trace.csv").exists()

    def test_unreadable_matrix_exit_code(self, tmp_path):
        code = main([
            "custom", "--matrix", str(tmp_path / "missing.mtx"),
            "--lambda1", "0.9", "--schemes", "basic", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("entry", ["3 1 1.0 0.0", "1 1 nan 0.0", "1 1 0.5 inf"])
    def test_out_of_shape_or_nonfinite_entry_exit_code(self, tmp_path, capsys, entry):
        mpath = tmp_path / "oob.mtx"
        mpath.write_text(
            f"%%MatrixMarket matrix coordinate complex general\n2 2 1\n{entry}\n"
        )
        code = main([
            "custom", "--matrix", str(mpath), "--lambda1", "0.5",
            "--schemes", "basic", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_IO
        assert "oob.mtx" in capsys.readouterr().err

    @pytest.mark.parametrize("size_line", ["2 2_0 1", "+2 2 1", "2 2 -1"])
    def test_a_size_line_of_other_than_plain_counts_exit_code(self, tmp_path, capsys,
                                                             size_line):
        # int() reads `2 2_0 1` as 2 x 20 and `+2 2 1` as 2 x 2
        mpath = tmp_path / "size.mtx"
        mpath.write_text(
            f"%%MatrixMarket matrix coordinate complex general\n{size_line}\n1 1 1.0 0.0\n"
        )
        code = main([
            "custom", "--matrix", str(mpath), "--lambda1", "0.5",
            "--schemes", "basic", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_IO
        assert f"bad size line in {mpath}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["matrix", "rhs", "tilde", "tilde-rhs"])
    def test_inputs_that_disagree_in_shape_name_the_file(self, tmp_path, capsys, bad):
        mpath, tpath, _spath = self._write_inputs(tmp_path)
        gpath, gtpath = tmp_path / "g.mtx", tmp_path / "gt.mtx"
        write_vector_market(np.full(4, 0.1 + 0j), gpath)
        write_vector_market(np.full(4, 0.1 + 0j), gtpath)
        wrong = tmp_path / "wrong.mtx"
        if bad == "matrix":
            write_matrix_market(ComplexSparseMatrix.from_dense(np.full((2, 3), 0.1)), wrong)
        elif bad == "tilde":
            write_matrix_market(ComplexSparseMatrix.from_dense(np.eye(3) * 0.1), wrong)
        else:
            write_vector_market(np.full(3, 0.1 + 0j), wrong)
        files = {"matrix": mpath, "rhs": gpath, "tilde": tpath, "tilde-rhs": gtpath}
        files[bad] = wrong
        out = tmp_path / "o"
        code = main([
            "custom", *(arg for flag, path in files.items() for arg in (f"--{flag}", str(path))),
            "--lambda1", "0.9", "--out", str(out),
        ])
        assert code == EXIT_IO
        assert "error: " + str(wrong) in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_matrix_given_as_rhs_names_the_file(self, tmp_path, capsys):
        mpath, _tpath, _spath = self._write_inputs(tmp_path)
        out = tmp_path / "o"
        code = main(["custom", "--matrix", str(mpath), "--rhs", str(mpath),
                     "--lambda1", "0.9", "--schemes", "basic", "--out", str(out)])
        assert code == EXIT_IO
        assert f"error: {mpath} has shape (4, 4)" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_rhs_with_assume_normal_needs_tilde_rhs(self, tmp_path, capsys):
        mpath, _tpath, _spath = self._write_inputs(tmp_path)
        gpath = tmp_path / "g.mtx"
        write_vector_market(np.full(4, 0.1 + 0j), gpath)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["custom", "--matrix", str(mpath), "--rhs", str(gpath),
                  "--assume-normal", "--lambda1", "0.9", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --rhs:" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_a_spectral_flag(self, tmp_path, capsys):
        mpath, tpath, _spath = self._write_inputs(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["custom", "--matrix", str(mpath), "--tilde", str(tpath),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert ("one of the arguments --spectrum --lambda1 --estimate is required"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_generalized_without_tilde_refused(self, tmp_path, capsys):
        mpath, _tpath, spath = self._write_inputs(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["custom", "--matrix", str(mpath), "--spectrum", str(spath),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --schemes: generalized needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--tilde", "Mt.mtx"], "one of the arguments --spectrum"),
        (["--lambda1", "0.9", "--assume-normal", "--rhs", "g.mtx"], "argument --rhs:"),
        (["--lambda1", "0.9", "--tilde", "Mt.mtx", "--rhs", "g.mtx"], "argument --rhs:"),
        (["--lambda1", "0.9", "--schemes", "basic,generalized"], "argument --schemes:"),
    ], ids=["no-spectral-flag", "assume-normal-with-rhs", "tilde-with-rhs",
            "generalized-without-companion"])
    def test_usage_error_wins_over_a_missing_matrix(self, tmp_path, capsys, flags,
                                                    message):
        # the flag combination is judged before any file is opened
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["custom", "--matrix", str(tmp_path / "missing.mtx"), *flags,
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "missing.mtx" not in err
        assert not out.exists()

    def test_explicit_tol_stops_at_the_first_residual_below_it(self, tmp_path):
        mpath, _tpath, spath = self._write_inputs(tmp_path)
        out = tmp_path / "o"
        code = main(["custom", "--matrix", str(mpath), "--spectrum", str(spath),
                     "--schemes", "basic", "--tol", "1e-6", "--out", str(out)])
        assert code == EXIT_OK
        meta, rows = read_trace(out / "trace.csv")
        assert " tol=1e-06 " in meta
        g = np.ones(4) - example33_fixture().system.M.to_dense() @ np.ones(4)
        target = 1e-6 * np.linalg.norm(g)
        residuals = [float(r["residual"]) for r in rows]
        assert residuals[-1] <= target < min(residuals[:-1])

    def test_assume_normal_on_an_empty_matrix(self, tmp_path):
        mpath, out = tmp_path / "Z.mtx", tmp_path / "o"
        write_matrix_market(ComplexSparseMatrix.from_dense(np.zeros((3, 3))), mpath)
        code = main(["custom", "--matrix", str(mpath), "--lambda1", "0.5",
                     "--assume-normal", "--k", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert (report_value((out / "report.txt").read_text(), "commutator_check")
                == "0.000e+00 (randomized, 0 products)")

    def test_assume_normal_warns_on_nonnormal(self, tmp_path, capsys):
        mpath, _tpath, spath = self._write_inputs(tmp_path)
        out = tmp_path / "warn"
        code = main([
            "custom", "--matrix", str(mpath), "--spectrum", str(spath),
            "--assume-normal", "--schemes", "basic", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "commutator" in capsys.readouterr().err.lower()
        assert "commutator_check" in (out / "report.txt").read_text()

    def test_assume_normal_takes_a_given_tilde_rhs(self, tmp_path):
        # with --rhs, --assume-normal reads the companion side from --tilde-rhs
        gen_dir, out = tmp_path / "gen", tmp_path / "out"
        assert main(["normal-sparse", "--n", "60", "--block", "12", "--steps", "0",
                     "--out", str(gen_dir)]) == EXIT_OK
        code = main([
            "custom", "--matrix", str(gen_dir / "M.mtx"), "--rhs", str(gen_dir / "g.mtx"),
            "--tilde-rhs", str(gen_dir / "g_tilde.mtx"), "--assume-normal",
            "--lambda1", "0.9", "--k", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "generalized: converged" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("normal", [True, False])
    def test_assume_normal_checks_past_n_2048(self, tmp_path, capsys, normal):
        # a diagonal tail of 2096 entries after a 4x4 block: the normal
        # generator's block, or example33's non-normal one
        n = 2100
        if normal:
            m = assemble_normal_system(NormalMatrixSpec(n=n, block_size=4, seed=3)).system.M
        else:
            block = example33_fixture().system.M.to_dense() * 0.3
            rows, cols = np.nonzero(block)
            tail = np.arange(4, n)
            m = ComplexSparseMatrix.from_triplets(
                n, n, np.concatenate([rows, tail]), np.concatenate([cols, tail]),
                np.concatenate([block[rows, cols], np.full(n - 4, 0.5)]))
        mpath, out = tmp_path / "M.mtx", tmp_path / "big"
        write_matrix_market(m, mpath)
        main([
            "custom", "--matrix", str(mpath), "--lambda1", "0.9", "--k", "1",
            "--assume-normal", "--schemes", "basic", "--steps", "0", "--out", str(out),
        ])
        line = report_value((out / "report.txt").read_text(), "commutator_check")
        value, products = re.fullmatch(r"(\S+) \(randomized, (\d+) products\)", line).groups()
        assert products == "16"
        assert (float(value) < 1e-12) == normal
        assert ("commutator" in capsys.readouterr().err.lower()) != normal

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_commutator_estimates_the_dense_norm(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        dense[rng.random((30, 30)) < 0.7] = 0.0
        m = ComplexSparseMatrix.from_dense(dense)
        star = dense.conj().T
        exact = (np.linalg.norm(dense @ star - star @ dense, "fro")
                 / np.linalg.norm(dense, "fro") ** 2)
        estimate, products = _commutator_check(m, m.conj_transpose(), seed)
        assert products == 16
        assert 0.5 * exact <= estimate <= 2.0 * exact

    def test_hermitian_offers_classical_too(self, tmp_path):
        # real spectrum: the classical scheme applies alongside the
        # generalized one, and both converge
        rng = np.random.default_rng(6)
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        q = np.linalg.qr(z)[0]
        lams = np.array([0.9, 0.25, -0.2, 0.1] + [0.05] * 8)
        dense = (q * lams) @ q.conj().T
        from gencheb.linalg import ComplexSparseMatrix

        mpath = tmp_path / "H.mtx"
        write_matrix_market(ComplexSparseMatrix.from_dense(dense), mpath)
        spath = tmp_path / "spec.txt"
        spath.write_text("".join(f"{float(v)!r} 0.0\n" for v in lams))
        out = tmp_path / "herm"
        code = main([
            "custom", "--matrix", str(mpath), "--spectrum", str(spath),
            "--assume-normal", "--schemes", "basic,classical,generalized",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        report = (out / "report.txt").read_text()
        assert "classical: converged" in report
        assert "generalized: converged" in report

    def test_estimate_route(self, tmp_path):
        # normal matrix: estimation plus --assume-normal runs the full scheme
        from gencheb.genmat import NormalMatrixSpec, assemble_normal_system

        gen = assemble_normal_system(NormalMatrixSpec(n=60, block_size=12, seed=8))
        mpath = tmp_path / "N.mtx"
        write_matrix_market(gen.system.M, mpath)
        out = tmp_path / "est"
        # only lambda1 is estimated, so the transform order must be given
        code = main([
            "custom", "--matrix", str(mpath), "--estimate", "--assume-normal",
            "--k", "3", "--out", str(out), "--schemes", "basic,generalized",
        ])
        assert code == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "spectrum source") == "estimated"

    @pytest.mark.parametrize("flags", [
        ["--lambda1", "0.9", "--estimate"],
        ["--spectrum", "spectrum.txt", "--lambda1", "0.9"],
        ["--spectrum", "spectrum.txt", "--estimate"],
        ["--spectrum", "spectrum.txt", "--tilde", "Mt.mtx", "--assume-normal"],
        ["--spectrum", "spectrum.txt", "--tilde-rhs", "gt.mtx"],
    ], ids=["lambda1+estimate", "spectrum+lambda1", "spectrum+estimate",
            "tilde+assume-normal", "tilde-rhs-alone"])
    def test_conflicting_flags_are_a_usage_error(self, tmp_path, capsys, flags):
        self._write_inputs(tmp_path)
        write_vector_market(np.full(4, 0.1 + 0j), tmp_path / "gt.mtx")
        out = tmp_path / "o"
        argv = ["custom", "--matrix", "M.mtx", *flags, "--schemes", "basic",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / a) if a.endswith((".mtx", ".txt")) else a for a in argv])
        assert exc.value.code == 2
        assert "error: argument --" in capsys.readouterr().err
        assert not out.exists()


class TestRoundTripThroughFiles:
    @staticmethod
    def _round_trip(tmp_path, n, block, adjoint_op=np.ndarray.dot):
        # normal-sparse writes the system, custom reads it back and solves
        # it; the residuals must be the bits of an in-library solve, whose
        # M_tilde multiplies its panel by `adjoint_op`
        spec = NormalMatrixSpec(n=n, block_size=block, seed=42)
        gen_dir, exp_dir = tmp_path / "gen", tmp_path / "exp"
        assert main([
            "normal-sparse", "--n", str(n), "--block", str(block), "--steps", "0",
            "--seed", "42", "--out", str(gen_dir),
        ]) == EXIT_OK
        gen = assemble_normal_system(spec)
        # the block is one BLAS panel and the tail one diagonal run, in M and
        # M_tilde as generated and as read back: no row is left to reduceat
        for m, op in ((gen.system.M, np.ndarray.dot),
                      (read_matrix_market(gen_dir / "M.mtx"), np.ndarray.dot),
                      (gen.system.M_tilde, adjoint_op),
                      (read_matrix_market(gen_dir / "M_tilde.mtx"), np.ndarray.dot)):
            assert [(r[0], r[2], r[3]) for r in m._runs] == [
                (op, slice(0, block), slice(0, block)),
                (np.multiply, slice(block, n), slice(block, n))]
            assert m._rest_rows.size == 0
        spath = tmp_path / "S.txt"
        spath.write_text("".join(
            f"{float(v.real)!r} {float(v.imag)!r}\n" for v in gen.planted
        ))
        assert main([
            "custom", "--matrix", str(gen_dir / "M.mtx"),
            "--tilde", str(gen_dir / "M_tilde.mtx"), "--spectrum", str(spath),
            "--out", str(exp_dir),
        ]) == EXIT_OK
        report = (exp_dir / "report.txt").read_text()
        assert report_value(report, "k_used") == "3"
        _, rows = read_trace(exp_dir / "trace.csv")
        info = SpectrumInfo(tuple(gen.planted), lambda1=spec.lambda1, source="exact")
        k = build_report(info).k_selected
        assert k == 3
        system = dataclasses.replace(gen.system, k=k)
        for scheme in ("basic", "generalized"):
            assert f"{scheme}: converged" in report
            _, trace = solve(system, scheme=scheme)
            cli_rows = [r for r in rows if r["scheme"] == scheme]
            assert [int(r["m"]) for r in cli_rows] == trace.steps
            assert [float(r["residual"]) for r in cli_rows] == trace.residuals
            assert int(cli_rows[-1]["matvecs"]) == trace.total_matvecs

    def test_generated_files_reproduce_the_library_solve(self, tmp_path):
        self._round_trip(tmp_path, 400, 40)

    def test_round_trip_with_a_dense_panel(self, tmp_path):
        self._round_trip(tmp_path, 2000, 100)

    def test_round_trip_through_a_linked_panel(self, tmp_path, monkeypatch):
        # M_tilde's 40 x 40 panel multiplies through M's in the library, and
        # custom links the one it reads only after checking its bits
        monkeypatch.setattr(linalg, "_ADJOINT_PANEL_MIN_ENTRIES", 1024)
        self._round_trip(tmp_path, 400, 40, linalg._adjoint_dot)

    def test_partial_spectrum_divergence_stops_the_run(self, tmp_path):
        # lambda1 alone selects k = 1, where the three-term scheme diverges on
        # this system: the guard stops it, the trace is kept, the report says why
        gen_dir, exp_dir = tmp_path / "gen", tmp_path / "exp"
        assert main([
            "normal-sparse", "--n", "400", "--block", "40", "--steps", "0",
            "--out", str(gen_dir),
        ]) == EXIT_OK
        code = main([
            "custom", "--matrix", str(gen_dir / "M.mtx"),
            "--tilde", str(gen_dir / "M_tilde.mtx"), "--lambda1", "0.9",
            "--out", str(exp_dir),
        ])
        assert code == EXIT_NOT_CONVERGED
        report = (exp_dir / "report.txt").read_text()
        assert report_value(report, "k_used") == "1"
        assert "basic: converged" in report
        stop = re.fullmatch(r"diverged at step (\d+)",
                            report_value(report, "generalized"))
        assert stop
        _, rows = read_trace(exp_dir / "trace.csv")
        gen_rows = [r for r in rows if r["scheme"] == "generalized"]
        assert int(gen_rows[-1]["m"]) == int(stop.group(1)) < 200
        assert float(gen_rows[-1]["residual"]) > 1e12 * float(gen_rows[0]["residual"])


class TestSpectrumFile:
    def test_values_bit_identical_to_float_parsing(self, tmp_path):
        lines = ["0.9 0.0", "-0.0 -0.0", "0.1 -0.0", "5e-324 -2.5e-310",
                 "0.30000000000000004 0.7", "-1e-300 1e300"]
        spath = tmp_path / "s.txt"
        spath.write_text("\n".join(lines) + "\n")
        got = read_spectrum_file(str(spath))
        want = [complex(float(a), float(b)) for a, b in map(str.split, lines)]
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64))
        assert all(type(v) is complex for v in got)

    def test_comments_and_blank_lines(self, tmp_path):
        spath = tmp_path / "s.txt"
        spath.write_text("# header\n% matlab style\n0.9 0.0  # dominant\n\n"
                         "0.4 0.7 % pair\n   \n0.4 -0.7\n")
        assert read_spectrum_file(str(spath)) == [0.9, 0.4 + 0.7j, 0.4 - 0.7j]

    def test_a_last_line_without_newline(self, tmp_path):
        spath = tmp_path / "s.txt"
        spath.write_bytes(b"0.9 0.0\n0.4 -0.7")
        assert read_spectrum_file(str(spath)) == [0.9, 0.4 - 0.7j]

    @pytest.mark.parametrize("text", [
        "0.9\n", "0.9 0.0 1.0\n", "0.9 0.0\n0.5\n", "0.9 0.0\n0.5 abc\n",
        "", "# only comments\n\n%\n", "0.9 0.0\nnan 0.0\n", "0.9 inf\n",
    ])
    def test_malformed_or_empty_refused(self, tmp_path, text):
        spath = tmp_path / "s.txt"
        spath.write_text(text)
        with pytest.raises(UnreadableMatrix):
            read_spectrum_file(str(spath))


class TestDeltoidSampleCommand:
    def test_grid_and_boundary(self, tmp_path):
        out = tmp_path / "del"
        code = main([
            "deltoid-sample", "--out", str(out), "--resolution", "43",
            "--boundary-samples", "200",
        ])
        assert code == EXIT_OK
        _, rows = read_trace(out / "boundary.csv")
        assert len(rows) == 200
        assert max(abs(float(r["h"])) for r in rows) <= 1e-12
        _, grid = read_trace(out / "grid.csv")
        flags = {
            (round(float(r["re"]), 6), round(float(r["im"]), 6)): (
                r["inside_k1"], r["inside_k2"], r["inside_k3"]
            )
            for r in grid
        }
        # -0.9 is outside the deltoid, inside its square-map preimage,
        # outside the cube-map preimage ((-0.9)^3 = -0.729 lies outside)
        assert flags[(-0.9, 0.0)] == ("0", "1", "0")
        # the cusp z = 1 stays inside for every power
        assert flags[(1.0, 0.0)] == ("1", "1", "1")

    def test_quotient_positions(self, tmp_path):
        spath = tmp_path / "s.txt"
        spath.write_text("0.9 0.0\n0.4 0.7\n0.4 -0.7\n-0.5 0.0\n")
        out = tmp_path / "delq"
        code = main([
            "deltoid-sample", "--out", str(out), "--resolution", "11",
            "--spectrum", str(spath),
        ])
        assert code == EXIT_OK
        _, rows = read_trace(out / "quotients.csv")
        assert len(rows) == 4
        by_re = {round(float(r["re"]), 6): r for r in rows}
        # the 0.4+0.7i quotient enters only at k = 2
        q = by_re[round(0.4 / 0.9, 6)]
        assert (q["inside_k1"], q["inside_k2"]) == ("0", "1")

    @pytest.mark.parametrize("values", [
        # cusps, a boundary point, the edge midpoint -1/3, zeros, a pair
        [0.9, 0.9 * np.exp(2j * np.pi / 3), 0.3 * (2 * np.exp(0.7j) + np.exp(-1.4j)),
         -0.3, 0.0, complex(-0.0, -0.0), 0.4 + 0.7j],
        list(np.random.default_rng(3).uniform(-0.9, 0.9, (300, 2)) @ [1, 1j]) + [0.95],
    ], ids=["seven", "random"])
    def test_quotient_rows_equal_the_per_value_flags(self, tmp_path, values):
        spath = tmp_path / "s.txt"
        write_spectrum(spath, values)
        out = tmp_path / "delq"
        assert main(["deltoid-sample", "--out", str(out), "--resolution", "3",
                     "--boundary-samples", "3", "--spectrum", str(spath)]) == EXIT_OK
        with open(out / "quotients.csv", newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        values = read_spectrum_file(str(spath))
        lam1 = max(values, key=abs)
        assert rows == [[repr(q.real), repr(q.imag),
                         *(str(int(power_preimage_contains(q, k))) for k in (1, 2, 3))]
                        for q in (v / lam1 for v in values)]

    def test_empty_spectrum_path_refused(self, tmp_path, capsys):
        # an empty --spectrum is a path that cannot be read, not an absent flag
        out = tmp_path / "o"
        code = main(["deltoid-sample", "--out", str(out), "--resolution", "3",
                     "--boundary-samples", "3", "--spectrum", ""])
        assert code == EXIT_IO
        assert "error: cannot read spectrum file" in capsys.readouterr().err
        assert not (out / "quotients.csv").exists()

    def test_all_zero_spectrum_refused(self, tmp_path, capsys):
        spath = tmp_path / "zero.txt"
        spath.write_text("0 0\n0.0 -0.0\n")
        code = main([
            "deltoid-sample", "--out", str(tmp_path / "o"), "--resolution", "5",
            "--boundary-samples", "10", "--spectrum", str(spath),
        ])
        assert code == EXIT_IO
        assert "zero.txt" in capsys.readouterr().err


class TestReportCommand:
    def test_lambda1_only(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["report", "--lambda1", "0.81", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "0.442" in text
        assert (out / "report.txt").exists()

    def test_inapplicable_spectrum(self, tmp_path):
        spath = tmp_path / "s.txt"
        zeta = 0.8 * np.exp(1j * 1.0)
        spath.write_text(f"0.8 0.0\n{float(zeta.real)!r} {float(zeta.imag)!r}\n")
        code = main(["report", "--spectrum", str(spath),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INAPPLICABLE

    def test_k_above_k_max_refused(self, tmp_path):
        spath = write_spectrum(tmp_path / "s.txt", NEAR_DOMINANT)
        out = tmp_path / "o"
        code = main(["report", "--spectrum", str(spath), "--out", str(out)])
        assert code == EXIT_INAPPLICABLE
        report = (out / "report.txt").read_text()
        assert report_value(report, "classification") == "unique_dominant"
        assert report_value(report, "k_bound") == "9887"
        assert report_value(report, "k_geometric") == "None"
        assert report_value(report, "k_selected") == "None"
        assert "k_bound above k_max; no rates predicted" in report

    def test_small_complex_lambda1_power(self, tmp_path):
        spath = write_spectrum(tmp_path / "s.txt", (
            0.2632747685671118 + 0.1438276615812609j,
            -0.2379396538174393 + 0.17774622679887508j))
        out = tmp_path / "o"
        assert main(["report", "--spectrum", str(spath), "--out", str(out)]) == EXIT_OK
        assert report_value((out / "report.txt").read_text(), "k_selected") == "22"

    def test_repeated_dominant_eigenvalue_is_unique(self, tmp_path):
        spath = write_spectrum(tmp_path / "s.txt", (0.9, 0.9))
        out = tmp_path / "o"
        assert main(["report", "--spectrum", str(spath), "--out", str(out)]) == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "classification") == "unique_dominant"
        assert report_value(report, "k_bound") == "1"
        assert report_value(report, "k_selected") == "1"

    @pytest.mark.parametrize("spectrum", [None, "0.5 0.0\n0.0 1.0\n", "1.2 0.0\n"])
    def test_dominant_eigenvalue_outside_the_disc(self, tmp_path, capsys, spectrum):
        if spectrum is None:
            flags = ["--lambda1", "1.5"]
        else:
            spath = tmp_path / "s.txt"
            spath.write_text(spectrum)
            flags = ["--spectrum", str(spath)]
        code = main(["report", *flags, "--out", str(tmp_path / "o")])
        assert code == EXIT_INAPPLICABLE
        assert "error: spectral radius must be below one" in capsys.readouterr().err

    def test_subnormal_dominant_eigenvalue_refused_before_any_quotient(self, tmp_path,
                                                                       capsys):
        (tmp_path / "s.txt").write_text("1e-320 0\n")
        code = main(["report", "--spectrum", str(tmp_path / "s.txt"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INAPPLICABLE
        assert capsys.readouterr().err == (
            "error: dominant eigenvalue (1e-320+0j) is zero or below the smallest "
            "normal double\n")

    def test_needs_input(self, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["report", "--out", str(out)])
        assert exc.value.code == 2
        assert ("one of the arguments --spectrum --lambda1 is required"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_spectrum_and_lambda1_conflict(self, tmp_path, capsys):
        spath = write_spectrum(tmp_path / "s.txt", (0.9, 0.5))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["report", "--spectrum", str(spath), "--lambda1", "0.3",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    #: The quotient 0.9999 e^{2 pi i/192} selects k = 64.
    TINY_QUOTIENT = 0.9999 * np.exp(2j * np.pi / 192)

    def test_tiny_lambda1_power_has_finite_rates(self, tmp_path):
        # lambda1^64 = 3.4e-162: (3/lambda1^64 - 1)^2 overflows, alpha does not
        spath = write_spectrum(tmp_path / "s.txt", (0.003, 0.003 * self.TINY_QUOTIENT))
        out = tmp_path / "o"
        assert main(["report", "--spectrum", str(spath), "--out", str(out)]) == EXIT_OK
        report = (out / "report.txt").read_text()
        assert report_value(report, "k_selected") == "64"
        alpha = float(report_value(report, "alpha"))
        assert alpha == pytest.approx(math.log(3 / 0.003**64), abs=1e-6)

    def test_lambda1_power_below_the_normal_range_refused(self, tmp_path, capsys):
        # lambda1^64 = 1e-384 underflows to 0
        spath = write_spectrum(tmp_path / "s.txt", (1e-6, 1e-6 * self.TINY_QUOTIENT))
        out = tmp_path / "o"
        code = main(["report", "--spectrum", str(spath), "--out", str(out)])
        assert code == EXIT_INAPPLICABLE
        err = capsys.readouterr().err
        assert "error: lambda1^k" in err and "smallest normal double" in err
        assert "Traceback" not in err


class TestNonFiniteSpectrum:
    @pytest.mark.parametrize("text", ["0.9 0\nnan 0\n", "nan 0\n0.9 0\n",
                                      "0.9 0\n0.5 -inf\n"])
    @pytest.mark.parametrize("subcommand", ["report", "custom", "deltoid-sample"])
    def test_spectrum_file_refused(self, tmp_path, capsys, subcommand, text):
        spath = tmp_path / "nonfinite.txt"
        spath.write_text(text)
        flags = ["--spectrum", str(spath), "--out", str(tmp_path / "o")]
        if subcommand == "custom":
            mpath = tmp_path / "M.mtx"
            write_matrix_market(example33_fixture().system.M, mpath)
            flags += ["--matrix", str(mpath), "--schemes", "basic"]
        assert main([subcommand, *flags]) == EXIT_IO
        assert "nonfinite.txt holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["report", "deltoid-sample"])
    def test_overflowing_modulus_refused(self, tmp_path, capsys, subcommand):
        # both parts finite, |z| above the largest double: abs(z) would raise
        spath = tmp_path / "overflow.txt"
        spath.write_text("1.5e308 1.5e308\n0.5 0\n")
        out = tmp_path / "o"
        assert main([subcommand, "--spectrum", str(spath), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "overflow.txt holds a non-finite value or modulus" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "0.5+nanj", "inf", "-infj"])
    @pytest.mark.parametrize("subcommand", ["report", "custom"])
    def test_lambda1_flag_is_a_usage_error(self, tmp_path, capsys, subcommand, value):
        out = tmp_path / "o"
        extra = ["--matrix", "M.mtx"] if subcommand == "custom" else []
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *extra, f"--lambda1={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --lambda1: must be finite" in capsys.readouterr().err
        assert not out.exists()


#: report.txt from line 2 on, with the exit code, of a command line run on the
#: files of `TestCustomCommand._write_inputs` (plus `s.txt` holding the given
#: spectrum, if any).  The `report` and `example33` texts are as printed
#: before dominance, membership and the rate cubics were each reduced to one
#: code path; the `custom` texts have the layout example33 and normal-sparse
#: share: the report, `k_used`, then one stop line per scheme.  Only row
#: products of the 4x4 files run, so no BLAS bits enter.  The reports must
#: not move.
PINNED_REPORTS = {
    "complex_lambda1": (["report", "--spectrum", "s.txt"],
                        "0.4 0.7\n0.3 -0.2\n-0.5 0.1\n0.2 0.4\n", EXIT_OK, """\
classification: unique_dominant
lambda1: (0.4+0.7j)
spectrum source: user_supplied
k_bound: 3
k_geometric: 2
k_selected: 2
predicted_basic_rate (|lambda1|^k): 0.650000
predicted_accel_rate: 0.301559
fair_comparison_rate (|lambda1|^2k): 0.422500
alpha: n/a
g_rate: n/a
practical_threshold (k=2): 0.626615
practical: True
practical constant: real root of z^3 + z^2 + 2z - 1 = 0.392647; threshold is its k-th root
"""),
    "root_of_unity_family": (["report", "--spectrum", "s.txt"],
                             "0.8 0\n-0.8 0\n0 0.8\n0 -0.8\n0.3 0.2\n-0.5 0.1\n", EXIT_OK,
                             """\
classification: root_of_unity_family(k0=4)
lambda1: (0.8+0j)
spectrum source: user_supplied
k_bound: 12
k_geometric: 4
k_selected: 4
predicted_basic_rate (|lambda1|^k): 0.409600
predicted_accel_rate: 0.162287
fair_comparison_rate (|lambda1|^2k): 0.167772
alpha: 1.818390
g_rate: 0.162287
practical_threshold (k=4): 0.791590
practical: True
practical constant: real root of z^3 + z^2 + 2z - 1 = 0.392647; threshold is its k-th root
"""),
    "example33": (["example33"], None, EXIT_OK, """\
classification: unique_dominant
lambda1: (0.9+0j)
spectrum source: exact
k_bound: 10
k_geometric: 2
k_selected: 2
predicted_basic_rate (|lambda1|^k): 0.810000
predicted_accel_rate: 0.442180
fair_comparison_rate (|lambda1|^2k): 0.656100
alpha: 0.816039
g_rate: 0.442180
practical_threshold (k=2): 0.626615
practical: True
practical constant: real root of z^3 + z^2 + 2z - 1 = 0.392647; threshold is its k-th root
k_used: 2
measured_basic_rate[geomean m=30..60]: 0.810050
measured_generalized_rate[lsqfit m=10..38]: 0.442383
"""),
    "custom_tilde": (CUSTOM_TILDE, None, EXIT_OK, """\
classification: unique_dominant
lambda1: (0.9+0j)
spectrum source: user_supplied
k_bound: 10
k_geometric: 2
k_selected: 2
predicted_basic_rate (|lambda1|^k): 0.810000
predicted_accel_rate: 0.442180
fair_comparison_rate (|lambda1|^2k): 0.656100
alpha: 0.816039
g_rate: 0.442180
practical_threshold (k=2): 0.626615
practical: True
practical constant: real root of z^3 + z^2 + 2z - 1 = 0.392647; threshold is its k-th root
k_used: 2
basic: converged in 101 steps (200 matvecs)
generalized: converged in 30 steps (114 matvecs)
"""),
    "custom_tilde_refused": ([*CUSTOM_TILDE, "--k-max", "1"], None, EXIT_INAPPLICABLE, """\
classification: unique_dominant
lambda1: (0.9+0j)
spectrum source: user_supplied
k_bound: 10
k_geometric: None
k_selected: None
k_bound above k_max; no rates predicted
practical: False
"""),
}


def input_paths(tmp_path, argv):
    """argv with each input file name (`*.mtx`, `*.txt`) made a path in tmp_path."""
    return [str(tmp_path / a) if a.endswith((".mtx", ".txt")) else a for a in argv]


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_pinned_report_text(tmp_path, name):
    argv, spectrum, code, expected = PINNED_REPORTS[name]
    TestCustomCommand()._write_inputs(tmp_path)
    if spectrum is not None:
        (tmp_path / "s.txt").write_text(spectrum)
    out = tmp_path / "o"
    assert main([*input_paths(tmp_path, argv), "--out", str(out)]) == code
    assert (out / "report.txt").read_text().split("\n", 1)[1] == expected


class TestNonAsciiPaths:
    """Line 1 escapes non-ASCII characters as \\xNN, so every output file stays
    ASCII and the rest of it equals that of a run on ASCII paths."""

    @pytest.mark.parametrize("argv, renamed", [
        (["example33", "--steps", "5"], "--out"),
        (["normal-sparse", "--n", "50", "--block", "10", "--steps", "5"], "--out"),
        (CUSTOM_TILDE, "--out"),
        (CUSTOM_TILDE, "--matrix"),
        (["deltoid-sample", "--resolution", "5", "--boundary-samples", "7",
          "--spectrum", "spectrum.txt"], "--out"),
        (["report", "--lambda1", "0.9"], "--out"),
    ], ids=lambda arg: arg[0] if isinstance(arg, list) else arg.lstrip("-"))
    def test_output_matches_an_ascii_path_run(self, tmp_path, argv, renamed):
        mpath, _tpath, _spath = TestCustomCommand()._write_inputs(tmp_path)
        shutil.copy(mpath, tmp_path / "M\u00e9.mtx")

        def outputs(out, matrix):
            argv_here = [matrix if a == "M.mtx" else a for a in argv]
            assert main([*input_paths(tmp_path, argv_here), "--out", str(out)]) == EXIT_OK
            return {p.name: p.read_bytes().split(b"\n", 1) for p in out.iterdir()}

        plain = outputs(tmp_path / "o", "M.mtx")
        escaped = outputs(tmp_path / ("\u00fc" if renamed == "--out" else "p"),
                          "M\u00e9.mtx" if renamed == "--matrix" else "M.mtx")
        assert escaped.keys() == plain.keys()
        for name, (first, rest) in escaped.items():
            first.decode("ascii")
            if name.endswith((".csv", ".txt")):
                assert (b"\\xfc" if renamed == "--out" else b"M\\xe9.mtx") in first
            assert rest == plain[name][1], name


@pytest.mark.parametrize("error, code", [
    (UnreadableMatrix("bad file"), EXIT_IO),
    (OSError("disk full"), EXIT_IO),
    (NotConverged("short"), EXIT_NOT_CONVERGED),
    (Divergence("blew up"), EXIT_NOT_CONVERGED),
    (InapplicableSpectrum("no k"), EXIT_INAPPLICABLE),
    (GenChebError("other"), 1),
], ids=lambda arg: type(arg).__name__ if isinstance(arg, Exception) else str(arg))
def test_exit_code_of_each_error(tmp_path, capsys, monkeypatch, error, code):
    def raise_error(args):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "report", raise_error)
    assert main(["report", "--lambda1", "0.9", "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


class TestCommonFlags:
    @pytest.mark.parametrize("argv, keys", [
        (["example33", "--steps", "0"],
         ["out", "steps", "schemes", "k", "k_max"]),
        (["normal-sparse", "--n", "20", "--block", "4", "--steps", "0"],
         ["out", "steps", "schemes", "k", "k_max", "seed", "n", "block", "lambda1",
          "inner_radius"]),
        (["custom", "--matrix", "M.mtx", "--lambda1", "0.9", "--schemes", "basic",
          "--steps", "0"],
         ["out", "steps", "tol", "schemes", "k", "k_max", "seed", "matrix", "rhs",
          "tilde", "tilde_rhs", "spectrum", "lambda1", "estimate", "assume_normal"]),
        (["deltoid-sample", "--resolution", "3", "--boundary-samples", "3"],
         ["out", "resolution", "boundary_samples", "spectrum"]),
        (["report", "--lambda1", "0.9"],
         ["out", "k_max", "spectrum", "lambda1"]),
    ], ids=["example33", "normal-sparse", "custom", "deltoid-sample", "report"])
    def test_metadata_keys_are_the_subcommand_flags(self, tmp_path, argv, keys):
        # line 1 of every output file: subcommand, version, then exactly the
        # flags this subcommand parsed, in parser order
        write_matrix_market(example33_fixture().system.M, tmp_path / "M.mtx")
        argv = [str(tmp_path / a) if a == "M.mtx" else a for a in argv]
        out = tmp_path / "o"
        main([*argv, "--out", str(out)])
        files = sorted(out.glob("*.csv")) + sorted(out.glob("*.txt"))
        assert files
        for path in files:
            meta = path.read_text().splitlines()[0].removeprefix("# ")
            pairs = [pair.split("=", 1) for pair in meta.split(" ")]
            assert [k for k, _ in pairs] == ["subcommand", "version", *keys]
            assert pairs[0][1] == argv[0] and dict(pairs)["out"] == str(out)

    @pytest.mark.parametrize("argv", [
        ["example33", "--tol", "1e-8"],
        ["example33", "--seed", "1"],
        ["normal-sparse", "--n", "20", "--block", "4", "--tol", "1e-8"],
        ["deltoid-sample", "--steps", "5"],
        ["deltoid-sample", "--tol", "1e-8"],
        ["deltoid-sample", "--schemes", "basic"],
        ["deltoid-sample", "--k", "2"],
        ["deltoid-sample", "--k-max", "4"],
        ["deltoid-sample", "--seed", "1"],
        ["report", "--lambda1", "0.9", "--steps", "5"],
        ["report", "--lambda1", "0.9", "--tol", "1e-8"],
        ["report", "--lambda1", "0.9", "--schemes", "basic"],
        ["report", "--lambda1", "0.9", "--k", "2"],
        ["report", "--lambda1", "0.9", "--seed", "1"],
    ], ids=" ".join)
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                                argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, argv", [
        ("--lambda1", ["normal-sparse", "--lambda1", "1.5"]),
        ("--inner-radius", ["normal-sparse", "--inner-radius", "0.95"]),
        ("--lambda1", ["normal-sparse", "--lambda1", "0"]),
        ("--inner-radius", ["normal-sparse", "--inner-radius", "0"]),
        ("--lambda1", ["normal-sparse", "--lambda1", "nan"]),
        ("--inner-radius", ["normal-sparse", "--inner-radius", "nan"]),
        ("--inner-radius", ["normal-sparse", "--lambda1", "0.5"]),
        ("--resolution", ["deltoid-sample", "--resolution", "-1"]),
        ("--boundary-samples", ["deltoid-sample", "--boundary-samples", "-3"]),
    ], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else arg)
    def test_out_of_range_planted_or_sampling_value_is_a_usage_error(
            self, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--schemes", "sor"], ["--k", "x"], ["--k", "0"], ["--steps", "-1"],
        ["--k-max", "0"],
    ])
    def test_malformed_value_is_a_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["example33", "--out", str(out), *flags])
        assert exc.value.code == 2
        assert f"argument {flags[0]}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, argv", [
        ("--seed", ["normal-sparse", "--seed", "-1"]),
        ("--n", ["normal-sparse", "--n", "0"]),
        ("--block", ["normal-sparse", "--block", "-1"]),
        ("--block", ["normal-sparse", "--n", "200", "--block", "300"]),
        ("--tol", ["custom", "--matrix", "M.mtx", "--lambda1", "0.9", "--tol", "nan"]),
        ("--tol", ["custom", "--matrix", "M.mtx", "--lambda1", "0.9", "--tol", "-1",
                   "--schemes", "basic"]),
        ("--tol", ["custom", "--matrix", "M.mtx", "--lambda1", "0.9", "--tol", "0"]),
        ("--tol", ["custom", "--matrix", "M.mtx", "--lambda1", "0.9", "--tol", "inf"]),
    ], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else arg)
    def test_out_of_range_value_is_a_usage_error(self, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["example33", "--steps", "0", "--threads", "1",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


class TestOutputDirectory:
    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GENCHEB_OUTDIR", str(tmp_path))
        code = main(["example33", "--steps", "0"])
        assert code == EXIT_OK
        assert (tmp_path / "gencheb-example33" / "trace.csv").exists()
