"""End-to-end checks of the qgauss command line driver."""

import io
import json

import numpy as np
import pytest

from qgauss import __version__
from qgauss.cli import (
    _CSV_BLOCK,
    _FLOAT_FMT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _parse_q_list,
    _write_pairs,
    main,
)
from qgauss.maps import MapConfig
from qgauss.stats import run_trial_table


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_expect_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    captured = capsys.readouterr()
    return exc_info.value.code, captured.out, captured.err


class TestGen:
    def test_stdout_csv(self, capsys):
        code, out, err = _run(capsys, "gen", "--q", "1.5", "--count", "20")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "xi,eta"
        assert len(lines) == 21
        xi, eta = lines[1].split(",")
        float(xi), float(eta)  # both parse

    def test_file_output_with_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "samples.csv"
        code, out, _ = _run(capsys, "gen", "--q", "0.5", "--count", "50",
                            "--out", str(out_path))
        assert code == EXIT_OK
        status = json.loads(out)
        assert status == {"written": str(out_path), "count": 50}
        meta = json.loads((tmp_path / "samples.csv.meta.json").read_text())
        assert meta["command"] == "gen"
        assert meta["count"] == 50
        assert meta["q_out"] == 0.5
        assert meta["master_seed"] == 20260839
        assert meta["kernel"] in ("c", "python")
        assert meta["version"] == __version__

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _run(capsys, "gen", "--q", "2.0", "--count", "100", "--out", str(a))
        _run(capsys, "gen", "--q", "2.0", "--count", "100", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("count", [0, 1])
    def test_smallest_counts(self, capsys, count):
        code, out, _ = _run(capsys, "gen", "--q", "1.5", "--count", str(count))
        assert code == EXIT_OK
        assert out.count("\n") == count + 1 and out.startswith("xi,eta\n")

    def test_gbmm_method(self, capsys):
        code, out, _ = _run(capsys, "gen", "--method", "gbmm",
                            "--q", "1.0", "--count", "10")
        assert code == EXIT_OK
        assert len(out.strip().split("\n")) == 11

    def test_q_out_of_range_is_usage_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "gen", "--q", "3.2",
                                        "--count", "5")
        assert code == EXIT_USAGE
        payload = json.loads(err)
        assert payload["error"] == "domain"
        assert "q" in payload["message"]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "gen", "--frobnicate")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"


def _per_row(xi, eta):
    return "".join(_FLOAT_FMT % x + "," + _FLOAT_FMT % y + "\n"
                   for x, y in zip(xi, eta))


class TestPairWriter:
    """_write_pairs formats a block per % call, with the bytes of one
    _FLOAT_FMT row at a time."""

    @pytest.mark.parametrize("xi, eta", [
        ([], []),
        ([0.1], [-2.5]),
        ([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
         [1.7976931348623157e308, -0.0, -5e-324, 5e-324]),
    ])
    def test_matches_per_row_format(self, xi, eta):
        xi, eta = np.array(xi, dtype=float), np.array(eta, dtype=float)
        out = io.StringIO()
        _write_pairs(out, xi, eta)
        assert out.getvalue() == _per_row(xi, eta)

    def test_spans_blocks(self):
        rng = np.random.default_rng(3)
        xi, eta = rng.standard_t(1.5, (2, 2 * _CSV_BLOCK + 3))
        out = io.StringIO()
        _write_pairs(out, xi, eta)
        assert out.getvalue() == _per_row(xi, eta)


class TestGof:
    def test_inline_generation(self, capsys):
        code, out, _ = _run(capsys, "gof", "--q", "1.5", "--count", "400",
                            "--n-null", "99")
        assert code == EXIT_OK
        report = json.loads(out)
        kinds = {r["kind"] for r in report["results"]}
        assert kinds == {"ks", "ad"}
        for r in report["results"]:
            assert 0.0 < r["p_value"] <= 1.0
            assert r["n_samples"] == 400
            assert r["pass_at_0.05"] is True

    def test_reads_generated_file(self, capsys, tmp_path):
        path = tmp_path / "xi.csv"
        _run(capsys, "gen", "--q", "0.0", "--count", "300", "--out", str(path))
        code, out, _ = _run(capsys, "gof", "--q", "0.0", "--in", str(path),
                            "--kind", "ks", "--n-null", "99")
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["results"]) == 1
        assert report["results"][0]["n_samples"] == 300

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = _run_expect_exit(capsys, "gof", "--in",
                                        str(tmp_path / "nope.csv"))
        assert code == EXIT_DATA
        assert json.loads(err)["error"] == "data"

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("xi\n1.0\nbanana\n")
        code, _, err = _run_expect_exit(capsys, "gof", "--in", str(path))
        assert code == EXIT_DATA
        assert "banana" in json.loads(err)["message"]

    def test_nonfinite_sample_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("xi\n1.0\ninf\n")
        code, _, err = _run_expect_exit(capsys, "gof", "--in", str(path))
        assert code == EXIT_DATA


class TestTable:
    def test_small_table_csv(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = _run(capsys, "table", "--q-list", "0.5,1.5",
                          "--trials", "2", "--count", "200",
                          "--n-null", "99", "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "q,nu,p_AD_best,p_KS_best"
        assert len(lines) == 3
        meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
        assert meta["command"] == "table"
        assert meta["trials"] == 2
        assert meta["samples"] == 200
        assert meta["kernel"] in ("c", "python")
        assert meta["version"] == __version__

    def test_empty_q_list_is_usage_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "table", "--q-list", ",",
                                        "--trials", "1", "--count", "50",
                                        "--n-null", "99")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"

    def test_zero_jobs_is_domain_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "table", "--q-list", "0.5",
                                        "--trials", "1", "--count", "50",
                                        "--n-null", "99", "--jobs", "0")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"

    def test_zero_n_null_is_domain_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "table", "--q-list", "2.9",
                                        "--trials", "1", "--count", "50",
                                        "--n-null", "0")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"

    def test_default_q_list_is_the_acceptance_grid(self):
        args = _build_parser().parse_args(["table"])
        assert _parse_q_list(args.q_list) == [
            -1.0, 0.0, 1.0, 1.5, 2.0, 2.3, 2.4, 2.5, 2.6, 2.8, 2.9]

    def test_table_two_bytes_match_run_trial_table(self, capsys, tmp_path):
        """--d 6 --c 6 with the default seeds writes table two's protocol
        CSV, byte for byte, with the run time in the sidecar."""
        out_path = tmp_path / "t.csv"
        code, _, _ = _run(capsys, "table", "--d", "6", "--c", "6",
                          "--q-list", "0.5,2.9", "--trials", "2",
                          "--count", "300", "--n-null", "99",
                          "--out", str(out_path))
        assert code == EXIT_OK
        buf = io.StringIO()
        run_trial_table([0.5, 2.9], cfg=MapConfig(d=6, c=6), trials=2,
                        samples=300, n_null=99).to_csv(buf)
        assert out_path.read_bytes() == buf.getvalue().encode()
        meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
        assert meta["elapsed_s"] >= 0.0
        assert (meta["d"], meta["l"], meta["c"]) == (6, 2, 6)


class TestDiag:
    @pytest.mark.parametrize("what,header", [
        ("return_map", "z,z_next"),
        ("sample_path", "step,xi,eta,w,v,z"),
        ("ccdf_compare", "x,ccdf_model,ccdf_empirical"),
        ("autocorr", "lag,autocovariance,ratio_to_lag0"),
        ("joint_grid", "xi,eta,joint_pdf"),
    ])
    def test_headers(self, capsys, what, header):
        code, out, _ = _run(capsys, "diag", "--what", what,
                            "--q", "1.5", "--count", "50", "--max-lag", "5")
        assert code == EXIT_OK
        assert out.split("\n", 1)[0] == header

    def test_lyapunov_diag(self, capsys):
        code, out, _ = _run(capsys, "diag", "--what", "lyapunov",
                            "--count", "20000")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,c_log_l,rel_err"
        lam, theory, rel = (float(v) for v in lines[1].split(","))
        assert abs(rel) < 0.05
        assert theory == pytest.approx(0.6931471805599453)

    def test_lyapunov_out_of_range_is_domain_error(self, capsys):
        """The analytic route's OverflowError at q' = 2.99 reaches the user
        as the JSON domain error."""
        code, _, err = _run_expect_exit(capsys, "diag", "--what", "lyapunov",
                                        "--q", "2.99")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"

    def test_autocorr_ratio_column(self, capsys):
        code, out, _ = _run(capsys, "diag", "--what", "autocorr",
                            "--q", "1.5", "--count", "2000", "--max-lag", "3")
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert len(rows) == 4
        # lag 0 ratio is identically 1
        assert float(rows[0][2]) == pytest.approx(1.0)

    def test_unknown_what_is_usage_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "diag", "--what", "spectra")
        assert code == EXIT_USAGE


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = _run_expect_exit(capsys)
        assert code == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "shuffle")
        assert code == EXIT_USAGE
