"""End-to-end checks of the qgauss command line driver."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgauss
from qgauss import __version__, _orbit, stats
from qgauss.cli import (
    _CSV_BLOCK,
    _FLOAT_FMT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _format_rows,
    _output,
    _parse_q_list,
    _write_pairs,
    _write_rows,
    main,
)
from qgauss.maps import MapConfig, z_map
from qgauss.stats import gof_test, run_trial_table


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_expect_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    captured = capsys.readouterr()
    return exc_info.value.code, captured.out, captured.err


def _expect_count_error(capsys, out_path, flag, *argv):
    """argv, with --out out_path, exits 2 with a domain error that names
    flag, and leaves no output file and no sidecar."""
    code, out, err = _run_expect_exit(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_USAGE
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "domain"
    assert error["message"].startswith(flag + " must be an integer in ")
    assert not out_path.exists()
    assert not Path(str(out_path) + ".meta.json").exists()


def _run_process(*argv):
    """`python -m qgauss.cli argv` in a fresh interpreter, so that stderr
    holds everything the process writes there, warnings included."""
    env = dict(os.environ)
    src = str(Path(qgauss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "qgauss.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


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

    @pytest.mark.parametrize("method", ["chaotic", "gbmm"])
    def test_sidecar_map_fields(self, capsys, tmp_path, method):
        """The map fields are recorded where a map ran, and not for the
        transform sampler, which reads none."""
        out_path = tmp_path / "samples.csv"
        code, _, _ = _run(capsys, "gen", "--method", method, "--q", "1.5",
                          "--count", "5", "--out", str(out_path))
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "samples.csv.meta.json").read_text())
        assert meta["method"] == method
        fields = {"d", "l", "c", "epsilon"} & set(meta)
        assert fields == (set() if method == "gbmm" else {"d", "l", "c", "epsilon"})

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

    @pytest.mark.parametrize("method", ["chaotic", "gbmm"])
    def test_bad_count_leaves_no_file(self, capsys, tmp_path, method):
        _expect_count_error(capsys, tmp_path / "g.csv", "--count",
                            "gen", "--method", method, "--count", "-1")

    @pytest.mark.parametrize("method", ["chaotic", "gbmm"])
    def test_stdout_file_and_fallback_give_the_same_bytes(
            self, capsys, tmp_path, monkeypatch, method):
        """The rows span a block edge; the compiled generator and row
        writer and their Python fallbacks write the same bytes, to stdout
        and to --out."""
        argv = ("gen", "--method", method, "--q", "2.9",
                "--count", str(_CSV_BLOCK + 5))

        def outputs(tag):
            path = tmp_path / ("%s.csv" % tag)
            _run(capsys, *argv, "--out", str(path))
            return _run(capsys, *argv)[1].encode(), path.read_bytes()

        compiled = outputs("compiled")
        monkeypatch.setattr(_orbit, "kernel", lambda: None)
        assert outputs("python") == compiled
        assert compiled[0] == compiled[1]
        assert compiled[0].count(b"\n") == _CSV_BLOCK + 6


def _per_row(xi, eta):
    return "".join(_FLOAT_FMT % x + "," + _FLOAT_FMT % y + "\n"
                   for x, y in zip(xi, eta))


def _per_value(block):
    """Rows of _FLOAT_FMT values, one % per value: the writers' reference."""
    return "".join(",".join(_FLOAT_FMT % v for v in row) + "\n"
                   for row in block.tolist())


def _from_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Values the row writer formats by hand or at the edges of its 128-bit
# fast path: nan with and without the sign bit, +-inf, +-0, the least and
# largest subnormals, the least normal, the largest double, the first
# integers past 2**53, the powers of ten where %g switches to an exponent
# or the double is inexact, doubles just below a power of ten that round up
# to it (1e-14, 1e98), and the ends of the 128-bit range (m * 2**74 and
# 2**127).
_WRITER_EDGES = [
    math.nan, _from_bits(0xFFF8000000000000), _from_bits(0x7FF0000000000001),
    math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 1e17, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 54 + 4, 1e22, 1e23, 1e-4,
    1e-5, 1e-6, 1e-7, 9.9999999999999995e-07, 0.1, 1e-14, 1e98,
    2.0 ** 74 * (2.0 ** 53 - 1), 2.0 ** 127, 1e38, 1e39,
]


@st.composite
def _decimal_ties(draw):
    """+-m / 2**k whose exact decimal has 18 significant digits, the last a
    5: half way between two 17-digit decimals.  Only k in 2..25 has such
    m < 2**53; k <= 23 lies in the writer's fast path and 24, 25 below it."""
    k = draw(st.integers(2, 25))
    lo = -(-10 ** 17 // 5 ** k)
    hi = min(10 ** 18 // 5 ** k, 2 ** 53)
    m = draw(st.integers(lo, hi - 1)) | 1
    return draw(st.sampled_from((1.0, -1.0))) * m / 2.0 ** k


_WRITER_VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.sampled_from(_WRITER_EDGES),
    _decimal_ties(),
)


class TestPairWriter:
    """_write_pairs writes a block of rows at a time, with the bytes of one
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


class TestRowWriter:
    """The compiled row writer (_orbit.write_rows) gives the bytes of
    Python's % formatting, one _FLOAT_FMT per value, on any float64."""

    @pytest.fixture(autouse=True)
    def _needs_kernel(self):
        if _orbit.kernel() is None:
            pytest.skip("the compiled library cannot be built here")

    @given(cols=st.integers(1, 6), rows=st.integers(0, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    @example(cols=1, rows=len(_WRITER_EDGES), data=None)
    def test_matches_percent_formatting(self, cols, rows, data):
        if data is None:
            values = _WRITER_EDGES + [-v for v in _WRITER_EDGES]
            rows *= 2
        else:
            values = data.draw(st.lists(_WRITER_VALUES, min_size=rows * cols,
                                        max_size=rows * cols))
        block = np.array(values, dtype=np.float64).reshape(rows, cols)
        buf = np.empty(_orbit.FIELD_BYTES * block.size, np.uint8)
        n = _orbit.write_rows(_orbit.kernel(), block, buf)
        assert buf[:n].tobytes().decode() == _per_value(block)
        assert _format_rows(block) == _per_value(block)

    def test_matches_percent_formatting_in_bulk(self):
        """20 000 each of arbitrary bit patterns and of normal draws spread
        over the decimal exponents -12..40."""
        rng = np.random.default_rng(2026)
        bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64, endpoint=False)
        scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 41, 20_000)
        block = np.concatenate([bits.view(np.float64), scaled]).reshape(-1, 4)
        buf = np.empty(_orbit.FIELD_BYTES * block.size, np.uint8)
        n = _orbit.write_rows(_orbit.kernel(), block, buf)
        assert buf[:n].tobytes().decode() == _per_value(block)

    @pytest.mark.parametrize("cols", [1, 3])
    def test_spans_a_block_edge(self, cols):
        """_write_rows fills its one buffer a block at a time: a block of
        _CSV_BLOCK rows, then one more."""
        rng = np.random.default_rng(cols)
        block = rng.standard_cauchy((_CSV_BLOCK + 1, cols))
        out = io.StringIO()
        _write_rows(out, [block[:_CSV_BLOCK], block[_CSV_BLOCK:]])
        assert out.getvalue() == _per_value(block)

    def test_rejects_arguments_it_cannot_trust(self):
        lib = _orbit.kernel()
        block = np.ones((3, 2))
        buf = np.empty(_orbit.FIELD_BYTES * 6, np.uint8)
        read_only = buf.copy()
        read_only.setflags(write=False)
        for bad_block in (np.ones(6), np.ones((3, 0)), np.ones((3, 4))[:, ::2],
                          np.ones((3, 2), np.float32), [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                _orbit.write_rows(lib, bad_block, buf)
        for bad_buf in (buf[:-1], buf.view(np.int8), read_only, buf[::2],
                        bytearray(150), buf.reshape(2, -1)):
            with pytest.raises(ValueError):
                _orbit.write_rows(lib, block, bad_buf)
        block.setflags(write=False)  # the block may be read-only
        assert buf[:_orbit.write_rows(lib, block, buf)].tobytes() == b"1,1\n" * 3


class TestGof:
    def test_requires_in_file(self, capsys):
        """gof scores a sample file only; it generates none of its own."""
        code, out, err = _run_expect_exit(capsys, "gof", "--q", "1.5",
                                          "--count", "400")
        assert code == EXIT_USAGE
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("flag, value", [
        ("--v0", "5"), ("--z0", "-1"), ("--w0-sign", "-1"), ("--count", "-3"),
        ("--method", "gbmm"), ("--d", "2"), ("--seed", "1"),
    ])
    def test_generator_flags_are_usage_errors(self, capsys, tmp_path, flag, value):
        path = tmp_path / "xi.csv"
        path.write_text("xi\n0.25\n-0.5\n")
        code, _, err = _run_expect_exit(capsys, "gof", "--q", "1.5",
                                        "--in", str(path), flag, value)
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"

    def test_scores_generated_file_as_gof_test(self, capsys, tmp_path):
        """`gen --out FILE` then `gof --in FILE` reports gof_test's verdict
        on the file's first column."""
        path = tmp_path / "xi.csv"
        _run(capsys, "gen", "--q", "1.5", "--count", "400", "--out", str(path))
        code, out, _ = _run(capsys, "gof", "--q", "1.5", "--in", str(path),
                            "--n-null", "99")
        assert code == EXIT_OK
        xi = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
        report = json.loads(out)["results"]
        assert [r["kind"] for r in report] == ["ks", "ad"]
        for r in report:
            res = gof_test(xi, 1.5, kind=r["kind"], n_null=99)
            assert (r["statistic"], r["p_value"]) == (res.statistic, res.p_value)
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

    def test_bad_n_null_leaves_no_file(self, capsys, tmp_path):
        path = tmp_path / "xi.csv"
        path.write_text("xi\n0.25\n-0.5\n")
        _expect_count_error(capsys, tmp_path / "r.json", "--n-null",
                            "gof", "--in", str(path), "--n-null", "0")

    def test_fallback_gives_the_same_bytes(self, capsys, tmp_path, monkeypatch):
        """Without the compiled library the null's words and scores and the
        sample's statistics come from numpy: the report and the table CSV
        are byte for byte the same, each from a freshly built null."""
        path = tmp_path / "xi.csv"
        _run(capsys, "gen", "--q", "1.5", "--count", "700", "--out", str(path))
        gof = ("gof", "--q", "1.5", "--in", str(path), "--n-null", "99",
               "--null-seed", "7007")
        table = ("table", "--q-list", "0.5,1.5", "--trials", "2", "--count",
                 "300", "--n-null", "99", "--null-seed", "7008", "--jobs", "1")

        def outputs(tag):
            stats._null_statistics.cache_clear()
            report = _run(capsys, *gof)[1]
            csv = tmp_path / ("t-%s.csv" % tag)
            _run(capsys, *table, "--out", str(csv))
            return report, csv.read_bytes()

        compiled = outputs("compiled")
        monkeypatch.setattr(_orbit, "kernel", lambda: None)
        assert outputs("numpy") == compiled

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

    def test_huge_sample_writes_no_warning(self, tmp_path):
        """A finite sample too large to square: the compact and the
        heavy-tailed q' both score it with nothing on stderr, without
        numpy's overflow warnings."""
        path = tmp_path / "huge.csv"
        path.write_text("x\n0.5\n1e200\n")
        for q in ("0.5", "1.5"):
            code, out, err = _run_process("gof", "--q", q, "--in", str(path),
                                          "--n-null", "9")
            assert (code, err) == (EXIT_OK, ""), q
            assert len(json.loads(out)["results"]) == 2


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

    @pytest.mark.parametrize("q_list", ["0.5,nan", "0.5,3.5"])
    def test_bad_q_is_domain_error(self, capsys, q_list):
        code, _, err = _run_expect_exit(capsys, "table", "--q-list", q_list,
                                        "--trials", "1", "--count", "50",
                                        "--n-null", "99")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"

    def test_fold_order_that_absorbs_every_start_is_domain_error(self, capsys):
        code, out, err = _run_expect_exit(capsys, "table", "--q-list", "0.5",
                                          "--l", str(2**62), "--trials", "1",
                                          "--count", "50", "--n-null", "19")
        assert code == EXIT_USAGE
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    def test_zero_n_null_is_domain_error(self, capsys):
        code, _, err = _run_expect_exit(capsys, "table", "--q-list", "2.9",
                                        "--trials", "1", "--count", "50",
                                        "--n-null", "0")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"

    @pytest.mark.parametrize("flag, value", [
        ("--q", "2"), ("--v0", "0.7"), ("--z0", "0.2"), ("--w0-sign", "-1"),
    ])
    def test_start_flags_are_usage_errors(self, capsys, flag, value):
        """table takes a q' grid and derives every trial's start, so the
        start flags of gen, gof and diag are unknown to it; --q is not read
        as an abbreviation of --q-list."""
        code, _, err = _run_expect_exit(capsys, "table", "--q-list", "0.5",
                                        "--trials", "1", "--count", "50",
                                        "--n-null", "9", flag, value)
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("flag", ["--count", "--trials", "--n-null", "--jobs"])
    def test_bad_count_leaves_no_file(self, capsys, tmp_path, flag):
        argv = {"--count": "50", "--trials": "1", "--n-null": "9", "--jobs": "1"}
        argv[flag] = "0"
        _expect_count_error(capsys, tmp_path / "t.csv", flag, "table",
                            "--q-list", "0.5", *(a for kv in argv.items() for a in kv))

    def test_default_jobs_is_the_usable_cpu_count(self):
        args = _build_parser().parse_args(["table"])
        assert args.jobs == len(os.sched_getaffinity(0))

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

    @pytest.mark.parametrize("what,q,z0", [
        ("return_map", "0.5", "5"), ("sample_path", "0.5", "5"),
        ("return_map", "0.99", "10"), ("sample_path", "0.99", "10"),
    ], ids=["return_map", "sample_path", "return_map-absorbed", "sample_path-absorbed"])
    def test_bad_start_leaves_no_file(self, capsys, tmp_path, what, q, z0):
        """z0 = 5 is outside the support at q' = 0.5, and z0 = 10 is inside
        it at q' = 0.99 but its first radial step lands on the edge: the
        domain error comes before the output file is opened."""
        out_path = tmp_path / "d.csv"
        code, _, err = _run_expect_exit(capsys, "diag", "--what", what,
                                        "--q", q, "--z0", z0,
                                        "--out", str(out_path))
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"
        assert not out_path.exists()

    @pytest.mark.parametrize("what,flag,value", [
        ("return_map", "--count", "-5"), ("sample_path", "--count", "-5"),
        ("ccdf_compare", "--count", "0"), ("autocorr", "--max-lag", "-3"),
        ("autocorr", "--count", "0"), ("lyapunov", "--count", "0"),
    ])
    def test_bad_count_leaves_no_file(self, capsys, tmp_path, what, flag, value):
        """A count below its kind's least (0, or one sample or step for
        ccdf_compare, autocorr and lyapunov) is a domain error that names
        the flag, raised before the output file is opened."""
        _expect_count_error(capsys, tmp_path / "d.csv", flag,
                            "diag", "--what", what, flag, value)

    @pytest.mark.parametrize("what", ["return_map", "sample_path", "ccdf_compare",
                                      "lyapunov", "autocorr", "joint_grid"])
    def test_fallback_gives_the_same_bytes(self, capsys, monkeypatch, what):
        """Every kind writes the same bytes through the compiled loops and
        row writer as through their Python fallbacks."""
        argv = ("diag", "--what", what, "--q", "1.5", "--count", "1000",
                "--max-lag", "20")
        compiled = _run(capsys, *argv)
        monkeypatch.setattr(_orbit, "kernel", lambda: None)
        assert _run(capsys, *argv) == compiled

    @pytest.mark.parametrize("l", [2, 3])
    @pytest.mark.parametrize("q", [-0.5, 0.5, 1.5])
    def test_return_map_rows_chain_z_map(self, capsys, q, l):
        """Each return_map row is (z, z_map(z)) and the next row starts at
        that z_map value, from the default z0 = 1."""
        code, out, _ = _run(capsys, "diag", "--what", "return_map", "--q", str(q),
                            "--l", str(l), "--count", "300")
        assert code == EXIT_OK
        rows = [tuple(map(float, ln.split(","))) for ln in out.split("\n")[1:-1]]
        q_int = qgauss.make_spec(q).q_int
        cfg = MapConfig(l=l)
        expected = []
        z = 1.0
        for _ in range(300):
            expected.append((z, z_map(q_int, cfg, z)))
            z = expected[-1][1]
        assert rows == expected

    def test_constant_autocorr_leaves_no_file(self, capsys, tmp_path):
        """One sample has a lag-0 autocovariance of 0, so there is no ratio
        to report: a domain error, raised before the output file is opened."""
        out_path = tmp_path / "a.csv"
        code, _, err = _run_expect_exit(capsys, "diag", "--what", "autocorr",
                                        "--count", "1", "--out", str(out_path))
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "domain"
        assert not out_path.exists()

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

    def test_runs_without_an_affinity_mask(self, capsys, monkeypatch):
        """Where os.sched_getaffinity does not exist (macOS), the default of
        table --jobs falls back to os.cpu_count() and every command runs."""
        monkeypatch.delattr(os, "sched_getaffinity")
        code, out, _ = _run(capsys, "gen", "--count", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4


class TestOutput:
    def test_stdout_is_left_open(self, capsys):
        with _output("-") as fh:
            fh.write("x\n")
        assert not sys.stdout.closed
        assert capsys.readouterr().out == "x\n"

    def test_file_is_closed_with_lf_line_ends(self, tmp_path):
        path = tmp_path / "o.csv"
        with _output(str(path)) as fh:
            fh.write("a\nb\n")
        assert fh.closed
        assert path.read_bytes() == b"a\nb\n"

    @pytest.mark.parametrize("argv", [
        ["gof", "--n-null", "9"],
        ["diag", "--what", "return_map", "--count", "5"],
    ])
    def test_gof_and_diag_write_no_sidecar(self, capsys, tmp_path, argv):
        sample = tmp_path / "xi.csv"
        sample.write_text("xi\n0.25\n-0.5\n")
        out_path = tmp_path / "o"
        if argv[0] == "gof":
            argv = argv + ["--in", str(sample)]
        code, _, _ = _run(capsys, *argv, "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.exists()
        assert list(tmp_path.glob("*.meta.json")) == []
