"""Tests for the command-line interface."""

import collections
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mersenne_octonions.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_k1_mersenne_column(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--k", "1", "--n", "0..5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["mersenne"]) for r in rows] == [0, 1, 3, 7, 15, 31]

    def test_k2_lucas_column(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--k", "2", "--n", "0..3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["mersenne_lucas"]) for r in rows] == [2, 6, 32, 180]

    def test_round_trip_exact(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--k", "3", "--n", "60..64")
        rows = list(csv.DictReader(io.StringIO(out)))
        from mersenne_octonions.sequences import Family, seq_value

        for row in rows:
            n = int(row["n"])
            assert int(row["mersenne"]) == seq_value(Family.MERSENNE, 3, n)

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--n", "5..2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("arg, spec", [("--n", "99999999999999999999"),
                                           ("--k", "99999999999999999999")])
    def test_range_past_maxsize_is_usage_error(self, capsys, arg, spec):
        # one run of the recurrence takes no index past sys.maxsize
        code, out, err = run_cli(capsys, "seq", arg, spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "seq.csv"
        code, _, _ = run_cli(capsys, "seq", "--n", "0..2", "-o", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("k,n,mersenne,mersenne_lucas")


class TestOct:
    def test_coordinates(self, capsys):
        code, out, _ = run_cli(
            capsys, "oct", "--family", "mersenne", "--k", "1", "--n", "0"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(rows[0][f"e{r}"]) for r in range(8)] == [0, 1, 3, 7, 15, 31, 63, 127]

    def test_both_families(self, capsys):
        code, out, _ = run_cli(capsys, "oct", "--k", "2", "--n", "0..1")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["family"] for r in rows} == {"mersenne", "mersenne-lucas"}

    def test_n_past_maxsize_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "oct", "--n", "99999999999999999999")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_k_range_past_maxsize_is_usage_error(self, capsys):
        # the k range becomes a tuple, which has no length past sys.maxsize
        code, out, err = run_cli(capsys, "verify", "--k", "1..99999999999999999999")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_k_range_at_maxsize_is_usage_error(self, capsys):
        # a tuple of sys.maxsize ks fails its size check before allocating
        code, out, err = run_cli(capsys, "verify", "--k", f"1..{sys.maxsize}",
                                 "--identities", "binet")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, name", [
        ("verify", "mersenne_octonions.verify.run_grid"),
        ("seq", "mersenne_octonions.cli.seq_terms"),
    ])
    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch, command, name):
        # a run too large to hold is refused with exit 2, never exit 1,
        # which means that an identity failed
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(name, exhausted)
        code, _, err = run_cli(capsys, command)  # seq has written its header
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_small_grid_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "1..2", "--n", "0..4",
            "--ij-max", "1", "--identities", "cassini,binet",
        )
        assert code == 0
        assert "cassini" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "2", "--n", "0..3",
            "--identities", "catalan", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["FAIL"] == 0

    def test_json_is_written_row_by_row(self, tmp_path, capsys, monkeypatch):
        # the CLI writes the report's chunks as they come and never asks
        # for its whole text, to a file and to stdout alike
        from mersenne_octonions.verify import GridConfig, VerificationReport, run_grid

        cfg = GridConfig(ks=(1, 2), n_max=3, ij_max=1, identities=("cassini", "vajda"))
        expected = run_grid(cfg).to_json()

        def whole_text(self):
            raise AssertionError("the whole report was built")

        monkeypatch.setattr(VerificationReport, "to_json", whole_text)
        args = ["verify", "--k", "1..2", "--n", "3", "--ij-max", "1",
                "--identities", "cassini,vajda", "--format", "json"]
        path = tmp_path / "report.json"
        assert main([*args, "-o", str(path)]) == 0
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert path.read_bytes().decode() == out == expected

    def test_default_json_report_streams(self, run_fresh):
        # a serial run evaluates each point as it is generated, and the
        # report is written row by row: the traced peak is about 15 MB,
        # most of it the results, where holding the point list, every
        # row as a dict and the report's text peaked at 37 MB or more
        proc = run_fresh("""
            import os, tracemalloc

            os.environ.pop("MERSOCT_MAX_WORKERS", None)  # serial
            tracemalloc.start()
            from mersenne_octonions.cli import main

            assert main(["verify", "--format", "json", "-o", os.devnull]) == 0
            print(tracemalloc.get_traced_memory()[1])
        """)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 24 * 2**20, int(proc.stdout) / 2**20

    def test_k1_general_finite_sum_all_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "1", "--n", "0..3",
            "--identities", "finite_sum", "--format", "json",
        )
        assert code == 0
        forms = collections.Counter(
            (r["params"]["form"], r["status"]) for r in json.loads(out)["results"])
        # n 0..3 for each of the two families
        assert forms == {("general", "SKIPPED"): 8, ("specialized", "PASS"): 8}

    # every config error, the GridConfig's own checks included, is one
    # error: line and exit 2
    @pytest.mark.parametrize("argv", [
        pytest.param(["--n", "0..2", "--identities", "cassini,cassini"], id="cassini,cassini"),
        pytest.param(["--n", "0..2", "--identities", ""], id=""),
        pytest.param(["--ij-max", "-1", "--identities", "vajda"], id="ij-max=-1"),
        pytest.param(["--n", "0"], id="n=0"),
    ])
    def test_repeated_or_empty_identities_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "--k", "2", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_selection_without_grid_points_is_usage_error(self, capsys):
        # the generating function runs only at k <= 3
        code, out, err = run_cli(
            capsys, "verify", "--k", "4", "--n", "1", "--identities", "genfunc_ordinary",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_n_is_n_max_and_a_later_start_is_usage_error(self, capsys, monkeypatch):
        # every identity runs from its first n, so N means 0..N (Cassini
        # runs from 1) and a range that starts later cannot be honoured
        args = ["verify", "--k", "2", "--ij-max", "1", "--format", "json"]
        code, out, _ = run_cli(capsys, *args, "--n", "0..6")
        assert code == 0 and json.loads(out)["config"]["n_max"] == 6
        assert run_cli(capsys, *args, "--n", "6") == (0, out, "")
        cassini = [*args, "--identities", "cassini"]
        _, out, _ = run_cli(capsys, *cassini, "--n", "6")
        assert run_cli(capsys, *cassini, "--n", "1..6") == (0, out, "")
        # the generating function has no n axis, so any range is accepted
        genfunc = [*args, "--identities", "genfunc_ordinary"]
        _, out, _ = run_cli(capsys, *genfunc, "--n", "5")
        assert run_cli(capsys, *genfunc, "--n", "1..5") == (0, out, "")
        # a range's end is read, not walked
        code, out, _ = run_cli(capsys, *genfunc, "--n", f"0..{sys.maxsize}")
        assert code == 0 and json.loads(out)["config"]["n_max"] == sys.maxsize
        # a late start is refused from each identity's first point, so
        # however wide the range, the whole grid is never built
        from mersenne_octonions import verify

        def whole_grid(cfg):
            raise AssertionError("the whole grid was built")

        monkeypatch.setattr(verify, "_grid_points", whole_grid)
        for argv in ([*args, "--n", "5..6"], [*args, "--n", "1..6"],
                     [*args, "--n", f"1..{sys.maxsize}"], [*cassini, "--n", "5..24"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: verify runs n from ") and err.count("\n") == 1

    def test_genfunc_follows_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "2..4", "--n", "0..2",
            "--identities", "genfunc_ordinary", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert sorted({r["params"]["k"] for r in results}) == [2, 3]
        assert {r["params"]["terms"] for r in results} == {32}

    def test_corrupted_table_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "2", "--n", "1..3",
            "--identities", "cassini", "--corrupt-table", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["FAIL"] > 0
        failing = [r for r in doc["results"] if r["status"] == "FAIL"]
        assert any(c != "0" for c in failing[0]["residual"])

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_corrupted_table_fails_in_spawned_workers(self, method, capsys, monkeypatch):
        # forkserver and spawn workers import a fresh package, so the
        # corrupted table must be handed to them rather than inherited,
        # and each rebuilds its slice of the grid from the pickled config
        args = ["verify", "--k", "1..2", "--n", "6", "--corrupt-table", "--format", "json",
                "--identities", "catalan,cassini,docagne,vajda"]
        code = (
            "import multiprocessing, sys\n"
            "from mersenne_octonions.cli import main\n"
            f"multiprocessing.set_start_method({method!r})\n"
            f"sys.exit(main({args!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "MERSOCT_MAX_WORKERS": "2"}, timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        # the FAIL rows, residuals included, are the serial report's bytes
        monkeypatch.delenv("MERSOCT_MAX_WORKERS", raising=False)
        code, serial, _ = run_cli(capsys, *args)
        assert code == 1
        assert proc.stdout == serial

    def test_bad_worker_count_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mersenne_octonions.cli",
             "verify", "--identities", "cassini"],
            capture_output=True, text=True,
            env={**os.environ, "MERSOCT_MAX_WORKERS": "x"}, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_report_file_byte_stable(self, tmp_path, capsys):
        args = [
            "verify", "--k", "1..2", "--n", "0..3", "--ij-max", "1",
            "--identities", "docagne", "--format", "json",
        ]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(f1)]) == 0
        assert main(args + ["-o", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFailedWrite:
    # every write to /dev/full fails; the error is reported once, with
    # no traceback, and the interpreter's final flush of a buffered
    # stdout must not report it again
    @pytest.mark.parametrize("argv", [
        ["seq", "--k", "1", "--n", "0"],
        ["oct", "--k", "1", "--n", "0"],
        ["verify", "--identities", "cassini", "--n", "1..2"],
        # a report of several buffers, written row by row
        ["verify", "--identities", "vajda", "--k", "1..2", "--format", "json"],
        ["bench", "--n-values", "10", "--repeat", "1"],
    ], ids=["seq", "oct", "verify", "verify-json", "bench"])
    @pytest.mark.parametrize("to", ["file", "stdout", "unbuffered-stdout"])
    def test_exits_2_with_one_error(self, argv, to):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if to == "unbuffered-stdout":
            env["PYTHONUNBUFFERED"] = "1"
        if to == "file":
            argv = [*argv, "-o", "/dev/full"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mersenne_octonions.cli", *argv],
                stdout=subprocess.DEVNULL if to == "file" else full,
                stderr=subprocess.PIPE, text=True, env=env, timeout=300,
            )
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: cannot write output: ")


class TestClosedPipe:
    # with PYTHONUNBUFFERED=1, stdout writes through to fd 1 unbuffered,
    # and a write cut short by a pipe closed after 10 bytes must still
    # end in a silent exit 2, not in exit 0 on truncated output
    @pytest.mark.parametrize("argv", [
        ["verify", "--format", "json"],
        ["seq", "--k", "1", "--n", "20000..20040"],
    ], ids=["verify", "seq"])
    def test_unbuffered_stdout_exits_2_silently(self, argv):
        with subprocess.Popen(
            [sys.executable, "-m", "mersenne_octonions.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=300) == 2
        assert err == b""


class TestBench:
    def test_cross_checked_timing_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--k", "2", "--n-values", "0,1000", "--repeat", "1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["method"] for r in rows} == {"recurrence", "matrix_power"}
        assert all(int(r["nanoseconds"]) >= 0 for r in rows)

    # 2^100 - 1 has 31 decimal digits, and M[0] = 0 has one
    @pytest.mark.parametrize("n, digits", [(100, 31), (0, 1)])
    def test_digit_count_at_n100(self, capsys, n, digits):
        code, out, _ = run_cli(
            capsys, "bench", "--k", "1", "--n-values", str(n), "--repeat", "1"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert all(int(r["digits"]) == digits for r in rows)

    def test_evaluator_mismatch_fails(self, capsys, monkeypatch):
        # the matrix power one off at n = 9 only: n = 7 gets its two rows,
        # n = 9 none, and the run stops there
        from mersenne_octonions import cli
        from mersenne_octonions.sequences import seq_value

        monkeypatch.setattr(cli, "seq_fast",
                            lambda family, k, n: seq_value(family, k, n) + (n == 9))
        code, out, err = run_cli(
            capsys, "bench", "--k", "2", "--n-values", "7,9,11", "--repeat", "2"
        )
        assert code == 1
        assert err == "error: evaluator mismatch at k=2, n=9\n"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["method"]) for r in rows] == [("7", "recurrence"), ("7", "matrix_power")]

    def test_negative_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--n-values", "-5")
        assert code == 2

    def test_n_past_maxsize_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n-values", "5,99999999999999999999")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_integer_n_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n-values", "5,x")
        assert code == 2
        assert "error" in err and out == ""

    def test_zero_repeat_rejected(self, capsys, monkeypatch):
        # and a repeat past the cap, refused before anything is timed
        from mersenne_octonions import cli

        monkeypatch.setattr(cli, "_timed", None)
        for repeat in (0, cli._REPEAT_MAX + 1):
            code, out, err = run_cli(capsys, "bench", "--repeat", str(repeat))
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""

    def test_repeat_cap_accepted(self, capsys):
        from mersenne_octonions import cli

        code, out, _ = run_cli(capsys, "bench", "--k", "1", "--n-values", "5",
                               "--repeat", str(cli._REPEAT_MAX))
        assert code == 0 and len(out.splitlines()) == 3


def terms(x0, x1, k, n_lo, n_hi):
    """x[n_lo..n_hi] of x[n+1] = 3k x[n] - 2 x[n-1], run here apart
    from the package."""
    out = []
    for n in range(n_hi + 1):
        if n >= n_lo:
            out.append(x0)
        x0, x1 = x1, 3 * k * x1 - 2 * x0
    return out


class TestPastTheDigitLimit:
    # outputs longer than the interpreter's default 4,300-digit int->str
    # limit, which sequences.decimal_str lifts for one conversion at a
    # time; a command leaves the limit at what the caller set

    @pytest.fixture(autouse=True)
    def restore_limit(self):
        old = sys.get_int_max_str_digits()
        yield
        sys.set_int_max_str_digits(old)

    def run(self, capsys, *argv):
        sys.set_int_max_str_digits(4300)
        result = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)  # for the test's own conversions
        return result

    def test_limit_stays_set_while_a_command_runs(self, capsys, monkeypatch):
        from mersenne_octonions import cli
        real, seen = cli.seq_terms, []

        def seq_terms(*args):
            seen.append(sys.get_int_max_str_digits())
            return real(*args)

        monkeypatch.setattr(cli, "seq_terms", seq_terms)
        code, _, _ = self.run(capsys, "seq", "--k", "1", "--n", "0..2")
        assert code == 0 and seen == [4300, 4300]

    def test_seq(self, capsys):
        code, out, _ = self.run(capsys, "seq", "--k", "1", "--n", "20000")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert int(row["mersenne"]) == terms(0, 1, 1, 20000, 20000)[0]
        assert int(row["mersenne_lucas"]) == terms(2, 3, 1, 20000, 20000)[0]

    def test_oct(self, capsys):
        code, out, _ = self.run(capsys, "oct", "--k", "1", "--n", "15000")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["family"] for r in rows] == ["mersenne", "mersenne-lucas"]
        for row, x0, x1 in zip(rows, (0, 2), (1, 3)):
            expected = terms(x0, x1, 1, 15000, 15007)
            assert [int(row[f"e{r}"]) for r in range(8)] == expected

    # one recurrence run per (family, k) feeds every row of a table, so
    # compare whole tables over ranges that start past the digit limit
    # (n = 15,000 passes it at k = 1, and sooner at larger k)
    round_trip = settings(max_examples=4, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])

    @round_trip
    @given(st.integers(1, 5), st.booleans(), st.integers(15000, 15500), st.integers(0, 3))
    def test_seq_round_trip(self, capsys, k0, two_ks, start, width):
        k1, stop = min(k0 + two_ks, 5), start + width
        code, out, _ = self.run(capsys, "seq", "--k", f"{k0}..{k1}", "--n", f"{start}..{stop}")
        assert code == 0
        expected = [["k", "n", "mersenne", "mersenne_lucas"]]
        for k in range(k0, k1 + 1):
            m, l = terms(0, 1, k, start, stop), terms(2, 3 * k, k, start, stop)
            expected += [[str(k), str(n), str(a), str(b)]
                         for n, a, b in zip(range(start, stop + 1), m, l)]
        assert list(csv.reader(io.StringIO(out))) == expected
        assert len(expected[1][2]) > 4300

    @round_trip
    @given(st.integers(1, 5), st.booleans(), st.integers(15000, 15500), st.integers(0, 3),
           st.sampled_from(["mersenne", "mersenne-lucas", "both"]))
    def test_oct_round_trip(self, capsys, k0, two_ks, start, width, family):
        k1, stop = min(k0 + two_ks, 5), start + width
        code, out, _ = self.run(capsys, "oct", "--k", f"{k0}..{k1}",
                                "--n", f"{start}..{stop}", "--family", family)
        assert code == 0
        expected = [["family", "k", "n"] + [f"e{r}" for r in range(8)]]
        for name in ("mersenne", "mersenne-lucas"):
            if family not in (name, "both"):
                continue
            for k in range(k0, k1 + 1):
                x0, x1 = (0, 1) if name == "mersenne" else (2, 3 * k)
                xs = [str(x) for x in terms(x0, x1, k, start, stop + 7)]
                expected += [[name, str(k), str(n), *xs[i:i + 8]]
                             for i, n in enumerate(range(start, stop + 1))]
        assert list(csv.reader(io.StringIO(out))) == expected
        assert len(expected[1][3]) > 4300

    @round_trip
    @given(st.integers(1, 5), st.booleans(), st.integers(15000, 15500), st.integers(0, 3))
    def test_bench_round_trip(self, capsys, k0, two_ks, n0, spread):
        k1, ns = min(k0 + two_ks, 5), (n0, n0 + spread)
        code, out, _ = self.run(capsys, "bench", "--k", f"{k0}..{k1}",
                                "--n-values", ",".join(map(str, ns)), "--repeat", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        expected = []
        for k in range(k0, k1 + 1):
            for n in ns:
                digits = str(len(str(terms(0, 1, k, n, n)[0])))
                expected += [[str(k), str(n), method, digits]
                             for method in ("recurrence", "matrix_power")]
        assert [[r["k"], r["n"], r["method"], r["digits"]] for r in rows] == expected
        assert int(expected[0][3]) > 4300
        assert all(int(r["nanoseconds"]) > 0 for r in rows)

    def test_bench(self, capsys):
        code, out, _ = self.run(
            capsys, "bench", "--k", "1", "--n-values", "100000", "--repeat", "1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        # M[100000] = 2^100000 - 1 at k = 1
        digits = len(str(terms(0, 1, 1, 100000, 100000)[0]))
        assert [int(r["digits"]) for r in rows] == [digits, digits] == [30103, 30103]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mersenne_octonions.cli", "seq", "--n", "0..2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,n,mersenne")

    def test_unknown_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mersenne_octonions.cli", "nope"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_start_up_loads_no_pool(self, run_fresh):
        # only a verify with more than one worker needs the process pool,
        # and only verify needs the verifier and the octonions: the package,
        # the CLI and seq, oct and bench load none of them
        proc = run_fresh("""
            import os, sys
            import mersenne_octonions
            from mersenne_octonions.cli import main

            def loaded():
                heavy = ("mersenne_octonions.verify", "mersenne_octonions.octonion",
                         "mersenne_octonions.quadratic", "mersenne_octonions.oct_sequences",
                         "dataclasses", "multiprocessing", "concurrent.futures")
                return sorted(m for m in sys.modules
                              if any(m == h or m.startswith(h + ".") for h in heavy))

            print(loaded())
            for argv in (["seq", "--n", "0..2"], ["oct", "--n", "0..2"],
                         ["bench", "--n-values", "10", "--repeat", "1"]):
                assert main([*argv, "-o", os.devnull]) == 0, argv
                print(argv[0], loaded())
            assert main(["verify", "--k", "2", "--n", "3", "--identities", "binet",
                         "-o", os.devnull]) == 0
            print("mersenne_octonions.verify" in sys.modules,
                  [m for m in loaded() if m.startswith(("multiprocessing", "concurrent"))])
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nseq []\noct []\nbench []\nTrue []\n"
