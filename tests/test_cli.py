"""End-to-end tests of the command-line interface.

All commands run in-process through main(argv) so exit codes and output
can be asserted directly and fault injection reaches the engine calls.
"""

import csv
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ginprod.cli
import ginprod.combinatorics
import ginprod.edge_analysis
import ginprod.moment_engine
import ginprod.montecarlo
from ginprod.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]


class TestEdgeCommand:
    def test_prints_exact_constant(self, capsys):
        code, out, _ = run_cli(capsys, "edge", "--m", "2")
        assert code == 0
        assert out.strip() == "27/4"

    def test_single_factor(self, capsys):
        code, out, _ = run_cli(capsys, "edge", "--m", "1")
        assert code == 0
        assert out.strip() == "4"

    def test_value_past_the_int_digit_limit(self, capsys):
        # u_2000 has numerator and denominator past the default 4300 digits;
        # edge formats it in its handler, which runs with the limit lifted.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code, out, err = run_cli(capsys, "edge", "--m", "2000")
        assert (code, err) == (0, "")
        assert limit() == before
        with ginprod.cli._any_int_digits():
            assert Fraction(out) == ginprod.edge_analysis.edge_constant(2000).u

    def test_bad_m_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "edge", "--m", "0")
        assert code == 2
        assert "m" in err


class TestMomentsCommand:
    def test_all_formulas_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--m", "1", "--n", "2", "--k", "2", "--all-formulas"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma_sum"] == doc["falling_sum"] == doc["stirling_beta"] == "2"
        assert doc["agree"] is True
        assert doc["fuss_catalan"] == "2"
        assert doc["gap"] == "0"
        assert doc["meta"]["tool"] == "ginprod"

    def test_default_reports_single_formula(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--m", "2", "--n", "3", "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma_sum"] is None
        assert doc["stirling_beta"] is None
        assert doc["falling_sum"] == "28/9"  # 3 + 1/9

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--m", "3", "--n", "4", "--k", "3")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_k_above_n_with_all_formulas_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--m", "1", "--n", "2", "--k", "5", "--all-formulas"
        )
        assert code == 2
        assert "k" in err

    def test_missing_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--m", "1", "--n", "2"])
        assert exc.value.code == 2


class TestBetaCommand:
    def test_emits_bounds_table(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--m", "1", "--n", "2", "--k", "2")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["r", "beta", "lower_bound", "upper_bound", "pass"]
        assert meta["all_pass"] == "true"
        assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
        assert rows[2][1] == "13/4"
        assert all(row[4] == "true" for row in rows)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "beta.csv"
        code, out, _ = run_cli(
            capsys, "beta", "--m", "2", "--n", "5", "--k", "2", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        meta, header, rows = parse_csv(target.read_text())
        assert header[0] == "r"
        assert len(rows) == 2 * 3 + 1

    def test_k_above_n_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "beta", "--m", "1", "--n", "2", "--k", "5")
        assert code == 2


class TestDominanceCommand:
    def test_emits_ratio_table(self, capsys):
        code, out, _ = run_cli(capsys, "dominance", "--m", "1", "--n", "500", "--k", "3")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["r", "term", "ratio_to_next", "ratio_bound", "pass"]
        assert meta["all_ratios_pass"] == "true"
        assert float(meta["first_term_share"]) > 0.9
        assert rows[0][0] == "2"  # terms start at r = k - 1
        assert rows[-1][2] == ""  # last term has no successor

    def test_exact_values_of_any_size_are_written(self, capsys):
        # Numerators past Python's default 4300-digit limit on int-to-text
        # conversion are written in full, and the limit is back afterwards.
        # Interpreters older than 3.10.7 have no limit.
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, out, err = run_cli(capsys, "dominance", "--m", "3", "--n", "100000", "--k", "250")
        assert (code, err) == (0, "")
        assert get_limit() == limit
        report = ginprod.edge_analysis.dominance_report(m=3, n=100000, k=250)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            _, _, rows = parse_csv(out)
            assert [Fraction(row[1]) for row in rows] == list(report.terms)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestTailboundCommand:
    def test_emits_schedule_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "tailbound", "--m", "1", "--z", "6", "--n-grid", "60,120"
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["n", "k_n", "exact_bound", "log_exact", "log_surrogate", "minus_2_log_n"]
        assert [row[0] for row in rows] == ["60", "120"]
        assert [row[1] for row in rows] == ["31", "36"]
        for row in rows:
            assert "/" in row[2]  # exact rational, not a float
            assert float(row[4]) <= float(row[5])

    def test_z_below_edge_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tailbound", "--m", "1", "--z", "3", "--n-grid", "60")
        assert code == 2
        assert "edge constant" in err

    @pytest.mark.parametrize("w", ["inf", "nan"])
    def test_non_finite_w_is_usage_error(self, capsys, monkeypatch, w):
        def never(*args, **kwargs):
            raise AssertionError("a bound was computed before w was checked")

        monkeypatch.setattr(ginprod.edge_analysis, "markov_chain_bound", never)
        code, out, err = run_cli(capsys, "tailbound", "--m", "1", "--z", "6", "--n-grid", "60", "--w", w)
        assert code == 2
        assert out == ""
        assert err == f"ginprod: error: w must be finite, got {w}\n"

    def test_fractional_z_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "tailbound", "--m", "2", "--z", "81/8", "--n-grid", "60"
        )
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["z"] == "81/8"


class TestSimulateCommand:
    def test_summary_and_reproducibility(self, capsys):
        args = (
            "simulate", "--m", "1", "--n", "8", "--field", "complex",
            "--replicates", "30", "--seed", "7", "--kmax", "2",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # bit-identical reruns
        doc = json.loads(out1)
        assert doc["meta"]["seed"] == 7
        assert doc["edge"]["u"] == "4"
        assert doc["edge"]["q05"] <= doc["edge"]["q50"] <= doc["edge"]["q95"]
        assert [entry["k"] for entry in doc["moments"]] == [1, 2]

    def test_worker_flag_does_not_change_output(self, capsys):
        base = (
            "simulate", "--m", "2", "--n", "6", "--field", "real",
            "--replicates", "24", "--seed", "11",
        )
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out8, _ = run_cli(capsys, *base, "--workers", "8")
        doc1, doc8 = json.loads(out1), json.loads(out8)
        assert doc1["edge"] == doc8["edge"]

    def test_edge_only_suppresses_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--m", "1", "--n", "6", "--replicates", "5",
            "--seed", "3", "--kmax", "2", "--edge-only",
        )
        assert code == 0
        assert "moments" not in json.loads(out)

    def test_replicate_csv_and_spectra(self, capsys, tmp_path):
        rep_csv = tmp_path / "reps.csv"
        spec_dir = tmp_path / "spectra"
        code, out, _ = run_cli(
            capsys, "simulate", "--m", "1", "--n", "5", "--replicates", "4",
            "--seed", "9", "--replicate-csv", str(rep_csv),
            "--spectrum-dir", str(spec_dir),
        )
        assert code == 0
        meta, header, rows = parse_csv(rep_csv.read_text())
        assert header == ["replicate_index", "s1_sq"]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        files = sorted(spec_dir.glob("spectrum_*.csv"))
        assert len(files) == 4
        _, header, rows = parse_csv(files[0].read_text())
        assert header == ["rank", "s_sq"]
        assert len(rows) == 5
        # The summary's top value matches replicate 0's top spectrum entry.
        doc = json.loads(out)
        top_csv = float(parse_csv(rep_csv.read_text())[2][0][1])
        top_spectrum = float(rows[0][1])
        assert top_csv == pytest.approx(top_spectrum, rel=1e-15)
        assert doc["replicates"] == 4

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic decomposition failure")

        monkeypatch.setattr(np.linalg, "svd", broken)
        code, _, err = run_cli(
            capsys, "simulate", "--m", "1", "--n", "4", "--replicates", "2", "--seed", "1"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_internal_error_exits_four(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")

        monkeypatch.setattr(ginprod.montecarlo, "collect_spectra", exhausted)
        code, out, err = run_cli(
            capsys, "simulate", "--m", "1", "--n", "4", "--replicates", "2", "--seed", "1"
        )
        assert code == 4
        assert out == ""
        assert err == "ginprod: internal error: MemoryError: synthetic allocation failure\n"

    def test_bad_seed_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--m", "1", "--n", "4", "--replicates", "2", "--seed", "-5"
        )
        assert code == 2

    @pytest.mark.parametrize("extra, env, message", [
        (("--kmax", "0"), None, "k_max must be >= 1, got 0"),
        (("--replicates", str(2**32 + 1)), None, f"replicates must be <= 2**32, got {2**32 + 1}"),
        ((), "abc", "GINPROD_WORKERS must be an integer, got 'abc'"),
        (("--workers", "100000"), None, "workers must be <= 256, got 100000"),
        ((), "100000", "GINPROD_WORKERS must be in [1, 256], got 100000"),
    ])
    def test_bad_run_options_are_refused_before_sampling(self, capsys, monkeypatch, extra, env, message):
        # Neither sampling nor its thread pool may start: a worker count past
        # the cap would ask the OS for that many threads.
        def never(*args, **kwargs):
            raise AssertionError("sampled before the run options were checked")

        monkeypatch.setattr(ginprod.montecarlo, "collect_spectra", never)
        monkeypatch.setattr(ginprod.montecarlo, "ThreadPoolExecutor", never)
        if env is not None:
            monkeypatch.setenv(ginprod.montecarlo.WORKERS_ENV_VAR, env)
        code, out, err = run_cli(
            capsys, "simulate", "--m", "2", "--n", "4", "--replicates", "2", "--seed", "1", *extra
        )
        assert code == 2
        assert out == ""
        assert err == f"ginprod: error: {message}\n"


@pytest.mark.parametrize("found", [True, False])
def test_seeded_documents_say_whether_blas_was_pinned(capsys, monkeypatch, tmp_path, found):
    # Every document whose meta carries the seed records one blas_pinned key;
    # with no BLAS thread control found it reads false.
    if found and ginprod.montecarlo._blas_threads() is None:
        pytest.skip("no BLAS thread control found for this numpy")
    if not found:
        monkeypatch.setattr(ginprod.montecarlo, "_blas_threads", lambda: None)
    code, out, _ = run_cli(
        capsys, "simulate", "--m", "1", "--n", "3", "--replicates", "2", "--seed", "4",
        "--replicate-csv", str(tmp_path / "reps.csv"), "--spectrum-dir", str(tmp_path / "spectra"),
    )
    assert code == 0
    assert list(json.loads(out)["meta"].items())[-2:] == [("seed", 4), ("blas_pinned", found)]
    tables = [path.read_text() for path in [tmp_path / "reps.csv", *sorted((tmp_path / "spectra").iterdir())]]
    code, out, _ = run_cli(capsys, "converge", "--m", "1", "--n-grid", "4", "--replicates", "2", "--seed", "4")
    assert code == 0
    for text in [*tables, out]:
        assert text.count("# blas_pinned:") == 1
        assert parse_csv(text)[0]["blas_pinned"] == str(found).lower()
    _, out, _ = run_cli(capsys, "moments", "--m", "1", "--n", "2", "--k", "2")
    assert "blas_pinned" not in json.loads(out)["meta"]


class TestConvergeCommand:
    def test_emits_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--m", "1", "--n-grid", "8,16",
            "--replicates", "10", "--seed", "5",
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["n", "mean_s1sq", "gap", "standard_error", "replicates"]
        assert meta["u"] == "4"
        assert [row[0] for row in rows] == ["8", "16"]
        for row in rows:
            assert float(row[1]) + float(row[2]) == pytest.approx(4.0)

    def test_unsorted_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "converge", "--m", "1", "--n-grid", "16,8",
            "--replicates", "4", "--seed", "5",
        )
        assert code == 2


class TestVerifyCommand:
    def test_quick_profile_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "verify [quick]: ok" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert {s["name"] for s in doc["suites"]} >= {"stirling", "dominance"}

    def test_fault_injection_exits_one(self, capsys, monkeypatch):
        real = ginprod.combinatorics.stirling2_alternating

        def corrupted(n, k):
            value = real(n, k)
            return value + 1 if (n, k) == (6, 2) else value

        monkeypatch.setattr(ginprod.combinatorics, "stirling2_alternating", corrupted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL at (6, 2)" in out

    def test_unknown_profile_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--profile", "huge"])
        assert exc.value.code == 2


class TestParser:
    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("edge", "moments", "beta", "dominance", "tailbound",
                        "simulate", "converge", "verify"):
            assert command in out
        assert "quantity-to-command map" in out

    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestOutputPath:
    """Every document goes through one renderer and one atomic writer."""

    CALLS = {
        "edge": ["edge", "--m", "3"],
        "moments": ["moments", "--m", "2", "--n", "4", "--k", "3", "--all-formulas"],
        "beta": ["beta", "--m", "1", "--n", "3", "--k", "2"],
        "dominance": ["dominance", "--m", "2", "--n", "200", "--k", "2"],
        "tailbound": ["tailbound", "--m", "1", "--z", "6", "--n-grid", "60,120"],
        "simulate": ["simulate", "--m", "1", "--n", "4", "--replicates", "3", "--seed", "2",
                     "--kmax", "2"],
        "converge": ["converge", "--m", "1", "--n-grid", "4,8", "--replicates", "3", "--seed", "2"],
        "verify": ["verify"],
        "verify-json": ["verify", "--json"],
    }

    @staticmethod
    def mask_timings(text):
        text = re.sub(r"\d+\.\d+ s\)", "T s)", text)
        return re.sub(r'"seconds": [0-9.e+-]+', '"seconds": T', text)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_output_file_equals_stdout(self, capsys, tmp_path, name):
        argv = self.CALLS[name]
        target = tmp_path / "report.out"
        code_out, out, _ = run_cli(capsys, *argv)
        code_file, printed, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code_out == code_file == 0
        assert printed == ""
        # The invocation in the meta block is the only part that names --output.
        expected = out.replace(shlex.join(["ginprod", *argv]),
                               shlex.join(["ginprod", *argv, "--output", str(target)]))
        written = target.read_bytes().decode("utf-8")
        assert self.mask_timings(written) == self.mask_timings(expected)

    def test_output_in_missing_directory_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(capsys, "edge", "--m", "2", "--output", str(target))
        assert code == 2
        assert out == ""
        assert str(target) in err
        assert not target.parent.exists()

    def test_output_that_is_a_directory_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "moments", "--m", "1", "--n", "2", "--k", "2",
                               "--output", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err

    def test_bad_destinations_are_refused_before_sampling(self, capsys, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("sampled before the destinations were checked")

        monkeypatch.setattr(ginprod.montecarlo, "collect_spectra", never)
        base = ("simulate", "--m", "1", "--n", "4", "--replicates", "2", "--seed", "1")
        missing = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, *base, "--replicate-csv", str(missing))
        assert code == 2
        assert out == ""
        assert str(missing) in err
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, *base, "--spectrum-dir", str(blocker / "spectra"))
        assert code == 2
        assert str(blocker / "spectra") in err

    def test_spectrum_dir_holds_only_the_spectra(self, capsys, tmp_path):
        spec_dir = tmp_path / "spectra"
        code, _, _ = run_cli(
            capsys, "simulate", "--m", "2", "--n", "3", "--replicates", "5", "--seed", "4",
            "--spectrum-dir", str(spec_dir), "--workers", "2",
        )
        assert code == 0
        assert sorted(p.name for p in spec_dir.iterdir()) == [
            f"spectrum_{r:06d}.csv" for r in range(5)
        ]

    def test_failed_write_keeps_the_old_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "summary.json"
        target.write_text("old content\n")
        spec_dir = tmp_path / "spectra"

        def torn_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            if Path(file).name.startswith(target.name):
                def torn_write(text):
                    type(fh).write(fh, text[: len(text) // 2])
                    raise OSError(28, "No space left on device")

                fh.write = torn_write
            return fh

        monkeypatch.setattr(ginprod.cli, "open", torn_open, raising=False)
        code, out, err = run_cli(
            capsys, "simulate", "--m", "1", "--n", "3", "--replicates", "3", "--seed", "4",
            "--spectrum-dir", str(spec_dir), "--output", str(target),
        )
        assert code == 4
        assert "No space left on device" in err
        assert target.read_text() == "old content\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spectra", "summary.json"]
        assert len(list(spec_dir.iterdir())) == 3

    def test_output_through_a_symlink_keeps_the_link(self, capsys, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old content\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        _, out, _ = run_cli(capsys, "edge", "--m", "3")
        code, _, _ = run_cli(capsys, "edge", "--m", "3", "--output", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text() == out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_output_to_a_device_is_written_in_place(self, capsys, monkeypatch):
        def no_rename(*args):
            raise AssertionError("renamed a file onto a device")

        # A failing rename leaves the device alone even if the writer regresses.
        monkeypatch.setattr(os, "replace", no_rename)
        code, out, err = run_cli(capsys, "edge", "--m", "2", "--output", os.devnull)
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_output_to_a_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the FIFO without a second thread.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(capsys, "edge", "--m", "1", "--output", str(fifo))
            received = os.read(reader, 4096)
        finally:
            os.close(reader)
        assert code == 0
        assert received == b"4\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_output_fifo_whose_reader_left_ends_quietly(self, capsys, monkeypatch, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)

        def open_then_lose_the_reader(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            os.close(reader)
            return fh

        # Only the FIFO broke: stdout (here a capture without a file descriptor) is left alone.
        monkeypatch.setattr(ginprod.cli, "open", open_then_lose_the_reader, raising=False)
        code, out, err = run_cli(capsys, "dominance", "--m", "1", "--n", "500", "--k", "3",
                                 "--output", str(fifo))
        assert (code, out, err) == (141, "", "")

    def test_replaced_file_keeps_its_permission_bits(self, capsys, tmp_path):
        target = tmp_path / "edge.txt"
        target.write_text("old content\n")
        target.chmod(0o640)
        code, _, _ = run_cli(capsys, "edge", "--m", "1", "--output", str(target))
        assert code == 0
        assert target.read_text() == "4\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_unwritable_destinations_exit_two(self, capsys, monkeypatch, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        read_only = tmp_path / "read_only.txt"
        read_only.write_text("old content\n")
        real_access = os.access
        # Permission bits do not bind root, so the refusal is simulated at os.access.
        monkeypatch.setattr(
            os, "access",
            lambda path, mode: Path(path).name not in ("locked", "read_only.txt")
            and real_access(path, mode),
        )
        for argv in (
            ["edge", "--m", "2", "--output", str(locked / "x.txt")],
            ["edge", "--m", "2", "--output", str(read_only)],
            ["simulate", "--m", "1", "--n", "2", "--replicates", "2", "--seed", "1",
             "--spectrum-dir", str(locked / "new" / "spectra")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert argv[-1] in err
        assert read_only.read_text() == "old content\n"
        assert list(locked.iterdir()) == []

    def test_refused_input_leaves_no_spectrum_dir(self, capsys, tmp_path):
        spec_dir = tmp_path / "spectra"
        code, _, err = run_cli(capsys, "simulate", "--m", "0", "--n", "3", "--replicates", "2",
                               "--seed", "1", "--spectrum-dir", str(spec_dir))
        assert code == 2
        assert "m" in err
        assert not spec_dir.exists()


def test_all_formulas_evaluates_the_falling_sum_once(capsys, monkeypatch):
    real = ginprod.moment_engine.moment_falling_sum
    calls = []

    def counted(query):
        calls.append(query)
        return real(query)

    monkeypatch.setattr(ginprod.moment_engine, "moment_falling_sum", counted)
    code, out, _ = run_cli(capsys, "moments", "--m", "2", "--n", "5", "--k", "3", "--all-formulas")
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(out)
    assert list(doc) == ["meta", "m", "n", "k", "gamma_sum", "falling_sum", "stirling_beta",
                         "agree", "fuss_catalan", "gap"]
    assert doc["falling_sum"] == doc["gamma_sum"] == doc["stirling_beta"]


class TestValueFormat:
    """The written form of values, pinned as literal documents."""

    LITERAL = {
        ("beta", "--m", "2", "--n", "5", "--k", "2"): """\
# tool: ginprod
# version: 0.1.0
# invocation: ginprod beta --m 2 --n 5 --k 2
# m: 2
# n: 5
# k: 2
# all_pass: true
r,beta,lower_bound,upper_bound,pass
0,64/125,4096/15625,1,true
1,432/125,6144/3125,6,true
2,1212/125,768/125,15,true
3,1809/125,256/25,20,true
4,303/25,48/5,15,true
5,27/5,24/5,6,true
6,1,1,1,true
""",
        ("dominance", "--m", "1", "--n", "500", "--k", "3"): """\
# tool: ginprod
# version: 0.1.0
# invocation: ginprod dominance --m 1 --n 500 --k 3
# m: 1
# n: 500
# k: 3
# first_term_share: 0.99201998718827689
# all_ratios_pass: true
r,term,ratio_to_next,ratio_bound,pass
2,232504870501/3906250000000000,1863769491/232504870501,9/500,true
3,1863769491/3906250000000000,26145091/7455077964,4/125,true
4,26145091/15625000000000000,44910/26145091,1/20,true
5,4491/1562500000000000,31/44910,9/125,true
6,31/15625000000000000,,,
""",
        ("moments", "--m", "3", "--n", "6", "--k", "4", "--all-formulas"): """\
{
  "meta": {
    "tool": "ginprod",
    "version": "0.1.0",
    "invocation": "ginprod moments --m 3 --n 6 --k 4 --all-formulas"
  },
  "m": 3,
  "n": 6,
  "k": 4,
  "gamma_sum": "10248257/52488",
  "falling_sum": "10248257/52488",
  "stirling_beta": "10248257/52488",
  "agree": true,
  "fuss_catalan": "140",
  "gap": "2899937/52488"
}
""",
    }

    @pytest.mark.parametrize("argv", sorted(LITERAL), ids=lambda argv: argv[0])
    def test_document_is_written_literally(self, capsys, argv):
        assert run_cli(capsys, *argv) == (0, self.LITERAL[argv], "")

    def test_converge_floats_have_17_significant_digits(self, capsys):
        argv = ("converge", "--m", "2", "--n-grid", "4,8", "--field", "complex",
                "--replicates", "6", "--seed", "3", "--workers", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        config = ginprod.montecarlo.RunConfig(replicates=6, master_seed=3, workers=2)
        want = ginprod.montecarlo.convergence_table(2, [4, 8], config, field="complex")
        _, _, rows = parse_csv(out)
        assert rows == [
            [str(row.n), *(format(v, ".17g") for v in (row.mean_s1sq, row.gap, row.standard_error)),
             str(row.replicates)]
            for row in want
        ]

    @pytest.mark.parametrize("value, written", [
        (True, "true"), (False, "false"), (7, "7"), ("text", "text"), (Fraction(-3, 4), "-3/4"),
        (0.1, "0.10000000000000001"), (np.float64(2.5), "2.5"), (None, ""),
    ])
    def test_cell(self, value, written):
        assert ginprod.cli._cell(value) == written

    @pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), 1j, [1]])
    def test_cell_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            ginprod.cli._cell(value)


def _csv_writer_line(cells):
    """A row as csv.writer(lineterminator="\\n") writes it, the row writer's reference."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


class TestCsvRows:
    ROWS = [
        [], [""], ["", ""], [None], [None, None], ["a", None, "b"], ["1/2", "-3", "true"],
        ["a,b", "c"], [","], ['say "hi"'], ['"'], ['""'], ["two\nlines", "x"], ["\n"],
        ['a,"b"\nc', "", "d"], [" lead", "trail "],
    ]

    @pytest.mark.parametrize("row", ROWS, ids=repr)
    def test_row_matches_csv_writer_and_reads_back(self, row):
        cells = [ginprod.cli._cell(value) for value in row]
        line = ginprod.cli._csv_line(cells)
        assert line == _csv_writer_line(row)
        assert list(csv.reader(io.StringIO(line, newline=""))) == ([cells] if cells else [[]])

    def test_carriage_return_is_quoted(self):
        # Python 3.11's csv.writer leaves a lone "\r" bare, and csv.reader ends the row there.
        line = ginprod.cli._csv_line(["r\rs", "x"])
        assert line == '"r\rs",x\n'
        assert list(csv.reader(io.StringIO(line, newline=""))) == [["r\rs", "x"]]

    @pytest.mark.parametrize("argv", [
        ("dominance", "--m", "3", "--n", "1000", "--k", "10"),
        ("beta", "--m", "2", "--n", "30", "--k", "6"),
        ("tailbound", "--m", "2", "--z", "9", "--n-grid", "100,200,400"),
        ("converge", "--m", "2", "--n-grid", "4,8", "--replicates", "6", "--seed", "3", "--workers", "1"),
        ("simulate", "--m", "1", "--n", "6", "--field", "complex", "--replicates", "4", "--seed", "5",
         "--workers", "1", "--replicate-csv", "reps.csv", "--spectrum-dir", "spectra"),
    ], ids=lambda argv: argv[0])
    def test_documents_equal_csv_writer_output(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)

        def outputs():
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            return out, {str(p): p.read_bytes() for p in sorted(Path().rglob("*.csv"))}

        ours = outputs()
        monkeypatch.setattr(ginprod.cli, "_csv_line", _csv_writer_line)
        assert outputs() == ours
        if argv[0] == "simulate":
            assert len(ours[1]) == 5  # reps.csv and four spectra
        else:
            assert ours[0].count("\n") >= 10  # metadata, header and rows


class TestMetadataLineBreaks:
    @pytest.mark.parametrize("z, escaped", [
        ("6\n", "6\\n"), ("6\r", "6\\r"), ("6\r\n", "6\\r\\n"), ("6\f", "6\\x0c"),
        ("6\u2028", "6\\u2028"),
    ], ids=repr)
    def test_break_in_an_argument_stays_on_its_line(self, capsys, z, escaped):
        # Fraction accepts the trailing whitespace; the invocation keeps it.
        code, out, _ = run_cli(capsys, "tailbound", "--m", "1", "--z", z, "--n-grid", "60")
        assert code == 0
        lines = out.splitlines()
        header = lines.index("n,k_n,exact_bound,log_exact,log_surrogate,minus_2_log_n")
        assert header == 6  # tool, version, invocation, m, z, w
        assert all(line.startswith("#") for line in lines[:header])
        assert f"# invocation: ginprod tailbound --m 1 --z '{escaped}' --n-grid 60" in lines
        assert "# z: 6" in lines

    def test_break_in_an_output_path(self, capsys, tmp_path):
        target = tmp_path / "two\nlines.csv"
        code, _, _ = run_cli(capsys, "beta", "--m", "1", "--n", "2", "--k", "2", "--output", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        header = lines.index("r,beta,lower_bound,upper_bound,pass")
        assert all(line.startswith("#") for line in lines[:header])
        assert f"# invocation: ginprod beta --m 1 --n 2 --k 2 --output '{tmp_path}/two\\nlines.csv'" in lines

    def test_json_meta_keeps_the_break(self, capsys, tmp_path):
        target = tmp_path / "two\nlines.json"
        argv = ["moments", "--m", "1", "--n", "2", "--k", "2", "--output", str(target)]
        assert run_cli(capsys, *argv)[0] == 0
        assert json.loads(target.read_text())["meta"]["invocation"] == shlex.join(["ginprod", *argv])


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["edge", "--m", "2"],
    ["simulate", "--m", "1", "--n", "1", "--replicates", "3", "--seed", "9",
     "--replicate-csv", "/dev/stdout"],
], ids=["stdout", "file-on-stdout"])
def test_closed_stdout_ends_quietly(buffered, argv):
    # The reader of stdout is gone before the first write (`ginprod ... | head`):
    # the run ends with SIGPIPE's shell status and prints nothing, not even at exit.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ginprod.cli.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, *([] if buffered else ["-u"]), "-m", "ginprod.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
