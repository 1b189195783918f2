import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tagstab.cli as cli
from tagstab import ParameterError, ingest_tag_log, proportion_trajectory
from tagstab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def constant_log(tmp_path, length=40):
    path = tmp_path / "constant.tsv"
    rows = ["resource_id\ttag\tseq"]
    rows += [f"r1\tonly\t{i}" for i in range(1, length + 1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def simulated_log(tmp_path, capsys):
    path = str(tmp_path / "sim.tsv")
    code = main([
        "simulate", "--model", "mixture", "--imitation-rate", "0.6",
        "--vocab", "200", "--length", "80", "--streams", "4",
        "--seed", "11", "--out", path,
    ])
    capsys.readouterr()
    assert code == 0
    return path


class TestSimulateAndValidate:
    def test_round_trip_counts(self, tmp_path, capsys):
        out = str(tmp_path / "sim.tsv")
        code, _, _ = run(
            capsys, "simulate", "--model", "random_uniform", "--vocab", "5",
            "--length", "30", "--streams", "3", "--seed", "42", "--out", out,
        )
        assert code == 0
        code, stdout, _ = run(capsys, "validate", out)
        assert code == 0
        report = json.loads(stdout)
        assert report["streams_loaded"] == 3
        assert report["assignments_loaded"] == 90
        assert report["rows_rejected"] == 0

    def test_simulation_is_reproducible(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        for out in (a, b):
            run(capsys, "simulate", "--model", "background", "--vocab", "50",
                "--length", "40", "--streams", "2", "--seed", "3", "--out", out)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("model", ["background", "mixture"])
    def test_nan_exponent_is_usage_error(self, tmp_path, capsys, model):
        out = tmp_path / "sim.tsv"
        code, _, err = run(capsys, "simulate", "--model", model, "--zipf-s", "nan",
                           "--length", "10", "--out", str(out))
        assert code == 1
        assert "zipf exponent" in err
        assert not out.exists()

    def test_uniform_simulation_gives_flat_proportions(self, tmp_path, capsys):
        out = str(tmp_path / "uniform.tsv")
        run(capsys, "simulate", "--model", "random_uniform", "--vocab", "5",
            "--length", "2000", "--streams", "1", "--seed", "42", "--out", out)
        code, stdout, _ = run(capsys, "proportions", out, "--window", "100", "--top", "5")
        assert code == 0
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        finals = [float(r[3]) for r in rows if r[1] == "2000"]
        assert len(finals) == 5
        assert all(abs(v - 0.2) <= 0.05 for v in finals)

    def test_background_file_input(self, tmp_path, capsys):
        table = tmp_path / "bg.tsv"
        table.write_text("cats\t9\ndogs\t1\n", encoding="utf-8")
        out = str(tmp_path / "sim.tsv")
        code, _, _ = run(
            capsys, "simulate", "--model", "background", "--background", str(table),
            "--length", "20", "--streams", "1", "--seed", "1", "--out", out,
        )
        assert code == 0
        body = Path(out).read_text(encoding="utf-8")
        assert "cats" in body or "dogs" in body

    @pytest.mark.parametrize("table", [
        b"cats\t9\ndo\xffgs\t1\n",
        b"cats\t1e308\ndogs\t1e308\n",
        b"cats\t1e308\ncats\t1e308\n",
    ])
    def test_bad_background_file_is_data_error(self, tmp_path, capsys, table):
        path = tmp_path / "bg.tsv"
        path.write_bytes(table)
        out = tmp_path / "sim.tsv"
        code, stdout, err = run(
            capsys, "simulate", "--model", "background", "--background", str(path),
            "--length", "20", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith("tagstab: data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("table, bad", [
        (None, ["--imitation-rate", "0.5", "--length", "0"]),  # no table file
        (b"cats\t9\ndogs\n", ["--imitation-rate", "2", "--length", "20"]),
    ])
    def test_arguments_are_checked_before_the_background(
        self, tmp_path, capsys, table, bad
    ):
        path = tmp_path / "bg.tsv"
        if table is not None:
            path.write_bytes(table)
        out = tmp_path / "sim.tsv"
        code, stdout, err = run(
            capsys, "simulate", "--model", "mixture", *bad,
            "--background", str(path), "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("tagstab: error: ")
        assert not out.exists()

    def test_empty_background_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.tsv"
        code, stdout, err = run(
            capsys, "simulate", "--model", "background", "--background", "",
            "--length", "5", "--streams", "1", "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert "argument --background: must not be empty" in err
        assert not out.exists()


class TestRboCommand:
    def test_constant_log_prints_tenth(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "rbo", constant_log(tmp_path))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "resource_id,t,rbo"
        assert lines[1:] == [f"r1,{t},0.100000" for t in (20, 30, 40)]

    def test_short_streams_exit_with_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "rbo", constant_log(tmp_path, length=5))
        assert code == 2
        assert "data error" in err


class TestProportionsCommand:
    def test_rows_and_zero_fill(self, tmp_path, capsys):
        path = tmp_path / "log.tsv"
        path.write_text(
            "resource_id\ttag\tseq\n"
            "r1\ta\t1\nr1\ta\t2\nr1\tb\t3\nr1\ta\t4\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(capsys, "proportions", str(path), "--window", "2", "--top", "2")
        assert code == 0
        assert stdout.splitlines() == [
            "resource_id,t,tag,proportion",
            "r1,2,a,1.00000",
            "r1,2,b,0.00000",
            "r1,4,a,0.750000",
            "r1,4,b,0.250000",
        ]

    @pytest.mark.parametrize("window, top", [(1, 50), (2, 1), (3, 2)])
    def test_rows_are_csv_writer_rows_of_the_library_values(
        self, tmp_path, capsys, window, top
    ):
        path = tmp_path / "quoted.tsv"
        path.write_text(
            "resource_id\ttag\tseq\n"
            'r,1\ta"b\t1\nr,1\tx,y\t2\nr,1\ta"b\t3\n'
            'r"2\tq\t1\nr"2\t"\t2\nr"2\tplain\t3\nr"2\t,\t4\nr"2\t"\t5\n',
            encoding="utf-8",
        )
        expected = io.StringIO()
        out = csv.writer(expected, lineterminator="\n")
        out.writerow(["resource_id", "t", "tag", "proportion"])
        streams, _ = ingest_tag_log(path)
        for stream in streams:
            for t, proportions in proportion_trajectory(stream, window, top):
                for tag, value in proportions.items():
                    out.writerow([stream.resource_id, t, tag, f"{value:#.6g}"])
        code, stdout, _ = run(
            capsys, "proportions", str(path), "--window", str(window), "--top", str(top)
        )
        assert code == 0
        assert stdout == expected.getvalue()
        assert '"r,1",' in stdout and ',"a""b",' in stdout

    def test_formatter_starting_over_changes_no_row(self, simulated_log, capsys, monkeypatch):
        argv = ["proportions", simulated_log, "--window", "1", "--top", "50"]
        expected = run(capsys, *argv)
        monkeypatch.setattr(cli, "_MAX_FORMATTED", 1)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0

    @given(st.text())
    @example("")
    @example(" ")
    @example("\t")
    @example("Grüße, 東京")
    @example("\r")
    @example("a\nb")
    @example('a"b')
    def test_cell_is_what_csv_writer_writes(self, text):
        row = io.StringIO()
        csv.writer(row, lineterminator="\n").writerow(["x", text, "x"])
        assert row.getvalue() == f"x,{cli._csv_cell(text)},x\n"

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_usage_error(self, tmp_path, capsys, top):
        code, stdout, err = run(capsys, "proportions", constant_log(tmp_path), "--top", top)
        assert code == 1
        assert stdout == ""
        assert err.startswith("tagstab: error: ")


class TestPerStreamCommands:
    @pytest.fixture()
    def mixed_log(self, tmp_path, capsys):
        # One simulated stream long enough for every command, then a
        # five-assignment stream that each of them must skip.
        path = tmp_path / "mixed.tsv"
        run(capsys, "simulate", "--model", "mixture", "--imitation-rate", "0.7",
            "--vocab", "500", "--length", "400", "--streams", "1",
            "--seed", "5", "--out", str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(f"tiny\tonly\t{seq}\n" for seq in range(1, 6))
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["rbo"], ["kl"], ["powerlaw", "--per-resource"]], ids=["rbo", "kl", "powerlaw"]
    )
    def test_long_stream_printed_short_one_skipped(self, mixed_log, capsys, argv):
        code, stdout, err = run(capsys, argv[0], mixed_log, *argv[1:])
        assert code == 0
        ids = {line.split(",")[0] for line in stdout.splitlines()[1:]}
        assert "stream-00000" in ids
        assert "tiny" not in ids
        assert err.startswith("skipping tiny: ")
        assert len(err.splitlines()) == 1


# A table of ten tokens for --background, and per case the arguments of
# `simulate --seed 7` and the sha256 of the log it writes.  The hashes pin
# the draws: they depend on numpy's PCG64 and its conventions for doubles
# and bounded integers.
GOLDEN_BACKGROUND = "".join(
    f"w{i}\t{count}\n" for i, count in enumerate([40, 25, 12, 9, 7, 3, 2, 1, 1, 0.5])
)
GOLDEN_SIMULATIONS = {
    "random_uniform": (
        ["--model", "random_uniform", "--vocab", "1000", "--length", "40", "--streams", "3"],
        "e6e06bab707a3ed4e2386f67022e39e66b75bcf334731c2e52c093a26483ab51",
    ),
    "imitation": (
        ["--model", "imitation", "--vocab", "1000", "--length", "40", "--streams", "3"],
        "354b780d675bceb3e158bb115dd954c32f02be0b4d7798d18f6c88af20c0fc36",
    ),
    "background": (
        ["--model", "background", "--length", "300", "--streams", "3"],
        "8d30f94c3f975950fa52fd825f7ed1ab3f4f443a1244f3ea1fb8cdbd0e0e0f59",
    ),
    "mixture": (
        ["--model", "mixture", "--imitation-rate", "0.7", "--vocab", "1000",
         "--length", "300", "--streams", "3"],
        "51f269bff20de635d189d312384ad8498dd11c7d84daac1e514fee7951669edc",
    ),
    "mixture-length-2": (
        ["--model", "mixture", "--imitation-rate", "0.7", "--length", "2", "--streams", "5"],
        "524743804d801eb17fcc69075f48def30ddd17e8d173a432cb8c00b6e8d0084e",
    ),
    "mixture-length-1": (
        ["--model", "mixture", "--imitation-rate", "1", "--vocab", "1000",
         "--length", "1", "--streams", "4"],
        "662d38ad2faf660e49c0e8892e3afcce1b80e2f1e25100cebefe33f2b00beac5",
    ),
    "mixture-zipf-1.3": (
        ["--model", "mixture", "--imitation-rate", "0.3", "--zipf-s", "1.3",
         "--length", "300", "--streams", "3"],
        "0e1bde1b4acf629c86af318e9b5aced02bfea3616ad0973e4a4aee29ce4b5d14",
    ),
    "mixture-background": (
        ["--model", "mixture", "--imitation-rate", "0.5", "--background", "BACKGROUND",
         "--length", "300", "--streams", "3"],
        "207fe60c6208d126d15623992cc9ef5a9770d597de1cd167cb89a27f305e1262",
    ),
    "background-table": (
        ["--model", "background", "--background", "BACKGROUND", "--length", "300",
         "--streams", "3"],
        "527fb449744463ff7d8eafc44af7b897d30da2c376f55c17e56927fecdfe96bf",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATIONS))
def test_simulate_bytes_are_pinned(tmp_path, capsys, case):
    import numpy

    argv, expected = GOLDEN_SIMULATIONS[case]
    background = tmp_path / "background.tsv"
    background.write_text(GOLDEN_BACKGROUND, encoding="utf-8")
    out = tmp_path / "sim.tsv"
    argv = [str(background) if arg == "BACKGROUND" else arg for arg in argv]
    assert run(capsys, "simulate", *argv, "--seed", "7", "--out", str(out))[0] == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == expected, f"simulate {case} changed under numpy {numpy.__version__}"


class TestKlCommands:
    def test_kl_output(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "kl", constant_log(tmp_path), "--m", "10")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "resource_id,n,kl"
        assert lines[1] == "r1,10,0.00000"

    def test_baseline_deterministic(self, capsys):
        args = ["kl-baseline", "--vocab", "30", "--m", "5", "--k", "10",
                "--length", "50", "--trials", "3", "--seed", "8"]
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.splitlines()[0] == "n,mean_kl"


class TestPowerlawCommands:
    @pytest.fixture()
    def heavy_log(self, tmp_path, capsys):
        path = str(tmp_path / "heavy.tsv")
        run(capsys, "simulate", "--model", "mixture", "--imitation-rate", "0.7",
            "--vocab", "500", "--length", "400", "--streams", "3",
            "--seed", "5", "--out", path)
        return path

    def test_pooled_single_row(self, heavy_log, capsys):
        code, stdout, _ = run(capsys, "powerlaw", heavy_log, "--pooled")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("resource_id,alpha,xmin,ks_d,n_tail,r_exp,p_exp")
        assert len(lines) == 2
        assert lines[1].startswith("pooled,")

    def test_per_resource_appends_mean_and_std(self, heavy_log, capsys):
        code, stdout, _ = run(capsys, "powerlaw", heavy_log)
        assert code == 0
        labels = [line.split(",")[0] for line in stdout.strip().splitlines()[1:]]
        assert labels[-2:] == ["mean", "std"]
        assert len(labels) == 5

    @pytest.mark.parametrize("mode", ["--per-resource", "--pooled"])
    def test_underflowing_tail_is_data_error(self, tmp_path, capsys, mode):
        # Final counts 216 and 215: the only cutoff's KS distance is 0/0.
        path = tmp_path / "steep.tsv"
        tags = ["a"] * 216 + ["b"] * 215
        rows = [f"r1\t{tag}\t{seq}" for seq, tag in enumerate(tags, start=1)]
        path.write_text("resource_id\ttag\tseq\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, _, stderr = run(capsys, "powerlaw", str(path), mode)
        assert code == 2
        assert "data error" in stderr
        assert "Warning" not in stderr

    @pytest.mark.parametrize("mode", ["--per-resource", "--pooled"])
    def test_tied_maximum_is_not_the_cutoff(self, tmp_path, capsys, mode):
        # Final counts 9, 9, 5, 3, 2, 2, 1, 1, 1: the two tied maxima alone
        # would fit with KS distance 0 and n_tail 2.
        path = tmp_path / "tied.tsv"
        counts = {"a": 9, "b": 9, "c": 5, "d": 3, "e": 2, "f": 2, "g": 1, "h": 1, "i": 1}
        tags = [tag for tag, count in counts.items() for _ in range(count)]
        rows = [f"r1\t{tag}\t{seq}" for seq, tag in enumerate(tags, start=1)]
        path.write_text("resource_id\ttag\tseq\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "powerlaw", str(path), mode)
        assert code == 0
        cells = stdout.splitlines()[1].split(",")
        assert float(cells[2]) < 9  # xmin
        assert float(cells[3]) > 0  # ks_d
        assert int(cells[4]) > 2  # n_tail

    def test_ccdf_output(self, tmp_path, capsys):
        path = tmp_path / "log.tsv"
        path.write_text(
            "resource_id\ttag\tseq\nr1\ta\t1\nr1\ta\t2\nr1\tb\t3\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(capsys, "ccdf", str(path))
        assert code == 0
        assert stdout.splitlines() == [
            "resource_id,value,ccdf",
            "r1,1,1.00000",
            "r1,2,0.500000",
        ]


class TestSurfaceCommands:
    def test_surface_grid_shape(self, simulated_log, capsys):
        code, stdout, _ = run(
            capsys, "surface", simulated_log,
            "--t-grid", "20:80:20", "--k-grid", "0:1:0.5",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "t,k,f"
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert first[0] == "20" and first[1] == "0.00000"
        assert all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[1:])

    def test_compare_uses_file_stems(self, simulated_log, tmp_path, capsys):
        other = str(tmp_path / "other.tsv")
        run(capsys, "simulate", "--model", "random_uniform", "--vocab", "100",
            "--length", "80", "--streams", "2", "--seed", "9", "--out", other)
        code, stdout, _ = run(
            capsys, "compare", simulated_log, other,
            "--t-grid", "40:80:40", "--k-grid", "0.2:0.8:0.3",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "dataset,t,k,f"
        datasets = {line.split(",")[0] for line in lines[1:]}
        assert datasets == {"sim", "other"}

    def test_compare_refuses_two_logs_with_one_stem(self, simulated_log, tmp_path, capsys):
        # Both would label their rows "sim".  The same path twice is one dataset.
        other = tmp_path / "elsewhere" / "sim.tsv"
        other.parent.mkdir()
        other.write_bytes(Path(simulated_log).read_bytes())
        grids = ("--t-grid", "40:80:40", "--k-grid", "0.2:0.8:0.3")
        code, stdout, err = run(capsys, "compare", simulated_log, str(other), *grids)
        assert (code, stdout) == (1, "")
        assert err == (
            f"tagstab: error: logs {simulated_log!r} and {str(other)!r} "
            "share the stem 'sim' that labels their rows\n"
        )
        code, stdout, _ = run(capsys, "compare", simulated_log, simulated_log, *grids)
        assert code == 0
        assert {line.split(",")[0] for line in stdout.splitlines()[1:]} == {"sim"}

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.1", "0:1:nan", "0:1:inf"])
    def test_non_finite_grid_is_usage_error(self, simulated_log, capsys, grid):
        code, _, err = run(
            capsys, "surface", simulated_log, "--t-grid", "20:80:20", "--k-grid", grid
        )
        assert code == 1
        assert err == f"tagstab: error: grid {grid!r} must have finite bounds and step\n"

    def test_bad_grid_is_usage_error(self, simulated_log, capsys):
        code, _, err = run(
            capsys, "surface", simulated_log, "--t-grid", "20-80", "--k-grid", "0:1:0.5"
        )
        assert code == 1
        assert "error" in err


MISSING = "/nonexistent/file.tsv"
GRIDS = ("--t-grid", "20:40:20", "--k-grid", "0:1:0.5")


class TestDataErrorsLeaveStdoutEmpty:
    @pytest.mark.parametrize("argv", [
        ("rbo", MISSING),
        ("kl", MISSING),
        ("proportions", MISSING),
        ("ccdf", MISSING),
        ("powerlaw", MISSING),
        ("powerlaw", MISSING, "--pooled"),
        ("surface", MISSING, *GRIDS),
        ("compare", MISSING, MISSING, *GRIDS),
    ])
    def test_missing_log(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err.startswith("tagstab: data error: ")

    @pytest.mark.parametrize("argv", [
        ("validate", "LOG"),
        ("rbo", "LOG"),
        ("kl", "LOG"),
        ("proportions", "LOG"),
        ("ccdf", "LOG"),
        ("powerlaw", "LOG"),
        ("surface", "LOG", *GRIDS),
        ("compare", "LOG", *GRIDS),
    ])
    def test_invalid_utf8_log(self, tmp_path, capsys, argv):
        log = tmp_path / "bad.tsv"
        log.write_bytes(b"resource_id\ttag\tseq\nr1\t\xff\t1\n")
        code, stdout, err = run(capsys, *(str(log) if a == "LOG" else a for a in argv))
        assert (code, stdout) == (2, "")
        assert err == f"tagstab: data error: {log} is not UTF-8 text: invalid start byte\n"

    def test_invalid_utf8_after_a_byte_order_mark(self, tmp_path, capsys):
        log = tmp_path / "bad.tsv"
        log.write_bytes(b"\xef\xbb\xbfresource_id\ttag\tseq\nr1\t\xff\t1\n")
        code, stdout, err = run(capsys, "validate", str(log))
        assert (code, stdout) == (2, "")
        assert err == f"tagstab: data error: {log} is not UTF-8 text: invalid start byte\n"

    def test_compare_with_a_missing_later_log(self, simulated_log, capsys):
        code, stdout, _ = run(capsys, "compare", simulated_log, MISSING, *GRIDS)
        assert (code, stdout) == (2, "")

    @pytest.mark.parametrize("argv", [
        ("rbo",),
        ("kl", "--m", "10"),
        ("surface", *GRIDS),
    ])
    def test_no_stream_long_enough(self, tmp_path, capsys, argv):
        code, stdout, err = run(capsys, argv[0], constant_log(tmp_path, length=15), *argv[1:])
        assert (code, stdout) == (2, "")
        assert "data error" in err


class TestUsageErrorsBeforeInput:
    @pytest.mark.parametrize("argv", [
        ("rbo", MISSING, "--window", "0"),
        ("rbo", MISSING, "--p", "1.5"),
        ("kl", MISSING, "--m", "0"),
        ("kl", MISSING, "--k", "0"),
        ("proportions", MISSING, "--window", "0"),
        ("proportions", MISSING, "--top", "0"),
        ("surface", MISSING, "--window", "0", *GRIDS),
        ("surface", MISSING, "--p", "1.5", *GRIDS),
        ("surface", MISSING, "--t-grid", "20-40", "--k-grid", "0:1:0.5"),
        ("surface", MISSING, "--t-grid", "20:40:20", "--k-grid", "0:2:0.5"),
        ("surface", MISSING, "--t-grid", "25:45:20", "--k-grid", "0:1:0.5"),
        ("surface", MISSING, "--t-grid", "10:30:10", "--k-grid", "0:1:0.5"),
        ("compare", MISSING, MISSING, "--window", "0", *GRIDS),
        ("compare", MISSING, MISSING, "--p", "1.5", *GRIDS),
        ("compare", MISSING, MISSING, "--t-grid", "20:40:20", "--k-grid", "0:1:x"),
        ("compare", MISSING, MISSING, "--t-grid", "20:40:20", "--k-grid=-1:1:0.5"),
        ("compare", MISSING, MISSING, "--t-grid", "35:55:20", "--k-grid", "0:1:0.5"),
    ])
    def test_exit_one_with_empty_stdout(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith("tagstab: error: ")

    @pytest.mark.parametrize("argv", [
        ("validate", MISSING),
        ("rbo", MISSING),
        ("kl", MISSING),
        ("proportions", MISSING),
        ("ccdf", MISSING),
        ("powerlaw", MISSING),
        ("surface", MISSING, *GRIDS),
        ("compare", MISSING, MISSING, *GRIDS),
    ])
    def test_empty_delimiter(self, capsys, argv):
        code, stdout, err = run(capsys, *argv, "--delimiter=")
        assert (code, stdout) == (1, "")
        assert "argument --delimiter: must not be empty" in err

    def test_missing_file_with_good_arguments_is_data_error(self, capsys):
        assert run(capsys, "rbo", MISSING, "--window", "5")[0] == 2

    def test_baseline_fails_before_drawing(self, capsys, monkeypatch):
        import tagstab.generators

        def refuse(seed, stream_index):
            raise AssertionError("a trial stream was seeded")

        monkeypatch.setattr(tagstab.generators, "_stream_rng", refuse)
        for flag in ("--m", "--k"):
            code, stdout, _ = run(
                capsys, "kl-baseline", "--vocab", "100", flag, "0", "--length", "100"
            )
            assert (code, stdout) == (1, "")
        # A trial length below two windows is a fault of the arguments alone.
        for length in ("10", "15"):
            code, stdout, err = run(capsys, "kl-baseline", "--vocab", "100", "--m", "10",
                                    "--length", length)
            assert (code, stdout) == (1, "")
            assert err == (
                f"tagstab: error: trial length {length} is shorter than two windows of 10\n"
            )


class TestGridSize:
    @pytest.mark.parametrize("grids", [
        ("--t-grid", "20:40:20", "--k-grid", "0:1:1e-9"),
        ("--t-grid", "20:40:20", "--k-grid", "0:1e308:1e-308"),
        ("--t-grid", "10:1000000000:10", "--k-grid", "0:1:0.5"),
    ])
    def test_too_many_points_is_usage_error(self, capsys, grids):
        for command in (("surface", MISSING), ("compare", MISSING, MISSING)):
            code, stdout, err = run(capsys, *command, *grids)
            assert (code, stdout) == (1, "")
            assert "has more than 10001 points" in err

    def test_largest_grids_are_accepted(self):
        from tagstab.cli import _parse_float_grid, _parse_int_grid

        assert len(_parse_float_grid("0:1:0.0001")) == 10_001
        assert len(_parse_int_grid("10:100010:10")) == 10_001
        with pytest.raises(ParameterError):
            _parse_int_grid("10:100020:10")

    def test_float_grid_counts_only_points_within_stop(self):
        from tagstab.cli import _parse_float_grid

        # (stop - start) / step is about 10000.5: the count rounds up to a
        # point past stop, which is not part of the grid.
        grid = _parse_float_grid("0:1:0.0000999949")
        assert len(grid) == 10_001
        assert grid[-1] <= 1.0
        with pytest.raises(ParameterError):
            _parse_float_grid("0:1:0.0000999899")

    def test_fine_k_grid_runs(self, simulated_log, capsys):
        code, stdout, _ = run(
            capsys, "surface", simulated_log, "--t-grid", "80:80:10", "--k-grid", "0:1:0.0001"
        )
        assert code == 0
        assert len(stdout.splitlines()) == 1 + 10_001


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, tmp_path, capsys):
        assert run(capsys, "rbo", constant_log(tmp_path), "--bogus")[0] == 1

    def test_missing_file_is_data_error(self, capsys):
        assert run(capsys, "validate", "/nonexistent/file.tsv")[0] == 2

    def test_bad_p_is_usage_error(self, tmp_path, capsys):
        assert run(capsys, "rbo", constant_log(tmp_path), "--p", "1.5")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


# One valid argv per command; LOG and OUT are only names, never read.
VALID_ARGV = {
    "validate": ["validate", "LOG"],
    "proportions": ["proportions", "LOG", "--window", "5", "--top", "3"],
    "rbo": ["rbo", "LOG", "--p", "0.5", "--window", "5", "--variant", "plain"],
    "kl": ["kl", "LOG", "--m", "5", "--k", "3"],
    "kl-baseline": ["kl-baseline", "--vocab", "50", "--length", "40", "--trials", "10"],
    "powerlaw": ["powerlaw", "LOG", "--pooled"],
    "ccdf": ["ccdf", "LOG", "--delimiter", ","],
    "surface": ["surface", "LOG", *GRIDS],
    "compare": ["compare", "LOG", "LOG", "--window", "10", *GRIDS],
    "simulate": ["simulate", "--model", "mixture", "--imitation-rate", "0.5",
                 "--length", "20", "--out", "OUT"],
}
PARSE_CASES = [
    *VALID_ARGV.values(),
    *([name, "-h"] for name in VALID_ARGV),
    [],
    ["--help"],
    ["frobnicate", "LOG"],
    ["validate", "LOG", "extra"],
    ["rbo", "LOG", "--bogus"],
    ["rbo", "LOG", "--wind", "3"],
    ["validate", "--", "LOG"],
    ["validate", "LOG", "--"],
    ["rbo", "LOG", "--window", "x"],
    ["powerlaw", "LOG", "--pooled", "--per-resource"],
    ["validate", "LOG", "--delimiter=,"],
    ["--", "validate", "LOG"],
    ["kl-baseline"],
]


def full_parse(argv):
    """Parse with the full parser alone, then call the command."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def parse_outcomes(argv):
    """(exit code, Namespace handed to the command or None, stdout, stderr)
    of main and of the full parser, with every command replaced by a
    stand-in of its own that records its Namespace."""
    handed = []
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        for name in cli._COMMANDS:
            patch.setattr(cli, "_cmd_" + name.replace("-", "_"),
                          lambda args: handed.append(args) or 0)
        for parse in (main, full_parse):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = parse(list(argv))
            outcomes.append((code, handed.pop() if handed else None,
                             out.getvalue(), err.getvalue()))
    assert not handed
    return outcomes


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_dispatch_parses_as_the_full_parser(argv):
    ours, full = parse_outcomes(argv)
    assert ours == full


PARSE_TOKENS = (
    *VALID_ARGV, "frobnicate",
    "-h", "--help", "--delimiter", "--window", "--top", "--p", "--variant", "--m", "--k",
    "--vocab", "--length", "--trials", "--seed", "--per-resource", "--pooled", "--t-grid",
    "--k-grid", "--model", "--imitation-rate", "--zipf-s", "--background", "--streams", "--out",
    "LOG", "3", "0", "-1", "0.5", "nan", "x", "", "20:40:20", "0:1:0.5", "mixture", "plain",
    "--", "-", "--wind", "--bogus", "-x", "--window=2", "--delimiter=,", "--p=", "=", " ",
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=st.one_of(
    st.lists(st.sampled_from(PARSE_TOKENS), max_size=8),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(list(VALID_ARGV)),
              st.lists(st.sampled_from(PARSE_TOKENS), max_size=8)),
))
def test_drawn_argv_parses_as_the_full_parser(argv):
    ours, full = parse_outcomes(argv)
    assert ours == full


def test_module_run_reads_its_arguments(simulated_log, capsys):
    result = subprocess.run(
        [sys.executable, "-m", "tagstab.cli", "validate", simulated_log], env=source_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert run(capsys, "validate", simulated_log) == (0, result.stdout, result.stderr)
    assert result.returncode == 0


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError


def test_closed_stdout_leaves_stderr_open(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["kl-baseline", "--vocab", "50", "--length", "40", "--trials", "2"]) == 0
    assert not sys.stderr.closed


def test_closed_pipe_on_stdout_is_pointed_at_devnull(simulated_log, monkeypatch):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["proportions", simulated_log, "--window", "1"]) == 0
        # What is written after main returns, as Python's flush at exit,
        # is discarded instead of failing on the closed pipe again.
        print("after", file=stdout, flush=True)
    assert not sys.stderr.closed


def test_stdout_closed_by_the_reader_exits_zero(tmp_path, capsys):
    log = str(tmp_path / "sim.tsv")
    assert main(["simulate", "--model", "mixture", "--imitation-rate", "0.7", "--vocab", "1000",
                 "--length", "300", "--streams", "3", "--seed", "7", "--out", log]) == 0
    argv = ["proportions", log, "--window", "1"]
    # Well past a pipe's buffer, so the command's writes meet the closed end.
    assert len(run(capsys, *argv)[1]) > 4 * 65536
    with subprocess.Popen(
        [sys.executable, "-m", "tagstab.cli", *argv], env=source_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline() == b"resource_id,t,tag,proportion\n"
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (0, b"")


def source_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_import_leaves_scipy_stats_out():
    # scipy is a test-only dependency: the power-law fits carry their own
    # searches and special functions, so no scipy module may load.
    probe = (
        "import sys, tagstab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_power_law_commands_run_with_scipy_blocked(tmp_path):
    # With sys.modules['scipy'] = None any scipy import raises ImportError.
    log = str(tmp_path / "sim.tsv")
    assert main(["simulate", "--model", "mixture", "--imitation-rate", "0.7", "--vocab", "500",
                 "--length", "400", "--streams", "3", "--seed", "5", "--out", log]) == 0
    runs = [["powerlaw", log, "--per-resource"], ["powerlaw", log, "--pooled"], ["ccdf", log]]
    script = (
        "import sys, tagstab.cli; "
        f"sys.exit(max(tagstab.cli.main(argv) for argv in {runs!r}))"
    )
    outputs = []
    for block in ("", "import sys; sys.modules['scipy'] = None; "):
        result = subprocess.run(
            [sys.executable, "-c", block + script], env=source_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, ""), result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("resource_id,") == 3


# Every command, powerlaw in both modes, a usage error, a data error and
# three argv that main hands to the full parser.
# LOG, BG, BAD and OUT stand for the files of the `import_case_files` fixture.
IMPORT_CASES = {
    "validate": ["validate", "LOG"],
    "proportions": ["proportions", "LOG"],
    "rbo": ["rbo", "LOG"],
    "kl": ["kl", "LOG"],
    "kl-baseline": ["kl-baseline", "--vocab", "50", "--length", "100", "--trials", "2"],
    "powerlaw --per-resource": ["powerlaw", "LOG", "--per-resource"],
    "powerlaw --pooled": ["powerlaw", "LOG", "--pooled"],
    "ccdf": ["ccdf", "LOG"],
    "surface": ["surface", "LOG", "--t-grid", "20:80:20", "--k-grid", "0:1:0.5"],
    "compare": ["compare", "LOG", "LOG", "--t-grid", "20:80:20", "--k-grid", "0:1:0.5"],
    "simulate --background": ["simulate", "--model", "background", "--background", "BG",
                              "--length", "20", "--out", "OUT"],
    "simulate --vocab": ["simulate", "--model", "mixture", "--imitation-rate", "0.5",
                         "--vocab", "50", "--length", "20", "--out", "OUT"],
    "usage error": ["rbo", "LOG", "--p", "1.5"],
    "data error": ["validate", "BAD"],
    "--help": ["--help"],
    "unknown command": ["frobnicate", "LOG"],
    "leftover argument": ["validate", "LOG", "extra"],
}
IMPORT_CASE_EXITS = {"usage error": 1, "data error": 2, "unknown command": 1,
                     "leftover argument": 1}


@pytest.fixture(scope="module")
def import_case_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    files = {name: str(root / f"{name.lower()}.tsv") for name in ("LOG", "BG", "BAD", "OUT")}
    assert main(["simulate", "--model", "mixture", "--imitation-rate", "0.7", "--vocab", "200",
                 "--length", "80", "--streams", "3", "--seed", "5", "--out", files["LOG"]]) == 0
    Path(files["BG"]).write_text("\ufeffcats\t3\ndogs\t1\n", encoding="utf-8")
    Path(files["BAD"]).write_bytes(b"\xef\xbb\xbfresource_id\ttag\tseq\nr1\t\xff\t1\n")
    return files


@pytest.mark.parametrize("case", IMPORT_CASES)
def test_command_imports_no_module(import_case_files, case):
    # The bench forks each command from a process that has imported
    # tagstab.cli, so a module a command imports is paid on every run.
    argv = [import_case_files.get(arg, arg) for arg in IMPORT_CASES[case]]
    probe = (
        "import json, sys, tagstab.cli; "
        "before = set(sys.modules); "
        "code = tagstab.cli.main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argv)], env=source_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, imported = json.loads(result.stderr.splitlines()[-1])
    assert code == IMPORT_CASE_EXITS.get(case, 0), result.stderr
    assert imported == []
