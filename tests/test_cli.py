import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        assert open(a, "rb").read() == open(b, "rb").read()

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
        body = open(out, encoding="utf-8").read()
        assert "cats" in body or "dogs" in body


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


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes about half a second to import and no command needs it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, tagstab.cli; "
        "print(sorted(m for m in ('numpy', 'scipy.special', 'scipy.optimize', 'scipy.stats') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['numpy', 'scipy.optimize', 'scipy.special']"
