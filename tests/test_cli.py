"""Tests for the command-line interface and its config-file handling."""

import pytest

from csa_mimo.cli import main, parse_config_file
from csa_mimo.montecarlo import AnalysisRecord, PlrRecord, SingletonRecord, read_csv_records


def run_cli(args):
    return main(args)


class TestConfigFile:
    def test_flat_key_value_parsing(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            """
            # reference scenario
            m = 64
            n_p = 16
            n_d = 32
            noise_var = 0.05
            ka_values = 10, 20
            algorithms = snb, logical
            base_seed = 9
            """
        )
        opts = parse_config_file(str(path))
        assert opts["m"] == 64
        assert opts["noise_var"] == 0.05
        assert opts["ka_values"] == [10, 20]
        assert opts["algorithms"] == ["snb", "logical"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("antennas = 8\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m 8\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(str(path))


class TestPlrExperiment:
    def test_sweep_to_csv(self, tmp_path):
        out = tmp_path / "plr.csv"
        code = run_cli([
            "--experiment", "plr", "--algorithm", "logical",
            "--ka", "5", "--frames", "4", "--min-frames", "4",
            "--m", "8", "--n-slots", "6", "--n-pilots", "8", "--n-d", "8",
            "--r", "2", "--t", "1", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        (rec,) = read_csv_records(out, PlrRecord)
        assert rec.algorithm == "logical"
        assert rec.ka == 5
        assert rec.frames_run == 4
        assert rec.packets_sent == 20

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("m = 8\nn_p = 8\nn_d = 8\nr = 2\nt = 1\nn_slots = 6\n"
                       "ka_values = 3\nalgorithms = logical\nmax_frames = 2\n"
                       "min_frames = 2\n")
        out = tmp_path / "plr.csv"
        code = run_cli(["--config", str(cfg), "--ka", "7", "--out", str(out)])
        assert code == 0
        (rec,) = read_csv_records(out, PlrRecord)
        assert rec.ka == 7

    def test_ka_range_inclusive(self, tmp_path):
        out = tmp_path / "plr.csv"
        code = run_cli([
            "--algorithm", "logical", "--ka-range", "2:6:2",
            "--frames", "2", "--min-frames", "2", "--m", "8", "--n-slots", "6",
            "--n-pilots", "8", "--n-d", "8", "--r", "2", "--t", "1",
            "--out", str(out),
        ])
        assert code == 0
        records = read_csv_records(out, PlrRecord)
        assert [r.ka for r in records] == [2, 4, 6]

    def test_slot_count_derived_from_latency_when_unset(self, capsys):
        code = run_cli([
            "--algorithm", "logical", "--ka", "1", "--frames", "1",
            "--latency-ms", "50", "--symbol-rate", "1e6",
            "--n-pilots", "64", "--n-d", "256", "--no-timing",
        ])
        assert code == 0
        # 78 slots derived; the run succeeds with r=3 default
        out = capsys.readouterr().out
        assert out.startswith("algorithm,mac,ka,")


class TestSingletonExperiment:
    def test_singleton_csv(self, tmp_path):
        out = tmp_path / "single.csv"
        code = run_cli([
            "--experiment", "singleton", "--algorithm", "snb",
            "--a-total", "6", "--a-pilot", "1", "--trials", "50",
            "--m", "16", "--n-pilots", "8", "--n-d", "16", "--t", "1",
            "--out", str(out),
        ])
        assert code == 0
        (rec,) = read_csv_records(out, SingletonRecord)
        assert rec.trials == 50
        assert rec.a_total == 6

    def test_requires_load(self):
        assert run_cli(["--experiment", "singleton", "--algorithm", "snb"]) == 2


class TestAnalysisExperiment:
    def test_analysis_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli([
            "--experiment", "analysis", "--a-range", "2:20:3",
            "--a-pilot", "2", "--m", "64", "--n-d", "128", "--t", "5",
            "--out", str(out),
        ])
        assert code == 0
        records = read_csv_records(out, AnalysisRecord)
        assert [r.a_total for r in records] == [2, 5, 8, 11, 14, 17, 20]
        assert all(0.0 <= r.p_fail <= 1.0 for r in records)


class TestErrorPaths:
    def test_infeasible_config_exit_code(self, tmp_path):
        code = run_cli([
            "--algorithm", "logical", "--ka", "5", "--frames", "1",
            "--m", "8", "--n-slots", "2", "--n-pilots", "8", "--n-d", "8",
            "--r", "3", "--t", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_choice_tail_shuffle_regime_exit_code(self, tmp_path, capsys):
        code = run_cli([
            "--algorithm", "logical", "--ka", "5", "--frames", "1",
            "--n-slots", "20000", "--r", "401", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "at most n_slots // 50 = 400" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self):
        code = run_cli([
            "--algorithm", "logical", "--ka", "2", "--frames", "1",
            "--m", "8", "--n-slots", "6", "--n-pilots", "8", "--n-d", "8",
            "--r", "2", "--t", "1", "--out", "/no/such/dir/out.csv",
        ])
        assert code == 2

    def test_bad_range_exit_code(self):
        assert run_cli(["--algorithm", "logical", "--ka-range", "5:1"]) == 2

    @pytest.mark.parametrize("experiment", ["analysis", "singleton"])
    def test_empty_load_grid_exit_code(self, experiment, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli([
            "--experiment", experiment, "--algorithm", "snb", "--a-range", "5:1:1",
            "--trials", "10", "--m", "8", "--n-pilots", "8", "--n-d", "8", "--t", "1",
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment, flags", [
        ("plr", ["--ka", "50", "--ka-range", "10:20:10"]),
        ("analysis", ["--a-total", "10", "--a-range", "20:30:10"]),
        ("analysis", ["--ka", "5", "--a-range", "10:20:10"]),
        ("singleton", ["--ka-range", "5:10:5", "--a-total", "10"]),
        ("plr", ["--ka", "5", "--a-total", "3"]),
        ("plr", ["--ka", "5", "--a-range", "2:4:2"]),
        ("plr", ["--ka", "5", "--latency-ms", "1"]),
        ("plr", ["--ka", "5", "--symbol-rate", "1e6"]),
    ], ids=["ka", "a_total", "ka_outside_plr", "ka_range_outside_plr", "a_total_under_plr",
            "a_range_under_plr", "n_slots_with_latency_ms", "n_slots_with_symbol_rate"])
    def test_contradictory_load_flags_exit_code(self, experiment, flags, tmp_path):
        out = tmp_path / "load.csv"
        code = run_cli([
            "--experiment", experiment, "--algorithm", "logical", "--frames", "1",
            "--m", "8", "--n-slots", "6", "--n-pilots", "8", "--n-d", "8", "--r", "2",
            "--t", "1", "--out", str(out),
        ] + flags)
        assert code == 2
        assert not out.exists()

    def test_out_of_range_counts_exit_code(self):
        common = ["--experiment", "singleton", "--algorithm", "snb", "--a-range", "2:4:2",
                  "--m", "8", "--n-pilots", "8", "--n-d", "8", "--t", "1"]
        assert run_cli(common + ["--trials", "-5"]) == 2
        assert run_cli(common + ["--trials", "10", "--workers", "0"]) == 2
        assert run_cli(common + ["--trials", "10", "--seed", "-1"]) == 2

    @pytest.mark.parametrize("file_keys, flags", [
        ("latency_ms = 1\n", ["--n-slots", "10"]),
        ("n_slots = 10\nsymbol_rate = 1e6\n", []),
    ], ids=["latency_in_file", "both_in_file"])
    def test_slot_count_with_latency_budget_from_config_exit_code(
        self, file_keys, flags, tmp_path
    ):
        cfg = tmp_path / "slots.cfg"
        cfg.write_text(file_keys)
        out = tmp_path / "slots.csv"
        code = run_cli([
            "--config", str(cfg), "--algorithm", "logical", "--ka", "5", "--frames", "1",
            "--out", str(out),
        ] + flags)
        assert code == 2
        assert not out.exists()

    def test_bad_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli(["--config", str(cfg)]) == 2
