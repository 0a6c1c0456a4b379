"""Tests for the command-line interface and its config-file handling."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from csa_mimo.cli import (
    _CONFIG_KEYS,
    _EXPERIMENT_FLAGS,
    _system_config,
    build_parser,
    main,
    parse_config_file,
)
from csa_mimo.frame import SystemConfig
from csa_mimo.montecarlo import AnalysisRecord, PlrRecord, SingletonRecord
from csv_records import read_csv_records


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    return main(args)


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves the tests' oracles only
    code = ("import sys, csa_mimo, csa_mimo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("text, message", [
        ("# antennas\nm = abc\n", r"bad\.cfg:2: config key 'm': invalid literal for int"),
        ("m = 8\nn_d = 8\nm = 16\n", r"bad\.cfg:3: repeated config key 'm'"),
        ("algorithms = snb,\n", r"bad\.cfg:1: config key 'algorithms': empty entry"),
        ("ka_values = 3,,5\n", r"bad\.cfg:1: config key 'ka_values': empty entry"),
    ], ids=["bad_value", "repeated_key", "empty_algorithm", "empty_load"])
    def test_error_names_file_line_and_key(self, text, message, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            parse_config_file(str(path))

    def test_algorithm_flag_and_key_share_one_list_rule(self, tmp_path, capsys):
        # entries are stripped, and an empty entry is an error in both places
        cfg = tmp_path / "algos.cfg"
        cfg.write_text("algorithms = snb,\n")
        common = ["--ka", "5", "--frames", "1", "--m", "8", "--n-slots", "6",
                  "--n-pilots", "8", "--n-d", "8", "--r", "2", "--t", "1"]
        assert run_cli(["--config", str(cfg)] + common) == 2
        assert run_cli(["--algorithm", "snb,"] + common) == 2
        assert "empty entry" in capsys.readouterr().err
        out = tmp_path / "plr.csv"
        assert run_cli(["--algorithm", " logical , snb"] + common + ["--out", str(out)]) == 0
        assert [r.algorithm for r in read_csv_records(out, PlrRecord)] == ["logical", "snb"]

    def test_config_keys_pinned(self):
        lists = {"ka_values", "algorithms"}
        assert {k: v for k, v in _CONFIG_KEYS.items() if k not in lists} == {
            "k_a": int, "m": int, "n_slots": int, "n_p": int, "n_d": int, "r": int,
            "noise_var": float, "channel_var": float, "t": int,
            "latency_ms": float, "symbol_rate": float,
            "min_frames": int, "max_frames": int, "target_loss_events": int,
            "base_seed": int, "decode_criterion": str,
        }
        assert lists <= set(_CONFIG_KEYS)
        assert _CONFIG_KEYS["ka_values"](" 3, 5") == [3, 5]
        assert _CONFIG_KEYS["algorithms"](" snb, pab") == ["snb", "pab"]

    def test_option_strings_and_config_key_flags_pinned(self):
        actions = build_parser()._actions
        assert {s for a in actions for s in a.option_strings} == {
            "-h", "--help", "--experiment", "--config", "--algorithm", "--ka", "--ka-range",
            "--frames", "--min-frames", "--target-losses", "--seed", "--m", "--n-slots",
            "--n-pilots", "--n-d", "--r", "--t", "--noise-var", "--latency-ms",
            "--symbol-rate", "--decode-criterion", "--out", "--workers", "--no-timing",
            "--a-total", "--a-range", "--a-pilot", "--presub-fraction", "--trials",
        }
        # every flag that sets a config key stores to that key
        assert {a.option_strings[0]: a.dest for a in actions if a.dest in _CONFIG_KEYS} == {
            "--algorithm": "algorithms", "--frames": "max_frames", "--min-frames": "min_frames",
            "--target-losses": "target_loss_events", "--seed": "base_seed", "--m": "m",
            "--n-slots": "n_slots", "--n-pilots": "n_p", "--n-d": "n_d", "--r": "r",
            "--t": "t", "--noise-var": "noise_var", "--latency-ms": "latency_ms",
            "--symbol-rate": "symbol_rate", "--decode-criterion": "decode_criterion",
        }

    def test_system_flags_each_experiment_reads_pinned(self):
        # the closed form reads no pilots, noise or frame layout, and one
        # singleton slot no frame layout; the plr sweep reads every system flag
        system = {"k_a", "m", "n_slots", "n_p", "n_d", "r", "noise_var", "channel_var", "t",
                  "latency_ms", "symbol_rate"}
        assert {name: flags & system for name, flags in _EXPERIMENT_FLAGS.items()} == {
            "plr": system,
            "singleton": {"m", "n_p", "n_d", "t", "noise_var"},
            "analysis": {"m", "n_d", "t"},
        }

    @pytest.mark.parametrize("budget, expected", [
        ("n_slots = 40\n", dict(n_slots=40)),
        # 20 ms at 2 Msps is 40000 symbols, 416 slots of 2 * (16 + 32)
        ("latency_ms = 20\nsymbol_rate = 2e6\n",
         dict(n_slots=416, latency_ms=20.0, symbol_rate=2e6)),
    ], ids=["n_slots", "latency_budget"])
    def test_every_system_field_round_trips(self, budget, expected, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text("k_a = 7\nm = 16\nn_p = 16\nn_d = 32\nr = 4\nnoise_var = 0.25\n"
                        "channel_var = 2.5\nt = 3\n" + budget)
        config = _system_config(parse_config_file(str(path)))
        assert config == SystemConfig(k_a=7, m=16, n_p=16, n_d=32, r=4, noise_var=0.25,
                                      channel_var=2.5, t=3, **expected)

    @pytest.mark.parametrize("experiment, flags", [
        ("plr", ["--algorithm", "logical", "--ka", "5", "--frames", "1"]),
        ("singleton", ["--algorithm", "snb", "--a-total", "6", "--trials", "10"]),
        ("analysis", ["--a-total", "6"]),
    ])
    def test_shared_file_and_output_flags_accepted_by_every_experiment(
        self, experiment, flags, tmp_path
    ):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("m = 8\nn_slots = 6\nn_p = 8\nn_d = 8\nr = 2\nt = 1\n"
                       "channel_var = 1\nka_values = 5\nalgorithms = snb\nmin_frames = 1\n"
                       "max_frames = 1\ntarget_loss_events = 5\nbase_seed = 4\n"
                       "decode_criterion = symbol\n")
        out = tmp_path / "out.csv"
        code = run_cli(["--experiment", experiment, "--config", str(cfg), "--no-timing",
                        "--out", str(out)] + flags)
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("keys", [
        "latency_ms = 0.1\n", "r = 100\n", "n_slots = 10\nlatency_ms = 1\n",
    ], ids=["budget_fits_no_slot", "more_replicas_than_slots", "n_slots_with_latency_ms"])
    def test_frame_keys_ignored_by_one_slot_experiments(self, keys, tmp_path, capsys):
        # plr reads these keys and rejects each file; a one-slot experiment reads none of them
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(keys)
        for flags in (["--experiment", "analysis", "--a-total", "6"],
                      ["--experiment", "singleton", "--a-total", "6", "--trials", "20"]):
            assert run_cli(flags + ["--no-timing"]) == 0
            alone = capsys.readouterr().out
            assert run_cli(flags + ["--no-timing", "--config", str(cfg)]) == 0
            assert capsys.readouterr().out == alone
        assert run_cli(["--config", str(cfg), "--algorithm", "logical", "--ka", "5",
                        "--frames", "1", "--no-timing"]) == 2


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

    def test_replicas_checked_against_the_latency_budgets_slots(self, capsys):
        # 1000 ms fits 31250 slots of 16 symbols, so 80 replicas fit
        code = run_cli([
            "--algorithm", "logical", "--ka", "5", "--frames", "1", "--r", "80",
            "--latency-ms", "1000", "--m", "8", "--n-pilots", "8", "--n-d", "8",
            "--t", "1", "--no-timing",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("algorithm,mac,ka,")


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

    def test_noise_var_flag_read(self, tmp_path):
        runs = {}
        for noise_var in ("0.1", "50"):
            out = tmp_path / f"noise{noise_var}.csv"
            assert run_cli(["--experiment", "singleton", "--algorithm", "snb", "--a-total", "6",
                            "--trials", "50", "--m", "16", "--n-pilots", "8", "--n-d", "16",
                            "--t", "1", "--noise-var", noise_var, "--out", str(out)]) == 0
            (runs[noise_var],) = read_csv_records(out, SingletonRecord)
        assert runs["50"].failures > runs["0.1"].failures

    def test_requires_load(self):
        assert run_cli(["--experiment", "singleton", "--algorithm", "snb"]) == 2

    def test_any_pilot_count_accepted(self, capsys):
        # one slot reads n_p only through the pilot estimate's noise variance noise_var / n_p
        command = ["--experiment", "singleton", "--a-total", "6", "--trials", "20", "--m", "16",
                   "--n-d", "16", "--t", "1", "--no-timing", "--n-pilots"]
        assert run_cli(command + ["3"]) == 0
        assert capsys.readouterr().out.startswith("algorithm,a_total,")
        assert run_cli(command + ["0"]) == 2
        assert "n_p must be >= 1, got 0" in capsys.readouterr().err


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
        ("plr", ["--ka", "5", "--trials", "5"]),
        ("plr", ["--ka", "5", "--a-pilot", "2"]),
        ("plr", ["--ka", "5", "--presub-fraction", "0.5"]),
    ], ids=["ka", "a_total", "ka_outside_plr", "ka_range_outside_plr", "a_total_under_plr",
            "a_range_under_plr", "n_slots_with_latency_ms", "n_slots_with_symbol_rate",
            "trials_under_plr", "a_pilot_under_plr", "presub_fraction_under_plr"])
    def test_contradictory_load_flags_exit_code(self, experiment, flags, tmp_path):
        out = tmp_path / "load.csv"
        code = run_cli([
            "--experiment", experiment, "--algorithm", "logical", "--frames", "1",
            "--m", "8", "--n-slots", "6", "--n-pilots", "8", "--n-d", "8", "--r", "2",
            "--t", "1", "--out", str(out),
        ] + flags)
        assert code == 2
        assert not out.exists()

    # the base command of each experiment runs; each case adds one fault
    @pytest.mark.parametrize("experiment, flags, message", [
        ("analysis", ["--algorithm", "prce"], "--algorithm does not apply to the analysis"),
        ("analysis", ["--seed", "3"], "--seed does not apply to the analysis"),
        ("analysis", ["--frames", "9"], "--frames does not apply to the analysis"),
        ("analysis", ["--min-frames", "1"], "--min-frames does not apply to the analysis"),
        ("analysis", ["--target-losses", "5"], "--target-losses does not apply to the analysis"),
        ("analysis", ["--decode-criterion", "bit"], "--decode-criterion does not apply"),
        ("analysis", ["--workers", "1"], "--workers does not apply to the analysis"),
        ("analysis", ["--trials", "5"], "--trials does not apply to the analysis"),
        ("analysis", ["--presub-fraction", "0.5"], "--presub-fraction does not apply"),
        ("analysis", ["--a-range", "20:30:10"], "give --a-total or --a-range, not both"),
        ("singleton", ["--frames", "9"], "--frames does not apply to the singleton"),
        ("singleton", ["--min-frames", "1"], "--min-frames does not apply to the singleton"),
        ("singleton", ["--target-losses", "5"], "--target-losses does not apply to the singleton"),
        ("singleton", ["--ka", "5"], "--ka does not apply to the singleton"),
        ("singleton", ["--a-range", "20:30:10"], "give --a-total or --a-range, not both"),
        ("analysis", ["--noise-var", "5"], "--noise-var does not apply to the analysis"),
        ("analysis", ["--n-pilots", "8"], "--n-pilots does not apply to the analysis"),
        ("analysis", ["--r", "2"], "--r does not apply to the analysis"),
        ("analysis", ["--n-slots", "9"], "--n-slots does not apply to the analysis"),
        ("analysis", ["--latency-ms", "20"], "--latency-ms does not apply to the analysis"),
        ("analysis", ["--symbol-rate", "2e6"], "--symbol-rate does not apply to the analysis"),
        ("singleton", ["--r", "7"], "--r does not apply to the singleton"),
        ("singleton", ["--n-slots", "9"], "--n-slots does not apply to the singleton"),
        ("singleton", ["--latency-ms", "20"], "--latency-ms does not apply to the singleton"),
        ("singleton", ["--symbol-rate", "2e6"], "--symbol-rate does not apply to the singleton"),
        ("plr", ["--noise-var", "nan"], "noise_var must be finite, got nan"),
        ("plr", ["--noise-var", "inf"], "noise_var must be finite, got inf"),
        ("plr", ["--latency-ms", "inf"], "latency_ms must be finite, got inf"),
        ("plr", ["--symbol-rate", "nan"], "symbol_rate must be finite, got nan"),
        ("singleton", ["--noise-var", "nan"], "noise_var must be finite, got nan"),
        ("plr", ["--algorithm", "pab,pab"], "algorithms lists pab more than once"),
        ("plr", ["--latency-ms", "0.01"], "latency budget of 0.01 ms at 1e+06 symbols/s fits no"),
        # a negative value may follow its flag after "=" or, below, after a space
        ("plr", ["--latency-ms=-50", "--symbol-rate=-1e6"],
         "latency_ms must be positive, got -50.0"),
        # argparse's own pattern read a value in exponent form as a flag
        ("plr", ["--symbol-rate", "-1e6"], "symbol_rate must be positive, got -1000000.0"),
        ("plr", ["--noise-var", "-1e-3"], "noise_var must be nonnegative, got -0.001"),
        ("singleton", ["--noise-var", "-1E-3"], "noise_var must be nonnegative, got -0.001"),
        ("plr", ["--latency-ms", "-.5e+1"], "latency_ms must be positive, got -5.0"),
    ])
    def test_fault_named_in_error(self, experiment, flags, message, tmp_path, capsys):
        base = {"analysis": ["--a-total", "6"],
                "singleton": ["--a-total", "6", "--algorithm", "snb", "--trials", "10",
                              "--n-pilots", "8"],
                "plr": ["--algorithm", "snb,pab", "--ka", "5", "--frames", "2",
                        "--n-pilots", "8", "--r", "2", "--latency-ms", "1"]}
        # a flag given twice takes its last value, so a case may override the base
        command = ["--experiment", experiment, "--m", "8",
                   "--n-d", "8", "--t", "1", "--no-timing"] + base[experiment]
        assert run_cli(command + ["--out", str(tmp_path / "base.csv")]) == 0
        out = tmp_path / "fault.csv"
        assert run_cli(command + flags + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("channel_var = nan", "channel_var must be finite, got nan"),
        ("noise_var = inf", "noise_var must be finite, got inf"),
        ("latency_ms = nan", "latency_ms must be finite, got nan"),
        ("symbol_rate = inf", "symbol_rate must be finite, got inf"),
    ])
    def test_non_finite_config_value_named_in_error(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "plr.csv"
        code = run_cli(["--config", str(cfg), "--algorithm", "pab", "--ka", "5",
                        "--frames", "2", "--m", "8", "--n-pilots", "8", "--n-d", "8",
                        "--r", "2", "--t", "1", "--no-timing", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_load_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text("ka_values = 5, 5\n")
        out = tmp_path / "plr.csv"
        code = run_cli(["--config", str(cfg), "--algorithm", "pab", "--frames", "2",
                        "--m", "8", "--n-slots", "6", "--n-pilots", "8", "--n-d", "8",
                        "--r", "2", "--t", "1", "--no-timing", "--out", str(out)])
        assert code == 2
        assert "ka_values lists 5 more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_analysis_empty_load_grid_exit_code(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert run_cli(["--experiment", "analysis", "--a-range", "5:1:1", "--out", str(out)]) == 2
        assert "start <= stop" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--experiment", "analysis", "--a-range"],
                                       ["--algorithm", "logical", "--ka-range"]])
    @pytest.mark.parametrize("grid, message", [
        ("2:x:1", "expects START:STOP:STEP integers"),
        ("2:6", "expects START:STOP:STEP integers"),
        ("6:2:1", "needs start <= stop and a positive step"),
    ])
    def test_bad_grid_error_names_flag_and_grid(self, flags, grid, message, capsys):
        assert run_cli([*flags, grid]) == 2
        assert f"{flags[-1]} {message}, got {grid!r}" in capsys.readouterr().err

    def test_singleton_rejects_channel_variance_other_than_one(self, tmp_path, capsys):
        # the singleton experiment draws unit-variance channels
        cfg = tmp_path / "var.cfg"
        cfg.write_text("channel_var = 4\n")
        code = run_cli(["--experiment", "singleton", "--config", str(cfg), "--a-total", "6",
                        "--trials", "10", "--m", "8", "--n-pilots", "8", "--n-d", "8",
                        "--t", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unit channel variance, got channel_var=4.0" in capsys.readouterr().err

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
