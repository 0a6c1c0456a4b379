"""Tests for the Monte Carlo harness: sweeps, singleton experiment, CSV."""

import os

import numpy as np
import pytest

from csa_mimo.frame import SystemConfig
from csa_mimo.montecarlo import (
    _BLAS_THREAD_VARS,
    _spawn_pool,
    AnalysisRecord,
    PlrRecord,
    SingletonRecord,
    SweepSpec,
    emit_csv,
    frame_stream,
    read_csv_records,
    run_plr_sweep,
    run_singleton_experiment,
    run_singleton_sweep,
    tabulate_singleton_failure,
    wilson_interval,
)


def tiny_config(**overrides) -> SystemConfig:
    base = dict(k_a=10, m=16, n_slots=8, n_p=8, n_d=16, r=2, noise_var=0.1, t=2)
    base.update(overrides)
    return SystemConfig(**base)


class TestWilsonInterval:
    def test_no_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        for events, trials in ((0, 50), (3, 50), (25, 50), (50, 50)):
            lo, hi = wilson_interval(events, trials)
            assert lo <= events / trials <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_zero_events_upper_bound_scales_with_trials(self):
        _, hi_small = wilson_interval(0, 100)
        _, hi_large = wilson_interval(0, 10_000)
        assert hi_large < hi_small
        assert hi_large == pytest.approx(3.84 / 10_000, rel=0.05)


class TestSweepSpec:
    def test_infeasible_config_rejected_before_simulation(self):
        with pytest.raises(ValueError):
            SweepSpec(
                config=tiny_config(r=8, n_slots=8),
                ka_values=[5],
                algorithms=["logical"],
                min_frames=0,
            )
        with pytest.raises(ValueError):
            SweepSpec(config=tiny_config(), ka_values=[], algorithms=["snb"])
        with pytest.raises(ValueError):
            SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb"],
                      target_loss_events=0)

    def test_unknown_decode_criterion_rejected(self):
        with pytest.raises(ValueError, match="decode criterion"):
            SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb"],
                      decode_criterion="nonsense")

    def test_frame_cap_below_stream_id_width(self):
        # frame indices share the stream id with k_a: index 2**32 would
        # alias frame 0 of the next load
        assert frame_stream(0, 1, 0) == frame_stream(0, 0, 2**32)
        SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb"],
                  max_frames=2**32 - 1)
        with pytest.raises(ValueError, match="max_frames"):
            SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb"],
                      max_frames=2**32)

    def test_algorithms_coerced(self):
        spec = SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb", "pab"])
        assert all(hasattr(a, "value") for a in spec.algorithms)


class TestRunPlrSweep:
    def test_lone_user_never_lost_under_peeling(self):
        spec = SweepSpec(
            config=tiny_config(), ka_values=[1], algorithms=["logical"],
            min_frames=20, max_frames=20, base_seed=7,
        )
        (rec,) = run_plr_sweep(spec)
        assert rec.packets_lost == 0
        assert rec.plr == 0.0
        assert rec.frames_run == 20

    def test_loss_accounting(self):
        spec = SweepSpec(
            config=tiny_config(), ka_values=[6, 10], algorithms=["snb", "logical"],
            min_frames=5, max_frames=5, base_seed=1,
        )
        records = run_plr_sweep(spec)
        assert len(records) == 4
        for rec in records:
            assert rec.packets_sent == rec.frames_run * rec.ka
            assert rec.plr == rec.packets_lost / rec.packets_sent
            assert rec.ci_low <= rec.plr <= rec.ci_high
            assert rec.mac == "baseline"

    def test_stopping_rule_fires_after_min_frames(self):
        # overloaded system loses packets every frame; with a target of one
        # loss event the point stops exactly at min_frames
        cfg = tiny_config(k_a=40, n_p=2, noise_var=0.5)
        spec = SweepSpec(
            config=cfg, ka_values=[40], algorithms=["snb"],
            min_frames=3, max_frames=50, target_loss_events=1, base_seed=2,
        )
        (rec,) = run_plr_sweep(spec)
        assert rec.frames_run == 3

    def test_worker_count_does_not_change_records(self):
        spec = SweepSpec(
            config=tiny_config(), ka_values=[8], algorithms=["pab", "logical"],
            min_frames=6, max_frames=12, target_loss_events=3, base_seed=3,
        )
        serial = run_plr_sweep(spec, workers=1, measure_time=False)
        parallel = run_plr_sweep(spec, workers=2, measure_time=False)
        assert serial == parallel

    def test_csv_byte_identical_across_worker_counts(self, tmp_path):
        spec = SweepSpec(
            config=tiny_config(), ka_values=[8, 10], algorithms=["snb"],
            min_frames=4, max_frames=8, target_loss_events=2, base_seed=4,
        )
        paths = []
        for workers in (1, 2):
            records = run_plr_sweep(spec, workers=workers, measure_time=False)
            path = tmp_path / f"out_{workers}.csv"
            emit_csv(records, path, record_type=PlrRecord)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_worker_count_below_one_rejected(self):
        spec = SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["logical"])
        with pytest.raises(ValueError, match="workers"):
            run_plr_sweep(spec, workers=0)

    def test_frames_paired_across_algorithms(self):
        assert frame_stream(5, 100, 7) == frame_stream(5, 100, 7)
        assert frame_stream(5, 100, 7) != frame_stream(5, 100, 8)
        assert frame_stream(5, 101, 7) != frame_stream(5, 100, 7)


class TestSingletonExperiment:
    def test_lone_user_noiseless_never_fails(self):
        rec = run_singleton_experiment(
            m=32, n_d=32, t=1, a_pilot=1, a_total=1, presub_fraction=0.0,
            trials=200, algorithm="snb", n_p=8, noise_var=0.0, seed=0,
        )
        assert rec.failures == 0

    def test_snb_exactly_independent_of_presubtraction(self):
        # subtracting out-of-pilot users only edits their own pilots'
        # statistics, so the probed attempt is unchanged
        kwargs = dict(m=64, n_d=128, t=5, a_pilot=2, a_total=12, trials=600,
                      algorithm="snb", n_p=16, noise_var=0.1, seed=3)
        rec0 = run_singleton_experiment(presub_fraction=0.0, **kwargs)
        rec8 = run_singleton_experiment(presub_fraction=0.8, **kwargs)
        assert rec0.failures == rec8.failures

    def test_pab_improves_with_presubtraction(self):
        kwargs = dict(m=64, n_d=128, t=5, a_pilot=2, a_total=12, trials=800,
                      algorithm="pab", n_p=16, noise_var=0.1, seed=3)
        rec0 = run_singleton_experiment(presub_fraction=0.0, **kwargs)
        rec8 = run_singleton_experiment(presub_fraction=0.8, **kwargs)
        assert rec8.ci_high < rec0.ci_low  # clear separation, not luck

    def test_pab_beats_snb_after_one_subtraction(self):
        kwargs = dict(m=64, n_d=128, t=5, a_pilot=2, a_total=12, trials=800,
                      presub_fraction=0.0, n_p=16, noise_var=0.1, seed=3)
        pab = run_singleton_experiment(algorithm="pab", **kwargs)
        snb = run_singleton_experiment(algorithm="snb", **kwargs)
        assert pab.ci_high < snb.ci_low

    def test_invalid_parameters_rejected(self):
        kwargs = dict(m=16, n_d=16, t=1, a_pilot=1, a_total=2, presub_fraction=0.0,
                      algorithm="snb")
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials"):
                run_singleton_experiment(trials=trials, **kwargs)
        with pytest.raises(ValueError, match="decode criterion"):
            run_singleton_experiment(trials=1, decode_criterion="nonsense", **kwargs)
        with pytest.raises(ValueError):
            run_singleton_experiment(m=16, n_d=16, t=1, a_pilot=2, a_total=1,
                                     presub_fraction=0.0, trials=1, algorithm="pab")
        with pytest.raises(ValueError):
            run_singleton_experiment(m=16, n_d=16, t=1, a_pilot=1, a_total=2,
                                     presub_fraction=1.5, trials=1, algorithm="pab")
        with pytest.raises(ValueError):
            run_singleton_experiment(m=16, n_d=16, t=1, a_pilot=1, a_total=2,
                                     presub_fraction=0.0, trials=1, algorithm="prce")


    def test_sweep_worker_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[2, 4],
                                presub_fraction=0.0, trials=1, algorithm="snb", workers=0)


class TestWorkerPool:
    def test_workers_run_pinned_blas_and_parent_env_comes_back(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        pool = _spawn_pool(2)
        try:
            assert dict(os.environ) == before
            seen = pool.map(os.getenv, _BLAS_THREAD_VARS * 2, chunksize=1)
        finally:
            pool.close()
            pool.join()
        assert seen == ["1"] * (2 * len(_BLAS_THREAD_VARS))


class TestCsvEmission:
    def test_round_trip_exact(self, tmp_path):
        records = [
            PlrRecord("snb", "baseline", 800, 10, 8000, 97, 97 / 8000,
                      0.009939, 0.0147, 12.5, 17.25, 3.25),
            PlrRecord("pab", "baseline", 1300, 7, 9100, 3, 3 / 9100,
                      0.000107, 0.000963, 1001.0 / 7, 0.0, 0.5),
        ]
        path = tmp_path / "plr.csv"
        emit_csv(records, path, record_type=PlrRecord)
        back = read_csv_records(path, PlrRecord)
        assert back == records

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, record_type=SingletonRecord)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",")[0] == "algorithm"

    def test_empty_without_type_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")

    def test_column_count_constant(self, tmp_path):
        curve = tabulate_singleton_failure(64, 128, 5, 1, range(2, 30, 5))
        path = tmp_path / "analysis.csv"
        emit_csv(curve, path, record_type=AnalysisRecord)
        lines = path.read_text().splitlines()
        widths = {len(line.split(",")) for line in lines}
        assert widths == {len(AnalysisRecord.__dataclass_fields__)}

    def test_unwritable_path_raises_with_path_in_message(self):
        records = [AnalysisRecord(2, 1, 64, 128, 5, 0.0, 0.0)]
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(records, "no/such/dir/out.csv")

    def test_analysis_tabulation_matches_closed_form(self):
        from csa_mimo.analysis import (
            InterferenceScenario,
            singleton_failure_probability,
        )

        curve = tabulate_singleton_failure(64, 128, 5, 2, [4, 8, 16])
        for rec in curve:
            scen = InterferenceScenario(m=64, a_total=rec.a_total, a_pilot=2,
                                        n_d=128, t=5)
            assert rec.p_fail == singleton_failure_probability(scen)
