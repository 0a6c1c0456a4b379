"""Tests for the Monte Carlo harness: sweeps, singleton experiment, CSV."""

import dataclasses
import itertools
import multiprocessing.dummy
import os
import threading

import numpy as np
import pytest
from scipy import integrate, stats

from csa_mimo import montecarlo, signals
from csa_mimo.analysis import InterferenceScenario, symbol_error_probability
from csa_mimo.cancellation import RELATIVE_GAIN_FLOOR, Algorithm, count_errors, run_receiver
from csa_mimo.frame import SystemConfig, make_frame
from csa_mimo.montecarlo import (
    _BLAS_THREAD_VARS,
    _spawn_pool,
    AnalysisRecord,
    PlrRecord,
    SingletonRecord,
    SweepSpec,
    emit_csv,
    frame_stream,
    run_plr_sweep,
    run_singleton_experiment,
    run_singleton_sweep,
    tabulate_singleton_failure,
    wilson_interval,
)
from csa_mimo.signals import RandomStream, complex_normal, qpsk_hard_demodulate, qpsk_modulate
from csv_records import read_csv_records


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
        # alias frame 0 of the next load, so it is rejected
        with pytest.raises(ValueError, match="frame index must be in"):
            frame_stream(0, 0, 2**32)
        SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb"],
                  max_frames=2**32 - 1)
        with pytest.raises(ValueError, match="max_frames"):
            SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb"],
                      max_frames=2**32)

    @pytest.mark.parametrize("fault, message", [
        (dict(base_seed=2**64), "seed must be in"),
        (dict(base_seed=-1), "seed must be in"),
        (dict(ka_values=[5, 2**32]), "k_a must be in"),
    ])
    def test_bad_stream_rejected_before_starting_workers(self, fault, message, monkeypatch):
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        args = dict(dict(config=tiny_config(), ka_values=[5], algorithms=["logical"]), **fault)
        with pytest.raises(ValueError, match=message):
            run_plr_sweep(SweepSpec(**args), workers=2)

    def test_non_integer_seed_rejected_before_starting_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        with pytest.raises(TypeError, match="^seed must be an integer, got 1.5"):
            run_plr_sweep(SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["logical"],
                                    base_seed=1.5), workers=2)

    def test_algorithms_coerced(self):
        spec = SweepSpec(config=tiny_config(), ka_values=[5], algorithms=["snb", "pab"])
        assert all(hasattr(a, "value") for a in spec.algorithms)

    @pytest.mark.parametrize("ka_values, algorithms, message", [
        ([5], ["pab", "snb", "pab"], "algorithms lists pab more than once"),
        ([5], ["pab", Algorithm.PAB], "algorithms lists pab more than once"),
        ([5, 6, np.int64(5)], ["snb"], "ka_values lists 5 more than once"),
    ])
    def test_repeated_entry_named(self, ka_values, algorithms, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(config=tiny_config(), ka_values=ka_values, algorithms=algorithms)

    def test_loads_must_be_integers(self):
        with pytest.raises(TypeError):
            SweepSpec(config=tiny_config(), ka_values=[2.7], algorithms=["snb"])
        spec = SweepSpec(config=tiny_config(), ka_values=[np.int64(5)], algorithms=["snb"])
        assert spec.ka_values == (5,) and type(spec.ka_values[0]) is int


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


def algorithm_major_sweep(spec: SweepSpec) -> list[PlrRecord]:
    """The sweep one (algorithm, k_a) point at a time, each point making its own frames.

    The plain loop the frame-major sweep replaced: frames in index order,
    stopping once ``min_frames`` have run and ``target_loss_events`` losses
    have been seen.  Wall time is left at 0.
    """
    records = []
    for algorithm in spec.algorithms:
        for ka in spec.ka_values:
            config = dataclasses.replace(spec.config, k_a=ka)
            frames_run = losses = n_up = n_pa = 0
            while frames_run < spec.max_frames:
                frame = make_frame(
                    config,
                    frame_stream(spec.base_seed, ka, frames_run),
                    with_signals=algorithm is not Algorithm.LOGICAL,
                )
                report = run_receiver(frame, algorithm, decode_criterion=spec.decode_criterion)
                frames_run += 1
                losses += report.lost_count
                n_up += report.n_up
                n_pa += report.n_pa
                if frames_run >= spec.min_frames and losses >= spec.target_loss_events:
                    break
            sent = frames_run * ka
            records.append(PlrRecord(
                algorithm.value, "baseline", ka, frames_run, sent, losses,
                losses / sent if sent else 0.0, *wilson_interval(losses, sent),
                n_up / frames_run, n_pa / frames_run, 0.0,
            ))
    return records


class TestFrameMajorSweep:
    """The shared-frame sweep against one point at a time on its own frames."""

    # overloaded at k_a=16 and lightly loaded at k_a=8, so points stop at
    # different frames; the pool dispatches batches of 8 at 2 workers
    SPEC = SweepSpec(
        config=tiny_config(n_p=4),
        ka_values=(0, 8, 16),
        algorithms=("snb", "pab", "prce", "logical"),
        min_frames=4,
        max_frames=12,
        target_loss_events=6,
        base_seed=5,
    )

    @pytest.fixture(scope="class")
    def oracle(self):
        return algorithm_major_sweep(self.SPEC)

    def test_oracle_covers_every_stopping_case(self, oracle):
        points = {(r.algorithm, r.ka): r for r in oracle}
        # k_a=0 loses nobody and runs to max_frames
        assert all(points[a.value, 0].frames_run == 12 for a in self.SPEC.algorithms)
        # SNB reaches the target at frame 7, inside the first pool batch,
        # while PAB runs on to max_frames
        assert points["snb", 8].frames_run == 7
        assert points["pab", 8].frames_run == 12
        # SNB passes the target on its first frame but min_frames holds it to 4,
        # and PRCE runs on alone through the second batch
        snb = algorithm_major_sweep(
            dataclasses.replace(self.SPEC, ka_values=(16,), algorithms=("snb",), min_frames=1)
        )
        assert snb[0].frames_run == 1
        assert points["snb", 16].frames_run == 4
        assert points["prce", 16].frames_run == 12

    @pytest.mark.parametrize("workers", (1, 2))
    def test_records_match_algorithm_major_loop(self, oracle, workers):
        assert run_plr_sweep(self.SPEC, workers=workers, measure_time=False) == oracle

    def test_wall_time_counts_up_to_the_point_stop(self):
        records = run_plr_sweep(self.SPEC)
        wall = {(r.algorithm, r.ka): r.wall_seconds for r in records}
        assert all(w > 0 for w in wall.values())
        # a point that stopped earlier on the same frames has used less time
        assert wall["snb", 8] < wall["pab", 8]
        assert wall["snb", 16] < wall["prce", 16]


class TestFramesMade:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every (k_a, frame index, with_signals) the sweep asks make_frame for."""
        seen = []

        def counting_make_frame(config, stream, with_signals=True):
            seen.append((config.k_a, stream.stream_id & 0xFFFFFFFF, with_signals))
            return make_frame(config, stream, with_signals=with_signals)

        monkeypatch.setattr(montecarlo, "make_frame", counting_make_frame)
        return seen

    def test_serial_sweep_makes_each_frame_once_and_none_past_the_last_stop(self, calls):
        spec = dataclasses.replace(TestFrameMajorSweep.SPEC, algorithms=("snb", "logical"))
        records = run_plr_sweep(spec, measure_time=False)
        for ka in spec.ka_values:
            points = [r for r in records if r.ka == ka]
            made = [(i, signals) for k, i, signals in calls if k == ka]
            assert [i for i, _ in made] == list(range(max(r.frames_run for r in points)))
            snb = next(r for r in points if r.algorithm == "snb")
            assert [signals for _, signals in made] == [i < snb.frames_run for i, _ in made]
        # at k_a=8 LOGICAL outlives SNB, so the later frames skip the signals
        assert (8, 7, False) in calls and (8, 6, True) in calls

    @pytest.fixture
    def dispatched(self, monkeypatch):
        """Every (k_a, frame index, with_signals) a pool sweep hands its workers,
        one list per batch."""
        batches = []

        class RecordingPool:
            def __init__(self, pool):
                self.pool = pool

            def map(self, fn, tasks, chunksize=1):
                batches.append([
                    (config.k_a, stream.stream_id & 0xFFFFFFFF,
                     any(a is not Algorithm.LOGICAL for a in algorithms))
                    for config, algorithms, stream, _ in tasks
                ])
                return self.pool.map(fn, tasks, chunksize=chunksize)

            def close(self):
                self.pool.close()

            def join(self):
                self.pool.join()

        monkeypatch.setattr(
            montecarlo, "_spawn_pool", lambda workers: RecordingPool(_spawn_pool(workers)))
        return batches

    def test_pool_makes_fewer_than_workers_signal_frames_past_the_last_stop(self, dispatched):
        workers = 2
        spec = dataclasses.replace(TestFrameMajorSweep.SPEC, algorithms=("snb", "logical"))
        records = run_plr_sweep(spec, workers=workers, measure_time=False)
        assert records == run_plr_sweep(spec, measure_time=False)
        made = [task for batch in dispatched for task in batch]
        for ka in spec.ka_values:
            indices = [i for k, i, _ in made if k == ka]
            assert indices == list(range(len(indices)))
            signal_frames = sum(with_signals for k, _, with_signals in made if k == ka)
            stop = next(r.frames_run for r in records if (r.algorithm, r.ka) == ("snb", ka))
            assert stop <= signal_frames <= stop + workers - 1
        assert all(len(batch) <= workers for batch in dispatched)

    def test_logical_only_sweep_never_asks_for_signals(self, calls):
        spec = dataclasses.replace(TestFrameMajorSweep.SPEC, algorithms=("logical",))
        run_plr_sweep(spec, measure_time=False)
        assert calls and not any(signals for _, _, signals in calls)


def explicit_residual_singleton_failures(
    m, n_d, t, a_pilot, a_total, presub_fraction, trials, algorithm,
    *, n_p, noise_var, seed, decode_criterion,
) -> int:
    """The singleton experiment as first written: PAB subtracts each user from
    an explicit residual ``y -= h xᵀ``, SNB modulates the whole payload tensor.

    Same draws, in the same order and batches, as ``run_singleton_experiment``.
    """
    rng = RandomStream(seed, a_total).generator()
    n_out = a_total - a_pilot
    n_pre = int(round(presub_fraction * n_out))
    failures = 0
    if algorithm == "snb":
        batch_size = max(1, 2**24 // max(1, a_total * n_d))
    else:
        batch_size = max(1, min(128, 2**27 // max(1, m * n_d)))
    done = 0
    while done < trials:
        b = min(batch_size, trials - done)
        done += b
        bits = rng.integers(0, 2, size=(b, a_total, 2 * n_d), dtype=np.uint8)
        payloads = qpsk_modulate(bits)
        if algorithm == "snb":
            sharers = complex_normal(rng, (b, a_pilot, m), 1.0)
            phi = sharers.sum(axis=1) + complex_normal(rng, (b, m), noise_var / n_p)
            g = np.einsum("bm,bm->b", phi.conj(), phi).real
            c_shar = np.einsum("bm,bpm->bp", phi.conj(), sharers)
            c_out = np.sqrt(g)[:, None] * complex_normal(rng, (b, n_out), 1.0)
            f = np.einsum("bp,bpn->bn", c_shar, payloads[:, :a_pilot])
            if n_out:
                f += np.einsum("bo,bon->bn", c_out, payloads[:, a_pilot:])
            if noise_var > 0:
                f += np.sqrt(noise_var * g)[:, None] * complex_normal(rng, (b, n_d), 1.0)
            for k in range(1, a_pilot):
                f = f - m * payloads[:, k]
                g = g - m
        else:
            channels = complex_normal(rng, (b, a_total, m), 1.0)
            phi = channels[:, :a_pilot].sum(axis=1)
            phi = phi + complex_normal(rng, (b, m), noise_var / n_p)
            y = channels.transpose(0, 2, 1) @ payloads
            if noise_var > 0:
                y += complex_normal(rng, (b, m, n_d), noise_var)
            for k in list(range(a_pilot, a_pilot + n_pre)) + list(range(1, a_pilot)):
                x_k = payloads[:, k]
                energy = np.einsum("bn,bn->b", x_k.real, x_k.real) + np.einsum(
                    "bn,bn->b", x_k.imag, x_k.imag
                )
                h_est = (y @ x_k.conj()[..., None])[..., 0] / energy[:, None]
                y -= h_est[:, :, None] * x_k[:, None, :]
                if k < a_pilot:
                    phi = phi - h_est
            f = np.einsum("bm,bmn->bn", phi.conj(), y)
            g = np.einsum("bm,bm->b", phi.conj(), phi).real
        usable = g > m * RELATIVE_GAIN_FLOOR
        x_hat = np.where(usable[:, None], f, 1.0) / np.where(usable, g, 1.0)[:, None]
        errors = count_errors(qpsk_hard_demodulate(x_hat), bits[:, 0], decode_criterion)
        failures += int(np.count_nonzero(~usable | (errors > t)))
    return failures


class TestSingletonMatchesExplicitResidual:
    """The C/G recursion and the chunked SNB payloads against the explicit loop.

    Float summation differs, so the gate is the failure count.  Noiseless PAB
    with one subtracted interferer leaves a statistic with rational entries
    (e.g. x0 - ρ x1 with ρ = x0·x1*/n_d), which can have an exactly zero
    quadrature; such a tie is decided by rounding in either code.  At
    n_d = 8 and t = 0 a tie flipped 4 of 1728 counts, so every set here has
    n_d >= 16 and t >= 1.
    """

    DIMS = (dict(m=8, n_d=16, n_p=4, t=1), dict(m=16, n_d=32, n_p=8, t=1),
            dict(m=32, n_d=32, n_p=16, t=2))

    @pytest.mark.parametrize("a_pilot", [1, 2, 3])
    @pytest.mark.parametrize("algorithm", ["snb", "pab"])
    def test_failures_match(self, algorithm, a_pilot):
        grid = itertools.product(
            (0, 1, 4, 9), (0.0, 0.5, 1.0), (0.0, 0.1), ("bit", "symbol"), self.DIMS, (0, 1)
        )
        counts = []
        for extra, presub, noise_var, criterion, dims, seed in grid:
            kwargs = dict(dims, a_pilot=a_pilot, a_total=a_pilot + extra,
                          presub_fraction=presub, trials=80, algorithm=algorithm,
                          noise_var=noise_var, seed=seed, decode_criterion=criterion)
            expected = explicit_residual_singleton_failures(**kwargs)
            assert run_singleton_experiment(**kwargs).failures == expected, kwargs
            counts.append(expected)
        assert 0 < np.median(counts) < 80  # the grid sits mostly between 0 and all


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
        bad = [("m", dict(m=0)), ("n_d", dict(n_d=0)), ("n_p", dict(n_p=0)),
               ("n_p", dict(n_p=-4)), ("t", dict(t=-1)), ("noise_var", dict(noise_var=-0.1))]
        for name, override in bad:
            for algorithm in ("snb", "pab"):
                args = dict(kwargs, trials=1, algorithm=algorithm, **override)
                with pytest.raises(ValueError, match=rf"^{name} "):
                    run_singleton_experiment(**args)

    @pytest.mark.parametrize("noise_var", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("algorithm", ["snb", "pab"])
    def test_non_finite_noise_rejected(self, algorithm, noise_var):
        with pytest.raises(ValueError, match="^noise_var must be finite"):
            run_singleton_experiment(m=16, n_d=16, t=1, a_pilot=1, a_total=2,
                                     presub_fraction=0.0, trials=1, algorithm=algorithm,
                                     noise_var=noise_var)

    def test_sweep_rejects_bad_input_before_starting_workers(self, monkeypatch):
        def no_pool(workers):
            raise AssertionError("pool started")

        monkeypatch.setattr(montecarlo, "_spawn_pool", no_pool)
        with pytest.raises(ValueError, match="^n_d "):
            run_singleton_sweep(m=16, n_d=0, t=1, a_pilot=1, a_values=[2, 4],
                                presub_fraction=0.0, trials=1, algorithm="snb", workers=2)
        with pytest.raises(ValueError, match="cannot be below a_pilot"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=2, a_values=iter([4, 1]),
                                presub_fraction=0.0, trials=1, algorithm="pab", workers=2)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sweep_bad_seed_rejected_before_starting_workers(self, seed, monkeypatch):
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        with pytest.raises(ValueError, match="^seed must be in"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[2, 4],
                                presub_fraction=0.0, trials=1, algorithm="snb", seed=seed,
                                workers=2)

    def test_sweep_takes_the_experiments_keywords(self, monkeypatch):
        # every keyword is the experiment's, with its defaults, checked before a pool
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        with pytest.raises(TypeError, match="a_pilot"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_values=[2, 4], presub_fraction=0.0,
                                trials=1, algorithm="snb", workers=2)
        with pytest.raises(TypeError, match="n_pilots"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[2, 4],
                                presub_fraction=0.0, trials=1, algorithm="snb", n_pilots=8,
                                workers=2)
        kwargs = dict(m=16, n_d=16, t=1, a_pilot=1, presub_fraction=0.0, trials=20,
                      algorithm="pab")
        swept = run_singleton_sweep(a_values=[2, 4], **kwargs)
        assert swept == [run_singleton_experiment(a_total=a, **kwargs) for a in (2, 4)]

    def test_sweep_loads_must_be_integers(self):
        with pytest.raises(TypeError):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[5.9],
                                presub_fraction=0.0, trials=1, algorithm="snb")
        (rec,) = run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=np.array([5]),
                                     presub_fraction=0.0, trials=1, algorithm="snb")
        assert rec.a_total == 5 and type(rec.a_total) is int

    def test_sweep_repeated_load_named(self, monkeypatch):
        # named before any worker starts, in SweepSpec's words
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        with pytest.raises(ValueError, match="^a_values lists 5 more than once$"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[5, np.int64(5)],
                                presub_fraction=0.0, trials=1, algorithm="snb", workers=2)
        with pytest.raises(ValueError, match="^a_values must not be empty$"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[],
                                presub_fraction=0.0, trials=1, algorithm="snb", workers=2)

    def test_zero_energy_payload_rejected(self, monkeypatch):
        # checked once per batch, on the Gram diagonal of the subtracted payloads
        monkeypatch.setattr(montecarlo, "qpsk_modulate", lambda bits: np.zeros(
            bits.shape[:-1] + (bits.shape[-1] // 2,), complex))
        with pytest.raises(ValueError, match="^payload has zero energy$"):
            run_singleton_experiment(m=16, n_d=16, t=1, a_pilot=1, a_total=4,
                                     presub_fraction=0.5, trials=20, algorithm="pab", n_p=8)

    def test_sweep_worker_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_singleton_sweep(m=16, n_d=16, t=1, a_pilot=1, a_values=[2, 4],
                                presub_fraction=0.0, trials=1, algorithm="snb", workers=0)


class TestSingletonNoiseChunks:
    """The PAB payload noise, drawn a chunk of whole trials at a time, in trial order."""

    @pytest.fixture
    def noise_draws(self, monkeypatch):
        """The arrays of every noise draw, one list per chunk."""
        draw, chunks = montecarlo.complex_normal_segments, []

        def recording_draw(rng, draws, *args):
            chunks.append(draw(rng, draws, *args))
            return chunks[-1]

        monkeypatch.setattr(montecarlo, "complex_normal_segments", recording_draw)
        return chunks

    @pytest.mark.parametrize("cpus, chunks", [(1, [8] * 5), (2, [16, 16, 8]), (3, [24, 16])])
    def test_chunk_splits_over_as_many_threads_as_the_batch(
        self, monkeypatch, noise_draws, cpus, chunks
    ):
        # a reference-size trial is 2 m n_d = _MIN_PART / 8 normals
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        run_singleton_experiment(m=256, n_d=256, t=10, a_pilot=1, a_total=3,
                                 presub_fraction=0.5, trials=40, algorithm="pab", n_p=64)
        assert [len(arrays) for arrays in noise_draws] == chunks

    @pytest.mark.parametrize("a_pilot", [1, 2])
    def test_records_and_noise_alike_for_any_chunk(self, monkeypatch, noise_draws, a_pilot):
        # a trial is 2 m n_d = 1024 normals: on two CPUs a _MIN_PART of 1 draws one
        # trial per chunk, of 2048 four trials per chunk in two parts, and of 2**40
        # the whole batch at once
        monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid: {0, 1})
        kwargs = dict(m=16, n_d=32, t=1, a_pilot=a_pilot, a_total=a_pilot + 5,
                      presub_fraction=0.5, trials=50, algorithm="pab", n_p=8, noise_var=0.3,
                      seed=4)
        runs = []
        for min_part, chunks in ((1, [1] * 50), (2048, [4] * 12 + [2]), (1 << 40, [50])):
            monkeypatch.setattr(signals, "_MIN_PART", min_part)
            noise_draws.clear()
            record = run_singleton_experiment(**kwargs)
            assert [len(arrays) for arrays in noise_draws] == chunks
            runs.append((record, np.concatenate(sum(noise_draws, [])).tobytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert 0 < runs[0][0].failures < kwargs["trials"]


class TestSingletonTrialBlocks:
    """The singleton's batch stages, in blocks of whole trials on every CPU, against one CPU.

    Every BLAS call keeps its operands, so each batch's statistic x_hat, as the
    experiment hard-demodulates it, must keep every bit.  Reference size; SNB
    runs batches of 1092 and 8 trials, and on two CPUs PAB runs chunks of 16 and
    4 trials, or with a _MIN_PART of 2**18 five 4-trial chunks of two blocks.
    """

    @pytest.fixture
    def statistics(self, monkeypatch):
        """Each batch's x_hat, in order."""
        demodulate, seen = montecarlo.qpsk_hard_demodulate, []

        def recording(x_hat):
            seen.append(x_hat.copy())
            return demodulate(x_hat)

        monkeypatch.setattr(montecarlo, "qpsk_hard_demodulate", recording)
        return seen

    @pytest.fixture
    def stage_threads(self, monkeypatch):
        """The number of threads each of the experiment's ``for_each_slot`` stages ran on."""
        for_each_slot, counts = montecarlo.for_each_slot, []

        def recording(fn, count, size):
            threads = set()

            def traced(s):
                threads.add(threading.current_thread())
                fn(s)

            for_each_slot(traced, count, size)
            counts.append(len(threads))

        monkeypatch.setattr(montecarlo, "for_each_slot", recording)
        return counts

    @pytest.mark.parametrize("min_part", [signals._MIN_PART, 1 << 18])
    @pytest.mark.parametrize("noise_var", [0.1, 0.0])
    @pytest.mark.parametrize("algorithm, trials", [("snb", 1100), ("pab", 20)])
    def test_two_cpus_match_one(self, monkeypatch, statistics, stage_threads, algorithm, trials,
                                noise_var, min_part):
        kwargs = dict(m=256, n_d=256, t=30, a_pilot=2, a_total=60, presub_fraction=0.5,
                      trials=trials, algorithm=algorithm, n_p=64, noise_var=noise_var, seed=5)
        runs = []
        for cpus, part in ((1, signals._MIN_PART), (2, min_part)):
            monkeypatch.setattr(signals.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            monkeypatch.setattr(signals, "_MIN_PART", part)
            statistics.clear()
            stage_threads.clear()
            record = run_singleton_experiment(**kwargs)
            runs.append((record, [x_hat.tobytes() for x_hat in statistics]))
            assert max(stage_threads) == cpus
        assert runs[1] == runs[0]
        assert len(runs[0][1]) == (2 if algorithm == "snb" else 1)
        assert 0 < runs[0][0].failures < trials


class TestSingletonOneBlasThread:
    """``run_singleton_experiment`` runs on one BLAS thread and puts the count back."""

    KWARGS = dict(m=16, n_d=16, t=1, a_pilot=2, a_total=6, presub_fraction=0.5, trials=20,
                  n_p=8)

    @pytest.mark.parametrize("algorithm", ["snb", "pab"])
    def test_one_thread_inside_and_restored_after(self, monkeypatch, blas_threads, algorithm):
        draw, seen = montecarlo.complex_normal, []

        def recording_draw(*args):
            seen.append(blas_threads())
            return draw(*args)

        monkeypatch.setattr(montecarlo, "complex_normal", recording_draw)
        before = blas_threads()
        run_singleton_experiment(algorithm=algorithm, **self.KWARGS)
        assert blas_threads() == before
        assert len(seen) >= 2 and seen == [[1] * len(before)] * len(seen)

    @pytest.mark.parametrize("algorithm", ["snb", "pab"])
    def test_restored_when_the_experiment_raises(self, monkeypatch, blas_threads, algorithm):
        def failing_draw(*args):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(montecarlo, "complex_normal", failing_draw)
        before = blas_threads()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_singleton_experiment(algorithm=algorithm, **self.KWARGS)
        assert blas_threads() == before

    def test_records_unchanged_without_the_pin(self, monkeypatch):
        # reference-size batches, with BLAS at its default thread count
        kwargs = dict(m=256, n_d=256, t=10, a_pilot=2, a_total=8, presub_fraction=0.5,
                      trials=24, n_p=64)
        pinned = [run_singleton_experiment(algorithm=a, **kwargs) for a in ("snb", "pab")]
        monkeypatch.setattr(signals, "_blas_thread_controls", lambda: ())
        assert [run_singleton_experiment(algorithm=a, **kwargs) for a in ("snb", "pab")] == pinned


_SINGLETON = dict(m=16, n_d=16, t=1, a_pilot=1, presub_fraction=0.0, trials=2, algorithm="snb",
                  n_p=8)

# entry point: (call, valid counts, the counts its result stores or records)
COUNT_ENTRY_POINTS = {
    "SystemConfig": (SystemConfig, dict(k_a=5, m=8, n_slots=6, n_p=8, n_d=8, r=2, t=1), vars),
    "SweepSpec": (
        lambda **counts: SweepSpec(config=tiny_config(), algorithms=["logical"], **counts),
        dict(ka_values=[5, 6], min_frames=1, max_frames=2, target_loss_events=1), vars),
    "frame_stream": (lambda **ids: frame_stream(0, **ids), dict(ka=5, frame_idx=3), None),
    "run_plr_sweep": (
        lambda workers: run_plr_sweep(SweepSpec(config=tiny_config(), ka_values=[5, 6],
                                                algorithms=["logical"], max_frames=1),
                                      workers=workers),
        dict(workers=2), None),
    "run_singleton_sweep": (
        lambda **counts: run_singleton_sweep(**_SINGLETON, **counts),
        dict(a_values=[2, 4], workers=2),
        lambda records: dict(a_values=[rec.a_total for rec in records])),
    "run_singleton_experiment": (
        lambda **counts: run_singleton_experiment(presub_fraction=0.0, algorithm="snb", **counts),
        dict(m=16, n_d=16, t=1, a_pilot=1, a_total=2, trials=2, n_p=8), vars),
    "tabulate_singleton_failure": (
        tabulate_singleton_failure, dict(m=16, n_d=16, t=1, a_pilot=1, a_values=[2, 4]),
        lambda rows: dict(vars(rows[0]), a_values=[rec.a_total for rec in rows])),
    "InterferenceScenario": (
        InterferenceScenario, dict(m=16, a_total=2, a_pilot=1, n_d=16, t=1), vars),
    "symbol_error_probability": (symbol_error_probability, dict(m=16, n_it=3), None),
}
# arguments whose error names them otherwise
_NAMED_AS = dict(ka="k_a", frame_idx="frame index")


class TestIntegerCounts:
    """Every public entry point takes its counts through ``signals.as_integer``."""

    @pytest.mark.parametrize("entry, name", [
        (entry, name) for entry, (_, counts, _) in COUNT_ENTRY_POINTS.items() for name in counts])
    def test_fractional_count_named_before_any_pool(self, entry, name, monkeypatch):
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        call, counts, _ = COUNT_ENTRY_POINTS[entry]
        value = counts[name]
        bad = value[:-1] + [value[-1] + 0.5] if isinstance(value, list) else value + 0.5
        with pytest.raises(TypeError, match=f"^{_NAMED_AS.get(name, name)} must be an integer"):
            call(**dict(counts, **{name: bad}))

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_numpy_integers_stored_as_int(self, entry, monkeypatch):
        monkeypatch.setattr(montecarlo, "_spawn_pool", multiprocessing.dummy.Pool)
        call, counts, stored = COUNT_ENTRY_POINTS[entry]
        result = call(**{name: np.array(value) if isinstance(value, list) else np.int64(value)
                         for name, value in counts.items()})
        for name, value in (stored(result) if stored else {}).items():
            if name in counts:
                values = value if isinstance(value, (list, tuple)) else [value]
                assert all(type(v) is int for v in values), (name, value)


# entry point: (call taking the real arguments as keywords, their valid values)
REAL_ENTRY_POINTS = {
    "SystemConfig": (tiny_config, dict(noise_var=0.1, channel_var=1.0, latency_ms=50.0,
                                       symbol_rate=1e6)),
    "run_singleton_experiment": (
        lambda **reals: run_singleton_experiment(**dict(_SINGLETON, a_total=2, **reals)),
        dict(noise_var=0.1, presub_fraction=1.0)),
}


class TestRealArguments:
    """Bools are no counts, and the real-valued arguments go through ``signals.as_real``."""

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("entry, name", [
        (entry, name) for entry, (_, counts, _) in COUNT_ENTRY_POINTS.items() for name in counts])
    def test_bool_count_named(self, entry, name, value, monkeypatch):
        # a bool is an int to Python, so k_a=True ran one user
        monkeypatch.setattr(montecarlo, "_spawn_pool", lambda workers: pytest.fail("pool started"))
        call, counts, _ = COUNT_ENTRY_POINTS[entry]
        good = counts[name]
        bad = good[:-1] + [value] if isinstance(good, list) else value
        with pytest.raises(TypeError, match=f"^{_NAMED_AS.get(name, name)} must be an integer"):
            call(**dict(counts, **{name: bad}))

    @pytest.mark.parametrize("value", [True, np.True_, "0.1", None, 1j])
    @pytest.mark.parametrize("entry, name", [
        (entry, name) for entry, (_, reals) in REAL_ENTRY_POINTS.items() for name in reals])
    def test_non_real_named(self, entry, name, value):
        # noise_var=True drew noise of variance 1, and presub_fraction=True recorded p=True
        call, reals = REAL_ENTRY_POINTS[entry]
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got {value!r}"):
            call(**dict(reals, **{name: value}))

    @pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
    def test_integers_and_numpy_reals_stored_as_float(self, entry):
        call, reals = REAL_ENTRY_POINTS[entry]
        # the valid values are whole where an integer kind takes them
        kinds = itertools.cycle([np.float32, np.int64, int, np.float64])
        given = {name: kind(value) for (name, value), kind in zip(reals.items(), kinds)}
        stored = vars(call(**given))
        for name, value in given.items():
            stored_name = "p" if name == "presub_fraction" else name
            if stored_name in stored:
                assert type(stored[stored_name]) is float
                assert stored[stored_name] == float(value)


class TestPlainOutcomes:
    """Reports and records hold Python ints, floats and strs, as JSON takes them."""

    def test_reports_and_records_hold_plain_values(self):
        # json.dumps rejects a numpy.int64, which receiver-level checks let pass
        frame = make_frame(tiny_config(k_a=12), RandomStream(3))
        for algorithm in Algorithm:
            report = run_receiver(frame, algorithm)
            for name in ("sweep_count", "r", "decoded_count", "lost_count", "n_up", "n_pa"):
                assert type(getattr(report, name)) is int, (algorithm, name)
        spec = SweepSpec(config=tiny_config(), ka_values=[6, 12], algorithms=list(Algorithm),
                         max_frames=2)
        records = [*run_plr_sweep(spec), *tabulate_singleton_failure(16, 16, 1, 1, [2, 3])]
        for algorithm in ("snb", "pab"):
            records += run_singleton_sweep(a_values=[2, 3], **dict(_SINGLETON, algorithm=algorithm))
        for record in records:
            for field in dataclasses.fields(record):
                assert field.type in ("int", "float", "str")
                value = getattr(record, field.name)
                assert type(value).__name__ == field.type, (record, field.name)


def block_fading_snb_failure(m: int, n_d: int, t: int, a_total: int) -> float:
    """Failure probability of a noiseless SNB singleton with a lone pilot user.

    With no noise and nobody else on the pilot, the estimate is the user's
    channel h.  Given h, each of the n_out = a_total - 1 other users adds
    c_k x_k to ‖h‖ x, with c_k = hᴴ h_k / ‖h‖ ~ CN(0, 1), so the SIR
    ‖h‖² / Σ|c_k|² is a ratio of Gamma(m) and Gamma(n_out) variables,
    (m / n_out) F(2m, 2 n_out).  Treating the interference as Gaussian, each
    quadrature errs with q = Q(√SIR), a symbol with 2q - q², and the packet
    fails when more than t of its n_d symbols err.
    """
    n_out = a_total - 1
    sir = stats.f(2 * m, 2 * n_out)

    def tail(x):
        q = stats.norm.sf(np.sqrt(m / n_out * x))
        return sir.pdf(x) * stats.binom.sf(t, n_d, 2 * q - q * q)

    return integrate.quad(tail, *sir.ppf([1e-12, 1 - 1e-12]))[0]


class TestSingletonBlockFadingOracle:
    @pytest.mark.parametrize("a_total", (40, 50, 70))
    def test_snb_matches_block_fading_oracle(self, a_total):
        # the paper's closed form is off by about 10x at the waterfall onset;
        # this oracle averages over the channels instead.  It reads high by
        # up to about one Wilson half-width (0.0085 / 0.0115 at a_total 40),
        # probably because it treats the sum of QPSK interferers as Gaussian
        trials = 4000
        rec = run_singleton_experiment(
            m=256, n_d=256, t=10, a_pilot=1, a_total=a_total, presub_fraction=0.0,
            trials=trials, algorithm="snb", noise_var=0.0, seed=0,
            decode_criterion="symbol",
        )
        low, high = wilson_interval(rec.failures, trials)
        oracle = block_fading_snb_failure(256, 256, 10, a_total)
        assert abs(rec.fail_prob - oracle) <= 3 * (high - low) / 2


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

    @pytest.mark.slow
    def test_reference_frames_decode_alike_in_process_and_in_workers(self):
        # at the reference size the receivers' products are large enough for
        # BLAS to thread in this process, while pool workers run one thread
        algorithms = (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE)
        tasks = [(SystemConfig(k_a=900), algorithms, frame_stream(0, 900, i), "bit")
                 for i in range(2)]
        pool = _spawn_pool(2)
        try:
            in_workers = pool.map(montecarlo._run_frame, tasks, chunksize=1)
        finally:
            pool.close()
            pool.join()
        assert in_workers == [montecarlo._run_frame(task) for task in tasks]

    def test_workers_draw_frames_on_one_thread(self):
        pool = _spawn_pool(2)
        try:
            parts = pool.map(signals._part_count, [1 << 40] * 2, chunksize=1)
        finally:
            pool.close()
            pool.join()
        assert parts == [1, 1]


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
            emit_csv(records, "no/such/dir/out.csv", record_type=AnalysisRecord)

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
