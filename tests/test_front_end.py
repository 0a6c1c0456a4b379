"""Tests for the per-slot receiver front end."""

import numpy as np
import pytest

from csa_mimo.analysis import InterferenceScenario, singleton_failure_probability
from csa_mimo.cancellation import (
    Algorithm,
    combining_gains,
    count_errors,
    estimate_all_pilot_channels,
    run_receiver,
)
from csa_mimo.frame import SystemConfig, assemble_frame, make_frame
from csa_mimo.signals import (
    RandomStream,
    build_hadamard_pilots,
    complex_normal,
    qpsk_hard_demodulate,
    qpsk_modulate,
)


def _errors(x_hat, bits, criterion="bit"):
    """Errors of the hard decisions on ``x_hat``, as the receivers count them."""
    return int(count_errors(qpsk_hard_demodulate(x_hat), bits, criterion))


class TestPilotChannelEstimation:
    def test_noiseless_singleton_recovers_channel_exactly(self):
        m, n_p = 64, 16
        pilots = build_hadamard_pilots(n_p)
        rng = RandomStream(0, 0).generator()
        h = complex_normal(rng, m, 1.0)
        j = 5
        p = np.outer(h, pilots[j].astype(float))
        phi = estimate_all_pilot_channels(p, n_p)
        np.testing.assert_array_equal(phi[:, j], h)
        others = np.delete(phi, j, axis=1)
        np.testing.assert_array_equal(others, np.zeros_like(others))

    def test_noiseless_collision_recovers_channel_sum(self):
        m, n_p = 64, 16
        pilots = build_hadamard_pilots(n_p)
        rng = RandomStream(1, 0).generator()
        h1 = complex_normal(rng, m, 1.0)
        h2 = complex_normal(rng, m, 1.0)
        j = 3
        p = np.outer(h1 + h2, pilots[j].astype(float))
        phi = estimate_all_pilot_channels(p, n_p)
        np.testing.assert_array_equal(phi[:, j], h1 + h2)

    def test_noise_only_matched_filter_gain(self):
        # per-entry variance of the estimate is noise_var / n_p
        m, n_p, noise_var = 64, 16, 0.1
        rng = RandomStream(2, 0).generator()
        samples = []
        for _ in range(300):
            p = complex_normal(rng, (m, n_p), noise_var)
            samples.append(estimate_all_pilot_channels(p, n_p).ravel())
        samples = np.concatenate(samples)
        measured = np.mean(np.abs(samples) ** 2)
        expected = noise_var / n_p
        se = expected * np.sqrt(2.0 / samples.size)
        assert abs(measured - expected) < 3 * se

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pilot length is 16"):
            estimate_all_pilot_channels(np.zeros((4, 8), dtype=complex), 16)


class TestCombiningStatistics:
    def test_noiseless_singleton_terms(self):
        m, n_d = 32, 16
        rng = RandomStream(3, 0).generator()
        h = complex_normal(rng, m, 1.0)
        x = qpsk_modulate(rng.integers(0, 2, 2 * n_d))
        y = np.outer(h, x)
        f, g = h.conj() @ y, combining_gains(h)
        norm_sq = float(np.real(h.conj() @ h))
        assert g == pytest.approx(norm_sq, rel=1e-15)
        np.testing.assert_allclose(f, norm_sq * x, rtol=1e-13)

    def test_zero_estimate_gives_zero_statistics(self):
        phi = np.zeros(8, dtype=complex)
        f, g = phi.conj() @ np.ones((8, 4), dtype=complex), combining_gains(phi)
        assert g == 0.0
        np.testing.assert_array_equal(f, np.zeros(4))

    def test_matrix_form_matches_vector_form(self):
        rng = RandomStream(4, 0).generator()
        phi = complex_normal(rng, (16, 8), 1.0)
        y = complex_normal(rng, (16, 24), 1.0)
        f_all, g_all = phi.conj().T @ y, combining_gains(phi)
        for j in range(8):
            f_j, g_j = phi[:, j].conj() @ y, combining_gains(phi[:, j])
            np.testing.assert_allclose(f_all[j], f_j, rtol=1e-13)
            assert g_all[j] == pytest.approx(g_j, rel=1e-13)

    def test_cross_pilot_interference_variance(self):
        # with two users on different pilots, the payload statistic of one
        # pilot carries a cross term whose per-symbol variance is the
        # antenna count
        m, n_d, trials = 64, 32, 4000
        rng = RandomStream(5, 0).generator()
        cross_terms = np.empty((trials, n_d), dtype=complex)
        for i in range(trials):
            h_k = complex_normal(rng, m, 1.0)
            h_m = complex_normal(rng, m, 1.0)
            x_m = qpsk_modulate(rng.integers(0, 2, 2 * n_d))
            y_interferer = np.outer(h_m, x_m)
            f = h_k.conj() @ y_interferer
            cross_terms[i] = f
        measured = np.mean(np.abs(cross_terms) ** 2)
        se = m * np.sqrt(2.0 / cross_terms.size)
        assert abs(measured - m) < 4 * se


class TestCombiningEstimate:
    def test_noiseless_singleton_recovers_payload(self):
        m, n_d = 32, 16
        rng = RandomStream(6, 0).generator()
        h = complex_normal(rng, m, 1.0)
        bits = rng.integers(0, 2, 2 * n_d)
        x = qpsk_modulate(bits)
        f, g = h.conj() @ np.outer(h, x), combining_gains(h)
        x_hat = f / g
        np.testing.assert_allclose(x_hat, x, rtol=1e-12)
        assert _errors(x_hat, bits) == 0

    def test_scale_invariance(self):
        # scaling every received matrix by a power of two scales all
        # statistics exactly, so the PAB receiver's decisions cannot change
        cfg = SystemConfig(k_a=30, m=32, n_slots=8, n_p=8, n_d=32, r=3, noise_var=0.1, t=3)
        frame = make_frame(cfg, RandomStream(7, 0))
        scaled = make_frame(cfg, RandomStream(7, 0))
        for slot in scaled.slots:
            slot.p *= 4.0
            slot.y *= 4.0
        a = run_receiver(frame, Algorithm.PAB)
        b = run_receiver(scaled, Algorithm.PAB)
        np.testing.assert_array_equal(a.decoded, b.decoded)
        assert (a.sweep_count, a.n_up, a.n_pa) == (b.sweep_count, b.n_up, b.n_pa)

    def test_gain_floor_yields_no_estimate(self):
        # a user with all-zero bits in a slot that received nothing: f / g
        # would be 0/0, whose hard decisions are all zero bits and would
        # "decode" the user; the gain floor must skip the attempt instead
        cfg = SystemConfig(k_a=1, m=8, n_slots=2, n_p=4, n_d=8, r=1, noise_var=0.0, t=0)
        bits = np.zeros(2 * cfg.n_d, dtype=np.uint8)
        plans = (np.array([[0]]), np.array([[1]]), bits[None])
        frame = assemble_frame(plans, cfg, RandomStream(0, 0).generator())
        for slot in frame.slots:
            slot.p[:] = 0.0
            slot.y[:] = 0.0
        for algorithm in (Algorithm.SNB, Algorithm.PAB, Algorithm.PRCE):
            assert run_receiver(frame, algorithm).lost_count == 1

    def test_interference_error_variance_scales_inversely_with_antennas(self):
        # per-symbol estimation error variance ~ n_it / m: doubling the
        # array halves it
        n_d, n_it, trials = 64, 16, 400
        rng = RandomStream(8, 0).generator()
        measured = {}
        for m in (128, 256):
            errs = np.empty((trials, n_d), dtype=complex)
            for i in range(trials):
                h = complex_normal(rng, m, 1.0)
                x = qpsk_modulate(rng.integers(0, 2, 2 * n_d))
                y = np.outer(h, x)
                for _ in range(n_it):
                    h_i = complex_normal(rng, m, 1.0)
                    x_i = qpsk_modulate(rng.integers(0, 2, 2 * n_d))
                    y += np.outer(h_i, x_i)
                f, g = h.conj() @ y, combining_gains(h)
                errs[i] = f / g - x
            measured[m] = np.mean(np.abs(errs) ** 2)
        for m in (128, 256):
            assert measured[m] == pytest.approx(n_it / m, rel=0.1)
        assert measured[128] / measured[256] == pytest.approx(2.0, rel=0.15)


class TestCountErrors:
    def test_exact_estimate_succeeds(self):
        bits = np.array([0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
        for criterion in ("bit", "symbol"):
            assert _errors(qpsk_modulate(bits), bits, criterion) == 0

    def test_boundary_error_counts(self):
        rng = RandomStream(9, 0).generator()
        n_d, t = 64, 5
        bits = rng.integers(0, 2, 2 * n_d, dtype=np.uint8)
        # flip exactly t+1 symbols by negating both quadratures
        x = qpsk_modulate(bits)
        x[: t + 1] = -x[: t + 1]
        assert _errors(x, bits, "symbol") == t + 1
        # each flipped symbol contributes two bit errors
        assert _errors(x, bits, "bit") == 2 * (t + 1)

    def test_bit_and_symbol_criteria_differ_on_double_errors(self):
        bits = np.zeros(8, dtype=np.uint8)
        x = qpsk_modulate(bits)
        x[0] = -x[0]  # both bits of symbol 0 wrong
        assert _errors(x, bits, "bit") == 2
        assert _errors(x, bits, "symbol") == 1

    def test_batch_counts_match_single_counts(self):
        rng = RandomStream(12, 0).generator()
        bits = rng.integers(0, 2, (20, 16), dtype=np.uint8)
        bits_hat = rng.integers(0, 2, (20, 16), dtype=np.uint8)
        for criterion in ("bit", "symbol"):
            batch = count_errors(bits_hat, bits, criterion)
            single = [count_errors(h, b, criterion) for h, b in zip(bits_hat, bits)]
            np.testing.assert_array_equal(batch, single)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_errors(np.zeros(6, dtype=np.uint8), np.zeros(8, dtype=np.uint8), "bit")

    def test_unknown_criterion_rejected(self):
        bits = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            count_errors(bits, bits, "llr")

    def test_heavy_interference_failure_rate_matches_binomial_model(self):
        # n_it = m: simulate the MRC estimate under the Gaussian-interference
        # model and compare the decode failure rate with the closed form
        m, n_d, t, trials = 128, 128, 10, 4000
        rng = RandomStream(10, 0).generator()
        scen = InterferenceScenario(m=m, a_total=m + 1, a_pilot=1, n_d=n_d, t=t)
        p_ref = singleton_failure_probability(scen)
        failures = 0
        scale = np.sqrt(scen.n_it * m) / m
        for _ in range(trials):
            bits = rng.integers(0, 2, 2 * n_d, dtype=np.uint8)
            x_hat = qpsk_modulate(bits) + scale * complex_normal(rng, n_d, 1.0)
            if _errors(x_hat, bits, "symbol") > t:
                failures += 1
        sigma = np.sqrt(p_ref * (1 - p_ref) / trials)
        assert failures / trials == pytest.approx(p_ref, abs=3.5 * sigma)


class TestDeterminism:
    def test_statistics_recomputation_idempotent(self):
        cfg = SystemConfig(k_a=10, m=16, n_slots=8, n_p=8, n_d=16, r=2, noise_var=0.1, t=2)
        frame = make_frame(cfg, RandomStream(11, 0))
        slot = frame.slots[0]
        phi1 = estimate_all_pilot_channels(slot.p, cfg.n_p)
        phi2 = estimate_all_pilot_channels(slot.p, cfg.n_p)
        np.testing.assert_array_equal(phi1, phi2)
        # PAB and PRCE update phi in place, so it must not alias the frame's p
        assert not np.shares_memory(phi1, slot.p)
        assert phi1.flags.c_contiguous
        f1, g1 = phi1.conj().T @ slot.y, combining_gains(phi1)
        f2, g2 = phi2.conj().T @ slot.y, combining_gains(phi2)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(g1, g2)
