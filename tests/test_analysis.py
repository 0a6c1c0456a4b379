"""Tests for the closed-form singleton interference analysis.

The reference oracle for the failure probability is a 40-digit mpmath
summation of the binomial lower tail; the reference for the symbol error
rate was frozen from numerical quadrature of the Gaussian tail integral.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from csa_mimo.analysis import (
    InterferenceScenario,
    singleton_failure_probability,
    symbol_error_probability,
)
from csa_mimo.cancellation import pab_channel_estimate
from csa_mimo.frame import SystemConfig, assemble_frame, generate_user_plans
from csa_mimo.montecarlo import tabulate_singleton_failure
from csa_mimo.signals import RandomStream, qpsk_hard_demodulate, qpsk_modulate

mp.mp.dps = 40

# frozen from 2/sqrt(pi) * quad(exp(-u^2), [1, inf]) at 40 digits
ERFC_ONE = 0.15729920705028513
# erfc(1) - erfc(1)^2 / 4 from the same quadrature
P_E_M256_NIT128 = 0.15111344691562301


def binomial_tail_oracle(n: int, t: int, p) -> float:
    """P(X > t), X ~ Binomial(n, p), via exact high-precision lower-tail sum."""
    p = mp.mpf(p)
    lower = mp.mpf(0)
    for d in range(min(t, n) + 1):
        lower += mp.binomial(n, d) * p**d * (1 - p) ** (n - d)
    return float(1 - lower)


def failure_curve(m, n_d, t, a_pilot, a_values) -> dict:
    """Closed-form failure probability per slot load, as the CLI tabulates it."""
    rows = tabulate_singleton_failure(m, n_d, t, a_pilot, a_values)
    return {rec.a_total: rec.p_fail for rec in rows}


class TestInterferenceTermCount:
    @pytest.mark.parametrize(
        "a_pilot,a_total,expected", [(1, 1, 0), (1, 21, 20), (2, 30, 59), (3, 10, 29)]
    )
    def test_values(self, a_pilot, a_total, expected):
        scenario = InterferenceScenario(m=256, a_total=a_total, a_pilot=a_pilot, n_d=256, t=10)
        assert scenario.n_it == expected

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="a_pilot must be >= 1"):
            InterferenceScenario(m=256, a_total=5, a_pilot=0, n_d=256, t=10)
        with pytest.raises(ValueError, match="cannot be below a_pilot"):
            InterferenceScenario(m=256, a_total=2, a_pilot=3, n_d=256, t=10)


class TestSymbolErrorProbability:
    def test_no_interference_is_error_free(self):
        assert symbol_error_probability(256, 0) == 0.0

    def test_spot_value_against_quadrature_oracle(self):
        assert symbol_error_probability(256, 128) == pytest.approx(
            P_E_M256_NIT128, abs=1e-14
        )

    def test_agrees_with_mpmath_on_grid(self):
        # the oracle takes the double argument the function computes: rounding
        # sqrt(m / 2 n_it) alone moves erfc by up to 2 x^2 2^-53 relative
        # (2.8e-14 at m=256, n_it=1), which no erfc in double precision undoes
        for m in (16, 32, 64, 128, 256, 512):
            for n_it in range(1, 600):
                e = mp.erfc(mp.mpf(math.sqrt(m / (2.0 * n_it))))
                expected = e - e * e / 4
                assert symbol_error_probability(m, n_it) == pytest.approx(
                    float(expected), rel=1e-15, abs=0.0
                ), (m, n_it)

    def test_strictly_decreasing_in_antennas(self):
        values = [symbol_error_probability(m, 64) for m in (64, 128, 256, 512, 4096)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_increasing_in_interferers(self):
        values = [symbol_error_probability(256, n) for n in (1, 8, 64, 512)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSingletonFailureProbability:
    def test_zero_error_rate_never_fails(self):
        scen = InterferenceScenario(m=256, a_total=1, a_pilot=1, n_d=256, t=10)
        assert singleton_failure_probability(scen) == 0.0

    def test_all_patterns_correctable_never_fails(self):
        scen = InterferenceScenario(m=4, a_total=500, a_pilot=3, n_d=64, t=64)
        assert singleton_failure_probability(scen) == 0.0

    def test_agrees_with_oracle_on_grid(self):
        worst = 0.0
        for m in (64, 256):
            for a_pilot in (1, 2):
                for a_total in (2, 10, 40, 80):
                    for t in (4, 10):
                        scen = InterferenceScenario(
                            m=m, a_total=a_total, a_pilot=a_pilot, n_d=256, t=t
                        )
                        got = singleton_failure_probability(scen)
                        want = binomial_tail_oracle(256, t, symbol_error_probability(m, scen.n_it))
                        worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_half_crossing_location(self):
        # frozen from the oracle: P_fail(62) < 0.5 <= P_fail(63) at the
        # reference parameters with one user on the probed pilot
        curve = failure_curve(256, 256, 10, 1, range(55, 70))
        assert curve[62] < 0.5 <= curve[63]

    def test_bounded_and_monotone(self):
        # nondecreasing up to the ~1e-13 term accuracy of the tail sum,
        # which only bites in the saturated regime where every value is ~1
        prev = -1.0
        for a_total in range(1, 200, 7):
            scen = InterferenceScenario(m=256, a_total=a_total, a_pilot=1, n_d=256, t=10)
            p = singleton_failure_probability(scen)
            assert 0.0 <= p <= 1.0
            assert p >= prev - 1e-13
            prev = p

    def test_nonincreasing_in_t_and_m(self):
        base = dict(a_total=40, a_pilot=2, n_d=256)
        by_t = [
            singleton_failure_probability(InterferenceScenario(m=256, t=t, **base))
            for t in (0, 5, 10, 20)
        ]
        assert all(a >= b for a, b in zip(by_t, by_t[1:]))
        by_m = [
            singleton_failure_probability(InterferenceScenario(m=m, t=10, **base))
            for m in (64, 128, 256, 512)
        ]
        assert all(a >= b for a, b in zip(by_m, by_m[1:]))

    def test_deep_tail_accuracy(self):
        # many decades below one: log-domain accumulation must not underflow
        scen = InterferenceScenario(m=256, a_total=8, a_pilot=1, n_d=256, t=10)
        got = singleton_failure_probability(scen)
        want = binomial_tail_oracle(256, 10, symbol_error_probability(256, 7))
        assert got < 1e-15
        assert got == pytest.approx(want, rel=1e-10)

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            InterferenceScenario(m=0, a_total=2, a_pilot=1, n_d=16, t=1)
        with pytest.raises(ValueError):
            InterferenceScenario(m=4, a_total=1, a_pilot=2, n_d=16, t=1)


class TestGaussianInterferenceModel:
    def test_monte_carlo_matches_closed_form(self):
        # simulate the interference model directly: the payload estimate is
        # the true QPSK vector plus (1/m) * sum of n_it CN(0, m) vectors;
        # count symbol errors and compare failure rates at 3 sigma
        m, n_d, t = 256, 256, 10
        rng = RandomStream(2024, 0).generator()
        trials = 10_000
        for a_total in (50, 63, 80):
            n_it = a_total - 1
            scen = InterferenceScenario(m=m, a_total=a_total, a_pilot=1, n_d=n_d, t=t)
            p_ref = singleton_failure_probability(scen)
            bits = rng.integers(0, 2, size=(trials, 2 * n_d), dtype=np.uint8)
            x = qpsk_modulate(bits)
            noise = np.sqrt(n_it * m) / m * (
                rng.standard_normal((trials, n_d)) + 1j * rng.standard_normal((trials, n_d))
            ) / np.sqrt(2)
            bits_hat = qpsk_hard_demodulate(x + noise)
            wrong = bits_hat != bits
            symbol_errors = (wrong[:, 0::2] | wrong[:, 1::2]).sum(axis=1)
            fail_rate = np.mean(symbol_errors > t)
            sigma = math.sqrt(p_ref * (1 - p_ref) / trials)
            assert abs(fail_rate - p_ref) < 3 * sigma + 1e-9


def pab_estimate_error_variance(a_total: int, n_d: int) -> float:
    """Per-entry error variance of the payload-correlation channel estimate.

    With ``a_total`` users superimposed in the slot and none subtracted yet,
    each of the other ``a_total - 1`` payloads leaks into the estimate with
    variance ``1 / n_d``.
    """
    if a_total < 1:
        raise ValueError(f"a_total must be >= 1, got {a_total}")
    if n_d < 1:
        raise ValueError(f"n_d must be >= 1, got {n_d}")
    return (a_total - 1) / n_d


class TestPabEstimateErrorVariance:
    """The closed form the receiver does not use, checked as a test-side oracle
    of the PAB first-replica estimate."""

    def test_single_user_has_no_interference(self):
        assert pab_estimate_error_variance(1, 256) == 0.0

    def test_direct_substitution(self):
        assert pab_estimate_error_variance(21, 256) == pytest.approx(0.078125)

    def test_doubling_symbols_halves_variance(self):
        assert pab_estimate_error_variance(41, 512) == pytest.approx(
            pab_estimate_error_variance(41, 256) / 2
        )

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            pab_estimate_error_variance(0, 256)
        with pytest.raises(ValueError):
            pab_estimate_error_variance(5, 0)

    @pytest.mark.parametrize("a_total", [4, 16, 40])
    def test_matches_first_replica_estimate_on_noiseless_slots(self, a_total):
        # every user's first PAB estimate in a noiseless slot, none subtracted:
        # the matched filter y x_i^* / ||x_i||^2, whose per-entry error over
        # channels and payloads should have the closed-form variance
        m, n_d, trials = 32, 64, 60
        config = SystemConfig(k_a=a_total, m=m, n_slots=1, n_p=1, n_d=n_d, r=1, noise_var=0.0)
        per_trial = []
        for trial in range(trials):
            rng = RandomStream(23, trial).generator()
            frame = assemble_frame(generate_user_plans(config, rng), config, rng)
            x = frame.payloads                                # (a, n_d), users ascending
            estimates = pab_channel_estimate(                  # row i: user i's, y x_i^*
                x.conj() @ frame.slots[0].y.T, np.zeros((m, 0)), np.zeros((a_total, 0)),
                np.sum(np.abs(x) ** 2, axis=1, keepdims=True))
            error = estimates - frame.true_channels[0]         # occupant i is user i
            per_trial.append(np.mean(np.abs(error) ** 2))
        measured = np.mean(per_trial)
        stderr = np.std(per_trial, ddof=1) / math.sqrt(trials)
        assert abs(measured - pab_estimate_error_variance(a_total, n_d)) < 4 * stderr


class TestFailureCurve:
    def test_more_pilot_sharers_always_worse(self):
        a_range = range(2, 80, 3)
        one = failure_curve(256, 256, 10, 1, a_range)
        two = failure_curve(256, 256, 10, 2, a_range)
        assert all(one[a] < two[a] for a in a_range)

    def test_monotone_in_load(self):
        values = list(failure_curve(256, 256, 10, 2, range(2, 120)).values())
        assert all(a <= b + 1e-13 for a, b in zip(values, values[1:]))

    def test_loads_must_be_integers(self):
        with pytest.raises(TypeError):
            tabulate_singleton_failure(256, 256, 10, 1, [5.9])
        (rec,) = tabulate_singleton_failure(256, 256, 10, 1, np.array([5]))
        assert rec.a_total == 5 and type(rec.a_total) is int

    def test_repeated_load_rejected(self):
        # as run_singleton_sweep and SweepSpec reject one; it gave two identical rows
        with pytest.raises(ValueError, match="a_values lists 5 more than once"):
            tabulate_singleton_failure(16, 16, 1, 1, [5, 5])
        with pytest.raises(ValueError, match="a_values lists 5 more than once"):
            tabulate_singleton_failure(16, 16, 1, 1, np.array([5, 7, 5]))
        with pytest.raises(ValueError, match="^a_values must not be empty$"):
            tabulate_singleton_failure(16, 16, 1, 1, [])

    def test_crossings_match_oracle_for_all_sharer_counts(self):
        for a_pilot in (1, 2, 3):
            curve = failure_curve(256, 256, 10, a_pilot, range(a_pilot, 120))
            for a_total, p in curve.items():
                n_it = InterferenceScenario(256, a_total, a_pilot, 256, 10).n_it
                want = binomial_tail_oracle(256, 10, symbol_error_probability(256, n_it))
                assert p == pytest.approx(want, abs=1e-12)
