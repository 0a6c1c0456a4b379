"""Closed-form interference analysis for the singleton decode attempt.

Models the interference seen by a user that is the only undecoded one on
its pilot in a slot, after its pilot-sharers have been subtracted with the
squared-norm update.  Each of the ``n_it = a_pilot * a_total - 1``
residual interfering terms behaves like an i.i.d. complex Gaussian vector
with per-entry variance equal to the antenna count, which gives the QPSK
hard-decision symbol error probability and, through a bounded-distance
decoder correcting ``t`` errors, the probability that the singleton fails.
The noise contribution is neglected throughout.  The Gaussian tail is
the standard library's ``math.erfc``.

This is the paper's i.i.d. approximation, not the law of the simulator in
``montecarlo.run_singleton_experiment``.  There the channels are block
fading: each interferer's cross term is fixed for the whole packet, so
symbol errors are correlated within a packet, and the Monte Carlo failure
rate is far above this closed form where the failure curve starts to rise:
at m = n_d = 256, t = 10, one user per pilot, no noise and the symbol
criterion, 4000 trials at a_total = 45 fail 3.7 % of the time, against
0.28 % here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .signals import as_integer


@dataclass(frozen=True)
class InterferenceScenario:
    """One slot's interference bookkeeping for the probed pilot."""

    m: int          # receive antennas
    a_total: int    # users transmitting in the slot
    a_pilot: int    # users sharing the probed pilot
    n_d: int        # payload symbols
    t: int          # correctable errors

    def __post_init__(self):
        for name, minimum in (("m", 1), ("a_pilot", 1), ("a_total", None), ("n_d", 1), ("t", 0)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), minimum))
        if self.a_total < self.a_pilot:
            raise ValueError(
                f"a_total={self.a_total} cannot be below a_pilot={self.a_pilot}"
            )

    @property
    def n_it(self) -> int:
        """Residual interfering terms after subtracting the pilot-sharers:
        ``a_pilot * a_total - 1``, from the loads the constructor checked."""
        return self.a_pilot * self.a_total - 1


def symbol_error_probability(m: int, n_it: int) -> float:
    """QPSK hard-decision symbol error probability under ``n_it`` interferers.

    Interference-limited (noise neglected): zero when there is no
    interference, strictly decreasing in the antenna count otherwise.
    """
    m, n_it = as_integer("m", m, 1), as_integer("n_it", n_it, 0)
    if n_it == 0:
        return 0.0
    e = math.erfc(math.sqrt(m / (2.0 * n_it)))
    return e - 0.25 * e * e


def _binomial_upper_tail(n: int, t: int, p: float) -> float:
    """P(X > t) for X ~ Binomial(n, p), summed term-by-term in log domain.

    The upper tail is accumulated directly (no 1 - CDF cancellation), so
    values many decades below one stay accurate to roughly 1e-13 relative.
    """
    if p <= 0.0:
        return 0.0
    if t < 0:
        return 1.0
    if t >= n:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    terms = []
    for d in range(t + 1, n + 1):
        log_term = math.log(math.comb(n, d)) + d * log_p + (n - d) * log_q
        terms.append(math.exp(log_term))
    return min(1.0, math.fsum(terms))


def singleton_failure_probability(scenario: InterferenceScenario) -> float:
    """Probability that the probed singleton user fails to decode.

    The packet fails when more than ``t`` of its ``n_d`` symbols are in
    error, with symbol errors i.i.d. at the interference-limited rate.
    """
    p_e = symbol_error_probability(scenario.m, scenario.n_it)
    return _binomial_upper_tail(scenario.n_d, scenario.t, p_e)

