"""Signal-level primitives: seeded streams, fading/noise draws, pilots, QPSK.

Everything here is pure given a generator, so frame trials can run on
independent workers without shared state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class RandomStream:
    """Value-like handle for one reproducible random stream.

    Identical (seed, stream_id) pairs reproduce identical draws no matter
    where or when the stream is consumed; distinct stream ids give
    statistically independent sequences.  One stream per frame trial.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Create a fresh generator positioned at the start of the stream."""
        entropy = (self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF)
        return np.random.default_rng(np.random.SeedSequence(entropy))


def complex_normal(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Zero-mean circularly symmetric complex Gaussian samples.

    ``var`` is the total per-sample variance, split equally between the
    real and imaginary parts.
    """
    if var < 0:
        raise ValueError(f"variance must be nonnegative, got {var}")
    if var == 0:
        return np.zeros(shape, dtype=complex)
    z = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,)).view(np.complex128)[..., 0]
    z *= np.sqrt(var / 2.0)
    return z


@dataclass(frozen=True)
class PilotSet:
    """Mutually orthogonal +/-1 pilot sequences, one per row.

    Rows are in Sylvester order, so the matched filter against all pilots
    at once is the Walsh-Hadamard transform (see ``walsh_hadamard_transform``).
    """

    sequences: np.ndarray  # (count, count) int entries, +/-1

    @property
    def count(self) -> int:
        return self.sequences.shape[0]

    @property
    def length(self) -> int:
        return self.sequences.shape[1]


def build_hadamard_pilots(n_p: int) -> PilotSet:
    """Construct ``n_p`` orthogonal pilot sequences of length ``n_p``.

    ``n_p`` must be a power of two (Sylvester construction).  All rows,
    including the all-ones row, are usable pilots.
    """
    if n_p < 1 or (n_p & (n_p - 1)) != 0:
        raise ValueError(f"pilot count must be a power of two, got {n_p}")
    seqs = hadamard(n_p, dtype=np.int64)
    seqs.setflags(write=False)
    return PilotSet(sequences=seqs)


def walsh_hadamard_transform(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (Sylvester ordering).

    Equivalent to ``x @ H`` for the symmetric Hadamard matrix ``H`` of the
    same order, but computed with radix-2 butterflies.  The butterfly tree
    sums every element exactly once per stage, so pilot-aligned inputs
    cancel or accumulate exactly in floating point.
    """
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"transform length must be a power of two, got {n}")
    y = x.copy()
    length = 1
    while length < n:
        y = y.reshape(x.shape[:-1] + (n // (2 * length), 2, length))
        top = y[..., 0, :] + y[..., 1, :]
        bot = y[..., 0, :] - y[..., 1, :]
        y = np.stack((top, bot), axis=-2)
        length *= 2
    return y.reshape(x.shape)


def qpsk_modulate(bits) -> np.ndarray:
    """Map a bit sequence onto unit-energy Gray-labeled QPSK symbols.

    The leading bit of each pair selects the sign of the real part, the
    trailing bit the sign of the imaginary part; a 0 bit maps to +1/sqrt(2).
    Adjacent constellation points differ in exactly one bit.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.shape[-1]}")
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    re = 1.0 - 2.0 * pairs[..., 0]
    im = 1.0 - 2.0 * pairs[..., 1]
    return _SQRT_HALF * (re + 1j * im)


def qpsk_hard_demodulate(symbols) -> np.ndarray:
    """Hard-decision demodulation: each bit is the sign of one quadrature."""
    symbols = np.asarray(symbols)
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits
