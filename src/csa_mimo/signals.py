"""Signal-level primitives: seeded streams, fading/noise draws, pilots, QPSK.

Everything here is pure given a generator, so frame trials can run on
independent workers without shared state.
"""
from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

# The QPSK symbol of bit pair (b0, b1) at index 2*b0 + b1, computed with the
# mapping's own formula so that a table lookup reproduces it bit for bit.
_QPSK_SYMBOLS = (1.0 / np.sqrt(2.0)) * (
    (1.0 - 2.0 * np.array([0, 0, 1, 1])) + 1j * (1.0 - 2.0 * np.array([0, 1, 0, 1]))
)

# A draw split across threads: numpy's ziggurat takes one 64-bit word for
# almost every normal and more words for its rare rejection steps, so n
# normals span about _WORDS_PER_NORMAL * n words of the stream.
_WORDS_PER_NORMAL = 1.022
_MIN_PART = 1 << 20      # normals per thread below which one thread draws everything
_MATCH = 8               # equal consecutive normals taken as the same stream position

# Threads a draw may split across; None for one per CPU this process may run
# on.  Pool workers set 1, as they run one BLAS thread: the pool fills the CPUs.
draw_threads = None


@dataclass(frozen=True)
class RandomStream:
    """Value-like handle for one reproducible random stream.

    Identical (seed, stream_id) pairs reproduce identical draws no matter
    where or when the stream is consumed; distinct stream ids give
    statistically independent sequences.  One stream per frame trial.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            if not 0 <= getattr(self, name) < 2**64:
                raise ValueError(f"{name} must be in [0, 2**64), got {getattr(self, name)}")

    def generator(self) -> np.random.Generator:
        """Create a fresh generator positioned at the start of the stream."""
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))


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


def standard_normal_segments(rng: np.random.Generator, sizes) -> list:
    """``rng.standard_normal(sum(sizes))`` as one array per consecutive segment.

    The values and the generator's final state are exactly those of the
    serial draw.  The draw is split at segment boundaries into one part per
    thread (see ``_part_count``), each drawn on its own thread; every segment
    is a view into its part's buffer, and nothing is copied.  A split draw
    needs a bit generator that can ``advance``, such as the PCG64 of every
    ``RandomStream``.

    Part k > 0 starts from a copy of ``rng`` advanced to a guess of its
    first word, ``margin`` words early; at 8 sqrt(offset) words, the margin
    is many times the spread of the guess.  Decoding from a wrong word falls
    into step with the true decoding within a few normals, so long before
    the part's true start.  After the threads join, the parts are resolved
    in order: the first ``_MATCH`` normals from the true end of part k - 1
    are looked up among the first ``2 * margin`` normals part k drew, the
    part starts where they are found, and the normals the early start left
    missing at its end are drawn into spare room.  When they are not found,
    the part is redrawn from its true start, which is exact too.
    """
    sizes = [int(size) for size in sizes]
    ends = np.cumsum([0] + sizes).tolist()
    total = ends[-1]
    if total == 0:
        return [np.empty(0) for _ in sizes]
    n_parts = _part_count(total)
    # part k starts at the first segment boundary at or past k/n_parts of the draw
    starts = np.unique(
        np.array(ends)[np.searchsorted(ends, np.arange(n_parts) * total / n_parts)])
    bounds = [int(start) for start in starts if start < total] + [total]
    lengths = np.diff(bounds).tolist()

    origin = rng.bit_generator.state
    gens, windows = [rng], [0]
    for lo in bounds[1:-1]:
        margin = int(8 * math.sqrt(lo)) + 64
        gen = copy.deepcopy(rng)
        gen.bit_generator.advance(max(0, round(lo * _WORDS_PER_NORMAL) - margin))
        gens.append(gen)
        windows.append(2 * margin + _MATCH)
    windows = [min(window, n) for window, n in zip(windows, lengths)]
    # spare room for the normals an early start leaves missing at the end
    bufs = [np.empty(n + window) for n, window in zip(lengths, windows)]
    with ThreadPoolExecutor(max(1, len(gens) - 1)) as pool:
        futures = [
            pool.submit(_fill, gen, buf[:n])
            for gen, buf, n in zip(gens[1:], bufs[1:], lengths[1:])
        ]
        _fill(rng, bufs[0][:lengths[0]])
        for future in futures:
            future.result()

    parts = [bufs[0][:lengths[0]]]
    for k in range(1, len(gens)):
        gen, buf, n = gens[k], bufs[k], lengths[k]
        probe = copy.deepcopy(gens[k - 1]).standard_normal(_MATCH)
        start = _locate(probe, buf[:windows[k]])
        if start is None:
            gen.bit_generator.state = gens[k - 1].bit_generator.state
            _fill(gen, buf[:n])
            start = 0
        else:
            _fill(gen, buf[n:n + start])
        parts.append(buf[start:start + n])

    if len(gens) > 1:
        state = gens[-1].bit_generator.state
        # advance() clears the buffered 32-bit half, which no normal draw touches
        state["has_uint32"], state["uinteger"] = origin["has_uint32"], origin["uinteger"]
        rng.bit_generator.state = state

    segments, k = [], 0
    for lo, hi in zip(ends, ends[1:]):
        if hi > bounds[k + 1]:  # a nonempty segment past part k starts part k + 1
            k += 1
        segments.append(parts[k][lo - bounds[k]:hi - bounds[k]])
    return segments


def _part_count(total: int) -> int:
    """Parts a draw of ``total`` normals is split into: one per thread it may
    use, and fewer, down to one, below ``_MIN_PART`` normals per part."""
    threads = draw_threads
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(threads, total // _MIN_PART))


def _fill(gen: np.random.Generator, out: np.ndarray) -> None:
    """Draw one part: numpy releases the interpreter lock while it fills ``out``."""
    gen.standard_normal(out=out)


def _locate(probe: np.ndarray, window: np.ndarray):
    """The first index at which ``window`` holds ``probe``, or None."""
    candidates = window[:max(0, window.size - probe.size + 1)] == probe[0]
    for i in np.flatnonzero(candidates).tolist():
        if np.array_equal(window[i:i + probe.size], probe):
            return i
    return None


def build_hadamard_pilots(n_p: int) -> np.ndarray:
    """The read-only (n_p, n_p) matrix of ``n_p`` orthogonal +/-1 pilots, one per row.

    ``n_p`` must be a power of two (Sylvester construction).  All rows,
    including the all-ones row, are usable pilots.  Rows are in Sylvester
    order, so the matched filter against all pilots at once is the
    Walsh-Hadamard transform (see ``walsh_hadamard_transform``).
    """
    if n_p < 1 or (n_p & (n_p - 1)) != 0:
        raise ValueError(f"pilot count must be a power of two, got {n_p}")
    seqs = hadamard(n_p, dtype=np.int64)
    seqs.setflags(write=False)
    return seqs


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
    return _QPSK_SYMBOLS[2 * bits[..., 0::2] + bits[..., 1::2]]


def qpsk_hard_demodulate(symbols) -> np.ndarray:
    """Hard-decision demodulation: each bit is the sign of one quadrature."""
    symbols = np.asarray(symbols)
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits
