"""Signal-level primitives: seeded streams, fading/noise draws, pilots, QPSK.

Everything here is pure given a generator, so frame trials can run on independent
workers without shared state, except ``one_blas_thread``, which sets the process's
BLAS thread count for the span of a block.  ``for_each_slot`` runs a frame's
independent per-slot (or per-part) stages on every CPU the process may use.
"""
from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass

import numpy as np

# The QPSK quadrature level of a 0 bit; a 1 bit has its negative
_QPSK_LEVEL = 1.0 / np.sqrt(2.0)

# A draw split across threads: numpy's ziggurat takes one 64-bit word for
# almost every normal and more words for its rare rejection steps, so n
# normals span about _WORDS_PER_NORMAL * n words of the stream.
_WORDS_PER_NORMAL = 1.022
_MIN_PART = 1 << 20      # values per thread below which one thread runs a whole stage
_MATCH = 8               # equal consecutive normals taken as the same stream position


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
            value = as_integer(name, getattr(self, name))
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        """Create a fresh generator positioned at the start of the stream."""
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))


def as_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; a TypeError naming ``name`` if it is a bool or not a Python
    or numpy integer, and a ValueError naming it if it is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        floor = "nonnegative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {floor}, got {value}")
    return value


def as_real(name: str, value, floor: str | None = None) -> float:
    """``value`` as a finite float; a TypeError naming ``name`` if it is a bool or not a
    Python or numpy real number, and a ValueError naming it if it is nan or infinite, or
    below ``floor``: ``"nonnegative"`` (>= 0) or ``"positive"`` (> 0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if floor is not None and (value < 0 or (value == 0 and floor == "positive")):
        raise ValueError(f"{name} must be {floor}, got {value}")
    return value


def complex_normal(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Zero-mean circularly symmetric complex Gaussian samples of total variance ``var``,
    split equally between the real and imaginary parts: one ``complex_normal_segments`` array."""
    return complex_normal_segments(rng, [(tuple(np.atleast_1d(shape)), var)])[0]


def complex_normal_segments(rng: np.random.Generator, draws, dtype=np.complex128) -> list:
    """One ``complex_normal`` array per ``(shape, var)`` of ``draws`` (tuple shapes), in order.

    The arrays' (real, imaginary) pairs are, in order, one ``rng.standard_normal``
    draw of all their normals, and the generator's final state is exactly that
    draw's.  Each array is scaled in float64 and rounded once into ``dtype``
    (complex64 for frames) in place, in its own float64 segment of the draw, so
    no two share memory.  Each variance goes through ``as_real`` as nonnegative,
    before any draw; variance 0 gives zeros and draws nothing.

    The draw is split at array boundaries into the parts ``_part_count`` gives,
    each drawn on its own thread (``for_each_slot``), as is the scaling.  A
    split draw needs a bit generator that can ``advance``, such as the PCG64 of
    every ``RandomStream``.  Part k > 0 starts from a copy of ``rng`` advanced
    to a guess of its first word, ``margin`` words early; at 8 sqrt(offset)
    words, the margin is many times the spread of the guess.  Decoding from a
    wrong word falls into step with the true decoding within a few normals, so
    long before the part's true start.  After the threads join, the parts are
    resolved in order: the first ``_MATCH`` normals from the true end of part
    k - 1 are looked up among the first ``2 * margin`` normals part k drew, the
    part starts where they are found, and the normals the early start left
    missing at its end are drawn into spare room.  When they are not found,
    the part is redrawn from its true start, which is exact too.
    """
    draws = [(shape, as_real("variance", var, "nonnegative")) for shape, var in draws]
    ends = np.cumsum([0] + [2 * math.prod(shape) if var else 0 for shape, var in draws]).tolist()
    total = ends[-1]
    arrays = [np.zeros(shape, dtype) if lo == hi else None
              for (shape, _), lo, hi in zip(draws, ends, ends[1:])]
    if total == 0:
        return arrays
    n_parts = _part_count(total)
    # part k starts at the first array boundary at or past k/n_parts of the draw
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
    parts = [np.empty(n + window) for n, window in zip(lengths, windows)]
    for_each_slot(lambda k: _fill(gens[k], parts[k][:lengths[k]]), len(gens), total)

    for k in range(1, len(gens)):
        gen, buf, n = gens[k], parts[k], lengths[k]
        probe = copy.deepcopy(gens[k - 1]).standard_normal(_MATCH)
        start = _locate(probe, buf[:windows[k]])
        if start is None:
            gen.bit_generator.state = gens[k - 1].bit_generator.state
            _fill(gen, buf[:n])
            start = 0
        else:
            _fill(gen, buf[n:n + start])
        parts[k] = buf[start:start + n]

    if len(gens) > 1:
        state = gens[-1].bit_generator.state
        # advance() clears the buffered 32-bit half, which no normal draw touches
        state["has_uint32"], state["uinteger"] = origin["has_uint32"], origin["uinteger"]
        rng.bit_generator.state = state

    def scale(i: int) -> None:  # array i's float64 segment becomes the array, in place
        (shape, var), lo, hi = draws[i], ends[i], ends[i + 1]
        if hi > lo:
            k = np.searchsorted(bounds, lo, "right") - 1  # the part the segment lies in
            segment = parts[k][lo - bounds[k]:hi - bounds[k]]
            out = segment.view(np.finfo(dtype).dtype)[:segment.size]
            np.multiply(segment, np.sqrt(var / 2.0), out=out, casting="same_kind")
            arrays[i] = out.view(dtype).reshape(shape)

    for_each_slot(scale, len(draws), total)
    return arrays


def uniform_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.integers(0, 2, shape, dtype=np.uint8)``, drawn four bits per 32-bit word.

    numpy's bounded uint8 draw (Lemire's method) takes one byte per value
    from 32-bit words it draws for that call alone, low byte first, and
    with range 2 returns the byte's top bit.  So the values, and the
    generator's final state, are those of drawing ``ceil(n / 4)`` words as
    uint32 and shifting each of their bytes right by 7, which this does in
    place.
    """
    shape = tuple(np.atleast_1d(shape))
    n = math.prod(shape)
    bits = rng.integers(0, 2**32, size=-(-n // 4), dtype=np.uint32).view(np.uint8)[:n]
    bits >>= 7
    return bits.reshape(shape)


def _part_count(total: int) -> int:
    """Threads a stage of ``total`` values (the normals of a
    ``complex_normal_segments`` draw, a frame's array elements) runs on: one
    per CPU this process may run on, and fewer, down to one, below
    ``_MIN_PART`` values per thread, with no BLAS worker spinning on them
    (``one_blas_thread``).  A daemonic process, such as every
    ``multiprocessing`` pool worker, runs on one thread: the pool already
    fills the CPUs."""
    if multiprocessing.current_process().daemon:
        return 1
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(threads, total // _MIN_PART))


def slot_blocks(count: int, size: int) -> list[slice]:
    """The contiguous blocks ``for_each_slot`` cuts ``range(count)`` into.

    ``size`` is the number of values the whole stage works through.  There
    is one block per thread ``_part_count(size)`` gives and at most one per
    index, so a small stage stays on one thread; with no index, the one
    block is empty.  A caller that runs a batch in blocks, such as the
    singleton experiment's trials, runs ``for_each_slot`` over these.
    """
    blocks = max(1, min(_part_count(size), count))
    return [slice(count * k // blocks, count * (k + 1) // blocks) for k in range(blocks)]


def for_each_slot(fn, count: int, size: int) -> None:
    """Call ``fn(s)`` for every ``s`` in ``range(count)``, on every CPU that pays.

    The range is cut into ``slot_blocks(count, size)``.  The calling thread
    runs the first block and one new thread each of the others; each block
    calls ``fn`` in ascending order and stops at its first exception.
    Every thread is joined before this returns or raises, and the exception
    of the first block that raised, which is the one a loop in index order
    would raise, is raised.  Blocks run at once, so ``fn(s)`` may write only
    what index s owns.  The helper threads open no ``one_blas_thread`` block
    of their own: they run inside the caller's.
    """
    blocks = slot_blocks(count, size)
    errors = [None] * len(blocks)

    def run(k: int) -> None:
        try:
            for s in range(blocks[k].start, blocks[k].stop):
                fn(s)
        except BaseException as error:  # raised again below, once every block is done
            errors[k] = error

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(blocks))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    error = next((error for error in errors if error is not None), None)
    if error is not None:
        raise error


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


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process, the first
    of the ``symbols`` pairs it exports; found once, and empty for MKL or Accelerate."""
    symbols = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}")
               for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:  # no /proc: not Linux
        return ()
    controls = []
    for path in sorted(paths):
        with contextlib.suppress(OSError, StopIteration):  # not loadable, or no pair
            library = ctypes.CDLL(path)
            names = next(n for n in symbols if all(hasattr(library, f) for f in n))
            get, set_threads = (getattr(library, name) for name in names)
            get.restype, set_threads.restype = ctypes.c_int, None
            set_threads.argtypes = [ctypes.c_int]
            controls.append((get, set_threads))
    return tuple(controls)


# Blocks of one_blas_thread open in the process, and the counts the first one saved
_blas_pin_lock = threading.Lock()
_blas_pin = {"open": 0, "saved": []}


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS found on one thread and put each count back on
    exit, also when the block raises; with none found, just run it.  The count is the
    process's, so open blocks are counted under a lock, on any thread and nested: the
    first to open saves the counts and sets them to 1, and the last to close puts them
    back.  ``for_each_slot``'s threads run inside the caller's block and open none of
    their own.  A threaded call leaves OpenBLAS's workers spinning on the CPUs the split
    normal draw uses.  The bits do not move: OpenBLAS splits a matrix product over its
    output, never over the sum."""
    with _blas_pin_lock:
        if _blas_pin["open"] == 0:
            _blas_pin["saved"] = [(set_threads, get())
                                  for get, set_threads in _blas_thread_controls()]
            for set_threads, _ in _blas_pin["saved"]:
                set_threads(1)
        _blas_pin["open"] += 1
    try:
        yield
    finally:
        with _blas_pin_lock:
            _blas_pin["open"] -= 1
            if _blas_pin["open"] == 0:
                for set_threads, count in _blas_pin["saved"]:
                    set_threads(count)


def build_hadamard_pilots(n_p: int) -> np.ndarray:
    """The read-only (n_p, n_p) int64 matrix of ``n_p`` orthogonal +/-1 pilots, one per row.

    ``n_p`` must be a power of two (Sylvester construction).  All rows,
    including the all-ones row, are usable pilots.  The matrix is the
    Walsh-Hadamard transform of the identity (I H = H), so its rows are in the
    Sylvester order that ``walsh_hadamard_transform`` correlates against.
    """
    if n_p < 1 or (n_p & (n_p - 1)) != 0:
        raise ValueError(f"pilot count must be a power of two, got {n_p}")
    seqs = np.ascontiguousarray(walsh_hadamard_transform(np.eye(n_p, dtype=np.int64)))
    seqs.setflags(write=False)
    return seqs


def walsh_hadamard_transform(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (Sylvester ordering).

    Equivalent to ``x @ H`` for the symmetric Hadamard matrix ``H`` of the
    same order, but computed with radix-2 butterflies.  The butterfly tree
    sums every element exactly once per stage, so pilot-aligned inputs
    cancel or accumulate exactly in floating point.

    Layout: the stages run along a leading axis, so that each ``a + b`` and
    ``a - b`` reads and writes whole contiguous rows.  The input is copied
    once as C-order (..., n, m), its last two axes swapped (a 1-D input as
    (n, 1)), and the stages alternate between that copy and one spare
    buffer; every element gets the same adds and subtracts in the same
    order as along the last axis, so the bits are the same.  The result is
    a view of the last buffer with the axes swapped back: the input's
    shape, Fortran order over its last two axes, sharing no memory with
    ``x``.
    """
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"transform length must be a power of two, got {n}")
    rows = np.swapaxes(np.atleast_2d(x), -1, -2).copy()
    lead, width = rows.shape[:-2], rows.shape[-1]
    spare = np.empty_like(rows)
    length = 1
    while length < n:
        shape = lead + (n // (2 * length), 2, length, width)
        pairs, sums = rows.reshape(shape), spare.reshape(shape)
        np.add(pairs[..., 0, :, :], pairs[..., 1, :, :], out=sums[..., 0, :, :])
        np.subtract(pairs[..., 0, :, :], pairs[..., 1, :, :], out=sums[..., 1, :, :])
        rows, spare = spare, rows
        length *= 2
    return np.swapaxes(rows, -1, -2).reshape(x.shape)


def qpsk_modulate(bits, out: np.ndarray | None = None) -> np.ndarray:
    """Map a bit sequence onto unit-energy Gray-labeled QPSK symbols.

    The leading bit of each pair selects the sign of the real part, the
    trailing bit the sign of the imaginary part; a 0 bit maps to +1/sqrt(2).
    Adjacent constellation points differ in exactly one bit.  Bit b becomes
    the level s - 2 s b, s = 1/sqrt(2): exactly s or -s, the bits of the
    mapping's own formula.  The (real, imaginary) pairs of levels are read
    as complex numbers.  ``out``, a C-contiguous complex128 array of the
    symbols' shape, takes the symbols in place of a new array.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.shape[-1]}")
    levels = np.multiply(bits, -2.0 * _QPSK_LEVEL, dtype=np.float64, order="C",
                         out=None if out is None else out.view(np.float64))
    levels += _QPSK_LEVEL
    return levels.view(np.complex128)


def qpsk_hard_demodulate(symbols) -> np.ndarray:
    """Hard-decision demodulation: each bit is the sign of one quadrature,
    read from the floats (real, imaginary, ...) a complex array interleaves.

    Tie rule: a bit is 1 only where its quadrature is ``< 0``, so an exactly
    zero quadrature, 0.0 or -0.0, is bit 0 whatever its sign bit.  complex64
    input is widened to complex128 first, which keeps every value and sign.
    """
    return (np.ascontiguousarray(symbols, dtype=complex).view(np.float64) < 0).view(np.uint8)
