"""Per-slot receiver front end: channel estimation, combining, decode rule.

The base station correlates the pilot phase against every pilot sequence to
estimate one channel vector per pilot, forms maximal-ratio-combining
statistics from the payload phase, and decides a decode attempt by counting
the errors of the hard-demodulated combined estimate.  Packet validation is
modeled as perfect, so a success always yields the true payload and a
failure is always detected.

This module owns three decisions that every receiver shares:

* ``estimate_all_pilot_channels``: the matched-filter estimate of every
  pilot's channel from the pilot phase;
* ``compute_combining_statistics``: the combining numerators ``f`` and
  gains ``g`` of those estimates against the payload phase, the gains
  alone by ``combining_gains``;
* ``count_errors``: the bit/symbol error count of a bounded-distance
  decode, for one attempt or a whole batch; ``DECODE_CRITERIA`` lists the
  criteria, and ``check_decode_criterion`` rejects any other where a
  criterion enters.
"""
from __future__ import annotations

import numpy as np

from .signals import walsh_hadamard_transform

DECODE_CRITERIA = ("bit", "symbol")


def estimate_all_pilot_channels(p: np.ndarray, n_p: int) -> np.ndarray:
    """Matched-filter channel estimates for every one of the ``n_p`` Hadamard pilots.

    Returns an (m, n_p) array whose column j is the pilot-j estimate
    ``p @ s_j^H / ||s_j||^2``: the sum of the channels of all users on pilot
    j plus noise with per-entry variance ``noise_var / n_p``.  Computed as a
    Walsh-Hadamard transform, which is exact for pilot-aligned inputs.

    The transform's result is in Fortran order; the division writes a new
    C-order array, because BLAS may sum an operand of another layout in
    another order, and the combining products keep their bits on this one.
    The result shares no memory with ``p``, as PAB and PRCE update it in
    place.
    """
    if p.shape[1] != n_p:
        raise ValueError(f"pilot phase has {p.shape[1]} symbols, pilot length is {n_p}")
    return np.divide(walsh_hadamard_transform(p), n_p, order="C")


def compute_combining_statistics(phi: np.ndarray, y: np.ndarray):
    """Combining statistics for one pilot estimate (or all, if 2-D).

    For a single estimate ``phi`` of shape (m,), returns ``f = phi^H y`` of
    shape (n_d,) and the scalar combining gain ``g = ||phi||^2``.  For an
    (m, n_p) column stack, returns the (n_p, n_d) stack of f rows and the
    (n_p,) gain vector.  The payload estimate of pilot j is ``f[j] / g[j]``.
    """
    return phi.conj().T @ y, combining_gains(phi)


def combining_gains(phi: np.ndarray):
    """Combining gain ``||phi||^2`` of one estimate, or (n_p,) gains of a stack."""
    if phi.ndim == 1:
        return float(np.real(phi.conj() @ phi))
    return np.einsum("ij,ij->j", phi.real, phi.real) + np.einsum(
        "ij,ij->j", phi.imag, phi.imag
    )


def check_decode_criterion(criterion: str) -> None:
    """Reject a decode criterion that is not in ``DECODE_CRITERIA``."""
    if criterion not in DECODE_CRITERIA:
        raise ValueError(
            f"unknown decode criterion {criterion!r}, expected one of {DECODE_CRITERIA}"
        )


def count_errors(bits_hat: np.ndarray, bits: np.ndarray, criterion: str) -> np.ndarray:
    """Errors of hard-demodulated bits against the transmitted packet.

    Counts along the last axis and broadcasts over leading ones, so one
    call serves a single attempt or a batch.  ``criterion="bit"`` counts
    wrong bits; ``criterion="symbol"`` counts QPSK symbols with at least one
    wrong bit (nearest-point hard decisions for Gray labeling).  A
    bounded-distance decoder correcting ``t`` errors succeeds iff the count
    is at most ``t``; the simulator knows the transmitted packet, so no
    algebraic codec is needed to decide success.
    """
    check_decode_criterion(criterion)
    if bits_hat.shape[-1] != bits.shape[-1]:
        raise ValueError(
            f"decisions have {bits_hat.shape[-1]} bits, packet has {bits.shape[-1]}"
        )
    wrong = bits_hat != bits
    if criterion == "symbol":
        wrong = wrong[..., 0::2] | wrong[..., 1::2]
    return np.count_nonzero(wrong, axis=-1)
