"""Environmental noise: local depolarizing channels and particle loss.

The single-qubit depolarizing channel with strength p in [0, 1] is the
trace-preserving map

    rho -> (1 - p) rho + p * (tr_q rho) (x) I_q / 2,

i.e. with probability p the qubit is replaced by white noise.  Complete
positivity follows from the equivalent Kraus form
{sqrt(1 - 3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}.

The channel is diagonal in the Pauli basis: it scales a Pauli string by
(1 - p) for each qubit where the string is X, Y or Z (Nielsen & Chuang
section 8.3).  In the computational basis this means it maps entry (i, j)
only onto (i ^ e_q, j ^ e_q), where e_q is the bit of qubit q, and so keeps
the XOR offset x = i ^ j.  The matrix splits into 2^n slices
{(i, i ^ x)}, each mapped into itself by every channel.  A slice's update
reads only that slice, so a slice that holds only zeros stays exactly zero.
Cat states occupy few slices: 67 of 4096 for the W-cat with N = 11, 56 of
2048 after one loss, and 2 and 1 for the GHZ-cat.  ``DensityMatrix``
stores only those slices, and the kernel updates them where they are
stored: there is no full matrix to copy or scan.

Particle loss traces out the highest-indexed macro qubits; all cat states
here are permutation symmetric over the macro register, so which qubits are
lost is immaterial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DensityMatrix, _index, partial_trace, to_density
from .cats import w_cat

__all__ = [
    "depolarize_qubit",
    "depolarize_all",
    "lose_particles",
    "noisy_wcat",
]


def _check_prob(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    return p


def _depolarize_inplace(values: np.ndarray, offsets: np.ndarray, qubits: Sequence[int],
                        p: float) -> None:
    """Apply the channel to each of ``qubits``, in order, on a state's slices.

    ``values[s, i] = M[i, i ^ offsets[s]]`` as stored by ``DensityMatrix``,
    C-contiguous and updated in place.  On a slice whose x has the qubit's
    bit e set, the channel scales by 1 - p.  Otherwise it pairs i with
    i ^ e and adds p/2 times the pair's sum, the slice's share of tr_q rho.
    The arithmetic is that of the full-matrix update, in the same order, so
    the result is bit for bit the same; slices that are not stored are
    exact zeros and stay so.  The cost per qubit is proportional to the
    stored slices times 2^n; no full matrix is copied or scanned.
    """
    if p == 0.0:
        return
    count, dim = values.shape
    n = dim.bit_length() - 1
    for q in qubits:
        bit = 1 << (n - 1 - q)
        pairs = values.reshape(count, dim // (2 * bit), 2, bit)  # axis 2 is qubit q of i
        mixed = np.flatnonzero((offsets & bit) == 0)
        marginal = pairs[mixed, :, 0] + pairs[mixed, :, 1]   # this slice's tr_q rho
        marginal *= p / 2.0
        values *= 1.0 - p
        pairs[mixed, :, 0] += marginal
        pairs[mixed, :, 1] += marginal


def _depolarized(rho: DensityMatrix, qubits: Sequence[int], p: float) -> DensityMatrix:
    values = rho.values.copy()
    _depolarize_inplace(values, rho.offsets, qubits, p)
    return DensityMatrix(rho.n_qubits, (rho.offsets, values), _trusted=True)


def depolarize_qubit(rho: DensityMatrix, q: int, p: float) -> DensityMatrix:
    """Depolarize qubit ``q`` with strength ``p``; trace-preserving and CP."""
    p = _check_prob(p)
    q = _index(q, "q")
    if not 0 <= q < rho.n_qubits:
        raise ValueError(f"qubit index {q} outside 0..{rho.n_qubits - 1}")
    return _depolarized(rho, (q,), p)


def depolarize_all(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Depolarize every qubit with the same strength.

    Channels on distinct qubits commute, so the application order is
    immaterial; p = 1 yields the maximally mixed state.  All channels act
    on one working copy of the input's slices.
    """
    p = _check_prob(p)
    return _depolarized(rho, range(rho.n_qubits), p)


def lose_particles(rho: DensityMatrix, m: int) -> DensityMatrix:
    """Trace out the last ``m`` qubits of the macro register.

    The micro qubit (index 0) is never lost; m may equal the full macro
    count, leaving a single-qubit (product) state.  m = 0 returns the input
    unchanged.
    """
    m = _index(m, "m")
    n_macro = rho.n_qubits - 1
    if m < 0 or m > n_macro:
        raise ValueError(f"cannot lose {m} of {n_macro} macro qubits")
    return partial_trace(rho, range(rho.n_qubits - m, rho.n_qubits))


def noisy_wcat(N: int, m: int, p: float) -> DensityMatrix:
    """Loss-then-decoherence pipeline applied to the (N+1)-qubit W-cat.

    Loses m macro qubits, then depolarizes each of the N - m + 1 survivors
    with strength p.  Loss and depolarization commute on the survivors, so
    the order is a convention, not a physical choice.
    """
    return depolarize_all(lose_particles(to_density(w_cat(N)), m), p)
