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
Cat states occupy few slices: 56 of 2048 for the W-cat with N = 10, 46 of
1024 after one loss, and 2 and 1 for the GHZ-cat.  The kernel therefore
works on the occupied slices only.

Particle loss traces out the highest-indexed macro qubits; all cat states
here are permutation symmetric over the macro register, so which qubits are
lost is immaterial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DensityMatrix, partial_trace, to_density
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


# Working memory: the slice scan reads _STRIP_ENTRIES entries of the matrix at
# a time, and the update gathers _CHUNK_SLICES slices at a time (2 MB of
# values and 1 MB of indices at 12 qubits).
_STRIP_ENTRIES = 2**16
_CHUNK_SLICES = 32


def _occupied_slices(mat: np.ndarray) -> np.ndarray:
    """The offsets x = i ^ j of the nonzero entries M[i, j], ascending."""
    dim = mat.shape[0]
    occupied = np.zeros(dim, dtype=bool)
    rows = max(1, _STRIP_ENTRIES // dim)
    for start in range(0, dim, rows):
        k = np.flatnonzero(mat[start:start + rows] != 0) + start * dim  # k = i * dim + j
        occupied[(k // dim) ^ (k % dim)] = True
    return np.flatnonzero(occupied)


def _depolarize_inplace(mat: np.ndarray, n: int, qubits: Sequence[int], p: float) -> None:
    """Apply the channel to each of ``qubits``, in order, on a C-contiguous matrix.

    The occupied slices are found once, since every channel keeps them.  They
    are then updated in chunks: gather v[s, i] = M[i, i ^ x_s], apply each
    qubit's channel and scatter v back.  On a slice whose x has the qubit's
    bit e set, the channel scales by 1 - p.  Otherwise it pairs i with
    i ^ e and adds p/2 times the pair's sum, the slice's share of tr_q rho.
    The arithmetic is that of the full-matrix update, in the same order, so
    the result is bit for bit the same; unoccupied slices are never read or
    written, and their exact zeros stay exact.

    The cost is one scan of the matrix plus, per qubit, work proportional
    to the occupied slices times 2^n.  A dense input (a generic mixed state,
    which no catsim command builds) occupies all 2^n slices, so every entry
    is gathered and updated; at 11 qubits that took 0.39 s against 0.47 s
    for strided passes over the whole matrix (one core, OpenBLAS 1 thread).
    """
    if p == 0.0:
        return
    dim = 2**n
    flat = mat.reshape(-1)  # a view, so writes land in mat
    index = np.arange(dim)
    slices = _occupied_slices(mat)
    for start in range(0, len(slices), _CHUNK_SLICES):
        xs = slices[start:start + _CHUNK_SLICES]
        where = index * dim + (index ^ xs[:, None])  # flat position of M[i, i ^ x]
        v = flat[where]
        for q in qubits:
            bit = 1 << (n - 1 - q)
            pairs = v.reshape(len(xs), dim // (2 * bit), 2, bit)  # axis 2 is qubit q of i
            mixed = np.flatnonzero((xs & bit) == 0)
            marginal = pairs[mixed, :, 0] + pairs[mixed, :, 1]   # this slice's tr_q rho
            marginal *= p / 2.0
            v *= 1.0 - p
            pairs[mixed, :, 0] += marginal
            pairs[mixed, :, 1] += marginal
        flat[where] = v


def depolarize_qubit(rho: DensityMatrix, q: int, p: float) -> DensityMatrix:
    """Depolarize qubit ``q`` with strength ``p``; trace-preserving and CP."""
    p = _check_prob(p)
    if not 0 <= q < rho.n_qubits:
        raise ValueError(f"qubit index {q} outside 0..{rho.n_qubits - 1}")
    mat = rho.elements.copy()
    _depolarize_inplace(mat, rho.n_qubits, (q,), p)
    return DensityMatrix(rho.n_qubits, mat, _trusted=True)


def depolarize_all(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Depolarize every qubit with the same strength.

    Channels on distinct qubits commute, so the application order is
    immaterial; p = 1 yields the maximally mixed state.  All channels act
    on one working copy of the input.
    """
    p = _check_prob(p)
    mat = rho.elements.copy()
    _depolarize_inplace(mat, rho.n_qubits, range(rho.n_qubits), p)
    return DensityMatrix(rho.n_qubits, mat, _trusted=True)


def lose_particles(rho: DensityMatrix, m: int) -> DensityMatrix:
    """Trace out the last ``m`` qubits of the macro register.

    The micro qubit (index 0) is never lost; m may equal the full macro
    count, leaving a single-qubit (product) state.  m = 0 returns the input
    unchanged.
    """
    m = int(m)
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
