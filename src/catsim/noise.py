"""Environmental noise: local depolarizing channels and particle loss.

The single-qubit depolarizing channel with strength p in [0, 1] is the
trace-preserving map

    rho -> (1 - p) rho + p * (tr_q rho) (x) I_q / 2,

i.e. with probability p the qubit is replaced by white noise.  Complete
positivity follows from the equivalent Kraus form
{sqrt(1 - 3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}.

Particle loss traces out the highest-indexed macro qubits; all cat states
here are permutation symmetric over the macro register, so which qubits are
lost is immaterial.
"""

from __future__ import annotations

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


def _depolarize_inplace(mat: np.ndarray, n: int, q: int, p: float) -> None:
    """Apply the channel to qubit q of a C-contiguous 2^n x 2^n matrix, in place."""
    if p == 0.0:
        return
    a, b = 2**q, 2 ** (n - 1 - q)
    t = mat.reshape(a, 2, b, a, 2, b)   # a view, so writes land in mat
    marginal = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]   # tr_q rho
    marginal *= p / 2.0
    t *= 1.0 - p
    t[:, 0, :, :, 0, :] += marginal
    t[:, 1, :, :, 1, :] += marginal


def depolarize_qubit(rho: DensityMatrix, q: int, p: float) -> DensityMatrix:
    """Depolarize qubit ``q`` with strength ``p``; trace-preserving and CP."""
    p = _check_prob(p)
    if not 0 <= q < rho.n_qubits:
        raise ValueError(f"qubit index {q} outside 0..{rho.n_qubits - 1}")
    mat = rho.elements.copy()
    _depolarize_inplace(mat, rho.n_qubits, q, p)
    return DensityMatrix(rho.n_qubits, mat, _trusted=True)


def depolarize_all(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Depolarize every qubit with the same strength.

    Channels on distinct qubits commute, so the application order is
    immaterial; p = 1 yields the maximally mixed state.  All channels act
    on one working copy of the input.
    """
    p = _check_prob(p)
    mat = rho.elements.copy()
    for q in range(rho.n_qubits):
        _depolarize_inplace(mat, rho.n_qubits, q, p)
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
