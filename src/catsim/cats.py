"""Constructors for the cat states under study.

Every state is returned as a PureState with the microscopic qubit at index 0
(the most significant bit); the remaining qubits form the macroscopic
register.  N always counts macroscopic qubits, so the returned states have
N + 1 qubits, except ``w_state``/``w_tilde`` which are bare N-qubit registers
used as building blocks.

N = 1 and N = 2 degenerate cases are deliberately allowed: several collapse
to product or Bell states and serve as analytic fixtures in the tests.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import PureState, _index

__all__ = [
    "CatStateKind",
    "w_state",
    "w_tilde",
    "w_cat",
    "ghz_cat",
    "psi1_g_state",
    "psi2",
    "psi3_concat_ghz",
    "build_cat",
]

_SQRT2 = np.sqrt(2.0)


class CatStateKind(enum.Enum):
    """Tags for the five cat-state families, as spelled in output files."""

    GHZ_CAT = "GhzCat"
    W_CAT = "WCat"
    PSI1_G_STATE = "Psi1GState"
    PSI2 = "Psi2"
    PSI3_CONCAT = "Psi3Concat"


def w_state(N: int) -> PureState:
    """Equal superposition of the N basis strings with a single 1.

    Amplitude 1/sqrt(N) at each index 2**(N-1-i) for i = 0..N-1.
    """
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"w_state needs N >= 1, got {N}")
    amps = np.zeros(2**N, dtype=complex)
    for i in range(N):
        amps[1 << (N - 1 - i)] = 1.0 / np.sqrt(N)
    return PureState(N, amps)


def w_tilde(N: int) -> PureState:
    """All-qubit bit flip of the W state: one 0 among N - 1 ones."""
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"w_tilde needs N >= 1, got {N}")
    w = w_state(N).amplitudes
    amps = np.zeros_like(w)
    full = 2**N - 1
    for idx in np.flatnonzero(w):
        amps[full ^ idx] = w[idx]
    return PureState(N, amps)


def _cat(branch0: PureState, branch1: PureState) -> PureState:
    """(|0>|branch0> + |1>|branch1>)/sqrt(2) with the micro qubit on top."""
    amps = np.concatenate([branch0.amplitudes, branch1.amplitudes]) / _SQRT2
    return PureState(branch0.n_qubits + 1, amps)


def _all_zeros(N: int) -> PureState:
    amps = np.zeros(2**N, dtype=complex)
    amps[0] = 1.0
    return PureState(N, amps)


def w_cat(N: int) -> PureState:
    """(|0>|W_N> + |1>|0...0>)/sqrt(2): the loss-resistant cat.

    N + 1 qubits with exactly N + 1 nonzero amplitudes.
    """
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"w_cat needs N >= 1, got {N}")
    return _cat(w_state(N), _all_zeros(N))


def ghz_cat(N: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on N + 1 qubits."""
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"ghz_cat needs N >= 1, got {N}")
    amps = np.zeros(2**(N + 1), dtype=complex)
    amps[0] = amps[-1] = 1.0 / _SQRT2
    return PureState(N + 1, amps)


def psi1_g_state(N: int) -> PureState:
    """(|0>|W_N> + |1>|~W_N>)/sqrt(2): both branches are excitation states.

    For N = 2 the two branches coincide and the state is a product.
    """
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"psi1_g_state needs N >= 1, got {N}")
    return _cat(w_state(N), w_tilde(N))


def psi2(N: int) -> PureState:
    """(|0>|~W_N> + |1>|0...0>)/sqrt(2).

    For N = 1, ~W_1 = |0> and the state degenerates to |+>|0>.
    """
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"psi2 needs N >= 1, got {N}")
    return _cat(w_tilde(N), _all_zeros(N))


def _ghz_block(l: int, sign: int) -> np.ndarray:
    amps = np.zeros(2**l, dtype=complex)
    amps[0] = 1.0 / _SQRT2
    amps[-1] = sign / _SQRT2
    return amps


def psi3_concat_ghz(l: int, n_logical: int) -> PureState:
    """(|G+>^(x n_logical) + |G->^(x n_logical))/sqrt(2) with l-qubit blocks.

    |G+-> = (|0..0> +- |1..1>)/sqrt(2) on l qubits.  Logical qubit k occupies
    physical qubits k*l .. k*l + l - 1; logical qubit 0 plays the micro role
    in bipartitions.  Total physical qubits: l * n_logical.
    """
    l, n_logical = _index(l, "l"), _index(n_logical, "n_logical")
    if l < 1:
        raise ValueError(f"psi3_concat_ghz needs l >= 1, got {l}")
    if n_logical < 2:
        raise ValueError(f"psi3_concat_ghz needs n_logical >= 2, got {n_logical}")
    plus = _ghz_block(l, +1)
    minus = _ghz_block(l, -1)
    vp, vm = plus, minus
    for _ in range(n_logical - 1):
        vp = np.kron(vp, plus)
        vm = np.kron(vm, minus)
    # <G+|G-> = 0, so the two branches are orthonormal and the 1/sqrt(2) is exact
    return PureState(l * n_logical, (vp + vm) / _SQRT2)


def build_cat(kind: CatStateKind, N: int, l: int = 2) -> PureState:
    """Dispatch on the family tag; N counts macro (logical) qubits."""
    if kind is CatStateKind.GHZ_CAT:
        return ghz_cat(N)
    if kind is CatStateKind.W_CAT:
        return w_cat(N)
    if kind is CatStateKind.PSI1_G_STATE:
        return psi1_g_state(N)
    if kind is CatStateKind.PSI2:
        return psi2(N)
    if kind is CatStateKind.PSI3_CONCAT:
        return psi3_concat_ghz(l, _index(N, "N") + 1)
    raise ValueError(f"unknown cat-state kind {kind!r}")
