"""Exact dense multi-qubit linear algebra.

Everything downstream (noise channels, entanglement measures, closed-form
cross-checks) is validated against the operations in this module, so they are
kept deliberately simple: plain numpy arrays wrapped in thin types, validated
where a caller's state or array enters.  The package's own maps keep the
invariants, so their results are not checked again; the test suite and
``catsim validate`` measure that they keep them.

Spectra are exact but not brute force.  The noisy cat states and their
partial transposes are block diagonal in the computational basis, up to a
permutation of basis states: the W-cat's partial transpose conserves a
shifted excitation number (largest block 462 of 2048 at 11 qubits) and the
GHZ-cat's couples only pairs of basis states.  :func:`hermitian_spectrum` reads the blocks off the nonzero pattern
of its input and diagonalizes each one, so no per-family knowledge is needed
and an input without such structure costs one full eigensolve as before.

Basis convention used throughout the package: computational basis states are
ordered lexicographically with qubit 0 as the most significant bit, i.e. the
basis index of |b0 b1 ... b_{n-1}> is sum_i b_i 2^(n-1-i).  Qubit 0 is the
microscopic qubit of every cat state.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "CapacityError",
    "get_dense_cap",
    "set_dense_cap",
    "PureState",
    "DensityMatrix",
    "Bipartition",
    "Spectrum",
    "tensor",
    "to_density",
    "partial_trace",
    "partial_transpose",
    "hermitian_spectrum",
    "permute_qubits",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by every module.

    Values are far below the two-significant-figure precision of the
    quantities this package reproduces, but above the eigensolver noise
    floor of a 4096x4096 double-precision Hermitian problem.
    """

    unit_norm: float = 1e-12          # |norm - 1| for pure states
    hermiticity: float = 1e-12        # max |M - M^dag| for density matrices
    trace: float = 1e-12              # |tr - 1| for density matrices
    positivity: float = -1e-10        # smallest admissible eigenvalue
    hermitian_input: float = 1e-10    # hermiticity required of eigensolver input
    pt_trace: float = 1e-10           # |tr - 1| of a partial-transpose spectrum
    eigenvalue_clamp: float = -1e-10  # PT eigenvalues above this count as zero
    formula_clamp: float = -1e-15     # closed-form eigenvalues above this count as zero
    negativity_floor: float = 1e-9    # negativity below this counts as unentangled


TOL = Tolerances()

_DEFAULT_DENSE_CAP = 12
_dense_cap = _DEFAULT_DENSE_CAP


class CapacityError(Exception):
    """Raised when an operation would allocate a state above the dense cap."""


def get_dense_cap() -> int:
    """Current limit on total qubits for dense-engine objects."""
    return _dense_cap


def set_dense_cap(n_qubits: int) -> None:
    """Raise or lower the dense-engine qubit cap (default 12).

    At 12 qubits a density matrix is 4096^2 complex doubles (~268 MB); the
    default keeps the exact engine desk-scale.
    """
    if n_qubits < 1:
        raise ValueError(f"dense cap must be >= 1, got {n_qubits}")
    global _dense_cap
    _dense_cap = int(n_qubits)


def _check_capacity(n_qubits: int) -> None:
    if n_qubits > _dense_cap:
        raise CapacityError(
            f"{n_qubits} qubits exceeds the dense-engine cap of {_dense_cap}; "
            f"raise it with set_dense_cap() or use the closed-form engine"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ``n_qubits`` qubits.

    ``amplitudes`` has length 2**n_qubits and unit Euclidean norm.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        _check_capacity(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {2**self.n_qubits}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOL.unit_norm:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {TOL.unit_norm}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator over ``n_qubits`` qubits.

    Hermiticity and trace are enforced when a caller constructs one.  The
    maps (and ``negativity``'s partial transpose) build with the private
    ``_trusted=True`` form, which runs no check: each only permutes entries
    or adds conjugate pairs with real weights, so its output's defects are
    at most its input's (summed for ``tensor``), plus rounding.  Positivity
    (min eigenvalue >= -1e-10) is O(dim^3) to check.  The tests and ``validate``
    verify all three on map results; :meth:`min_eigenvalue` checks one state.
    """

    n_qubits: int
    elements: np.ndarray
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted):
        if _trusted:
            object.__setattr__(self, "elements", _readonly(self.elements))
            return
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        _check_capacity(self.n_qubits)
        mat = np.asarray(self.elements, dtype=complex)
        dim = 2**self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        herm_defect = _hermiticity_defect(mat)
        if herm_defect > TOL.hermiticity:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {herm_defect:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TOL.trace:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TOL.trace}")
        object.__setattr__(self, "elements", _readonly(mat))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; >= -1e-10 for every state this package builds."""
        return hermitian_spectrum(self).minimum


@dataclass(frozen=True)
class Bipartition:
    """A split of qubit indices 0..n-1 into two disjoint non-empty groups."""

    side_a: tuple
    side_b: tuple

    def __post_init__(self):
        a = tuple(sorted(set(int(q) for q in self.side_a)))
        b = tuple(sorted(set(int(q) for q in self.side_b)))
        if not a or not b:
            raise ValueError("both sides of a bipartition must be non-empty")
        if set(a) & set(b):
            raise ValueError(f"sides overlap: {set(a) & set(b)}")
        n = len(a) + len(b)
        if set(a) | set(b) != set(range(n)):
            raise ValueError(f"sides {a} and {b} do not cover 0..{n - 1}")
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)

    @property
    def n_qubits(self) -> int:
        return len(self.side_a) + len(self.side_b)

    @classmethod
    def micro_macro(cls, n_qubits: int) -> "Bipartition":
        """Qubit 0 versus everything else: the micro : macro cut."""
        if n_qubits < 2:
            raise ValueError("micro:macro cut needs at least 2 qubits")
        return cls((0,), tuple(range(1, n_qubits)))

    @classmethod
    def split(cls, side_a: Iterable[int], n_qubits: int) -> "Bipartition":
        a = set(int(q) for q in side_a)
        return cls(tuple(a), tuple(q for q in range(n_qubits) if q not in a))


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues of a Hermitian operator, sorted ascending."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        if ev.size and np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", _readonly(ev))

    @property
    def minimum(self) -> float:
        return float(self.eigenvalues[0])

    def sum(self) -> float:
        return float(self.eigenvalues.sum())


def tensor(a, b):
    """Kronecker product of two states of the same kind.

    The first factor supplies the high-order qubits, so
    ``tensor(x, y)`` puts ``x`` on qubits 0..x.n-1.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        _check_capacity(a.n_qubits + b.n_qubits)  # before the product is allocated
        return PureState(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        _check_capacity(a.n_qubits + b.n_qubits)
        return DensityMatrix(a.n_qubits + b.n_qubits, np.kron(a.elements, b.elements), _trusted=True)
    raise TypeError(
        f"tensor requires two PureState or two DensityMatrix operands, "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()), _trusted=True)


def partial_trace(rho: DensityMatrix, drop: Iterable[int]) -> DensityMatrix:
    """Trace out the qubits in ``drop``; the rest keep their relative order.

    An empty ``drop`` returns the input unchanged.  Tracing out everything
    is rejected.
    """
    drop_set = set(int(q) for q in drop)
    n = rho.n_qubits
    if not drop_set:
        return rho
    if not drop_set <= set(range(n)):
        raise ValueError(f"drop indices {sorted(drop_set)} outside 0..{n - 1}")
    if len(drop_set) == n:
        raise ValueError("cannot trace out every qubit")
    t = rho.elements.reshape((2,) * (2 * n))
    remaining = n
    for q in sorted(drop_set, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + remaining)
        remaining -= 1
    return DensityMatrix(remaining, t.reshape(2**remaining, 2**remaining), _trusted=True)


def partial_transpose(rho, side: Sequence[int]) -> np.ndarray:
    """Transpose the qubits in ``side``; returns a Hermitian ndarray.

    Accepts a DensityMatrix or a square 2^n x 2^n ndarray (so the operation
    can be applied to its own output).  The result has trace 1 but is
    generally not positive; negative eigenvalues witness entanglement across
    side : rest.  Transposing the same side twice is the identity, and
    transposing the complementary side yields the same spectrum (the full
    transpose of a Hermitian matrix).
    """
    if isinstance(rho, DensityMatrix):
        mat, n = rho.elements, rho.n_qubits
    else:
        mat = np.asarray(rho, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        n = int(round(np.log2(mat.shape[0])))
        if 2**n != mat.shape[0]:
            raise ValueError(f"matrix side {mat.shape[0]} is not a power of 2")
    side_set = set(int(q) for q in side)
    if not side_set <= set(range(n)):
        raise ValueError(f"side indices {sorted(side_set)} outside 0..{n - 1}")
    t = mat.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in side_set:
        perm[q], perm[n + q] = perm[n + q], perm[q]
    return t.transpose(perm).reshape(mat.shape)


_STRIP = 32  # rows per pass of the Hermiticity check


def _hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^dag| over the entries.

    Works through strips of rows, so the one temporary holds a strip, not a
    second d x d matrix, and the transposed read stays cache friendly.
    """
    defect = 0.0
    for i in range(0, mat.shape[0], _STRIP):
        diff = np.conj(mat[:, i:i + _STRIP].T)
        diff -= mat[i:i + _STRIP]
        defect = max(defect, np.max(np.abs(diff)))
    return defect


def _block_labels(mat: np.ndarray) -> np.ndarray:
    """Label each basis index with the smallest index of its exact block.

    Indices i and j share a block when they are linked by a chain of nonzero
    entries.  Min-label propagation: each index takes the smallest label
    among its neighbours (itself included), that label is passed on to the
    index it points at, and every index then takes the label of its label,
    until nothing changes.  Labels only decrease and never leave a block, so
    the fixed point is the smallest index of each block; passing labels on
    keeps the number of rounds small even for long chains of links.
    """
    linked = mat != 0
    linked |= linked.T
    np.fill_diagonal(linked, True)
    d = mat.shape[0]
    labels = np.arange(d, dtype=np.min_scalar_type(d))
    while True:
        low = np.where(linked, labels, d).min(axis=1, initial=d)
        new = np.minimum(labels, low)
        np.minimum.at(new, labels, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def hermitian_spectrum(op) -> Spectrum:
    """Eigenvalues of a Hermitian operator, ascending.

    Accepts a DensityMatrix, Hermitian by construction, or a square ndarray
    (e.g. a partial transpose), which is rejected if its hermiticity defect
    exceeds 1e-10.  Output is deterministic for identical input.

    The basis indices are split into the connected components of the
    nonzero pattern, which are exact diagonal blocks of the operator after a
    permutation.  Blocks of equal size are stacked and diagonalized by one
    ``eigvalsh`` call; the spectrum is the sorted union.  A single block is
    the whole matrix and is diagonalized as it stands.  Each block keeps the
    basis order of the input, so every solve reads the same lower triangle
    a full solve would.
    """
    mat = op.elements if isinstance(op, DensityMatrix) else np.asarray(op, dtype=complex)
    if not isinstance(op, DensityMatrix):  # a DensityMatrix is Hermitian by construction
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        defect = _hermiticity_defect(mat)
        if defect > TOL.hermitian_input:
            raise ValueError(f"operator is not Hermitian: max |M - M^dag| = {defect:.3e}")
    labels = _block_labels(mat)
    if not labels.any():
        return Spectrum(np.linalg.eigvalsh(mat))
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    parts = []
    for size in np.unique(sizes):
        idx = order[first[sizes == size, None] + np.arange(size)]
        parts.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).ravel())
    return Spectrum(np.sort(np.concatenate(parts)))


def permute_qubits(state, permutation: Sequence[int]):
    """Relabel qubits: new qubit i is old qubit permutation[i].

    Works for PureState and DensityMatrix; used mainly to check permutation
    symmetries.
    """
    perm = list(int(q) for q in permutation)
    n = state.n_qubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    if isinstance(state, PureState):
        t = state.amplitudes.reshape((2,) * n).transpose(perm)
        return PureState(n, t.reshape(-1))
    if isinstance(state, DensityMatrix):
        t = state.elements.reshape((2,) * (2 * n))
        t = t.transpose(perm + [n + q for q in perm])
        return DensityMatrix(n, t.reshape(state.dim, state.dim), _trusted=True)
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
