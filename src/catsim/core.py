"""Exact multi-qubit linear algebra, stored by XOR slice.

Everything downstream (noise channels, entanglement measures, closed-form
cross-checks) is validated against the operations in this module, so they are
kept deliberately simple: numpy arrays wrapped in thin types, validated where
a caller's state or array enters.  The package's own maps keep the
invariants, so their results are not checked again; the test suite and
``catsim validate`` measure that they keep them.

A density matrix is stored as its occupied XOR slices.  Entry M[i, j] lies
on the slice of offset x = i ^ j, and each map here and in ``noise`` sends
a slice to one slice: local noise keeps x, a partial trace drops a bit of
it, a partial transpose keeps it and a qubit permutation permutes its bits.
The cat states occupy few slices (56 of 2048 for the W-cat with N = 10
after one loss, 2 for the GHZ-cat), so the oracle pipeline ``to_density ->
lose_particles -> depolarize_all -> negativity`` never builds a 2^n x 2^n
array.  Every map does the arithmetic of the dense map it replaces, in the
same order, so every stored entry is bit for bit the dense entry.

Spectra are exact but not brute force.  The noisy cat states and their
partial transposes are block diagonal in the computational basis, up to a
permutation of basis states: the W-cat's partial transpose conserves a
shifted excitation number (largest block 462 of 2048 at 11 qubits) and the
GHZ-cat's couples only pairs of basis states.  :func:`hermitian_spectrum`
reads the blocks off the nonzero entries of its input and diagonalizes each
one, so no per-family knowledge is needed and an input without such
structure costs one full eigensolve.  An input whose entries all have a zero
imaginary part, as every state built here and its partial transpose do, is
real symmetric, and its blocks are solved as float64 matrices: an exact
solve of the same operator at about a quarter of the complex flops.  Any
nonzero imaginary part keeps the complex solve.

Basis convention used throughout the package: computational basis states are
ordered lexicographically with qubit 0 as the most significant bit, i.e. the
basis index of |b0 b1 ... b_{n-1}> is sum_i b_i 2^(n-1-i).  Qubit 0 is the
microscopic qubit of every cat state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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

    At 12 qubits a generic density matrix occupies all 4096 XOR slices,
    4096^2 complex doubles (~268 MB); the default keeps the exact engine
    desk-scale.
    """
    n_qubits = _index(n_qubits, "dense cap")
    if n_qubits < 1:
        raise ValueError(f"dense cap must be >= 1, got {n_qubits}")
    global _dense_cap
    _dense_cap = n_qubits


def _check_capacity(n_qubits: int) -> None:
    if n_qubits > _dense_cap:
        raise CapacityError(
            f"{n_qubits} qubits exceeds the dense-engine cap of {_dense_cap}; "
            f"raise it with set_dense_cap() or use the closed-form engine"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _index(value, what: str) -> int:
    """``value`` as an int; numpy integers pass, a float is a TypeError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ``n_qubits`` qubits.

    ``amplitudes`` has length 2**n_qubits and unit Euclidean norm.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _index(self.n_qubits, "n_qubits")
        if n < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n}")
        _check_capacity(n)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2**n,):
            raise ValueError(f"amplitude vector has length {amps.size}, expected {2**n}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= TOL.unit_norm:  # written so that NaN fails
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {TOL.unit_norm}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True, init=False)
class DensityMatrix:
    """Hermitian, unit-trace operator over ``n_qubits`` qubits, stored by XOR slice.

    ``offsets`` lists, ascending, the offsets x = i ^ j of every slice that
    may hold a nonzero entry, and ``values[s, i] = M[i, i ^ offsets[s]]``;
    every entry on another slice is an exact zero.  :attr:`elements` builds
    the dense 2^n x 2^n matrix, fresh and read-only, on each access.  It is
    not cached, so a state never holds its matrix twice; the oracle path
    never reads it.

    ``DensityMatrix(n, elements)`` checks a dense matrix (shape, Hermiticity,
    trace) and stores its occupied slices.  The maps, the partial transpose
    included, build with the private form
    ``DensityMatrix(n, (offsets, values), _trusted=True)``, which runs no
    check: each only permutes entries or adds conjugate pairs with real
    weights, so its output's defects are at most its input's (summed for
    ``tensor``), plus rounding.  Positivity (min eigenvalue >= -1e-10) is
    O(dim^3) to check.  The tests and ``validate`` verify all three on map
    results; :meth:`min_eigenvalue` checks one state.
    """

    n_qubits: int
    offsets: np.ndarray
    values: np.ndarray

    def __init__(self, n_qubits: int, elements, _trusted: bool = False):
        # every construction, trusted or checked, runs through __post_init__,
        # the hook perfbench/tracing.py wraps to time it
        self.__post_init__(n_qubits, elements, _trusted)

    def __post_init__(self, n_qubits, elements, _trusted):
        if _trusted:
            offsets, values = elements
        else:
            n_qubits = _index(n_qubits, "n_qubits")
            if n_qubits < 1:
                raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
            _check_capacity(n_qubits)
            mat = np.asarray(elements, dtype=complex)
            dim = 2**n_qubits
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
            herm_defect = _hermiticity_defect(mat)
            if not herm_defect <= TOL.hermiticity:  # NaN fails: any non-finite entry makes one
                raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {herm_defect:.3e}")
            tr = mat.trace()
            if not abs(tr - 1.0) <= TOL.trace:
                raise ValueError(f"trace {tr!r} deviates from 1 beyond {TOL.trace}")
            offsets, values = _slices(mat)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "offsets", _readonly(offsets))
        object.__setattr__(self, "values", _readonly(values))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def elements(self) -> np.ndarray:
        """The dense matrix, built afresh (and read-only) on every access."""
        return _readonly(_dense(self.offsets, self.values))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; >= -1e-10 for every state this package builds."""
        return float(hermitian_spectrum(self)[0])


@dataclass(frozen=True)
class Bipartition:
    """A split of qubit indices 0..n-1 into two disjoint non-empty groups."""

    side_a: tuple
    side_b: tuple

    def __post_init__(self):
        a = tuple(sorted({_index(q, "side_a entry") for q in self.side_a}))
        b = tuple(sorted({_index(q, "side_b entry") for q in self.side_b}))
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
        n_qubits = _index(n_qubits, "n_qubits")
        if n_qubits < 2:
            raise ValueError("micro:macro cut needs at least 2 qubits")
        return cls((0,), tuple(range(1, n_qubits)))

    @classmethod
    def split(cls, side_a: Iterable[int], n_qubits: int) -> "Bipartition":
        a = {_index(q, "side_a entry") for q in side_a}
        return cls(tuple(a), tuple(q for q in range(n_qubits) if q not in a))


def tensor(a, b):
    """Kronecker product of two states of the same kind.

    The first factor supplies the high-order qubits, so
    ``tensor(x, y)`` puts ``x`` on qubits 0..x.n-1.  For density matrices
    slice (xa, xb) goes to offset (xa << b.n) | xb, and each entry is the
    product ``np.kron`` forms.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        _check_capacity(a.n_qubits + b.n_qubits)  # before the product is allocated
        return PureState(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        _check_capacity(a.n_qubits + b.n_qubits)
        offsets = ((a.offsets[:, None] << b.n_qubits) | b.offsets).reshape(-1)
        values = (a.values[:, None, :, None] * b.values[None, :, None, :]).reshape(len(offsets), -1)
        return DensityMatrix(a.n_qubits + b.n_qubits, (offsets, values), _trusted=True)
    raise TypeError(
        f"tensor requires two PureState or two DensityMatrix operands, "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


# Working memory: a slice gather indexes _CHUNK_SLICES slices at a time (1 MB
# of indices at 12 qubits), and an occupancy scan reads _STRIP_ENTRIES
# entries or index pairs at a time.
_CHUNK_SLICES = 32
_STRIP_ENTRIES = 2**16


def _gather(offsets: np.ndarray, dim: int, entry) -> np.ndarray:
    """values[s, i] = entry(i, i ^ offsets[s]), a chunk of slices at a time."""
    index = np.arange(dim)
    values = np.empty((len(offsets), dim), dtype=complex)
    for start in range(0, len(offsets), _CHUNK_SLICES):
        chunk = offsets[start:start + _CHUNK_SLICES, None]
        values[start:start + _CHUNK_SLICES] = entry(index, index ^ chunk)
    return values


def _slices(mat: np.ndarray) -> tuple:
    """(offsets, values) of a square matrix: the ascending offsets x = i ^ j
    of its nonzero entries and values[s, i] = mat[i, i ^ x_s]."""
    dim = mat.shape[0]
    occupied = np.zeros(dim, dtype=bool)
    rows = max(1, _STRIP_ENTRIES // dim)
    for start in range(0, dim, rows):
        k = np.flatnonzero(mat[start:start + rows] != 0) + start * dim  # k = i * dim + j
        occupied[(k // dim) ^ (k % dim)] = True
    offsets = np.flatnonzero(occupied)
    return offsets, _gather(offsets, dim, lambda i, j: mat[i, j])


def _dense(offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The square matrix with slices (offsets, values) and zeros elsewhere,
    of the dtype of ``values``."""
    dim = values.shape[1]
    mat = np.zeros((dim, dim), dtype=values.dtype)
    index = np.arange(dim)
    for x, row in zip(offsets, values):
        mat[index, index ^ x] = row
    return mat


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|.

    Entry (i, j) is a_i conj(a_j), the product ``np.outer`` forms; only the
    offsets i ^ j between two nonzero amplitudes are stored.
    """
    amps = psi.amplitudes
    conj = amps.conj()
    support = np.flatnonzero(amps)
    occupied = np.zeros(psi.dim, dtype=bool)
    rows = max(1, _STRIP_ENTRIES // len(support))
    for start in range(0, len(support), rows):
        occupied[support[start:start + rows, None] ^ support] = True
    offsets = np.flatnonzero(occupied)
    values = _gather(offsets, psi.dim, lambda i, j: amps[i] * conj[j])
    return DensityMatrix(psi.n_qubits, (offsets, values), _trusted=True)


def partial_trace(rho: DensityMatrix, drop: Iterable[int]) -> DensityMatrix:
    """Trace out the qubits in ``drop``; the rest keep their relative order.

    An empty ``drop`` returns the input unchanged.  Tracing out everything
    is rejected.  Qubit q is traced on the slices whose offset has q's bit
    clear, where row and column agree on q; the others drop out.  Each entry
    is the sum of the pair ``np.trace`` adds, and the qubits go in
    descending order, as ``np.trace`` was applied.
    """
    drop_set = {_index(q, "drop entry") for q in drop}
    n = rho.n_qubits
    if not drop_set:
        return rho
    if not drop_set <= set(range(n)):
        raise ValueError(f"drop indices {sorted(drop_set)} outside 0..{n - 1}")
    if len(drop_set) == n:
        raise ValueError("cannot trace out every qubit")
    offsets, values = rho.offsets, rho.values
    remaining = n
    for q in sorted(drop_set, reverse=True):
        bit = 1 << (remaining - 1 - q)
        keep = (offsets & bit) == 0
        x = offsets[keep]
        offsets = ((x >> 1) & -bit) | (x & (bit - 1))  # the offset without q's (clear) bit
        pairs = values[keep].reshape(len(x), -1, 2, bit)  # axis 2 is qubit q of i
        values = (pairs[:, :, 0] + pairs[:, :, 1]).reshape(len(x), -1)
        remaining -= 1
    return DensityMatrix(remaining, (offsets, values), _trusted=True)


def partial_transpose(rho: DensityMatrix, side: Sequence[int]) -> DensityMatrix:
    """Transpose the qubits in ``side`` of a DensityMatrix.

    The result is a DensityMatrix: the partial transpose of a state is
    Hermitian with trace 1, which is all that class asserts, but generally
    not positive; negative eigenvalues witness entanglement across
    side : rest.  Transposing the same side twice is the identity, and
    transposing the complementary side yields the same spectrum (the full
    transpose of a Hermitian matrix).

    Entry (i, j) moves to (i ^ y, j ^ y) with y = (i ^ j) & mask, the side's
    bits of its offset, so every slice keeps its offset x and its row is
    permuted by i -> i ^ (x & mask).  Only entries move.
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"expected DensityMatrix, got {type(rho).__name__}")
    n, offsets, values = rho.n_qubits, rho.offsets, rho.values
    side_set = {_index(q, "side entry") for q in side}
    if not side_set <= set(range(n)):
        raise ValueError(f"side indices {sorted(side_set)} outside 0..{n - 1}")
    flips = offsets & sum(1 << (n - 1 - q) for q in side_set)
    index = np.arange(2**n)
    moved = np.empty_like(values)
    for y in np.unique(flips):
        rows = flips == y
        moved[rows] = values[rows][:, index ^ y]
    return DensityMatrix(n, (offsets, moved), _trusted=True)


_STRIP = 32  # rows per pass of the Hermiticity check


def _hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^dag| over the entries; NaN if an entry is NaN or infinite.

    Works through strips of rows, so the one temporary holds a strip, not a
    second d x d matrix, and the transposed read stays cache friendly.  A
    non-finite entry gives a NaN or infinite difference (inf - inf is NaN),
    and ``np.maximum`` carries NaN through the fold.
    """
    defect = 0.0
    with np.errstate(invalid="ignore"):  # the caller reports the NaN
        for i in range(0, mat.shape[0], _STRIP):
            diff = np.conj(mat[:, i:i + _STRIP].T)
            diff -= mat[i:i + _STRIP]
            defect = np.maximum(defect, np.max(np.abs(diff)))
    return float(defect)


def _block_labels(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label each of ``dim`` basis indices with the smallest index of its block.

    Indices i and j share a block when they are linked by a chain of edges
    (rows[k], cols[k]), each taken both ways.  Min-label propagation: each
    index takes the smallest label among its neighbours (itself included),
    that label is passed on to the index it points at, and every index then
    takes the label of its label, until nothing changes.  Labels only
    decrease and never leave a block, so the fixed point is the smallest
    index of each block; passing labels on keeps the number of rounds small
    even for long chains of links.
    """
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    labels = np.arange(dim, dtype=np.min_scalar_type(dim))
    while True:
        low = labels.copy()
        np.minimum.at(low, src, labels[dst])
        new = low.copy()
        np.minimum.at(new, labels, low)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a.real`` if no entry of ``a`` has a nonzero imaginary part (-0.0
    counts as zero, 1e-300 does not), else ``a`` itself."""
    return a if a.imag.any() else a.real


def hermitian_spectrum(op) -> np.ndarray:
    """Eigenvalues of a Hermitian operator: a fresh, ascending, read-only
    float64 array.

    Accepts a DensityMatrix (a state or a partial transpose), Hermitian by
    construction, or any square ndarray, which is rejected if its
    hermiticity defect exceeds 1e-10.  Output is deterministic for
    identical input.

    The basis indices are split into the connected components of the
    nonzero entries, (i, i ^ x_s) for the slices of a DensityMatrix, which
    are exact diagonal blocks of the operator after a permutation.  Blocks
    of equal size are gathered, stacked and diagonalized by one ``eigvalsh``
    call; the spectrum is the sorted union.  A single block is the whole
    matrix and is diagonalized as it stands.  Each block keeps the basis
    order of the input, so every solve reads the same lower triangle a full
    solve would.

    An operator whose stored entries all have a zero imaginary part (every
    state this package builds, and their partial transposes) is real
    symmetric, and its blocks are solved as float64 matrices: the same
    operator, so the same exact spectrum, at about a quarter of the complex
    solve's flops.  One nonzero imaginary part, however small, keeps the
    complex solve.
    """
    if isinstance(op, DensityMatrix):  # Hermitian by construction
        dim = op.dim
        values = _real_if_exact(op.values)
        s, rows = np.nonzero(values)
        cols = rows ^ op.offsets[s]
        pos = np.full(dim, len(op.offsets))  # each offset's slice; unoccupied ones read zeros
        pos[op.offsets] = np.arange(len(op.offsets))
        padded = np.concatenate([values, np.zeros((1, dim), dtype=values.dtype)])
        entries = lambda i, j: padded[pos[i ^ j], i]
    else:
        mat = np.asarray(op, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        defect = _hermiticity_defect(mat)
        if not defect <= TOL.hermitian_input:
            raise ValueError(f"operator is not Hermitian: max |M - M^dag| = {defect:.3e}")
        mat = _real_if_exact(mat)
        dim = mat.shape[0]
        rows, cols = np.nonzero(mat)
        entries = lambda i, j: mat[i, j]
    labels = _block_labels(dim, rows, cols)
    if not labels.any():
        whole = _dense(op.offsets, values) if isinstance(op, DensityMatrix) else mat
        return _readonly(np.linalg.eigvalsh(whole))
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    parts = []
    for size in np.unique(sizes):
        idx = order[first[sizes == size, None] + np.arange(size)]
        parts.append(np.linalg.eigvalsh(entries(idx[:, :, None], idx[:, None, :])).ravel())
    return _readonly(np.sort(np.concatenate(parts)))


def permute_qubits(state, permutation: Sequence[int]):
    """Relabel qubits: new qubit i is old qubit permutation[i].

    Works for PureState and DensityMatrix; used mainly to check permutation
    symmetries.  Basis index i' holds what index old[i'] held, where old
    places bit i of i' at qubit permutation[i].  Since that map permutes
    bits, it sends offsets to offsets, so a density matrix's slices are
    renamed, re-sorted and permuted within; only entries move.
    """
    perm = [_index(q, "permutation entry") for q in permutation]
    n = state.n_qubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    old = np.arange(2**n).reshape((2,) * n).transpose(perm).reshape(-1)
    if isinstance(state, PureState):
        return PureState(n, state.amplitudes[old])
    if isinstance(state, DensityMatrix):
        renamed = np.argsort(old)[state.offsets]
        order = np.argsort(renamed)
        return DensityMatrix(n, (renamed[order], state.values[order][:, old]), _trusted=True)
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
