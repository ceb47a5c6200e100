"""Slice-stored density matrices against the dense maps they replace.

The references below are test-local copies of the dense implementations:
``np.outer`` for the projector, the ``np.trace`` loop for the partial trace,
the reshape/transpose partial transpose and qubit permutation, ``np.kron``,
and the block labelling over the full nonzero pattern with its gather.  The
slice form must give the same entries and the same spectra, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catsim import (
    Bipartition,
    CatStateKind,
    DensityMatrix,
    PureState,
    build_cat,
    depolarize_all,
    depolarize_qubit,
    ghz_cat,
    hermitian_spectrum,
    log_negativity,
    lose_particles,
    partial_transpose,
    permute_qubits,
    psi2,
    tensor,
    to_density,
    w_cat,
)
from conftest import random_pure
from test_noise import strided_depolarize


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Bit for bit, reading -0.0 as +0.0.

    ``np.outer`` writes -0.0 into some entries whose slice holds no nonzero
    entry (0 times -0.5 has a -0.0 imaginary part); such slices are not
    stored, and ``elements`` has +0.0 there.  Adding 0.0 turns -0.0 into
    +0.0 and leaves every other value as it is.
    """
    assert np.array_equal((actual + 0.0).view(np.uint64), (expected + 0.0).view(np.uint64))


def assert_same_entries(rho: DensityMatrix, expected: np.ndarray) -> None:
    """``rho`` stores ``expected``'s entries bit for bit, signed zeros included,
    and ``expected`` has no nonzero entry on a slice ``rho`` does not store."""
    index = np.arange(rho.dim)
    stored = expected[index, index ^ rho.offsets[:, None]]
    assert np.array_equal(rho.values.view(np.uint64), stored.view(np.uint64))
    assert np.count_nonzero(expected) == np.count_nonzero(stored)


def dense_trace(mat: np.ndarray, n: int, drop) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n))
    remaining = n
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + remaining)
        remaining -= 1
    return t.reshape(2**remaining, 2**remaining)


def dense_transpose(mat: np.ndarray, n: int, side) -> np.ndarray:
    perm = list(range(2 * n))
    for q in side:
        perm[q], perm[n + q] = perm[n + q], perm[q]
    return mat.reshape((2,) * (2 * n)).transpose(perm).reshape(mat.shape)


def dense_permute(mat: np.ndarray, n: int, perm) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n)).transpose(list(perm) + [n + q for q in perm])
    return t.reshape(mat.shape)


def dense_block_labels(mat: np.ndarray) -> np.ndarray:
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


def dense_spectrum(mat: np.ndarray, real_if_exact: bool = True) -> np.ndarray:
    """Block-wise spectrum over the full nonzero pattern.  A matrix with no
    nonzero imaginary part is solved as its real part, as
    ``hermitian_spectrum`` does, unless ``real_if_exact`` is False."""
    if real_if_exact and not mat.imag.any():
        mat = mat.real
    labels = dense_block_labels(mat)
    if not labels.any():
        return np.linalg.eigvalsh(mat)
    order = np.argsort(labels, kind="stable")
    _, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    parts = []
    for size in np.unique(sizes):
        idx = order[first[sizes == size, None] + np.arange(size)]
        parts.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.sort(np.concatenate(parts))


def _pipeline_inputs():
    """(kind, N, m) with 7 to 11 qubits after losing m macro qubits, or for
    psi3 (l = 2) m whole blocks, and at most 12 before; psi3 also loses one
    physical qubit (id ``m1q``), which leaves the odd registers."""
    for kind in CatStateKind:
        psi3 = kind is CatStateKind.PSI3_CONCAT
        for n in range(7, 12):
            for m, lost in ((0, 0), (1, 2), (2, 4), ("1q", 1)) if psi3 else ((0, 0), (1, 1), (2, 2)):
                if n + lost > 12 or (psi3 and (n + lost) % 2):
                    continue
                N = (n + lost) // 2 - 1 if psi3 else n + lost - 1
                yield pytest.param(kind, N, lost, id=f"{kind.value}-{n}q-m{m}")


@pytest.mark.parametrize("kind,N,m", list(_pipeline_inputs()))
def test_cat_pipeline_bit_identical(kind, N, m):
    psi = build_cat(kind, N)
    full = np.outer(psi.amplitudes, psi.amplitudes.conj())
    rho = to_density(psi)
    assert_same_entries(rho, full)
    lost = lose_particles(rho, m)
    n = lost.n_qubits
    base = dense_trace(full, psi.n_qubits, range(n, psi.n_qubits))
    del full
    assert_same_entries(lost, base)
    expected = np.empty_like(base)
    for p in (0.0, 0.05, 0.3, 1.0):
        np.copyto(expected, base)
        for q in range(n):
            strided_depolarize(expected, n, q, p)
        noisy = depolarize_all(lost, p)
        assert_same_entries(noisy, expected)
        pt = partial_transpose(noisy, (0,))
        expected_pt = dense_transpose(expected, n, (0,))
        assert_same_entries(pt, expected_pt)
        spectrum = hermitian_spectrum(pt)
        assert np.array_equal(spectrum.view(np.uint64), dense_spectrum(expected_pt).view(np.uint64))
        assert np.max(np.abs(spectrum - dense_spectrum(expected_pt, real_if_exact=False))) <= 1e-12
    for q in range(n):  # every qubit, each at one of the nonzero strengths
        p = (0.05, 0.3, 1.0)[q % 3]
        np.copyto(expected, base)
        strided_depolarize(expected, n, q, p)
        assert_same_entries(depolarize_qubit(lost, q, p), expected)
    assert_same_entries(depolarize_qubit(lost, n - 1, 0.0), base)
    assert_same_entries(lost, base)  # the input is left unchanged


@pytest.fixture
def solved_dtypes(monkeypatch):
    """The dtype of every matrix stack handed to ``np.linalg.eigvalsh``."""
    seen = []
    solve = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.dtype)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


def _noisy_pt(psi: PureState) -> DensityMatrix:
    return partial_transpose(depolarize_all(to_density(psi), 0.2), (0,))


def _phased_psi2(N: int) -> PureState:
    """psi2 with the phase e^{0.3i} on the micro qubit's |1> branch: a local
    unitary, so the same PT spectrum, reached through complex entries."""
    amps = build_cat(CatStateKind.PSI2, N).amplitudes.copy()
    amps[len(amps) // 2:] *= np.exp(0.3j)
    return PureState(N + 1, amps)


@pytest.mark.parametrize("make", [
    pytest.param(lambda rng: random_pure(rng, 5), id="random_pure"),  # one block
    pytest.param(lambda rng: _phased_psi2(8), id="psi2-phased"),
])
def test_complex_entries_keep_the_complex_solve(make, rng, solved_dtypes):
    pt = _noisy_pt(make(rng))
    assert pt.values.imag.any()
    spectrum = hermitian_spectrum(pt)
    assert set(solved_dtypes) == {np.dtype(complex)}
    expected = dense_spectrum(pt.elements, real_if_exact=False)
    assert np.array_equal(spectrum.view(np.uint64), expected.view(np.uint64))


def test_a_local_phase_leaves_the_pt_spectrum():
    phased = hermitian_spectrum(_noisy_pt(_phased_psi2(8)))
    assert np.max(np.abs(phased - hermitian_spectrum(_noisy_pt(psi2(8))))) <= 1e-12


def _real_pure(rng, n_qubits: int) -> PureState:
    amps = rng.standard_normal(2**n_qubits)
    return PureState(n_qubits, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("make", [
    pytest.param(lambda rng: w_cat(6), id="wcat"),
    pytest.param(lambda rng: _real_pure(rng, 5), id="real-one-block"),
])
def test_signed_zero_imaginary_parts_are_solved_as_real(make, rng, solved_dtypes):
    pt = _noisy_pt(make(rng))
    mat = pt.elements.copy()
    mat.imag = np.where(rng.random(mat.shape) < 0.5, -0.0, 0.0)
    rho = DensityMatrix(pt.n_qubits, mat)
    assert np.signbit(mat.imag).any() and np.signbit(rho.values.imag).any()
    for op in (mat, rho):
        solved_dtypes.clear()
        spectrum = hermitian_spectrum(op)
        assert set(solved_dtypes) == {np.dtype(np.float64)}
        assert np.array_equal(spectrum.view(np.uint64), dense_spectrum(mat).view(np.uint64))


def test_one_tiny_imaginary_part_keeps_the_complex_solve(solved_dtypes):
    mat = _noisy_pt(w_cat(6)).elements.copy()
    i, j = np.argwhere(np.tril(mat, -1))[0]
    mat[i, j] += 1e-300j
    spectrum = hermitian_spectrum(mat)
    assert set(solved_dtypes) == {np.dtype(complex)}
    expected = dense_spectrum(mat, real_if_exact=False)
    assert np.array_equal(spectrum.view(np.uint64), expected.view(np.uint64))


def _states(rng):
    """Dense (every slice occupied) and sparse states of 1 to 4 qubits."""
    return [
        to_density(random_pure(rng, 1)),
        to_density(random_pure(rng, 3)),
        depolarize_qubit(to_density(random_pure(rng, 2)), 1, 0.4),
        depolarize_all(to_density(w_cat(2)), 0.3),
        lose_particles(to_density(ghz_cat(4)), 1),
        DensityMatrix(2, np.diag([0.5, 0.0, 0.25, 0.25])),
    ]


def test_tensor_bit_identical(rng):
    states = _states(rng)
    for a in states:
        for b in states:
            if a.n_qubits + b.n_qubits <= 7:
                assert_bits_equal(tensor(a, b).elements, np.kron(a.elements, b.elements))


def test_permute_qubits_bit_identical(rng):
    for rho in _states(rng) + [depolarize_all(to_density(build_cat(CatStateKind.PSI2, 4)), 0.2)]:
        n = rho.n_qubits
        for _ in range(4):
            perm = [int(q) for q in rng.permutation(n)]
            out = permute_qubits(rho, perm)
            assert np.all(np.diff(out.offsets) > 0)
            assert_bits_equal(out.elements, dense_permute(rho.elements, n, perm))


def test_partial_transpose_keeps_the_input_type():
    rho = depolarize_all(to_density(w_cat(3)), 0.2)
    pt = partial_transpose(rho, (0, 2))
    assert isinstance(pt, DensityMatrix) and pt.n_qubits == 4
    assert_bits_equal(pt.elements, dense_transpose(rho.elements, 4, (0, 2)))


def test_elements_is_fresh_and_read_only():
    rho = to_density(w_cat(3))
    a, b = rho.elements, rho.elements
    assert a is not b and np.array_equal(a, b)
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6), fill=st.floats(0.0, 0.5))
def test_sparse_hermitian_unit_trace_round_trips(seed, n, fill):
    gen = np.random.default_rng(seed)
    dim = 2**n
    values = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    upper = np.triu(np.where(gen.random((dim, dim)) < fill, values, 0), 1)
    diag = np.where(gen.random(dim) < fill, gen.random(dim), 0.0)
    diag[gen.integers(dim)] += 1.0
    mat = (upper + upper.conj().T + np.diag(diag)) / diag.sum()
    rho = DensityMatrix(n, mat)
    rows, cols = np.nonzero(mat)
    assert np.array_equal(rho.offsets, np.unique(rows ^ cols))
    assert_bits_equal(rho.elements, mat)


def test_twelve_qubit_point_stays_small():
    # the dense pipeline peaked at 320 MB here: 4096 x 4096 complex is 256 MB
    tracemalloc.start()
    try:
        log_negativity(
            depolarize_all(lose_particles(to_density(w_cat(11)), 1), 0.3), Bipartition.micro_macro(11)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
