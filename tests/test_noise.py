import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from catsim import (
    Bipartition,
    DensityMatrix,
    WCatParams,
    depolarize_all,
    depolarize_qubit,
    dominant_eigenvalues,
    ghz_cat,
    hermitian_spectrum,
    lose_particles,
    negativity,
    noisy_wcat,
    partial_trace,
    partial_transpose,
    permute_qubits,
    tensor,
    to_density,
    w_cat,
)
from catsim.core import _slices
from catsim.noise import _depolarize_inplace
from conftest import assert_state_invariants, lossy_wcat_matrix, random_pure

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def kraus_depolarize(rho: DensityMatrix, q: int, p: float) -> np.ndarray:
    """Reference evaluation through the four Kraus operators."""
    ops = [math.sqrt(1 - 0.75 * p) * np.eye(2, dtype=complex)]
    ops += [math.sqrt(p / 4) * s for s in SIGMA]
    left = np.eye(2**q)
    right = np.eye(2 ** (rho.n_qubits - 1 - q))
    out = np.zeros_like(rho.elements)
    for k in ops:
        full = np.kron(np.kron(left, k), right)
        out = out + full @ rho.elements @ full.conj().T
    return out


class TestDepolarizeQubit:
    def test_p_zero_is_identity(self):
        rho = to_density(w_cat(2))
        assert_allclose(depolarize_qubit(rho, 1, 0.0).elements, rho.elements)

    def test_single_qubit_direct_value(self):
        rho = DensityMatrix(1, np.diag([1.0, 0.0]))
        assert_allclose(depolarize_qubit(rho, 0, 0.4).elements, np.diag([0.8, 0.2]))

    def test_p_one_decouples_the_qubit(self):
        rho = to_density(w_cat(2))
        out = depolarize_qubit(rho, 1, 1.0)
        # marginal of qubit 1 becomes I/2 ...
        assert_allclose(partial_trace(out, {0, 2}).elements, np.eye(2) / 2, atol=1e-15)
        # ... and it factors out: out = reduced (x) I/2 reordered to slot 1
        reduced = partial_trace(rho, {1})
        expected = permute_qubits(
            tensor(reduced, DensityMatrix(1, np.eye(2) / 2)), [0, 2, 1]
        )
        assert_allclose(out.elements, expected.elements, atol=1e-14)

    def test_matches_kraus_form(self, rng):
        rho = to_density(random_pure(rng, 3))
        for q, p in [(0, 0.3), (1, 0.85), (2, 0.02)]:
            assert_allclose(
                depolarize_qubit(rho, q, p).elements, kraus_depolarize(rho, q, p), atol=1e-13
            )

    def test_bad_arguments(self):
        rho = to_density(w_cat(2))
        with pytest.raises(ValueError, match="index"):
            depolarize_qubit(rho, 5, 0.1)
        with pytest.raises(ValueError, match="probability"):
            depolarize_qubit(rho, 0, 1.5)


class TestDepolarizeAll:
    def test_p_zero(self):
        rho = to_density(ghz_cat(3))
        assert np.array_equal(depolarize_all(rho, 0.0).elements, rho.elements)

    def test_p_one_gives_white_noise(self):
        rho = to_density(ghz_cat(3))
        assert_allclose(depolarize_all(rho, 1.0).elements, np.eye(16) / 16, atol=1e-15)

    def test_order_independence(self):
        rho = to_density(w_cat(3))
        fwd = depolarize_all(rho, 0.37)
        rev = rho
        for q in reversed(range(rho.n_qubits)):
            rev = depolarize_qubit(rev, q, 0.37)
        assert_allclose(fwd.elements, rev.elements, atol=1e-14)

    def test_same_kernel_as_single_qubit_channel(self, rng):
        # depolarize_all works in place on one copy; it must do exactly what
        # depolarize_qubit does qubit by qubit, and leave its input alone
        rho = to_density(random_pure(rng, 4))
        before = rho.elements.copy()
        step = rho
        for q in range(rho.n_qubits):
            step = depolarize_qubit(step, q, 0.29)
        assert np.array_equal(depolarize_all(rho, 0.29).elements, step.elements)
        assert np.array_equal(rho.elements, before)

    @pytest.mark.parametrize("N,p", [(4, 0.3), (5, 0.1)])
    def test_w_coherence_element(self, N, p):
        # <0, e_i| rho |1, 0...0> = (1/2) (1/sqrt(N)) (1-p)^2 (1-p/2)^(N-1)
        rho = depolarize_all(to_density(w_cat(N)), p)
        col = 1 << N  # |1, 0...0>
        expected = 0.5 / math.sqrt(N) * (1 - p) ** 2 * (1 - p / 2) ** (N - 1)
        for i in range(N):
            row = 1 << (N - 1 - i)  # |0, e_i>
            assert abs(rho.elements[row, col] - expected) <= 1e-14


def strided_depolarize(mat: np.ndarray, n: int, q: int, p: float) -> None:
    """Reference: the channel on qubit q as one strided pass over the whole matrix."""
    if p == 0.0:
        return
    a, b = 2**q, 2 ** (n - 1 - q)
    t = mat.reshape(a, 2, b, a, 2, b)
    marginal = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
    marginal *= p / 2.0
    t *= 1.0 - p
    t[:, 0, :, :, 0, :] += marginal
    t[:, 1, :, :, 1, :] += marginal


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestSliceKernel:
    """The slice kernel against the strided reference, bit for bit; the cat
    families run through it in ``test_slices.test_cat_pipeline_bit_identical``."""

    def test_dense_state_spans_several_chunks(self, rng):
        rho = to_density(random_pure(rng, 8))
        assert np.count_nonzero(rho.elements) == rho.dim**2  # all 256 slices occupied
        before = rho.elements.copy()
        for p in (0.05, 0.3, 1.0):
            expected = rho.elements.copy()
            for q in range(8):
                strided_depolarize(expected, 8, q, p)
            assert_bits_equal(depolarize_all(rho, p).elements, expected)
            for q in (0, 3, 7):
                expected = rho.elements.copy()
                strided_depolarize(expected, 8, q, p)
                assert_bits_equal(depolarize_qubit(rho, q, p).elements, expected)
        assert_bits_equal(rho.elements, before)

    @pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
    def test_one_qubit(self, p):
        rho = DensityMatrix(1, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        expected = rho.elements.copy()
        strided_depolarize(expected, 1, 0, p)
        assert_bits_equal(depolarize_all(rho, p).elements, expected)
        assert_bits_equal(depolarize_qubit(rho, 0, p).elements, expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    fill=st.floats(0.0, 0.3),
    p=st.sampled_from([0.05, 0.3, 0.77, 1.0]),
    data=st.data(),
)
def test_slice_kernel_matches_strided_on_sparse_hermitian(seed, n, fill, p, data):
    gen = np.random.default_rng(seed)
    dim = 2**n
    values = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    mat = np.where(gen.random((dim, dim)) < fill, values, 0)
    upper = np.triu(mat, 1)
    mat = upper + upper.conj().T + np.diag(mat.diagonal().real)  # Hermitian, any sparsity
    qubits = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    expected = mat.copy()
    for q in qubits:
        strided_depolarize(expected, n, q, p)
    offsets, values = _slices(mat)
    _depolarize_inplace(values, offsets, qubits, p)
    assert_bits_equal(DensityMatrix(n, (offsets, values), _trusted=True).elements, expected)


class TestLoseParticles:
    def test_m_zero_is_input(self):
        rho = to_density(w_cat(3))
        assert lose_particles(rho, 0) is rho

    def test_wcat_termwise_coefficients(self):
        out = lose_particles(to_density(w_cat(3)), 1)
        expected = lossy_wcat_matrix(3, 1)
        assert_allclose(out.elements, expected, atol=1e-15)
        # the headline entries: |1><1| (x) |00><00| at 1/2, |0><0| (x) W2 weight (1/2)(2/3)
        zero_zero = 0b000
        one_zero = 0b100
        assert abs(out.elements[one_zero, one_zero] - 0.5) <= 1e-15
        w2_entry = out.elements[0b010, 0b010]
        assert abs(w2_entry - 0.5 * (2 / 3) * 0.5) <= 1e-15  # amplitude^2 = 1/2 inside W2
        assert abs(out.elements[zero_zero, zero_zero] - 0.5 * (1 / 3)) <= 1e-15

    @pytest.mark.parametrize("N,m", [(3, 1), (4, 1), (4, 3), (5, 2)])
    def test_ghz_loss_kills_entanglement(self, N, m):
        rho = lose_particles(to_density(ghz_cat(N)), m)
        assert negativity(rho, Bipartition.micro_macro(rho.n_qubits)) <= 1e-9

    def test_rejects_losing_too_many(self):
        with pytest.raises(ValueError, match="macro"):
            lose_particles(to_density(w_cat(3)), 4)

    def test_full_macro_loss_allowed(self):
        out = lose_particles(to_density(w_cat(3)), 3)
        assert out.n_qubits == 1


class TestNoisyWcat:
    def test_p_zero_reduces_to_loss(self):
        assert_allclose(noisy_wcat(4, 2, 0.0).elements, lossy_wcat_matrix(4, 2), atol=1e-15)

    def test_m_zero_reduces_to_pure_decoherence(self):
        direct = depolarize_all(to_density(w_cat(4)), 0.2)
        assert_allclose(noisy_wcat(4, 0, 0.2).elements, direct.elements)

    def test_matches_closed_form_eigenvalues(self):
        rho = noisy_wcat(4, 1, 0.1)
        ev = hermitian_spectrum(partial_transpose(rho, (0,)))
        pair = dominant_eigenvalues(WCatParams(N=4, m=1, p=0.1))
        assert abs(ev[0] - pair.lambda1) <= 1e-10
        assert np.min(np.abs(ev - pair.lambda2)) <= 1e-10

    def test_loss_and_noise_commute(self):
        rho = to_density(w_cat(3))
        a = lose_particles(depolarize_all(rho, 0.3), 1)
        b = depolarize_all(lose_particles(rho, 1), 0.3)
        assert_allclose(a.elements, b.elements, atol=1e-12)

    def test_macro_permutation_symmetry(self):
        rho = noisy_wcat(4, 1, 0.25)
        n = rho.n_qubits
        for i in range(1, n):
            for j in range(i + 1, n):
                perm = list(range(n))
                perm[i], perm[j] = perm[j], perm[i]
                assert np.max(np.abs(permute_qubits(rho, perm).elements - rho.elements)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.floats(0.0, 1.0),
    q=st.integers(0, 2),
)
def test_channel_preserves_state_invariants(seed, p, q):
    rho = to_density(random_pure(np.random.default_rng(seed), 3))
    out = depolarize_qubit(rho, q, p)
    assert_state_invariants(out)
    assert out.min_eigenvalue() >= -1e-10


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    p1=st.floats(0.0, 1.0),
    p2=st.floats(0.0, 1.0),
)
def test_depolarize_composition_law(seed, p1, p2):
    rho = to_density(random_pure(np.random.default_rng(seed), 2))
    twice = depolarize_qubit(depolarize_qubit(rho, 1, p1), 1, p2)
    once = depolarize_qubit(rho, 1, p1 + p2 - p1 * p2)
    assert np.max(np.abs(twice.elements - once.elements)) <= 1e-12
