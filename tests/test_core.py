import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import catsim
from catsim import (
    Bipartition,
    CapacityError,
    CatStateKind,
    DensityMatrix,
    PureState,
    Spectrum,
    build_cat,
    depolarize_all,
    hermitian_spectrum,
    lose_particles,
    partial_trace,
    partial_transpose,
    permute_qubits,
    set_dense_cap,
    tensor,
    to_density,
    w_cat,
)
from catsim.core import _block_labels
from conftest import as_density, assert_state_invariants, lossy_wcat_matrix, random_pure


def ket(bits: str) -> PureState:
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(len(bits), amps)


def plus() -> PureState:
    return PureState(1, np.array([1, 1]) / np.sqrt(2))


def bell() -> PureState:
    return PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestTypes:
    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([1.0, 1.0]))

    def test_pure_state_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, np.array([1.0, 0.0]))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_amplitudes_are_readonly(self):
        psi = ket("01")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_bipartition_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Bipartition((), (0, 1))
        with pytest.raises(ValueError, match="overlap"):
            Bipartition((0, 1), (1, 2))
        with pytest.raises(ValueError, match="cover"):
            Bipartition((0,), (2,))
        cut = Bipartition.micro_macro(4)
        assert cut.side_a == (0,) and cut.side_b == (1, 2, 3)

    def test_spectrum_requires_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            Spectrum(np.array([1.0, 0.5]))


class TestCapacity:
    def test_reject_above_cap(self):
        amps = np.zeros(2**13)
        amps[0] = 1.0
        with pytest.raises(CapacityError, match="cap"):
            PureState(13, amps)

    def test_cap_is_configurable(self):
        try:
            set_dense_cap(3)
            with pytest.raises(CapacityError):
                w_cat(3)  # 4 qubits
            set_dense_cap(12)
            w_cat(3)
        finally:
            set_dense_cap(12)
        assert catsim.get_dense_cap() == 12

    def test_tensor_checks_before_allocating(self):
        # the capacity error must fire before the 2^26-sized product exists
        rho = to_density(w_cat(6))
        with pytest.raises(CapacityError):
            tensor(rho, rho)


class TestTensor:
    def test_basis_composition(self):
        out = tensor(ket("0"), ket("1"))
        assert_allclose(out.amplitudes, ket("01").amplitudes)

    def test_identity_halves(self):
        half = DensityMatrix(1, np.eye(2) / 2)
        out = tensor(half, half)
        assert_allclose(out.elements, np.eye(4) / 4)

    def test_plus_plus_uniform(self):
        out = tensor(plus(), plus())
        assert_allclose(out.amplitudes, np.full(4, 0.5))

    def test_first_factor_is_high_order(self):
        out = tensor(ket("1"), ket("00"))
        assert out.amplitudes[0b100] == 1.0

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(ket("0"), to_density(ket("0")))


class TestToDensity:
    def test_basis_state(self):
        assert_allclose(to_density(ket("0")).elements, np.diag([1.0, 0.0]))

    def test_plus_state(self):
        assert_allclose(to_density(plus()).elements, np.full((2, 2), 0.5))

    def test_wcat2_termwise(self):
        # independent expansion: 1/2 [ |0 W2><0 W2| + |0 W2><1 00| + h.c. + |1 00><1 00| ]
        w2 = np.zeros(4, dtype=complex)
        w2[0b10] = w2[0b01] = 1 / np.sqrt(2)
        zero2 = np.zeros(4, dtype=complex)
        zero2[0] = 1.0
        branch0 = np.kron(np.array([1, 0]), w2)
        branch1 = np.kron(np.array([0, 1]), zero2)
        expected = 0.5 * (
            np.outer(branch0, branch0.conj())
            + np.outer(branch0, branch1.conj())
            + np.outer(branch1, branch0.conj())
            + np.outer(branch1, branch1.conj())
        )
        assert_allclose(to_density(w_cat(2)).elements, expected, atol=1e-15)


class TestPartialTrace:
    def test_bell_marginal_is_mixed(self):
        out = partial_trace(to_density(bell()), {1})
        assert_allclose(out.elements, np.eye(2) / 2, atol=1e-15)

    def test_lossy_wcat_termwise(self):
        out = partial_trace(to_density(w_cat(3)), {3})
        assert_allclose(out.elements, lossy_wcat_matrix(3, 1), atol=1e-15)

    def test_product_recovery(self, rng):
        a = to_density(random_pure(rng, 2))
        b = to_density(random_pure(rng, 1))
        out = partial_trace(tensor(a, b), {2})
        assert np.max(np.abs(out.elements - a.elements)) <= 1e-12

    def test_empty_drop_is_identity(self):
        rho = to_density(bell())
        assert partial_trace(rho, set()) is rho

    def test_bad_drop_rejected(self):
        rho = to_density(bell())
        with pytest.raises(ValueError, match="outside"):
            partial_trace(rho, {5})
        with pytest.raises(ValueError, match="every qubit"):
            partial_trace(rho, {0, 1})


class TestPartialTranspose:
    def test_product_state_stays_positive(self, rng):
        rho = tensor(to_density(random_pure(rng, 1)), to_density(random_pure(rng, 2)))
        ev = hermitian_spectrum(partial_transpose(rho, (0,))).eigenvalues
        assert ev[0] >= -1e-12

    def test_bell_spectrum(self):
        ev = hermitian_spectrum(partial_transpose(to_density(bell()), (0,))).eigenvalues
        assert_allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_lossy_wcat_min_eigenvalue(self):
        # N=3, m=1: the negative eigenvalue is -(1/2)(1 - 1/3) = -1/3
        pt = partial_transpose(as_density(lossy_wcat_matrix(3, 1)), (0,))
        assert abs(hermitian_spectrum(pt).minimum + 1 / 3) <= 1e-12

    def test_double_transpose_identity(self, rng):
        rho = to_density(random_pure(rng, 3))
        back = partial_transpose(partial_transpose(rho, (0, 2)), (0, 2))
        assert np.max(np.abs(back - rho.elements)) <= 1e-14

    def test_sides_share_spectrum(self, rng):
        rho = to_density(random_pure(rng, 3))
        ev_a = hermitian_spectrum(partial_transpose(rho, (0,))).eigenvalues
        ev_b = hermitian_spectrum(partial_transpose(rho, (1, 2))).eigenvalues
        assert_allclose(ev_a, ev_b, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = to_density(random_pure(rng, 3))
        assert abs(hermitian_spectrum(partial_transpose(rho, (1,))).sum() - 1.0) <= 1e-10


class TestHermitianSpectrum:
    def test_diagonal(self):
        assert_allclose(
            hermitian_spectrum(np.diag([3.0, 1.0, 2.0])).eigenvalues, [1.0, 2.0, 3.0]
        )

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert_allclose(hermitian_spectrum(sx).eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_bound(self, rng):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        herm = (a + a.conj().T) / 2
        ev = hermitian_spectrum(herm).eigenvalues
        _, vecs = np.linalg.eigh(herm)
        for k in range(16):
            residual = np.linalg.norm(herm @ vecs[:, k] - ev[k] * vecs[:, k])
            assert residual <= 1e-9

    def test_deterministic(self, rng):
        rho = to_density(random_pure(rng, 4))
        pt = partial_transpose(rho, (0,))
        ev1 = hermitian_spectrum(pt).eigenvalues
        ev2 = hermitian_spectrum(pt).eigenvalues
        assert np.array_equal(ev1, ev2)


def noisy_pt(kind: CatStateKind, N: int, m: int, p: float, l: int = 2) -> np.ndarray:
    """Micro : macro partial transpose of a cat after losing m qubits and depolarizing."""
    rho = depolarize_all(lose_particles(to_density(build_cat(kind, N, l=l)), m), p)
    return partial_transpose(rho, (0,))


def block_sizes(mat: np.ndarray) -> list:
    labels = _block_labels(np.asarray(mat, dtype=complex))
    return sorted(np.bincount(labels)[np.unique(labels)].tolist())


def max_spectrum_deviation(mat: np.ndarray) -> float:
    """Block-wise spectrum against one full eigensolve of the same matrix."""
    return float(np.max(np.abs(hermitian_spectrum(mat).eigenvalues - np.linalg.eigvalsh(mat))))


class TestBlockSpectrum:
    """hermitian_spectrum solves each exact block; full eigvalsh is the reference."""

    def test_wcat_blocks_at_eleven_qubits(self):
        # excitation-number sectors of the PT: largest 462 = C(11, 5) of 2048
        pt = noisy_pt(CatStateKind.W_CAT, 10, 0, 0.3)
        sizes = block_sizes(pt)
        assert sum(sizes) == 2048 and max(sizes) == 462
        assert max_spectrum_deviation(pt) <= 1e-12

    def test_ghz_blocks_at_eleven_qubits(self):
        pt = noisy_pt(CatStateKind.GHZ_CAT, 10, 0, 0.2)
        assert max(block_sizes(pt)) <= 2
        assert max_spectrum_deviation(pt) <= 1e-12

    @pytest.mark.parametrize("kind,N,l", [
        (CatStateKind.W_CAT, 8, 2),          # 9 qubits
        (CatStateKind.GHZ_CAT, 7, 2),        # 8 qubits
        (CatStateKind.PSI1_G_STATE, 8, 2),   # 9 qubits
        (CatStateKind.PSI2, 9, 2),           # 10 qubits
        (CatStateKind.PSI3_CONCAT, 3, 2),    # 8 qubits
    ])
    @pytest.mark.parametrize("m,p", [(0, 0.05), (1, 0.4), (2, 0.0)])
    def test_cat_spectra_match_full_solve(self, kind, N, l, m, p):
        if kind is CatStateKind.PSI3_CONCAT and m:
            m *= l  # psi3 loses whole blocks of l physical qubits
        assert max_spectrum_deviation(noisy_pt(kind, N, m, p, l=l)) <= 1e-12

    def test_dense_matrix_is_one_block(self, rng):
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        herm = (a + a.conj().T) / 2
        assert block_sizes(herm) == [64]
        # one block means one eigensolve of the matrix as it stands
        assert np.array_equal(hermitian_spectrum(herm).eigenvalues, np.linalg.eigvalsh(herm))

    def test_scrambled_chains(self, rng):
        # two chains of nearest-neighbour links (200 and 100 states) in a
        # random basis order: labels must travel the whole length of each
        chain = np.diag(np.ones(299), 1)
        chain[199, 200] = 0.0
        chain += chain.T
        perm = rng.permutation(300)
        mixed = chain[np.ix_(perm, perm)]
        assert block_sizes(mixed) == [100, 200]
        assert max_spectrum_deviation(mixed) <= 1e-12

    def test_zero_rows_are_singleton_blocks(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 3] = mat[3, 0] = 1.0
        assert block_sizes(mat) == [1, 1, 2]
        assert_allclose(hermitian_spectrum(mat).eigenvalues, [-1.0, 0.0, 0.0, 1.0])

    def test_one_sided_entry_still_couples(self):
        # within the Hermiticity tolerance an entry may face an exact zero;
        # the block search treats the link as two-sided
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        mat[0, 2] = 1e-11
        assert block_sizes(mat) == [1, 2]
        assert max_spectrum_deviation(mat) <= 1e-12

    def test_empty_matrix(self):
        assert hermitian_spectrum(np.zeros((0, 0))).eigenvalues.size == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
)
def test_permuted_block_diagonal_spectrum(seed, sizes):
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    mat = np.zeros((d, d), dtype=complex)
    start = 0
    for s in sizes:
        a = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        mat[start:start + s, start:start + s] = (a + a.conj().T) / 2
        start += s
    perm = rng.permutation(d)
    mixed = mat[np.ix_(perm, perm)]
    assert block_sizes(mixed) == sorted(sizes)
    assert max_spectrum_deviation(mixed) <= 1e-12
    assert_allclose(hermitian_spectrum(mixed).eigenvalues, np.linalg.eigvalsh(mat), atol=1e-12)


class TestPermuteQubits:
    def test_roundtrip(self, rng):
        psi = random_pure(rng, 3)
        perm = [2, 0, 1]
        inverse = [perm.index(i) for i in range(3)]
        back = permute_qubits(permute_qubits(psi, perm), inverse)
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_moves_basis_index(self):
        psi = permute_qubits(ket("100"), [1, 0, 2])
        assert psi.amplitudes[0b010] == 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4))
def test_density_invariants_hold_for_random_pure_states(seed, n):
    rng = np.random.default_rng(seed)
    rho = to_density(random_pure(rng, n))
    assert_state_invariants(rho)
    assert rho.min_eigenvalue() >= -1e-10
    ev = hermitian_spectrum(partial_transpose(rho, (0,))).eigenvalues
    assert abs(ev.sum() - 1.0) <= 1e-10
    # the maps build their results unchecked; each must keep the invariants
    other = to_density(random_pure(rng, 1))
    for out in (
        tensor(rho, other),
        permute_qubits(rho, list(rng.permutation(n))),
        depolarize_all(rho, float(rng.uniform())),
        lose_particles(rho, int(rng.integers(0, n))),
    ):
        assert_state_invariants(out)
        assert out.min_eigenvalue() >= -1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4))
def test_partial_trace_preserves_state_structure(seed, n):
    rng = np.random.default_rng(seed)
    rho = to_density(random_pure(rng, n))
    drop = {int(rng.integers(0, n))}
    reduced = partial_trace(rho, drop)
    assert reduced.n_qubits == n - 1
    assert_state_invariants(reduced)
    assert reduced.min_eigenvalue() >= -1e-10


class TestValidationAtTheBoundary:
    """A state is checked where it enters the package, not on every map."""

    # the boundary accepts both inputs, and rounding puts the results' traces
    # at 1 + 1.8e-12 and 1 + 1e-12, past TOL.trace: a map must not re-check
    def test_to_density_accepts_what_the_boundary_accepts(self):
        psi = PureState(1, np.array([1 + 0.9e-12, 0]))  # norm defect 9.0e-13
        assert_allclose(to_density(psi).elements.trace(), 1.0, atol=2e-12)

    def test_tensor_accepts_what_the_boundary_accepts(self):
        h = DensityMatrix(1, np.diag([0.5 + 5e-13, 0.5]))
        assert_allclose(tensor(h, h).elements.trace(), 1.0, atol=2e-12)

    def test_hermiticity_check_runs_once_per_entry(self, monkeypatch):
        calls = []
        check = catsim.core._hermiticity_defect
        monkeypatch.setattr(catsim.core, "_hermiticity_defect", lambda m: calls.append(1) or check(m))
        curve = catsim.entanglement.engine_curve("oracle", CatStateKind.W_CAT, 6, 1)
        nu, _, _ = curve(0.3)
        assert nu > 0 and len(calls) == 0
        DensityMatrix(1, np.eye(2) / 2)
        assert len(calls) == 1
        hermitian_spectrum(np.eye(2))
        assert len(calls) == 2

    @pytest.mark.parametrize("amplitudes", [
        [np.nan, 1], [np.nan, np.nan], [np.inf, 0], [1, complex(0, np.nan)],
    ])
    def test_pure_state_rejects_non_finite(self, amplitudes):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array(amplitudes, dtype=complex))

    @pytest.mark.parametrize("elements", [
        [[0.5, np.nan], [np.nan, 0.5]],
        [[np.nan, np.nan], [np.nan, np.nan]],
        [[np.nan, 0], [0, 1]],
        [[0.5, np.inf], [np.inf, 0.5]],
        [[np.inf, 0], [0, 1]],
        [[0.5, complex(0, np.inf)], [complex(0, -np.inf), 0.5]],
    ])
    def test_non_finite_entries_are_rejected(self, elements):
        mat = np.array(elements, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, mat)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_spectrum(mat)

    def test_non_finite_entry_in_a_later_strip_is_rejected(self):
        mat = np.eye(64, dtype=complex) / 64
        mat[40, 50] = mat[50, 40] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(6, mat)

    @pytest.mark.parametrize("side", [0, 3, 6])
    def test_partial_transpose_rejects_sides_that_are_not_powers_of_two(self, side):
        with pytest.raises(ValueError, match="power of 2"):
            partial_transpose(np.zeros((side, side)), [])
