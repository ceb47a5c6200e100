import numpy as np
import pytest
from numpy.testing import assert_allclose

from catsim import (
    Bipartition,
    CatStateKind,
    build_cat,
    critical_visibility,
    ghz_cat,
    log_negativity,
    lose_particles,
    negativity,
    partial_trace,
    permute_qubits,
    psi1_g_state,
    psi2,
    psi3_concat_ghz,
    to_density,
    w_cat,
    w_state,
    w_tilde,
)


def E_micro(psi):
    rho = to_density(psi)
    return log_negativity(rho, Bipartition.micro_macro(rho.n_qubits))


class TestWState:
    def test_n1(self):
        assert_allclose(w_state(1).amplitudes, [0, 1])

    def test_n2(self):
        assert_allclose(w_state(2).amplitudes, np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_n3_support(self):
        amps = w_state(3).amplitudes
        assert set(np.flatnonzero(amps)) == {4, 2, 1}
        assert_allclose(amps[[1, 2, 4]], 1 / np.sqrt(3))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            w_state(0)


class TestWTilde:
    def test_n2_self_dual(self):
        assert_allclose(w_tilde(2).amplitudes, w_state(2).amplitudes)

    def test_n3_support(self):
        assert set(np.flatnonzero(w_tilde(3).amplitudes)) == {3, 5, 6}

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_orthogonal_to_w_for_n_at_least_3(self, N):
        overlap = np.vdot(w_tilde(N).amplitudes, w_state(N).amplitudes)
        assert overlap == 0.0  # disjoint supports

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_is_bitwise_complement_of_w(self, N):
        w = w_state(N).amplitudes
        wt = w_tilde(N).amplitudes
        full = 2**N - 1
        for idx in range(2**N):
            assert wt[full ^ idx] == w[idx]


class TestWCat:
    def test_n1_is_bell(self):
        assert_allclose(w_cat(1).amplitudes, np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_n2_amplitudes(self):
        amps = w_cat(2).amplitudes
        assert_allclose(amps[0b010], 0.5)
        assert_allclose(amps[0b001], 0.5)
        assert_allclose(amps[0b100], 1 / np.sqrt(2))
        assert np.count_nonzero(amps) == 3

    @pytest.mark.parametrize("N", [1, 2, 3, 6, 9])
    def test_support_size(self, N):
        assert np.count_nonzero(w_cat(N).amplitudes) == N + 1

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
    def test_maximally_entangled_micro_cut(self, N):
        assert abs(E_micro(w_cat(N)) - 1.0) <= 1e-12


class TestGhzCat:
    def test_n1(self):
        assert_allclose(ghz_cat(1).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_n2_support(self):
        assert set(np.flatnonzero(ghz_cat(2).amplitudes)) == {0, 7}

    @pytest.mark.parametrize("N", range(1, 9))
    def test_unit_log_negativity(self, N):
        assert abs(E_micro(ghz_cat(N)) - 1.0) <= 1e-12


def test_ghz_cat_unit_log_negativity_at_dense_cap():
    # 12-qubit dense diagonalization: the largest problem the default cap allows
    assert abs(E_micro(ghz_cat(11)) - 1.0) <= 1e-10


class TestPsi1:
    def test_n2_is_product(self):
        assert E_micro(psi1_g_state(2)) == 0.0

    def test_n3_maximally_entangled(self):
        assert abs(E_micro(psi1_g_state(3)) - 1.0) <= 1e-12

    def test_n4_loses_entanglement_after_three_losses(self):
        rho = lose_particles(to_density(psi1_g_state(4)), 3)
        assert negativity(rho, Bipartition.micro_macro(rho.n_qubits)) <= 1e-9


class TestPsi2:
    def test_n1_is_product(self):
        assert E_micro(psi2(1)) == 0.0

    def test_n3_maximally_entangled(self):
        assert abs(E_micro(psi2(3)) - 1.0) <= 1e-12

    def test_n4_loses_entanglement_after_two_losses(self):
        rho = lose_particles(to_density(psi2(4)), 2)
        assert negativity(rho, Bipartition.micro_macro(rho.n_qubits)) <= 1e-9


class TestPsi3:
    def test_l1_is_bell_in_x_basis(self):
        # (|++> + |-->)/sqrt(2) == (|00> + |11>)/sqrt(2)
        assert_allclose(
            psi3_concat_ghz(1, 2).amplitudes,
            np.array([1, 0, 0, 1]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_l2_block_cut_is_maximally_entangled(self):
        rho = to_density(psi3_concat_ghz(2, 2))
        cut = Bipartition.split((0, 1), 4)
        assert abs(log_negativity(rho, cut) - 1.0) <= 1e-12

    def test_l2_full_block_loss_kills_entanglement(self):
        rho = partial_trace(to_density(psi3_concat_ghz(2, 2)), {2, 3})
        assert negativity(rho, Bipartition.micro_macro(2)) <= 1e-9

    def test_support_structure(self):
        # supported only on concatenations of block patterns |00> and |11>
        amps = psi3_concat_ghz(2, 2).amplitudes
        support = set(np.flatnonzero(np.abs(amps) > 1e-14))
        allowed = {
            (a << 2) | b for a in (0b00, 0b11) for b in (0b00, 0b11)
        }
        assert support <= allowed

    def test_rejects_single_logical_qubit(self):
        with pytest.raises(ValueError):
            psi3_concat_ghz(2, 1)


class TestSharedInvariants:
    @pytest.mark.parametrize(
        "psi",
        [w_cat(4), ghz_cat(4), psi1_g_state(4), psi2(4), psi3_concat_ghz(2, 3)],
        ids=["wcat", "ghzcat", "psi1", "psi2", "psi3"],
    )
    def test_unit_norm(self, psi):
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "psi", [w_cat(4), ghz_cat(4), psi1_g_state(4), psi2(4)],
        ids=["wcat", "ghzcat", "psi1", "psi2"],
    )
    def test_macro_swap_invariance_exact(self, psi):
        n = psi.n_qubits
        for i in range(1, n):
            for j in range(i + 1, n):
                perm = list(range(n))
                perm[i], perm[j] = perm[j], perm[i]
                assert np.array_equal(permute_qubits(psi, perm).amplitudes, psi.amplitudes)


@pytest.mark.parametrize("call,name", [
    pytest.param(lambda: w_state(2.5), "N", id="w_state"),
    pytest.param(lambda: w_tilde(2.5), "N", id="w_tilde"),
    pytest.param(lambda: w_cat(2.5), "N", id="w_cat"),
    pytest.param(lambda: ghz_cat(2.5), "N", id="ghz_cat"),
    pytest.param(lambda: psi1_g_state(2.5), "N", id="psi1_g_state"),
    pytest.param(lambda: psi2(2.5), "N", id="psi2"),
    pytest.param(lambda: psi3_concat_ghz(2.5, 2), "l", id="psi3_concat_ghz-l"),
    pytest.param(lambda: psi3_concat_ghz(2, 2.5), "n_logical", id="psi3_concat_ghz-n_logical"),
    pytest.param(lambda: build_cat(CatStateKind.PSI3_CONCAT, 2.5), "N", id="build_cat-psi3"),
    pytest.param(lambda: Bipartition.micro_macro(2.5), "n_qubits", id="Bipartition.micro_macro"),
    pytest.param(lambda: critical_visibility(2.5), "N", id="critical_visibility"),
])
def test_float_counts_are_rejected(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got 2.5"):
        call()


class TestBuildCat:
    def test_dispatch(self):
        assert_allclose(build_cat(CatStateKind.W_CAT, 3).amplitudes, w_cat(3).amplitudes)
        assert_allclose(build_cat(CatStateKind.GHZ_CAT, 2).amplitudes, ghz_cat(2).amplitudes)
        assert build_cat(CatStateKind.PSI3_CONCAT, 2, l=2).n_qubits == 6
