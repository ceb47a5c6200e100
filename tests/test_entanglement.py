import math

import numpy as np
import pytest

from catsim import (
    Bipartition,
    CatStateKind,
    DensityMatrix,
    PureState,
    bisect_threshold,
    critical_visibility,
    ghz_cat,
    log_negativity,
    lose_particles,
    negativity,
    tensor,
    to_density,
    vanishing_noise_threshold,
    w_cat,
)
from catsim.entanglement import engine_curve
from conftest import as_density, lossy_wcat_matrix, random_pure


def bell_density():
    return to_density(PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2)))


class TestNegativity:
    def test_product_state_is_zero(self, rng):
        rho = tensor(to_density(random_pure(rng, 1)), to_density(random_pure(rng, 2)))
        assert negativity(rho, Bipartition.micro_macro(3)) == 0.0

    def test_bell_is_half(self):
        assert abs(negativity(bell_density(), Bipartition.micro_macro(2)) - 0.5) <= 1e-14

    def test_lossy_wcat_value(self):
        # N=10, m=3: negativity (1/2)(1 - 3/10) = 0.35
        rho = lose_particles(to_density(w_cat(10)), 3)
        nu = negativity(rho, Bipartition.micro_macro(rho.n_qubits))
        assert abs(nu - 0.35) <= 1e-10

    def test_side_symmetric(self):
        rho = as_density(lossy_wcat_matrix(4, 1))
        cut = Bipartition.micro_macro(4)
        nu_a = negativity(rho, cut)
        nu_b = negativity(rho, Bipartition.split(cut.side_b, 4))
        assert abs(nu_a - nu_b) <= 1e-10

    def test_cut_size_must_match(self):
        with pytest.raises(ValueError, match="cut"):
            negativity(bell_density(), Bipartition.micro_macro(3))


class TestLogNegativity:
    def test_bell_is_one_ebit(self):
        assert abs(log_negativity(bell_density(), Bipartition.micro_macro(2)) - 1.0) <= 1e-14

    def test_lossy_wcat_equals_closed_form(self):
        rho = lose_particles(to_density(w_cat(10)), 5)
        E = log_negativity(rho, Bipartition.micro_macro(rho.n_qubits))
        assert abs(E - math.log2(1.5)) <= 1e-10

    def test_zero_iff_negativity_zero(self, rng):
        rho = tensor(to_density(random_pure(rng, 1)), to_density(random_pure(rng, 1)))
        assert log_negativity(rho, Bipartition.micro_macro(2)) == 0.0

    def test_loss_monotonicity_matches_formula(self):
        N = 6
        values = []
        for m in range(0, N):
            rho = lose_particles(to_density(w_cat(N)), m)
            E = log_negativity(rho, Bipartition.micro_macro(rho.n_qubits))
            assert abs(E - math.log2(2 - m / N)) <= 1e-10
            values.append(E)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestCriticalVisibility:
    def test_n2_value(self):
        assert abs(critical_visibility(2) - 0.707107) <= 1e-6
        assert abs(critical_visibility(2) - 2 / ((math.sqrt(2) - 1) * 2 + 2)) <= 1e-15

    def test_n10_value(self):
        direct = 10 / ((math.sqrt(2) - 1) * 2**9 + 10)
        assert abs(critical_visibility(10) - direct) <= 1e-15
        assert abs(direct - 0.0450294) <= 1e-7

    def test_strictly_decreasing_from_n2(self):
        values = [critical_visibility(N) for N in range(2, 31)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_n1_and_n2_coincide_exactly(self):
        # both reduce to 1/sqrt(2): 2^(N-1)/N = 1 at N = 1 and N = 2
        assert critical_visibility(1) == critical_visibility(2)

    def test_vanishes_at_large_n(self):
        assert critical_visibility(40) < 1e-9
        assert critical_visibility(21) < 1e-3

    def test_in_unit_interval(self):
        for N in range(1, 31):
            assert 0.0 < critical_visibility(N) <= 1.0

    def test_matches_the_unscaled_formula_while_it_is_finite(self):
        # 2.0 ** (N - 1) overflows from N = 1025 on
        for N in range(1, 1025):
            assert critical_visibility(N) == N / ((math.sqrt(2.0) - 1.0) * 2.0 ** (N - 1) + N), N

    def test_finite_and_non_increasing_at_macroscopic_n(self):
        values = [critical_visibility(N) for N in range(1, 10**5 + 1)]
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            critical_visibility(0)


class TestBisectThreshold:
    def test_entangled_everywhere_returns_one(self):
        assert bisect_threshold(lambda p: 1.0) == 1.0

    def test_unentangled_at_zero_returns_zero(self):
        assert bisect_threshold(lambda p: 0.0) == 0.0

    def test_linear_crossing(self):
        # negativity 0.3 - p hits the 1e-9 floor at p = 0.3
        p_star = bisect_threshold(lambda p: max(0.0, 0.3 - p))
        assert abs(p_star - 0.3) <= 1e-4

    def test_rejects_increasing_function(self):
        with pytest.raises(ValueError, match="non-increasing"):
            bisect_threshold(lambda p: p)


class TestVanishingNoiseThreshold:
    def test_oracle_and_analytic_engines_agree(self):
        dense = vanishing_noise_threshold(CatStateKind.W_CAT, 5, 0, "oracle")
        closed = vanishing_noise_threshold(CatStateKind.W_CAT, 5, 0, "analytic")
        assert abs(dense - closed) <= 2e-4
        assert 0.40 < dense < 0.48

    def test_ghz_after_loss_is_zero(self):
        assert vanishing_noise_threshold(CatStateKind.GHZ_CAT, 4, 1) == 0.0

    def test_always_below_one(self):
        # total white noise at p=1 carries no entanglement
        assert vanishing_noise_threshold(CatStateKind.GHZ_CAT, 3, 0) < 1.0

    @pytest.mark.parametrize("N,m", [(4, 3), (4, 4), (1, 0)])
    def test_analytic_engine_refuses_small_remnants_when_built(self, N, m):
        # the curve is refused before any point, as the other families are
        with pytest.raises(ValueError, match="oracle"):
            engine_curve("analytic", CatStateKind.W_CAT, N, m)

    def test_analytic_engine_is_wcat_only(self):
        with pytest.raises(ValueError, match="analytic"):
            vanishing_noise_threshold(CatStateKind.GHZ_CAT, 4, 0, "analytic")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            vanishing_noise_threshold(CatStateKind.W_CAT, 4, 0, "exact")

    def test_ghz_small_matches_block_condition(self):
        # independent check: the depolarized (N+1)-qubit GHZ-cat is entangled
        # iff (1-p)^(N+1) > h (1-h)^N + (1-h) h^N with h = p/2, so the
        # threshold is the root of the difference.
        N = 3

        def gap(p):
            h = p / 2
            return (1 - p) ** (N + 1) - (h * (1 - h) ** N + (1 - h) * h**N)

        lo, hi = 0.01, 0.99
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        dense = vanishing_noise_threshold(CatStateKind.GHZ_CAT, N, 0)
        assert abs(dense - lo) <= 2e-4

    def test_noise_monotonicity_on_grid(self):
        rho = to_density(w_cat(4))
        cut = Bipartition.micro_macro(5)
        from catsim import depolarize_all

        values = [log_negativity(depolarize_all(rho, 0.05 * i), cut) for i in range(11)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
