import math
from dataclasses import fields

import numpy as np
import pytest

import catsim.analytic
from catsim import (
    Bipartition,
    CatStateKind,
    CoefficientSet,
    WCatParams,
    approx_log_negativity,
    coefficients,
    dominant_eigenvalues,
    hermitian_spectrum,
    large_n_threshold,
    log_negativity,
    loss_only_entanglement,
    TOL,
    noisy_wcat,
    partial_transpose,
)
from catsim.analytic import _powers
from catsim.entanglement import engine_curve
from catsim.experiments import FIG4_P_MAX, FIG4_P_STEP, p_grid

# Twelve coefficients at (N=8, m=1, p=0.1), evaluated once in 50-digit
# arithmetic from the displayed expressions (p = 1/10 makes all but the
# 1/sqrt(8)-weighted entries exact decimals).
GOLDEN_8_1_01 = {
    "a": 0.148396675419921875,
    "b": 0.2105143265657518472139,
    "c": 0.039583731083984375,
    "d": 0.00391726599609375,
    "a1": 0.090508189033203125,
    "b1": 0.07442805392578125,
    "e": 0.01107970139819746564284,
    "f": 0.002312434150390625,
    "g": 0.00020617189453125,
    "alpha1": 0.08874300126953125,
    "alpha2": 0.00925228193359375,
    "gamma1": 0.03216027021484375,
}


class TestWCatParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WCatParams(N=0, m=0, p=0.0)
        with pytest.raises(ValueError):
            WCatParams(N=4, m=5, p=0.0)
        with pytest.raises(ValueError):
            WCatParams(N=4, m=0, p=1.2)

    def test_counts_must_be_integers(self):
        with pytest.raises(TypeError, match=r"^m must be an integer, got 1\.5$"):
            WCatParams(8, 1.5, 0.1)
        with pytest.raises(TypeError, match=r"^N must be an integer, got 8\.0$"):
            coefficients(WCatParams(8.0, 1, 0.1))
        with pytest.raises(TypeError, match=r"^N must be an integer, got 1000\.0$"):
            large_n_threshold(1000.0, 100)
        with pytest.raises(TypeError, match=r"^m must be an integer, got 1\.0$"):
            engine_curve("analytic", CatStateKind.W_CAT, 8, 1.0)

    def test_numpy_integer_counts_pass(self):
        params = WCatParams(np.int64(8), np.int32(1), 0.1)
        assert type(params.N) is int and type(params.m) is int
        assert coefficients(params) == coefficients(WCatParams(8, 1, 0.1))
        assert all(type(getattr(coefficients(params), f.name)) is float for f in fields(CoefficientSet))
        assert large_n_threshold(np.int64(10), np.int64(0)) == large_n_threshold(10, 0)

    def test_numpy_p_is_stored_as_float(self):
        params = WCatParams(8, 1, np.float64(0.1))
        assert type(params.p) is float
        assert type(coefficients(params).a) is float
        assert type(dominant_eigenvalues(params).lambda1) is float
        assert dominant_eigenvalues(params) == dominant_eigenvalues(WCatParams(8, 1, 0.1))


class TestCoefficients:
    def test_golden_values(self):
        co = coefficients(WCatParams(N=8, m=1, p=0.1))
        for name, expected in GOLDEN_8_1_01.items():
            got = getattr(co, name)
            assert abs(got - expected) <= 1e-13 * abs(expected), name

    def test_golden_values_cover_every_field(self):
        assert list(GOLDEN_8_1_01) == [f.name for f in fields(CoefficientSet)]

    def test_each_power_of_p_tilde_is_evaluated_once(self, monkeypatch):
        exponents, real_powers = [], catsim.analytic._powers

        def counting_powers(base, lo, hi, log_domain):
            exponents.extend(range(lo, hi + 1))
            return real_powers(base, lo, hi, log_domain)

        monkeypatch.setattr(catsim.analytic, "_powers", counting_powers)
        coefficients(WCatParams(N=8, m=1, p=0.1))
        assert sorted(exponents) == [4, 5, 6, 7, 8]  # R - 3 .. R + 1 at R = 7
        exponents.clear()
        engine_curve("analytic", CatStateKind.W_CAT, 8, 1)(0.1)  # the figures' path
        assert sorted(exponents) == [4, 5, 6, 7, 8]

    def test_noiseless_limits(self):
        co = coefficients(WCatParams(N=10, m=0, p=0.0))
        assert co.a == 0.0 and co.c == 0.0 and co.d == 0.0
        assert abs(co.b - 1 / math.sqrt(10)) <= 1e-15
        assert co.a1 == co.b1 == 0.1
        co = coefficients(WCatParams(N=10, m=5, p=0.0))
        assert co.a == 0.5
        assert abs(co.b - 1 / math.sqrt(10)) <= 1e-15
        assert co.e == co.f == co.g == 0.0

    def test_values_stay_in_unit_interval(self):
        for N in (2, 5, 64, 65, 1000):
            for m in (0, 1, N // 2):
                if N - m < 2:
                    continue
                for p in (0.0, 0.1, 0.5, 1.0):
                    co = coefficients(WCatParams(N=N, m=m, p=p))
                    for field in GOLDEN_8_1_01:
                        value = getattr(co, field)
                        assert 0.0 <= value <= 1.0, (N, m, p, field, value)

    def test_small_remnant_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            coefficients(WCatParams(N=4, m=3, p=0.1))
        with pytest.raises(ValueError, match="oracle"):
            coefficients(WCatParams(N=4, m=4, p=0.1))


class TestPowPaths:
    @pytest.mark.parametrize("base", [0.5, 0.7, 0.975, 1.0])
    @pytest.mark.parametrize("k", [-1, 0, 1, 3, 31, 63, 64, 65])
    def test_plain_and_log_domain_agree(self, base, k):
        [plain] = _powers(base, k, k, False)
        [logd] = _powers(base, k, k, True)
        assert abs(plain - logd) <= 1e-12 * max(abs(plain), 1e-300)

    def test_underflow_is_graceful(self):
        assert _powers(0.5, 4000, 4000, True) == [0.0]

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_one_call_returns_each_power_alone(self, log_domain):
        together = _powers(0.7, -1, 66, log_domain)
        assert together == [_powers(0.7, k, k, log_domain)[0] for k in range(-1, 67)]


def reference_point(N: int, m: int, p: float) -> tuple:
    """The closed form evaluated point by point, as it was before the curve
    factory: one power routine call per exponent, the twelve coefficients,
    the two block roots, their ordering and the clamped negativity.

    Returns (coefficients by field name, (lambda1, lambda2, mult1, mult2),
    negativity).
    """
    def pow_(base, k, log_domain):
        if log_domain:
            return math.exp(k * math.log(base))
        if k < 0:
            base, k = 1.0 / base, -k
        out = 1.0
        for _ in range(k):
            out *= base
        return out

    R = N - m
    pt = 1.0 - p / 2.0
    ptk = {k: pow_(pt, k, N > 64) for k in range(R - 3, R + 2)}.__getitem__
    h = p / 2.0
    q2 = (1.0 - p) ** 2
    alpha1 = (ptk(R) + (R - 1) * h * h * ptk(R - 2)) / N
    alpha2 = (2.0 * ptk(R - 1) * h + (R - 2) * h**3 * ptk(R - 3)) / N
    gamma1 = (R / N) * h * ptk(R - 1)
    co = dict(
        a=gamma1 * pt + (m / N) * ptk(R + 1) + h * ptk(R),
        b=q2 * ptk(R - 1) / math.sqrt(N),
        c=alpha1 * h + (m / N) * h * h * ptk(R - 1) + h * ptk(R),
        d=h * q2 * ptk(R - 2) / N,
        a1=h * h * ptk(R - 1) + (m / N) * h * ptk(R) + alpha1 * pt,
        b1=q2 * ptk(R - 1) / N,
        e=q2 * h * ptk(R - 2) / math.sqrt(N),
        f=h * h * ptk(R - 1) + (m / N) * h**3 * ptk(R - 2) + alpha2 * h,
        g=q2 * h * h * ptk(R - 3) / N,
        alpha1=alpha1, alpha2=alpha2, gamma1=gamma1,
    )
    nt = N - m - 4
    diag_sym = co["c"] + (R - 1) * co["d"]
    root_sym = 0.25 * (
        diag_sym + co["a"] - math.sqrt(4.0 * R * co["b"] ** 2 + (diag_sym - co["a"]) ** 2)
    )
    if R == 2:
        root_mix = 0.5 * (co["a1"] - co["b1"])
    else:
        s = co["a1"] - co["b1"] + co["f"] + nt * co["g"]
        t = -co["a1"] + co["b1"] + co["f"] + nt * co["g"]
        root_mix = 0.25 * (s - math.sqrt(4.0 * (nt + 2) * co["e"] ** 2 + t * t))
    if root_mix < root_sym:
        pair = (root_mix, root_sym, R - 1, 1)
    else:
        pair = (root_sym, root_mix, 1, R - 1)
    nu = 0.0
    for lam, mult in ((pair[0], pair[2]), (pair[1], pair[3])):
        if lam < TOL.formula_clamp:
            nu -= mult * lam
    return co, pair, nu


class TestEngineCurve:
    def test_counts_checked_when_built(self):
        with pytest.raises(ValueError, match=r"^m must be in 0\.\.8, got -1$"):
            engine_curve("analytic", CatStateKind.W_CAT, 8, -1)
        with pytest.raises(ValueError, match=r"^N must be >= 1, got 0$"):
            engine_curve("analytic", CatStateKind.W_CAT, 0, 0)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_p_checked_per_point(self, p):
        curve = engine_curve("analytic", CatStateKind.W_CAT, 8, 1)
        with pytest.raises(ValueError, match=rf"^p must be in \[0, 1\], got {p}$"):
            curve(p)

    def test_bit_identical_to_per_point_formula(self):
        # both power paths (N <= 64 and above), the R = 2 branch (m = N - 2),
        # fig4's grid, and p from 0.44 to 0.7, where the roots change order
        grid = sorted({*p_grid(0.0, FIG4_P_MAX, FIG4_P_STEP), 0.0, 0.3, 1.0,
                       *(0.44 + 0.01 * i for i in range(27))})
        orders = set()
        for N in (2, 3, 4, 8, 64, 65, 200, 1000, 3000):
            for m in sorted({0, 1, N // 10, N - 2}):
                if N - m < 2:
                    continue
                curve = engine_curve("analytic", CatStateKind.W_CAT, N, m)
                for p in grid:
                    co, pair, nu = reference_point(N, m, p)
                    got = coefficients(WCatParams(N, m, p))
                    assert {k: getattr(got, k).hex() for k in co} == {k: v.hex() for k, v in co.items()}
                    assert [x.hex() for x in curve(p)] == [nu.hex(), pair[0].hex(), pair[1].hex()]
                    d = dominant_eigenvalues(WCatParams(N, m, p))
                    assert (d.lambda1.hex(), d.lambda2.hex(), d.multiplicity1, d.multiplicity2) == (
                        pair[0].hex(), pair[1].hex(), pair[2], pair[3]), (N, m, p)
                    orders.add(pair[2] == 1)
        assert orders == {True, False}  # both root orders were compared


class TestDominantEigenvalues:
    @pytest.mark.parametrize("N,m", [(10, 0), (10, 5), (7, 3), (1000, 100)])
    def test_noiseless_reduces_to_loss_eigenvalue(self, N, m):
        pair = dominant_eigenvalues(WCatParams(N=N, m=m, p=0.0))
        assert abs(pair.lambda1 + 0.5 * (1 - m / N)) <= 1e-12
        assert pair.lambda2 == 0.0

    def test_example_10_5(self):
        pair = dominant_eigenvalues(WCatParams(N=10, m=5, p=0.0))
        assert abs(pair.lambda1 + 0.25) <= 1e-15

    def test_ordered_ascending_with_multiplicities(self):
        pair = dominant_eigenvalues(WCatParams(N=8, m=1, p=0.1))
        assert pair.lambda1 <= pair.lambda2
        assert pair.multiplicity1 == 1
        assert pair.multiplicity2 == 6  # remnant - 1 copies of the weaker eigenvalue

    def test_roots_are_exact_oracle_eigenvalues(self):
        rho = noisy_wcat(4, 1, 0.1)
        ev = hermitian_spectrum(partial_transpose(rho, (0,)))
        pair = dominant_eigenvalues(WCatParams(N=4, m=1, p=0.1))
        assert abs(ev[0] - pair.lambda1) <= 1e-10
        assert np.min(np.abs(ev - pair.lambda2)) <= 1e-10

    def test_degenerate_remnant_two(self):
        # at N - m = 2 the mixed-symmetry sector is the lone singlet; its
        # 1x1 block must still be an exact eigenvalue of the oracle
        rho = noisy_wcat(5, 3, 0.3)
        ev = hermitian_spectrum(partial_transpose(rho, (0,)))
        pair = dominant_eigenvalues(WCatParams(N=5, m=3, p=0.3))
        assert np.min(np.abs(ev - pair.lambda1)) <= 1e-12
        assert np.min(np.abs(ev - pair.lambda2)) <= 1e-12

    def test_second_eigenvalue_multiplicity_in_spectrum(self):
        rho = noisy_wcat(8, 1, 0.1)
        ev = hermitian_spectrum(partial_transpose(rho, (0,)))
        pair = dominant_eigenvalues(WCatParams(N=8, m=1, p=0.1))
        assert np.sum(np.abs(ev - pair.lambda1) < 1e-10) == 1
        assert np.sum(np.abs(ev - pair.lambda2) < 1e-10) == 6

    def test_monotone_in_noise(self):
        for N, m in ((6, 1), (10, 0), (300, 30)):
            values = [
                dominant_eigenvalues(WCatParams(N=N, m=m, p=0.05 * i)).lambda1
                for i in range(11)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestLossOnlyEntanglement:
    def test_no_loss_is_one_ebit(self):
        assert loss_only_entanglement(7, 0) == 1.0

    def test_half_loss(self):
        assert abs(loss_only_entanglement(10, 5) - math.log2(1.5)) <= 1e-15

    def test_total_loss_is_zero(self):
        assert loss_only_entanglement(9, 9) == 0.0

    def test_oracle_agreement(self):
        for N, m in ((5, 2), (6, 4)):
            rho = noisy_wcat(N, m, 0.0)
            E = log_negativity(rho, Bipartition.micro_macro(rho.n_qubits))
            assert abs(E - loss_only_entanglement(N, m)) <= 1e-10


class TestApproxLogNegativity:
    def test_truncation_gap_at_certified_point(self):
        rho = noisy_wcat(8, 1, 0.1)
        exact = log_negativity(rho, Bipartition.micro_macro(rho.n_qubits))
        approx = approx_log_negativity(WCatParams(N=8, m=1, p=0.1))
        assert abs(exact - approx) < 1e-2

    @pytest.mark.parametrize("N,m", [(5, 0), (13, 4), (1000, 100)])
    def test_noiseless_reduction_is_exact(self, N, m):
        got = approx_log_negativity(WCatParams(N=N, m=m, p=0.0))
        assert abs(got - loss_only_entanglement(N, m)) <= 1e-12

    def test_large_n_loss_value(self):
        got = approx_log_negativity(WCatParams(N=1000, m=100, p=0.0))
        assert abs(got - math.log2(1.9)) <= 1e-12

    def test_zero_in_separable_regime(self):
        assert dominant_eigenvalues(WCatParams(N=4, m=0, p=0.6)).negativity == 0.0


class TestLargeNThreshold:
    def test_small_system_matches_paperless_band(self):
        # same bisection as the oracle engine; cross-checked in the
        # entanglement tests, here only the band
        assert abs(large_n_threshold(10, 0) - 0.442) <= 2e-3

    def test_thousand_qubit_threshold(self):
        # the 1e-9 negativity floor is crossed at p = 0.0504, where the
        # 899-fold lambda2 term carries 9.6e-10 of the total and |lambda1|
        # only 4.1e-11; the estimate 2 ln(4.5e8)/(N - m) = 0.044 from a bare
        # (1 - p/2)^(N - m) decay undershoots it, and lambda1 itself changes
        # sign only at p = 0.4233
        p_star = large_n_threshold(1000, 100)
        assert 0.0495 <= p_star <= 0.0515

    def test_runs_fast_at_huge_n(self):
        import time

        t0 = time.time()
        large_n_threshold(10**5, 10**4)
        assert time.time() - t0 < 2.0

    def test_remnant_two_smoke(self):
        p_star = large_n_threshold(6, 4)
        assert 0.0 < p_star < 1.0

    def test_small_remnant_rejected(self):
        with pytest.raises(ValueError):
            large_n_threshold(5, 4)
