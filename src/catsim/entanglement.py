"""Entanglement quantification across a bipartition.

Negativity is the absolute sum of the negative eigenvalues of the partial
transpose; the logarithmic negativity is E = log2(2 N(rho) + 1), measured in
ebits.  For a qubit-versus-rest cut E is at most 1.  Zero negativity
certifies a positive partial transpose (PPT), which is the operational
proxy used here for separability verdicts: necessary, and for the 2 x 2 and
2 x 3 cuts appearing in the loss tests also sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import TOL, Bipartition, DensityMatrix, hermitian_spectrum, partial_transpose, to_density
from .cats import CatStateKind, build_cat
from .noise import depolarize_all, lose_particles

__all__ = [
    "EntanglementValue",
    "negativity",
    "log_negativity",
    "measure",
    "critical_visibility",
    "bisect_threshold",
    "ENGINES",
    "engine_curve",
    "vanishing_noise_threshold",
]


@dataclass(frozen=True)
class EntanglementValue:
    """Negativity and logarithmic negativity (ebits) of one state and cut."""

    negativity: float
    log_negativity: float

    @classmethod
    def from_negativity(cls, nu: float) -> "EntanglementValue":
        nu = max(0.0, float(nu))
        return cls(negativity=nu, log_negativity=_ebits(nu))


def _ebits(nu: float) -> float:  # log-negativity of a negativity nu
    return math.log2(2.0 * nu + 1.0)


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Sum of |eigenvalue| over the strictly negative PT eigenvalues.

    Eigenvalues in (-1e-10, 0) are numerical noise and are clamped to zero.
    """
    if cut.n_qubits != rho.n_qubits:
        raise ValueError(f"cut covers {cut.n_qubits} qubits, state has {rho.n_qubits}")
    pt = DensityMatrix(rho.n_qubits, partial_transpose(rho, cut.side_a), _trusted=True)  # rho, permuted
    return _pt_negativity(hermitian_spectrum(pt).eigenvalues)


def _pt_negativity(eigenvalues) -> float:
    """Negativity read off a partial-transpose spectrum, with eigenvalues in
    (-1e-10, 0) clamped to zero."""
    neg = eigenvalues[eigenvalues < TOL.eigenvalue_clamp]
    return float(-neg.sum()) if neg.size else 0.0


def log_negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """log2(2 N(rho) + 1) in ebits; zero iff the negativity is zero."""
    return EntanglementValue.from_negativity(negativity(rho, cut)).log_negativity


def measure(rho: DensityMatrix, cut: Bipartition) -> EntanglementValue:
    """Both quantities at once."""
    return EntanglementValue.from_negativity(negativity(rho, cut))


def critical_visibility(N: int) -> float:
    """Visibility above which the N-qubit excitation-superposition register
    violates local realism: N / ((sqrt(2) - 1) 2^(N-1) + N).

    Tends to zero as N grows; N = 1 and N = 2 both evaluate to 1/sqrt(2).
    Numerator and denominator are scaled by 2^(1-N), so 2^(N-1) is never
    formed and the value stays finite (reaching 0.0) at any N.
    """
    if N < 1:
        raise ValueError(f"critical_visibility needs N >= 1, got {N}")
    s = N * 2.0 ** (1 - N)
    return s / (math.sqrt(2.0) - 1.0 + s)


_RESOLUTION = 1e-4  # bisect_threshold stops once the bracket is this narrow
_SCAN_STEP = 0.1  # its coarse grid over [0, 1]


def bisect_threshold(neg_of_p: Callable[[float], float]) -> float:
    """Largest p in [0, 1] with negativity(p) > 1e-9, to |dp| <= 1e-4.

    The floor is ``TOL.negativity_floor``.  The function is first sampled
    on a coarse grid of step 0.1 to verify that the negativity is
    non-increasing in p (the premise that makes bisection meaningful); a
    violation beyond small numerical slack is an error.  Returns 0.0 if
    already unentangled at p = 0 and 1.0 if still entangled at p = 1.
    """
    grid = [i * _SCAN_STEP for i in range(int(round(1.0 / _SCAN_STEP)) + 1)]
    values = [neg_of_p(p) for p in grid]
    slack = 1e-12
    for (p0, v0), (p1, v1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if v1 > v0 + slack:
            raise ValueError(
                f"negativity increases from {v0!r} at p={p0} to {v1!r} at p={p1}; "
                f"threshold bisection assumes it is non-increasing"
            )
    if values[0] <= TOL.negativity_floor:
        return 0.0
    if values[-1] > TOL.negativity_floor:
        return 1.0
    # bracket from the coarse grid, then bisect
    hi_idx = next(i for i, v in enumerate(values) if v <= TOL.negativity_floor)
    lo, hi = grid[hi_idx - 1], grid[hi_idx]
    while hi - lo > _RESOLUTION:
        mid = 0.5 * (lo + hi)
        if neg_of_p(mid) > TOL.negativity_floor:
            lo = mid
        else:
            hi = mid
    return lo


def _oracle_curve(kind: CatStateKind, N: int, m: int, l: int, micro: Iterable[int]) -> Callable:
    rho = lose_particles(to_density(build_cat(kind, N, l=l)), m)
    cut = Bipartition.split(micro, rho.n_qubits)
    return lambda p: (negativity(depolarize_all(rho, p), cut), None, None)


def _closed_form_curve(kind: CatStateKind, N: int, m: int, l: int, micro: Iterable[int]) -> Callable:
    if kind is not CatStateKind.W_CAT:
        raise ValueError(f"the analytic engine only covers {CatStateKind.W_CAT.value}, got {kind.value}")
    from .analytic import WCatParams, dominant_eigenvalues

    def point(p: float) -> tuple:
        pair = dominant_eigenvalues(WCatParams(N=N, m=m, p=p))
        return pair.negativity, pair.lambda1, pair.lambda2

    return point


# The engines: each maps a cat family, N, m, the psi3 block size l and the
# micro side of the cut to a curve p -> (negativity, lambda1, lambda2).
# "oracle" is the exact dense engine (lambdas None, up to the dense cap);
# "analytic" is the two-root closed form, W-cat only, at any N.
ENGINES = {"oracle": _oracle_curve, "analytic": _closed_form_curve}


def engine_curve(
    engine: str, kind: CatStateKind, N: int, m: int, *, l: int = 2, micro: Iterable[int] = (0,)
) -> Callable:
    """One engine's curve for (kind, N, m); the p-independent work (state,
    loss, cut) is done here, once."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
    return ENGINES[engine](kind, N, m, l, micro)


def vanishing_noise_threshold(
    kind: CatStateKind,
    N: int,
    m: int = 0,
    engine: str = "oracle",
    *,
    l: int = 2,
) -> float:
    """Depolarizing strength at which the micro : macro entanglement dies.

    Bisects the negativity of ``engine``'s curve: ``"oracle"`` loses m macro
    qubits, depolarizes the survivors and diagonalizes the partial transpose
    exactly; ``"analytic"`` (W-cat only) uses the closed-form dominant
    eigenvalues and has no qubit-count limit.  The result is the last p
    with negativity above 1e-9, to within 1e-4 (``bisect_threshold``).
    The cut is physical qubit 0 against the rest for every family; for
    psi3 that is one qubit of the micro block, not the logical micro qubit
    that sweep rows cut.
    """
    curve = engine_curve(engine, kind, N, m, l=l)
    return bisect_threshold(lambda p: curve(p)[0])
