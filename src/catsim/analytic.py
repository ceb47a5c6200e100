"""Closed-form micro : macro entanglement of the noisy W-cat state.

For the W-cat with N macro qubits, m of them lost and every survivor
depolarized with strength p, the partial transpose over the micro qubit is
block diagonal thanks to permutation symmetry of the R = N - m survivors.
Two blocks carry essentially all of the negativity:

* the symmetric-sector block, whose smaller root ``lambda1`` appears once
  and reduces to -(1/2)(1 - m/N) at p = 0;
* a mixed-symmetry block, whose smaller root ``lambda2`` appears with
  multiplicity R - 1 and vanishes at p = 0.

Both roots are exact eigenvalues of the partial transpose for R >= 3; at
R = 2 the mixed-symmetry sector degenerates to the two-qubit singlet, its
weight-2 partner state does not exist, and the block collapses to the 1 x 1
entry (a1 - b1)/2 (oracle-verified to machine precision).  The work that
does not depend on p is done once per (N, m) curve, and each point then
costs a fixed number of operations above N = 64 (one log, five exps), so
the engine works unchanged at N = 10^3 and beyond.

The remaining blocks contribute only a small correction to the logarithmic
negativity (about 6e-3 ebits at N=8, m=1, p=0.1); ``approx_log_negativity``
is this two-eigenvalue truncation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

from .cats import CatStateKind
from .core import TOL, _index
from .entanglement import _ebits, vanishing_noise_threshold

__all__ = [
    "WCatParams",
    "CoefficientSet",
    "DominantPair",
    "coefficients",
    "dominant_eigenvalues",
    "approx_log_negativity",
    "loss_only_entanglement",
    "large_n_threshold",
]

logger = logging.getLogger(__name__)

# Above this N, p_tilde**k is evaluated as exp(k log p_tilde) so huge grids
# neither overflow nor abort on underflow; below it, plain repeated
# multiplication.  Both paths agree to better than 1e-12 relative at the
# crossover.
_LOG_DOMAIN_N = 64


@dataclass(frozen=True)
class WCatParams:
    """Coordinates of one noisy W-cat configuration.

    N macro qubits, m of them lost (0 <= m <= N), depolarizing strength
    p in [0, 1]; N and m are stored as ints and p as a float.  The closed
    form is written in p_tilde = 1 - p/2 in [1/2, 1], the remnant R = N - m,
    and n_tilde = N - m - 4 (may be negative; it only scales subdominant
    terms and is used as written).
    """

    N: int
    m: int
    p: float

    def __post_init__(self):
        N, m = _counts(self.N, self.m)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "m", m)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class CoefficientSet:
    """The twelve scalars entering the two dominant eigenvalues.

    ``a``..``d`` build the symmetric-sector block, ``a1``..``g`` the
    mixed-symmetry block; ``alpha1``, ``alpha2`` and ``gamma1`` are the
    helpers appearing inside them, kept visible for tests.  All are in
    [0, 1] for valid parameters.
    """

    a: float
    b: float
    c: float
    d: float
    a1: float
    b1: float
    e: float
    f: float
    g: float
    alpha1: float
    alpha2: float
    gamma1: float


@dataclass(frozen=True)
class DominantPair:
    """The two dominant closed-form PT eigenvalues, most negative first.

    ``lambda1 <= lambda2`` always; ``multiplicity1``/``multiplicity2`` count
    how often each value occurs in the PT spectrum.  The values are the raw
    algebraic roots (an exact eigenvalue each, whatever the sign); clamping
    of near-zero negatives happens only when converting to a negativity.
    """

    lambda1: float
    lambda2: float
    multiplicity1: int
    multiplicity2: int

    @property
    def negativity(self) -> float:
        """Negativity of the two roots, each counted with its multiplicity;
        roots above -1e-15 are rounding residue and contribute nothing."""
        return _point(self.lambda1, self.lambda2, self.multiplicity1, self.multiplicity2)[0]


def _point(lambda1: float, lambda2: float, mult1: int, mult2: int) -> tuple:
    """(negativity, lambda1, lambda2) from the fields of a ``DominantPair``."""
    nu = 0.0
    for lam, mult in ((lambda1, mult1), (lambda2, mult2)):
        if lam < TOL.formula_clamp:
            nu -= mult * lam
    return nu, lambda1, lambda2


def _powers(base: float, lo: int, hi: int, log_domain: bool) -> list:
    """[base**k for k in lo..hi], for integers -1 <= lo <= hi and base in (0, 1].

    The log domain takes one log and one exp per power; the plain domain is
    one running product, whose k-th entry is k multiplications by base.
    """
    if log_domain:
        lg = math.log(base)
        return [math.exp(k * lg) for k in range(lo, hi + 1)]
    chain = [1.0]
    for _ in range(hi):
        chain.append(chain[-1] * base)
    return [chain[k] if k >= 0 else 1.0 / base for k in range(lo, hi + 1)]


def _counts(N, m) -> tuple:
    """N and m as ints (numpy integers pass), with N >= 1 and 0 <= m <= N."""
    N = _index(N, "N")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    m = _index(m, "m")
    if not 0 <= m <= N:
        raise ValueError(f"m must be in 0..{N}, got {m}")
    return N, m


def _check_remnant(R: int) -> None:
    """The closed form needs R = N - m >= 2: below that its expressions
    involve powers the construction never produces, and the dense oracle
    engine is the right tool for such tiny remnants anyway."""
    if R < 2:
        raise ValueError(
            f"closed-form coefficients need N - m >= 2, got N - m = {R}; "
            f"use the dense oracle engine for smaller remnants"
        )


def _coefficients(N: int, m: int) -> Callable:
    """p -> the twelve coefficients in ``CoefficientSet`` field order, for
    checked counts; the remnant check and the p-independent terms are done
    once, here, and each p makes one ``_powers`` call."""
    R = N - m
    _check_remnant(R)
    log_dom = N > _LOG_DOMAIN_N
    m_N, R_N, sqrt_N = m / N, R / N, math.sqrt(N)

    def at(p: float) -> tuple:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        h = p / 2.0  # white-noise weight per qubit
        pt = 1.0 - h  # p_tilde
        pt3, pt2, pt1, pt0, ptp = _powers(pt, R - 3, R + 1, log_dom)  # pt**(R-3) .. pt**(R+1)
        q2 = (1.0 - p) ** 2
        alpha1 = (pt0 + (R - 1) * h * h * pt2) / N
        alpha2 = (2.0 * pt1 * h + (R - 2) * h**3 * pt3) / N
        gamma1 = R_N * h * pt1

        a = gamma1 * pt + m_N * ptp + h * pt0
        b = q2 * pt1 / sqrt_N
        c = alpha1 * h + m_N * h * h * pt1 + h * pt0
        d = h * q2 * pt2 / N
        a1 = h * h * pt1 + m_N * h * pt0 + alpha1 * pt
        b1 = q2 * pt1 / N
        e = q2 * h * pt2 / sqrt_N
        f = h * h * pt1 + m_N * h**3 * pt2 + alpha2 * h
        g = q2 * h * h * pt3 / N
        return a, b, c, d, a1, b1, e, f, g, alpha1, alpha2, gamma1

    return at


def _curve(N: int, m: int, make: Callable = _point) -> Callable:
    """The closed-form engine's curve at (N, m), checked once, here: p ->
    ``make(lambda1, lambda2, multiplicity1, multiplicity2)``, by default
    (negativity, lambda1, lambda2).  See ``dominant_eigenvalues``."""
    N, m = _counts(N, m)
    coeffs = _coefficients(N, m)
    R = N - m
    nt = R - 4  # n_tilde

    def point(p: float):
        a, b, c, d, a1, b1, e, f, g, _, _, _ = coeffs(p)
        diag_sym = c + (R - 1) * d
        root_sym = 0.25 * (diag_sym + a - math.sqrt(4.0 * R * b**2 + (diag_sym - a) ** 2))
        if R == 2:
            # The mixed-symmetry sector of two qubits is the singlet alone: its
            # weight-2 partner does not exist and the block is the 1x1 entry.
            root_mix = 0.5 * (a1 - b1)
        else:
            s = a1 - b1 + f + nt * g
            t = -a1 + b1 + f + nt * g
            root_mix = 0.25 * (s - math.sqrt(4.0 * (nt + 2) * e**2 + t * t))
        if root_mix < root_sym:
            logger.debug("mixed-symmetry root %g below symmetric root %g at WCatParams(N=%d, m=%d, p=%r)",
                         root_mix, root_sym, N, m, p)
            return make(root_mix, root_sym, R - 1, 1)
        return make(root_sym, root_mix, 1, R - 1)

    return point


def coefficients(params: WCatParams) -> CoefficientSet:
    """Evaluate the twelve coefficients at the given parameters.

    Requires N - m >= 2.  p_tilde is raised to each of the five exponents
    R - 3 .. R + 1 once.
    """
    return CoefficientSet(*_coefficients(params.N, params.m)(params.p))


def dominant_eigenvalues(params: WCatParams) -> DominantPair:
    """The two dominant PT eigenvalues with their multiplicities.

    The symmetric-sector root has multiplicity 1, the mixed-symmetry root
    multiplicity R - 1.  Ordered so lambda1 <= lambda2; normally the
    symmetric root is the more negative, and a violation of that ordering
    (seen only past the separability threshold) is logged at debug level.
    """
    return _curve(params.N, params.m, DominantPair)(params.p)


def approx_log_negativity(params: WCatParams) -> float:
    """Two-eigenvalue truncation of the logarithmic negativity (ebits).

    Exact at p = 0, where it reduces to log2(2 - m/N); away from p = 0 the
    discarded blocks shave off a correction of order 1e-2 ebits or less in
    the regimes of interest.
    """
    return _ebits(dominant_eigenvalues(params).negativity)


def loss_only_entanglement(N: int, m: int) -> float:
    """log2(2 - m/N): micro : macro entanglement after losing m of N, no noise."""
    N, m = _counts(N, m)
    return math.log2(2.0 - m / N)


def large_n_threshold(N: int, m: int) -> float:
    """Depolarizing strength where the two-eigenvalue negativity dies.

    Bisection to |dp| <= 1e-4 of the largest p with negativity above
    1e-9: ``vanishing_noise_threshold`` on the closed-form engine, so N in
    the thousands is instantaneous.  Needs N - m >= 2.
    """
    return vanishing_noise_threshold(CatStateKind.W_CAT, N, m, "analytic")
