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
entry (a1 - b1)/2 (oracle-verified to machine precision).  Everything is
O(1) per evaluation, so the engine works unchanged at N = 10^3 and beyond.

The remaining blocks contribute only a small correction to the logarithmic
negativity (about 6e-3 ebits at N=8, m=1, p=0.1); ``approx_log_negativity``
is this two-eigenvalue truncation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .cats import CatStateKind
from .core import TOL
from .entanglement import _ebits, vanishing_noise_threshold

__all__ = [
    "WCatParams",
    "CoefficientSet",
    "DominantPair",
    "coefficients",
    "dominant_eigenvalues",
    "approx_negativity",
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
    p in [0, 1].  Derived quantities: p_tilde = 1 - p/2 in [1/2, 1],
    remnant = N - m, and n_tilde = N - m - 4 (may be negative; it only
    scales subdominant terms and is used as written).
    """

    N: int
    m: int
    p: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.m <= self.N:
            raise ValueError(f"m must be in 0..{self.N}, got {self.m}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")

    @property
    def p_tilde(self) -> float:
        return 1.0 - self.p / 2.0

    @property
    def remnant(self) -> int:
        return self.N - self.m

    @property
    def n_tilde(self) -> int:
        return self.N - self.m - 4


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
        nu = 0.0
        for lam, mult in ((self.lambda1, self.multiplicity1), (self.lambda2, self.multiplicity2)):
            if lam < TOL.formula_clamp:
                nu -= mult * lam
        return nu


def _pow(base: float, k: int, log_domain: bool) -> float:
    """base**k for integer k (possibly negative), base in (0, 1]."""
    if log_domain:
        return math.exp(k * math.log(base))
    if k < 0:
        base, k = 1.0 / base, -k
    out = 1.0
    for _ in range(k):
        out *= base
    return out


def _check_remnant(R: int) -> None:
    """The closed form needs R = N - m >= 2: below that its expressions
    involve powers the construction never produces, and the dense oracle
    engine is the right tool for such tiny remnants anyway."""
    if R < 2:
        raise ValueError(
            f"closed-form coefficients need N - m >= 2, got N - m = {R}; "
            f"use the dense oracle engine for smaller remnants"
        )


def coefficients(params: WCatParams) -> CoefficientSet:
    """Evaluate the twelve coefficients at the given parameters.

    Requires N - m >= 2.  p_tilde is raised to each of the five exponents
    R - 3 .. R + 1 once.
    """
    R = params.remnant
    _check_remnant(R)
    N, m, p = params.N, params.m, params.p
    pt = params.p_tilde
    log_dom = N > _LOG_DOMAIN_N
    ptk = {k: _pow(pt, k, log_dom) for k in range(R - 3, R + 2)}.__getitem__
    h = p / 2.0  # white-noise weight per qubit
    q2 = (1.0 - p) ** 2

    alpha1 = (ptk(R) + (R - 1) * h * h * ptk(R - 2)) / N
    alpha2 = (2.0 * ptk(R - 1) * h + (R - 2) * h**3 * ptk(R - 3)) / N
    gamma1 = (R / N) * h * ptk(R - 1)

    a = gamma1 * pt + (m / N) * ptk(R + 1) + h * ptk(R)
    b = q2 * ptk(R - 1) / math.sqrt(N)
    c = alpha1 * h + (m / N) * h * h * ptk(R - 1) + h * ptk(R)
    d = h * q2 * ptk(R - 2) / N
    a1 = h * h * ptk(R - 1) + (m / N) * h * ptk(R) + alpha1 * pt
    b1 = q2 * ptk(R - 1) / N
    e = q2 * h * ptk(R - 2) / math.sqrt(N)
    f = h * h * ptk(R - 1) + (m / N) * h**3 * ptk(R - 2) + alpha2 * h
    g = q2 * h * h * ptk(R - 3) / N

    return CoefficientSet(
        a=a, b=b, c=c, d=d, a1=a1, b1=b1, e=e, f=f, g=g,
        alpha1=alpha1, alpha2=alpha2, gamma1=gamma1,
    )


def _block_roots(params: WCatParams, co: CoefficientSet) -> tuple:
    """Smaller root of each contributing block, in construction order."""
    R = params.remnant
    nt = params.n_tilde
    diag_sym = co.c + (R - 1) * co.d
    root_sym = 0.25 * (
        diag_sym + co.a - math.sqrt(4.0 * R * co.b**2 + (diag_sym - co.a) ** 2)
    )
    if R == 2:
        # The mixed-symmetry sector of two qubits is the singlet alone: its
        # weight-2 partner does not exist and the block is the 1x1 entry.
        root_mix = 0.5 * (co.a1 - co.b1)
    else:
        s = co.a1 - co.b1 + co.f + nt * co.g
        t = -co.a1 + co.b1 + co.f + nt * co.g
        root_mix = 0.25 * (s - math.sqrt(4.0 * (nt + 2) * co.e**2 + t * t))
    return root_sym, root_mix


def dominant_eigenvalues(params: WCatParams) -> DominantPair:
    """The two dominant PT eigenvalues with their multiplicities.

    The symmetric-sector root has multiplicity 1, the mixed-symmetry root
    multiplicity R - 1.  Ordered so lambda1 <= lambda2; normally the
    symmetric root is the more negative, and a violation of that ordering
    (seen only past the separability threshold) is logged at debug level.
    """
    co = coefficients(params)
    root_sym, root_mix = _block_roots(params, co)
    mult_mix = params.remnant - 1
    if root_mix < root_sym:
        logger.debug(
            "mixed-symmetry root %g below symmetric root %g at %s", root_mix, root_sym, params
        )
        return DominantPair(root_mix, root_sym, mult_mix, 1)
    return DominantPair(root_sym, root_mix, 1, mult_mix)


def approx_negativity(params: WCatParams) -> float:
    """Negativity carried by the two dominant eigenvalues."""
    return dominant_eigenvalues(params).negativity


def approx_log_negativity(params: WCatParams) -> float:
    """Two-eigenvalue truncation of the logarithmic negativity (ebits).

    Exact at p = 0, where it reduces to log2(2 - m/N); away from p = 0 the
    discarded blocks shave off a correction of order 1e-2 ebits or less in
    the regimes of interest.
    """
    return _ebits(approx_negativity(params))


def loss_only_entanglement(N: int, m: int) -> float:
    """log2(2 - m/N): micro : macro entanglement after losing m of N, no noise."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 <= m <= N:
        raise ValueError(f"m must be in 0..{N}, got {m}")
    return math.log2(2.0 - m / N)


def large_n_threshold(N: int, m: int) -> float:
    """Depolarizing strength where the two-eigenvalue negativity dies.

    Bisection to |dp| <= 1e-4 of the largest p with negativity above
    1e-9: ``vanishing_noise_threshold`` on the closed-form engine, so N in
    the thousands is instantaneous.  Needs N - m >= 2.
    """
    return vanishing_noise_threshold(CatStateKind.W_CAT, N, m, "analytic")
