"""Figure-data generation, parameter sweeps, and the validation battery.

Every quantitative claim this package reproduces is emitted as deterministic
flat files: CSV with the fixed header ``state,N,m,p,entanglement,engine,
lambda1,lambda2`` (lambda fields empty for oracle rows), or JSON arrays with
the same field names.  Floats are rendered with 12 significant digits and
files use ``\\n`` line endings, so identical configurations produce
byte-identical output regardless of thread count.
"""

from __future__ import annotations

import io
import json
import logging
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import analytic
from .analytic import WCatParams, loss_only_entanglement
from .cats import (
    CatStateKind,
    ghz_cat,
    psi1_g_state,
    psi2,
    psi3_concat_ghz,
    w_cat,
    w_state,
)
from .core import (
    TOL,
    _hermiticity_defect,
    Bipartition,
    DensityMatrix,
    hermitian_spectrum,
    partial_trace,
    partial_transpose,
    permute_qubits,
    tensor,
    to_density,
)
from .entanglement import ENGINES, _ebits, _pt_negativity, engine_curve, negativity
from .noise import depolarize_all, depolarize_qubit, lose_particles, noisy_wcat

__all__ = [
    "SweepRecord",
    "LossRecord",
    "CSV_HEADER",
    "LOSS_CSV_HEADER",
    "fig1_records",
    "fig2_records",
    "fig3_records",
    "fig4_records",
    "loss_threshold_records",
    "sweep_records",
    "render_csv",
    "render_json",
    "write_records",
    "CheckResult",
    "ValidationReport",
    "validate_report",
]

logger = logging.getLogger(__name__)

DEFAULT_FIG1_N = (4, 6, 8, 10)
DEFAULT_FIG2_N = (4, 6, 8, 10)
DEFAULT_FIG3_N, DEFAULT_FIG3_M_MAX = 10, 8
DEFAULT_FIG4_N, DEFAULT_FIG4_M_MAX = 1000, 100
# p-grid steps resolve the two-decimal noise thresholds; the narrow window
# used at N = 1000 gets a finer step.
DEFAULT_P_STEP = 0.005
DEFAULT_P_MAX = 0.6
FIG4_P_STEP = 0.0005
FIG4_P_MAX = 0.05
# Lists built whole before any point is evaluated: a p-grid, and the rows of
# one fig1, fig3 or fig4 file.
MAX_ROWS = 10**6


@dataclass(frozen=True)
class SweepRecord:
    """One output row: a state family at (N, m, p) with its entanglement."""

    state: str
    N: int
    m: int
    p: float
    entanglement: float
    engine: str
    lambda1: Optional[float] = None
    lambda2: Optional[float] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {', '.join(ENGINES)}, got {self.engine!r}")
        if not 0.0 <= self.entanglement <= 1.0 + 1e-10:
            raise ValueError(
                f"entanglement {self.entanglement!r} outside [0, 1] for a qubit-vs-rest cut"
            )


@dataclass(frozen=True)
class LossRecord:
    """One row of the particle-loss separability table."""

    state: str
    l: Optional[int]
    N: int
    m: int
    lost: str
    negativity: float
    verdict: str


def _columns(records: Sequence) -> list:
    """(name, is_float, omit_unset) per field of the records' type, in field
    order; floats get 12 significant digits, and JSON rows leave out an unset
    field that has a default."""
    record_type = type(records[0]) if records else SweepRecord
    return [(f.name, "float" in str(f.type), f.default is None) for f in fields(record_type)]


CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))
LOSS_CSV_HEADER = ",".join(f.name for f in fields(LossRecord))


def _fmt(x) -> str:
    return format(float(x), ".12g")


def p_grid(p_min: float, p_max: float, p_step: float) -> list:
    """Inclusive arithmetic grid p_min + i * p_step over [p_min, p_max].

    The endpoint is kept when it lies on the grid up to rounding; a last
    point that rounding carries past p_max is clamped to p_max.
    """
    if not all(math.isfinite(x) for x in (p_min, p_max, p_step)):
        raise ValueError(f"grid bounds and step must be finite, got {p_min}, {p_max}, {p_step}")
    if p_step <= 0:
        raise ValueError(f"p step must be > 0, got {p_step}")
    if p_max < p_min:
        raise ValueError(f"empty grid: p_max {p_max} < p_min {p_min}")
    span = (p_max - p_min) / p_step
    if not math.isfinite(span):
        raise ValueError(f"step {p_step} is too small for the range [{p_min}, {p_max}]")
    count = int(math.floor(span + 1e-9)) + 1
    if count > MAX_ROWS:
        raise ValueError(f"step {p_step} gives {count} points over [{p_min}, {p_max}]; at most 10^6")
    return [min(p_min + i * p_step, p_max) for i in range(count)]


def _check_rows(rows: int) -> None:
    """Refuse a file of more than MAX_ROWS rows before building any of them."""
    if rows > MAX_ROWS:
        raise ValueError(f"the request gives {rows} rows; at most 10^6")


def _map_points(fn: Callable, points: Sequence, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, points))
    return [fn(pt) for pt in points]


def _flatten_sorted(chunks: Iterable) -> list:
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=operator.attrgetter("state", "N", "m", "p", "engine"))
    return records


# ---------------------------------------------------------------------------
# engine rows
# ---------------------------------------------------------------------------

def _sweep(pairs: Sequence, N: int, m: int, grid: Sequence[float], threads: int = 1, **cut) -> list:
    """Per grid point, one record per (kind, engine) pair; each curve is built once."""
    curves = [(kind.value, name, engine_curve(name, kind, N, m, **cut)) for kind, name in pairs]

    def eval_point(p):
        records = []
        for state, engine, curve in curves:
            nu, lambda1, lambda2 = curve(p)
            records.append(SweepRecord(state, N, m, p, _ebits(nu), engine, lambda1, lambda2))
        return records

    return _map_points(eval_point, list(grid), threads)


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def fig1_records(n_list: Sequence[int]) -> list:
    """Entanglement against particles lost, per initial macro count N.

    Closed-form log2(2 - m/N) rows for m = 0..N-1; ``validate`` checks the
    law against the dense oracle.
    """
    _check_rows(sum(n_list))
    records = [
        SweepRecord(state=CatStateKind.W_CAT.value, N=N, m=m, p=0.0,
                    entanglement=loss_only_entanglement(N, m), engine="analytic")
        for N in n_list for m in range(0, N)
    ]
    return _flatten_sorted([records])


def fig2_records(n_list: Sequence[int], grid: Sequence[float], threads: int = 1) -> list:
    """W-cat versus GHZ-cat under uniform local depolarizing noise.

    Per grid point the GHZ-cat gets one oracle row and the W-cat two rows
    (oracle and closed form), so the truncation gap can be read off the file.
    Every N must be at least 2, the closed form's smallest W-cat.
    """
    for N in n_list:
        if N < 2:
            raise ValueError(f"fig2 needs every N >= 2 (the closed-form W-cat rows), got N = {N}")
    chunks = []
    for N in n_list:
        pairs = ((CatStateKind.GHZ_CAT, "oracle"), (CatStateKind.W_CAT, "oracle"),
                 (CatStateKind.W_CAT, "analytic"))
        for ghz, w_oracle, w_analytic in _sweep(pairs, N, 0, grid, threads):
            gap = abs(w_oracle.entanglement - w_analytic.entanglement)
            logger.debug("fig2 N=%d p=%g truncation gap %.3e", N, ghz.p, gap)
            chunks.append([ghz, w_oracle, w_analytic])
    return _flatten_sorted(chunks)


def _check_m_max(N: int, m_max: int) -> None:
    """The closed form needs two surviving macro qubits at every m up to m_max."""
    if m_max > N - 2:
        raise ValueError(
            f"m_max must be at most N - 2 = {N - 2} (the closed form needs two "
            f"surviving macro qubits), got {m_max}"
        )


def fig3_records(N: int, m_max: int, grid: Sequence[float]) -> list:
    """Loss and decoherence combined: closed-form surface over (m, p).

    ``validate`` measures the two-eigenvalue truncation gap against the
    dense oracle; ``fig2`` files carry both W-cat engines side by side.
    """
    _check_m_max(N, m_max)
    _check_rows((m_max + 1) * len(grid))
    chunks = []
    for m in range(0, m_max + 1):
        chunks += _sweep([(CatStateKind.W_CAT, "analytic")], N, m, grid)
    return _flatten_sorted(chunks)


def fig4_records(N: int, m_max: int, grid: Sequence[float]) -> tuple:
    """Large-N surface plus the vanishing-noise threshold per loss count.

    Returns (records, thresholds).  The records contain the (m, p) grid and,
    per m, one extra row at the bisected threshold p*(m), which is how the
    thresholds are recorded in the data file; ``thresholds`` maps m to p*.
    """
    _check_m_max(N, m_max)
    _check_rows((m_max + 1) * (len(grid) + 1))
    chunks, thresholds = [], {}
    for m in range(0, m_max + 1):
        p_star = analytic.large_n_threshold(N, m)
        thresholds[m] = p_star
        chunks += _sweep([(CatStateKind.W_CAT, "analytic")], N, m, [*grid, p_star])
    return _flatten_sorted(chunks), thresholds


def loss_threshold_records() -> list:
    """Separability verdicts of the competitor cats under particle loss.

    Losing "last_m" means tracing the m highest-indexed macro qubits;
    "full_block" traces every physical qubit of the last logical qubit, and
    "cross_block" one physical qubit from each of the last two logical
    qubits.  Verdict "ppt" means negativity below 1e-9 across the micro
    cut (for the two-logical-qubit full-block case, across the two
    surviving physical qubits).
    """
    records = []

    def add(state, l, N, m, lost, nu):
        verdict = "entangled" if nu > TOL.negativity_floor else "ppt"
        records.append(LossRecord(state, l, N, m, lost, nu, verdict))

    for kind, losses in ((CatStateKind.PSI1_G_STATE, (1, 2, 3)), (CatStateKind.PSI2, (1, 2)),
                         (CatStateKind.GHZ_CAT, (1,))):
        for N in range(4, 8):
            for m in losses:
                add(kind.value, None, N, m, "last_m", engine_curve("oracle", kind, N, m)(0.0)[0])

    l = 2
    for n_logical in (2, 3):
        N = n_logical - 1
        # full block: lose the last logical qubit's l physical qubits
        micro = (0,) if n_logical == 2 else range(l)  # (0,): inside the survivor block
        nu = engine_curve("oracle", CatStateKind.PSI3_CONCAT, N, l, l=l, micro=micro)(0.0)[0]
        add(CatStateKind.PSI3_CONCAT.value, l, N, l, "full_block", nu)
        # one physical qubit from each of the last two logical qubits
        n_phys = l * n_logical
        drop = {n_phys - 1, n_phys - 1 - l}
        reduced = partial_trace(to_density(psi3_concat_ghz(l, n_logical)), drop)
        keep = [q for q in range(n_phys) if q not in drop]
        micro = [keep.index(q) for q in range(l) if q in keep]
        add(CatStateKind.PSI3_CONCAT.value, l, N, 2, "cross_block",
            negativity(reduced, Bipartition.split(micro, reduced.n_qubits)))
    return records


def sweep_records(
    kind: CatStateKind,
    N: int,
    m: int,
    grid: Sequence[float],
    engine: str = "oracle",
    l: int = 2,
    threads: int = 1,
) -> list:
    """Entanglement along a p-grid for one state family and loss count.

    ``engine`` is a name in ``ENGINES`` or "both"; the micro side of the cut
    is logical qubit 0 (for psi3 its whole first block).
    """
    names = {"both": tuple(ENGINES)}.get(engine, (engine,))
    micro = range(l) if kind is CatStateKind.PSI3_CONCAT else (0,)
    # reversed, so the closed form refuses other families before the oracle allocates
    pairs = [(kind, name) for name in reversed(names)]
    return _flatten_sorted(_sweep(pairs, N, m, grid, threads, l=l, micro=micro))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_csv(records: Sequence) -> str:
    columns = _columns(records)
    lines = [",".join(name for name, _, _ in columns)]
    for r in records:
        cells = []
        for name, is_float, _ in columns:
            value = getattr(r, name)
            cells.append("" if value is None else _fmt(value) if is_float else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(records: Sequence) -> str:
    columns = _columns(records)
    rows = []
    for r in records:
        row = {}
        for name, is_float, omit_unset in columns:
            value = getattr(r, name)
            if value is None and omit_unset:
                continue
            row[name] = float(_fmt(value)) if is_float and value is not None else value
        rows.append(row)
    return json.dumps(rows, indent=1) + "\n"


def write_records(records: Sequence, path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        text = render_csv(records)
    elif fmt == "json":
        text = render_json(records)
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    with io.open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            out.append(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        out.append(f"{'ALL CHECKS PASSED' if self.ok else 'VALIDATION FAILED'}")
        return out


def _check_state_invariants() -> CheckResult:
    worst_min, worst_ptsum, worst_dpt = 0.0, 0.0, 0.0
    recovery = partial_trace(tensor(to_density(w_state(2)), to_density(w_state(1))), {2})
    states = [
        to_density(w_cat(4)),
        to_density(ghz_cat(4)),
        to_density(psi1_g_state(3)),
        to_density(psi2(3)),
        to_density(psi3_concat_ghz(2, 2)),
        noisy_wcat(5, 1, 0.3),
        depolarize_all(to_density(ghz_cat(3)), 0.45),
        permute_qubits(depolarize_qubit(to_density(psi2(3)), 1, 0.3), [2, 0, 3, 1]),
        recovery,
    ]
    worst_herm = max(_hermiticity_defect(rho.elements) for rho in states)  # maps build unchecked
    worst_tr = max(abs(rho.elements.trace() - 1.0) for rho in states)
    for rho in states:
        worst_min = min(worst_min, rho.min_eigenvalue())
        cut = Bipartition.micro_macro(rho.n_qubits)
        pt = partial_transpose(rho, cut.side_a)
        spec = hermitian_spectrum(pt)
        worst_ptsum = max(worst_ptsum, abs(spec.sum() - 1.0))
        double = partial_transpose(pt, cut.side_a)
        worst_dpt = max(worst_dpt, float(np.max(np.abs(double.elements - rho.elements))))
    rec_err = float(np.max(np.abs(recovery.elements - to_density(w_state(2)).elements)))
    ok = (
        worst_herm <= TOL.hermiticity and worst_tr <= TOL.trace
        and worst_min >= TOL.positivity
        and worst_ptsum <= TOL.pt_trace
        and worst_dpt <= 1e-14
        and rec_err <= 1e-12
    )
    return CheckResult(
        "state invariants",
        ok,
        f"Hermiticity defect {worst_herm:.2e}, trace defect {worst_tr:.2e}, "
        f"min eig {worst_min:.2e}, PT trace defect {worst_ptsum:.2e}, "
        f"double-PT defect {worst_dpt:.2e}, tensor/trace recovery {rec_err:.2e}",
    )


def _check_channel_algebra() -> CheckResult:
    rho = to_density(w_cat(3))
    # loss and depolarization commute on the survivors
    a = lose_particles(depolarize_all(rho, 0.3), 1)
    b = depolarize_all(lose_particles(rho, 1), 0.3)
    comm = float(np.max(np.abs(a.elements - b.elements)))
    # two depolarizations compose into one
    p1, p2 = 0.2, 0.35
    lhs = depolarize_qubit(depolarize_qubit(rho, 1, p1), 1, p2)
    rhs = depolarize_qubit(rho, 1, p1 + p2 - p1 * p2)
    comp = float(np.max(np.abs(lhs.elements - rhs.elements)))
    # order independence across qubits
    fwd = depolarize_all(rho, 0.4)
    rev = rho
    for q in reversed(range(rho.n_qubits)):
        rev = depolarize_qubit(rev, q, 0.4)
    order = float(np.max(np.abs(fwd.elements - rev.elements)))
    # endpoints
    ident = float(np.max(np.abs(depolarize_all(rho, 0.0).elements - rho.elements)))
    mixed = float(np.max(np.abs(
        depolarize_all(rho, 1.0).elements - np.eye(rho.dim) / rho.dim
    )))
    # equality with the explicit four-operator Kraus form on one qubit
    p, q = 0.37, 1
    kraus = _kraus_reference(rho, q, p)
    kdef = float(np.max(np.abs(depolarize_qubit(rho, q, p).elements - kraus)))
    ok = max(comm, comp, order, ident, mixed, kdef) <= 1e-12
    return CheckResult(
        "channel algebra",
        ok,
        f"loss/noise commutation {comm:.2e}, composition {comp:.2e}, order {order:.2e}, "
        f"p=0 identity {ident:.2e}, p=1 white noise {mixed:.2e}, Kraus equality {kdef:.2e}",
    )


def _kraus_reference(rho: DensityMatrix, q: int, p: float) -> np.ndarray:
    """Four-operator Kraus evaluation of the depolarizing channel, for checking."""
    eye2 = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = [
        math.sqrt(1 - 0.75 * p) * eye2,
        math.sqrt(p / 4.0) * sx,
        math.sqrt(p / 4.0) * sy,
        math.sqrt(p / 4.0) * sz,
    ]
    out = np.zeros_like(rho.elements)
    for k in ops:
        full = np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (rho.n_qubits - 1 - q)))
        out = out + full @ rho.elements @ full.conj().T
    return out


def _check_permutation_symmetry() -> CheckResult:
    worst_exact, worst_noisy = 0.0, 0.0
    for psi in (w_cat(4), ghz_cat(4), psi1_g_state(4), psi2(4)):
        n = psi.n_qubits
        for i in range(1, n):
            for j in range(i + 1, n):
                perm = list(range(n))
                perm[i], perm[j] = perm[j], perm[i]
                swapped = permute_qubits(psi, perm)
                worst_exact = max(worst_exact, float(np.max(np.abs(
                    swapped.amplitudes - psi.amplitudes
                ))))
    rho = noisy_wcat(5, 1, 0.3)
    for i in range(1, rho.n_qubits):
        for j in range(i + 1, rho.n_qubits):
            perm = list(range(rho.n_qubits))
            perm[i], perm[j] = perm[j], perm[i]
            swapped = permute_qubits(rho, perm)
            worst_noisy = max(worst_noisy, float(np.max(np.abs(
                swapped.elements - rho.elements
            ))))
    ok = worst_exact == 0.0 and worst_noisy <= 1e-12
    return CheckResult(
        "permutation symmetry",
        ok,
        f"pure-state swap defect {worst_exact:.2e}, noisy-state swap defect {worst_noisy:.2e}",
    )


def _check_loss_law() -> CheckResult:
    """The dense oracle's noiseless log-negativity against the loss law, at
    every (N, m) with N <= 10: the rows ``fig1`` writes from the law."""
    worst = 0.0
    for N in range(1, 11):
        for m in range(0, N):
            exact = _ebits(engine_curve("oracle", CatStateKind.W_CAT, N, m)(0.0)[0])
            worst = max(worst, abs(exact - loss_only_entanglement(N, m)))
    ok = worst <= 1e-10
    return CheckResult(
        "loss-only entanglement law",
        ok,
        f"worst |oracle - log2(2 - m/N)| = {worst:.2e} over N=1..10",
    )


def _oracle_spectra() -> dict:
    """Dense PT spectrum of the noisy W-cat at every point of the closed
    form's validity grid (N <= 10, remnant >= 2, at most 9 surviving
    qubits, p = 0, 0.05, ..., 0.5), keyed by (N, m, p)."""
    grid = [(N, m, 0.05 * i) for N in range(2, 11) for m in range(0, N - 1) if N + 1 - m <= 9
            for i in range(0, 11)]
    return {
        (N, m, p): hermitian_spectrum(partial_transpose(noisy_wcat(N, m, p), (0,)))
        for N, m, p in grid
    }


def _check_oracle_equivalence(spectra: dict) -> CheckResult:
    """Closed-form roots against the dense PT spectrum.

    Asserted: every root is an oracle eigenvalue to 1e-9; wherever the
    oracle sees entanglement, lambda1 is its minimum eigenvalue; wherever it
    does not, the closed form claims none either.  Past the separability
    threshold the global minimum can come from a block the two roots do not
    cover, so min-identification is only meaningful on entangled points;
    such PPT points are counted in the detail line.
    """
    worst_match, worst_min, ppt_points, false_ent = 0.0, 0.0, 0, 0
    for (N, m, p), ev in spectra.items():
        pair = analytic.dominant_eigenvalues(WCatParams(N=N, m=m, p=p))
        for lam in (pair.lambda1, pair.lambda2):
            worst_match = max(worst_match, float(np.min(np.abs(ev - lam))))
        if ev[0] < -TOL.negativity_floor:
            worst_min = max(worst_min, abs(float(ev[0]) - pair.lambda1))
        else:
            ppt_points += 1
            if pair.negativity > TOL.negativity_floor:
                false_ent += 1
    ok = worst_match <= 1e-9 and worst_min <= 1e-9 and false_ent == 0
    return CheckResult(
        "oracle equivalence of closed-form eigenvalues",
        ok,
        f"{len(spectra)} grid points: worst eigenvalue match {worst_match:.2e}, worst "
        f"minimum-identification {worst_min:.2e} on entangled points, {ppt_points} PPT "
        f"points (min comes from uncovered blocks there), {false_ent} false entanglement claims",
    )


def _check_truncation(spectra: dict) -> CheckResult:
    def gap(N, m, p, ev):
        """|exact - two-root| log-negativity, and whether both see entanglement."""
        nu_exact = _pt_negativity(ev)
        nu_trunc = analytic.dominant_eigenvalues(WCatParams(N=N, m=m, p=p)).negativity
        return abs(_ebits(nu_exact) - _ebits(nu_trunc)), min(nu_exact, nu_trunc) > TOL.negativity_floor

    gaps = {}
    for key, ev in spectra.items():
        g, entangled = gap(*key, ev)
        if entangled:
            gaps[key] = g
    ref, _ = gap(8, 1, 0.1, spectra[8, 1, 0.1])
    violations = [key for key, g in gaps.items() if g > 1e-2]
    worst = max(((g, key) for key, g in gaps.items()), key=lambda t: t[0], default=(0.0, None))
    ok = ref < 1e-2
    return CheckResult(
        "two-eigenvalue truncation",
        ok,
        f"gap at (N=8, m=1, p=0.1) is {ref:.3e} ebits (required < 1e-2); elsewhere "
        f"{len(violations)} grid points exceed 1e-2 (logged, worst {worst[0]:.3e} at {worst[1]})",
    )


def _check_reductions() -> CheckResult:
    worst_p0 = 0.0
    for N in (2, 3, 5, 8, 13, 64, 65, 200, 1000):
        for m in {0, 1, N // 2, N - 2}:
            if m < 0 or N - m < 2:
                continue
            got = analytic.approx_log_negativity(WCatParams(N=N, m=m, p=0.0))
            worst_p0 = max(worst_p0, abs(got - loss_only_entanglement(N, m)))
    # the two power-evaluation paths agree at the crossover scale
    worst_pow = 0.0
    for pt in (0.5, 0.7, 0.975, 1.0):
        for k in (-1, 0, 1, 3, 31, 64, 65):
            [plain] = analytic._powers(pt, k, k, False)
            [logd] = analytic._powers(pt, k, k, True)
            worst_pow = max(worst_pow, abs(plain - logd) / max(abs(plain), 1e-300))
    ok = worst_p0 <= 1e-12 and worst_pow <= 1e-12
    return CheckResult(
        "closed-form reductions",
        ok,
        f"p=0 reduction to the loss law within {worst_p0:.2e}; "
        f"power-path agreement within {worst_pow:.2e} relative",
    )


def _check_lambda_monotone() -> CheckResult:
    worst = 0.0
    for N, m in ((4, 0), (6, 1), (8, 3), (10, 0), (200, 20)):
        prev = None
        for i in range(0, 11):
            lam = analytic.dominant_eigenvalues(WCatParams(N=N, m=m, p=0.05 * i)).lambda1
            if prev is not None and lam < prev - 1e-12:
                worst = max(worst, prev - lam)
            prev = lam
    ok = worst == 0.0
    return CheckResult(
        "dominant eigenvalue monotone in p",
        ok,
        f"worst decrease {worst:.2e} across sampled grids (witness weakens with noise)",
    )


def _check_bipartition_symmetry() -> CheckResult:
    worst = 0.0
    for rho in (noisy_wcat(4, 1, 0.2), depolarize_all(to_density(ghz_cat(3)), 0.2)):
        cut = Bipartition.micro_macro(rho.n_qubits)
        nu_a = negativity(rho, cut)
        nu_b = negativity(rho, Bipartition.split(cut.side_b, rho.n_qubits))
        worst = max(worst, abs(nu_a - nu_b))
    ok = worst <= 1e-10
    return CheckResult(
        "bipartition symmetry", ok, f"micro-side vs macro-side negativity differ by {worst:.2e}"
    )


def _check_determinism() -> CheckResult:
    grid = p_grid(0.0, 0.2, 0.05)

    def run(threads):
        recs = sweep_records(CatStateKind.W_CAT, 4, 1, grid, engine="both", threads=threads)
        return render_csv(recs), render_json(recs)

    csv1, json1 = run(1)
    csv2, json2 = run(3)
    ok = csv1 == csv2 and json1 == json2 and "\r" not in csv1
    return CheckResult(
        "output determinism",
        ok,
        f"serial and threaded runs produced {'identical' if ok else 'DIFFERENT'} bytes "
        f"({len(csv1)} csv bytes)",
    )


def validate_report() -> ValidationReport:
    """Run the whole invariant battery.

    This is where the closed form meets the dense oracle: the loss law at
    every N <= 10 (the figure commands write closed-form rows unchecked),
    and the oracle-equivalence and truncation checks, which share one set
    of PT spectra over the closed form's validity grid (remnant >= 2, at
    most 9 surviving qubits).
    """
    spectra = _oracle_spectra()
    return ValidationReport((
        _check_state_invariants(),
        _check_channel_algebra(),
        _check_permutation_symmetry(),
        _check_loss_law(),
        _check_oracle_equivalence(spectra),
        _check_truncation(spectra),
        _check_reductions(),
        _check_lambda_monotone(),
        _check_bipartition_symmetry(),
        _check_determinism(),
    ))
