import numpy as np
import pytest

from catsim import TOL, Bipartition, DensityMatrix, PureState
from catsim.core import _hermiticity_defect
from catsim.experiments import validate_report


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def validate_battery():
    """One run of the unpatched ``validate`` battery, for the tests that only
    read its report."""
    return validate_report()


def random_pure(rng, n_qubits: int) -> PureState:
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return PureState(n_qubits, amps / np.linalg.norm(amps))


def micro(n_qubits: int) -> Bipartition:
    return Bipartition.micro_macro(n_qubits)


def lossy_wcat_matrix(N: int, m: int) -> np.ndarray:
    """Independent construction of the W-cat after losing m of N macro qubits.

    Built term by term from scratch (no package calls): with R = N - m
    survivors the density matrix is

        1/2 [ (R/N) |0><0| (x) |W_R><W_R|
            + (m/N) |0><0| (x) |Z><Z|
            + sqrt(R/N) (|0><1| (x) |W_R><Z| + h.c.)
            +        |1><1| (x) |Z><Z| ],

    where |Z> = |0...0> and |W_R> is the single-excitation superposition.
    """
    R = N - m
    w = np.zeros(2**R, dtype=complex)
    for i in range(R):
        w[1 << (R - 1 - i)] = 1 / np.sqrt(R)
    z = np.zeros(2**R, dtype=complex)
    z[0] = 1.0
    k00 = np.array([[1, 0], [0, 0]], dtype=complex)
    k01 = np.array([[0, 1], [0, 0]], dtype=complex)
    k10 = k01.T
    k11 = np.array([[0, 0], [0, 1]], dtype=complex)
    out = 0.5 * (
        (R / N) * np.kron(k00, np.outer(w, w.conj()))
        + (m / N) * np.kron(k00, np.outer(z, z.conj()))
        + np.sqrt(R / N) * np.kron(k01, np.outer(w, z.conj()))
        + np.sqrt(R / N) * np.kron(k10, np.outer(z, w.conj()))
        + np.kron(k11, np.outer(z, z.conj()))
    )
    return out


def as_density(matrix: np.ndarray) -> DensityMatrix:
    n = int(np.log2(matrix.shape[0]))
    return DensityMatrix(n, matrix)


def assert_state_invariants(rho: DensityMatrix) -> None:
    """Hermiticity and unit trace, which the maps keep without re-checking."""
    assert _hermiticity_defect(rho.elements) <= TOL.hermiticity
    assert abs(rho.elements.trace() - 1.0) <= TOL.trace
