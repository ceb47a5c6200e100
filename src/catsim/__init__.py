"""Cat states under particle loss and local depolarizing noise.

Two engines compute the micro : macro logarithmic negativity: an exact dense
density-matrix oracle (up to 12 qubits) and closed-form dominant eigenvalues
of the partially transposed noisy W-cat (any size).  See the README for the
command-line interface and reproduction recipes.
"""

from .core import (
    TOL,
    Bipartition,
    CapacityError,
    DensityMatrix,
    PureState,
    Tolerances,
    get_dense_cap,
    hermitian_spectrum,
    partial_trace,
    partial_transpose,
    permute_qubits,
    set_dense_cap,
    tensor,
    to_density,
)
from .cats import (
    CatStateKind,
    build_cat,
    ghz_cat,
    psi1_g_state,
    psi2,
    psi3_concat_ghz,
    w_cat,
    w_state,
    w_tilde,
)
from .noise import depolarize_all, depolarize_qubit, lose_particles, noisy_wcat
from .entanglement import (
    bisect_threshold,
    critical_visibility,
    log_negativity,
    negativity,
    vanishing_noise_threshold,
)
from .analytic import (
    CoefficientSet,
    DominantPair,
    WCatParams,
    approx_log_negativity,
    coefficients,
    dominant_eigenvalues,
    large_n_threshold,
    loss_only_entanglement,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "CapacityError",
    "PureState",
    "DensityMatrix",
    "Bipartition",
    "tensor",
    "to_density",
    "partial_trace",
    "partial_transpose",
    "hermitian_spectrum",
    "permute_qubits",
    "get_dense_cap",
    "set_dense_cap",
    "CatStateKind",
    "w_state",
    "w_tilde",
    "w_cat",
    "ghz_cat",
    "psi1_g_state",
    "psi2",
    "psi3_concat_ghz",
    "build_cat",
    "depolarize_qubit",
    "depolarize_all",
    "lose_particles",
    "noisy_wcat",
    "negativity",
    "log_negativity",
    "critical_visibility",
    "bisect_threshold",
    "vanishing_noise_threshold",
    "WCatParams",
    "CoefficientSet",
    "DominantPair",
    "coefficients",
    "dominant_eigenvalues",
    "approx_log_negativity",
    "loss_only_entanglement",
    "large_n_threshold",
]
