"""Fourier duality for affine iterated function systems.

Hadamard pairs and duality systems (B, L, R); the two IFS views
tau_b(x) = R^{-1}(x+b) and tau_l(x) = S^{-1}(x+l); exact W-cycle
enumeration; candidate Fourier spectra of the invariant measure mu_B
with orthogonality and completeness verification; the transfer operator
R_W on grid functions; path-space measures P_x with Monte Carlo and
closed-form harmonic estimates; and stationary measures of the weighted
branch walk, including the scale-3 Riesz product.
"""

from .system import AffineSystem, IfsView, frac_str, fvec
from .ratlinalg import (
    is_expansive,
    mat_inverse,
    mat_pow,
    rational_matrix,
    SingularMatrixError,
)
from .hadamard import check_duality, check_pair, DualityReport, UnitarityReport
from .measure import (
    Weight,
    chaos_game,
    empirical_char,
    mu_hat,
    mu_hat_batch,
    mu_hat_detail,
    points_to_csv,
    weight_from_digits,
)
from .cycles import (
    Cycle,
    enumerate_cycles,
    find_w_cycles,
    power_system,
)
from .spectrum import (
    GramReport,
    GridOrthogonality,
    LatticeError,
    SpectrumSet,
    completeness_sum,
    generate_lambda,
    grid_orthogonality,
    k_point,
    lattice_basin_sums,
    verify_orthogonality,
)
from .transfer import (
    DomainError,
    GridFunction,
    cesaro,
    check_qmf,
    harmonic_defect,
    ruelle_apply,
)
from .pathspace import (
    HarmonicEstimate,
    PathEnsemble,
    QmfError,
    estimate_h,
    h_closed_form,
    h_closed_forms,
    sample_paths,
)
from .invariant import (
    ChainSample,
    batch_mean_stderr,
    concentration_curve,
    fourier_coefficient,
    riesz_chain,
    riesz_partial_density,
    run_chain,
)
from .registry import EXAMPLES, example_names, get_system

__version__ = "0.1.0"

__all__ = [
    "AffineSystem", "IfsView", "frac_str", "fvec", "is_expansive", "mat_inverse",
    "mat_pow", "rational_matrix", "SingularMatrixError", "check_duality", "check_pair",
    "DualityReport", "UnitarityReport", "Weight", "chaos_game",
    "empirical_char", "mu_hat", "mu_hat_batch", "mu_hat_detail",
    "points_to_csv", "weight_from_digits", "Cycle", "enumerate_cycles", "find_w_cycles",
    "power_system", "GramReport", "GridOrthogonality", "LatticeError", "SpectrumSet",
    "completeness_sum", "generate_lambda", "grid_orthogonality", "k_point",
    "lattice_basin_sums", "verify_orthogonality", "DomainError", "GridFunction",
    "cesaro", "check_qmf", "harmonic_defect", "ruelle_apply", "HarmonicEstimate",
    "PathEnsemble", "QmfError", "estimate_h", "h_closed_form", "h_closed_forms",
    "sample_paths", "ChainSample", "batch_mean_stderr", "concentration_curve",
    "fourier_coefficient", "riesz_chain", "riesz_partial_density", "run_chain",
    "EXAMPLES", "example_names", "get_system", "__version__",
]
