"""Time-dependent Gaussian-state statistics for a degenerate parametric
amplifier: Wigner density, quadrature and photon-number variances, Mandel
parameter and its critical-displacement phase transition, with a truncated
Fock-space oracle for independent verification."""

__version__ = "0.1.0"

from .model import (
    EvolvedState,
    ModelParams,
    displacement_amplitude,
    evolved_state,
    hamiltonian_coeffs,
    limit_r_zero_displacement,
)
from .nonclassicality import (
    BehaviorKind,
    Classification,
    CriticalPointResult,
    Mechanism,
    NoTransitionError,
    classicality_factor,
    classify_behavior,
    critical_alpha_q0_root,
    crossover_time,
    field_nonclassical,
    find_critical_alpha,
    p_representation_exists,
    squeezing_criterion,
)
from .statistics import (
    mandel_q,
    mandel_q_curve,
    mean_photon,
    photon_variance,
    quad_mean,
    quad_variance,
    quad_variance_state,
    snr,
    snr_max,
    variance_product,
)
from .wigner import wigner_beta, wigner_quadrature

__all__ = [name for name in dir() if not name.startswith("_")]
