"""Expansion coefficients of gravitational potentials for synthetic planets,
their large-order asymptotics, and Brillouin-sphere convergence diagnostics."""

from .asymptotics import (
    AsymptoticPrediction,
    EmptyAfterMasking,
    ExceptionalCase,
    RatioReport,
    UnsupportedPairing,
    exact_inner,
    inner_watson,
    oscillatory_J,
    predict_thm1,
    predict_thm3,
    ratio_diagnostic,
)
from .balayage import (
    PowerSeries,
    SurfaceMeasure,
    analyticity_probe,
    apply_A_cauchy,
    apply_A_series,
    build_Q,
    green_sphere,
    mu_from_point_masses,
    plemelj_jump,
    swept_density_point,
)
from .coeffs import (
    ScaledCoeffSeries,
    coeff_scaled,
    coeff_series,
    potential_direct,
    potential_partial_sum,
)
from .convergence import (
    ConvergenceReport,
    convergence_verdict,
    limsup_stat,
    root_test,
    verdict_from_series,
)
from .errors import BrillouinError, EnvelopeBoundError, ToleranceNotMet
from .legendre import QuadratureRule, gauss_nodes, legendre_asym, legendre_eval
from .model import (
    C1MixedWeight,
    FourierTailWeight,
    PlanetProfile,
    PlanetSpec,
    PowerC1,
    PowerCusp,
    QuadraticPeak,
    RejectDomain,
    RejectNonGeneric,
    SmoothPowerWeight,
    TwoSidedCuspWeight,
    build_profile,
    homogeneous_ball,
    point_mass_planet,
)
from .spectral import (
    TailFit,
    appendix_oracle,
    build_cutoff,
    check_Linf,
    fit_tail,
    fourier_eval,
    gaussian_window,
)

__version__ = "0.1.0"
