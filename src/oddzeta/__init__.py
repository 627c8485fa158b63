"""Odd-type Selberg zeta functions, eta invariants and the holomorphic
factorization function for Schottky hyperbolic 3-manifolds, computed from
SL(2, C) generator data, together with the explicit hyperbolic-space
Dirac and heat kernel scalars.

Discreteness of input generator families is trusted, never verified.
"""

from .errors import OddZetaError
from .moebius import (
    GeodesicInvariants,
    MoebiusMap,
    classify,
    geodesic_invariants,
    loxodromic,
)
from .words import (
    PoincareEstimate,
    Spectrum,
    class_spectra,
    cycle_expansion,
    estimate_deltas,
    evaluate_word,
)
from .special import hyp2f1
from .kernels import (
    c_lambda,
    dirac_resolvent_scalar,
    gaussian_time_integral,
    gaussian_time_integral_quadrature,
    heat_signature_batch,
    heat_spinor_batch,
    resolvent_scalar,
)
from .zeta import (
    ZetaEvaluation,
    ZetaTerms,
    dlog_zeta_odd,
    eta,
    log_zeta_half,
    log_zeta_odd,
    odd_heat_trace,
    terms_from_group,
    terms_from_groups,
    zeta_odd,
)
from .zograf import (
    SchottkyPoint,
    check_eta_F_identity,
    pluriharmonicity_scan,
    schottky_from_params,
    zograf_F,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
