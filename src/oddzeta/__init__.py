"""Odd-type Selberg zeta functions, eta invariants and the holomorphic
factorization function for Schottky hyperbolic 3-manifolds, computed from
SL(2, C) generator data, together with the explicit hyperbolic-space
Dirac kernel scalars and spinor parallel transport.

Discreteness of input generator families is trusted, never verified.
"""

from .errors import OddZetaError
from .moebius import (
    GeodesicInvariants,
    HalfSpacePoint,
    MoebiusMap,
    classify,
    geodesic_invariants,
    hyperbolic_distance,
    normalize_schottky,
    spin_phase,
)
from .words import (
    PoincareEstimate,
    Spectrum,
    class_spectrum,
    estimate_delta,
    evaluate_word,
)
from .special import hyp2f1
from .kernels import (
    KernelPoint,
    c_lambda,
    dirac_resolvent_scalar,
    gaussian_time_integral,
    gaussian_time_integral_quadrature,
    heat_scalar_signature,
    heat_scalar_spinor,
    resolvent_scalar,
)
from .clifford import CliffordElement
from .transport import (
    TransportPair,
    adjoint_action,
    boundary_limit_transport,
    spinor_transport,
    tau_matrix,
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
    zeta_odd,
    zeta_odd_signature_product,
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
