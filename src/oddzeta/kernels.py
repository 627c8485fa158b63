"""Explicit hyperbolic-space kernel scalars and related special values.

Everything here is the scalar (Schur) component of a kernel: endomorphism
factors such as parallel transport and Clifford multiplication live in the
transport module.  Dimension bookkeeping: the space is H^(d+1); the spinor
heat scalars use d + 1 = 2n + 1, the signature heat scalars d + 1 = 4m - 1.

The derivative operator (-d/d cosh r)^k of the heat scalars is evaluated
by one path for every r >= 0: Taylor jets in rho = r^2, in which the
bracket is analytic, so the removable singularity at r = 0 needs no
special case.  No finite differences anywhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AtDiagonal, DivergentIntegral, PoleAt, PoleOfGamma
from .quadrature import integrate
from .special import GammaPole, gamma_quotient, hyp2f1, is_nonpositive_integer

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class KernelPoint:
    """Evaluation point: geodesic distance r, spectral lambda, heat time t, n."""

    r: float
    lam: complex = 0.0
    t: float = 1.0
    n: int = 1

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r = {self.r} negative")
        if self.t <= 0:
            raise ValueError(f"t = {self.t} not positive")
        if self.n < 1:
            raise ValueError(f"n = {self.n} must be a positive integer")


def c_lambda(lam: complex) -> complex:
    """C(lambda) = 2^(-2 lambda) Gamma(1/2 - lambda) / Gamma(1/2 + lambda).

    Satisfies C(lambda) C(-lambda) = 1; first-order poles at 1/2 + N0.
    """
    lam = complex(lam)
    if is_nonpositive_integer(0.5 - lam):
        raise PoleAt(f"C(lambda) pole at lambda = {lam}")
    try:
        ratio = gamma_quotient([0.5 - lam], [0.5 + lam])
    except GammaPole as exc:  # pragma: no cover - caught by the check above
        raise PoleAt(str(exc)) from exc
    return cmath.exp(-2.0 * lam * _LOG2) * ratio


def _log_cosh_half(r: float) -> float:
    # log cosh(r/2), overflow-safe
    x = 0.5 * r
    return x + math.log1p(math.exp(-2.0 * x)) - _LOG2


def _log_sinh_half(r: float) -> float:
    x = 0.5 * r
    return x + math.log1p(-math.exp(-2.0 * x)) - _LOG2


def _sech2_half(r: float) -> float:
    return math.exp(-2.0 * _log_cosh_half(r))


def resolvent_scalar(p: KernelPoint, d: int) -> complex:
    """Scalar prefactor of the squared-Dirac resolvent kernel on H^(d+1).

    2^-(d+1) pi^-(d+1)/2 G((d+1)/2+l) G(l) / G(2l+1)
        * cosh(r/2)^-(d+2l) * 2F1((d+1)/2+l, l; 2l+1; sech^2(r/2)).

    Excluded lambda: {0} u (-N/2) and poles of Gamma((d+1)/2 + lambda).
    """
    lam = complex(p.lam)
    if p.r <= 0:
        raise AtDiagonal("resolvent scalar is singular at r = 0")
    if is_nonpositive_integer(2.0 * lam, tol=2e-12):
        raise PoleOfGamma(f"lambda = {lam} in the excluded set {{0}} u (-N/2)")
    if is_nonpositive_integer(0.5 * (d + 1) + lam):
        raise PoleOfGamma(f"Gamma((d+1)/2 + lambda) pole at lambda = {lam}")
    pref = (2.0 ** -(d + 1)) * math.pi ** (-0.5 * (d + 1))
    gam = gamma_quotient([0.5 * (d + 1) + lam, lam], [2.0 * lam + 1.0])
    power = cmath.exp(-(d + 2.0 * lam) * _log_cosh_half(p.r))
    return pref * gam * power * hyp2f1(
        0.5 * (d + 1) + lam, lam, 2.0 * lam + 1.0, _sech2_half(p.r)
    )


def dirac_resolvent_scalar(p: KernelPoint, d: int) -> complex:
    """Scalar prefactor of the Dirac-times-resolvent kernel on H^(d+1).

    -2^-(d+1) pi^-(d+1)/2 G((d+1)/2+l) G(l+1) / G(2l+1)
        * cosh(r/2)^-(d+1+2l) sinh(r/2)
        * 2F1((d+1)/2+l, l+1; 2l+1; sech^2(r/2)),
    with the cl(v) U(m, m') endomorphism stripped.  Analytic at lambda = 0;
    the formula's gamma factors still exclude (-N/2).
    """
    lam = complex(p.lam)
    if p.r <= 0:
        raise AtDiagonal("Dirac resolvent scalar is singular at r = 0")
    if lam != 0 and is_nonpositive_integer(2.0 * lam, tol=2e-12):
        raise PoleOfGamma(f"lambda = {lam} in the excluded set (-N/2)")
    if is_nonpositive_integer(0.5 * (d + 1) + lam):
        raise PoleOfGamma(f"Gamma((d+1)/2 + lambda) pole at lambda = {lam}")
    pref = -(2.0 ** -(d + 1)) * math.pi ** (-0.5 * (d + 1))
    gam = gamma_quotient([0.5 * (d + 1) + lam, lam + 1.0], [2.0 * lam + 1.0])
    power = cmath.exp(
        -(d + 1 + 2.0 * lam) * _log_cosh_half(p.r) + _log_sinh_half(p.r)
    )
    return pref * gam * power * hyp2f1(
        0.5 * (d + 1) + lam, lam + 1.0, 2.0 * lam + 1.0, _sech2_half(p.r)
    )


# --- (-d/d cosh r)^k of r / sinh(s r) * exp(-r^2 / 4t) ------------------------
#
# In rho = r^2 the bracket is f = exp(-rho/4t) / S_s(rho) with
# S_s(rho) = sinh(s sqrt(rho)) / sqrt(rho), and d/d cosh r = (1/g) d/drho
# with g = S_1 / 2 = sinh r / 2r >= 1/2.  Every factor is a Taylor jet at
# rho = r^2; the same arithmetic serves r = 0 and large r.


def _j_div(num, den):
    """Quotient of two jets (Taylor coefficient lists); den[0] != 0."""
    out = []
    for k in range(min(len(num), len(den))):
        acc = num[k]
        for i in range(1, k + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / den[0])
    return out


def _j_deriv(a):
    """d/drho of a jet; shortens it by one order."""
    return [k * a[k] for k in range(1, len(a))]


def _sinhc_jet(s: float, rho: float, order: int):
    """Taylor jet at rho of S_s(rho) = sum_m s^(2m+1) rho^m / (2m+1)!.

    Coefficient j re-expands that series at rho,
    sum_i C(i+j, j) s^(2(i+j)+1) rho^i / (2(i+j)+1)!, whose terms are all
    positive, so no step cancels.  Raises OverflowError where the sum
    leaves the float range, as sinh(s r) does.
    """
    jet = []
    lead = s  # s^(2j+1) / (2j+1)!
    for j in range(order + 1):
        total, term, i = 0.0, lead, 0
        while True:
            total += term
            i += 1
            n = 2 * (i + j)
            term *= (i + j) / i * s * s * rho / (n * (n + 1))
            if not term > 2.0 ** -60 * total:  # also ends on inf and nan
                break
        if not math.isfinite(total):
            raise OverflowError(
                f"sinh({s!r} r) is not finite at r^2 = {rho!r}")
        jet.append(total)
        lead *= s * s / ((2 * j + 2) * (2 * j + 3))
    return jet


def _neg_dcosh_power(inv_scale: float, t: float, k: int, r: float) -> float:
    """(-d/d cosh r)^k [ r/sinh(r*inv_scale) e^(-r^2/4t) ] at any r >= 0."""
    rho = r * r
    g = [0.5 * c for c in _sinhc_jet(1.0, rho, k)]
    expo = [math.exp(-0.25 * rho / t)]
    for j in range(1, k + 1):
        expo.append(expo[-1] * (-0.25 / t) / j)
    f = _j_div(expo, _sinhc_jet(inv_scale, rho, k))
    for _ in range(k):
        f = [-c for c in _j_div(_j_deriv(f), g)]
    return f[0]


def heat_scalar_spinor(p: KernelPoint):
    """Half-spin scalar components (p_plus, p_minus) of the odd heat kernel.

    p_plus = sinh(r/2) / (i 2^(3n + 3/2) Gamma(n + 3/2) t^(3/2))
             * (-d/d cosh r)^n [ r sinh(r/2)^(-1) e^(-r^2/4t) ]
    on H^(2n+1); p_minus = -p_plus by construction.  Values are purely
    imaginary; the removable singularity at r = 0 is handled exactly.
    """
    core = _neg_dcosh_power(0.5, p.t, p.n, p.r)
    denom = 2.0 ** (3 * p.n + 1.5) * math.gamma(p.n + 1.5) * p.t ** 1.5
    p_plus = -1j * math.sinh(0.5 * p.r) / denom * core
    return p_plus, -p_plus


def heat_scalar_signature(p: KernelPoint, m: int):
    """Signature-operator scalar components (p_plus, p_minus, p_middle).

    On H^(4m-1): p_plus = (4m-1) sinh(r) / (i 2^(2m - 1/2) pi^(2m + 1/2)
    t^(3/2)) * (-d/d cosh r)^(2m-1) [ r sinh(r)^(-1) e^(-r^2/4t) ], with
    p_middle identically zero.
    """
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
    core = _neg_dcosh_power(1.0, p.t, 2 * m - 1, p.r)
    denom = 2.0 ** (2 * m - 0.5) * math.pi ** (2 * m + 0.5) * p.t ** 1.5
    p_plus = -1j * (4 * m - 1) * math.sinh(p.r) / denom * core
    return p_plus, -p_plus, 0.0


# --- Gaussian time integral ---------------------------------------------------


def gaussian_time_integral(lam: complex, r: float) -> complex:
    """exp(-lambda r) / (4 pi r), the closed form of
    int_0^inf exp(-t lambda^2) (4 pi t)^(-3/2) exp(-r^2/4t) dt,
    valid for Re(lambda^2) > 0."""
    lam = complex(lam)
    if (lam * lam).real <= 0:
        raise DivergentIntegral(f"Re(lambda^2) = {(lam * lam).real:.6g} <= 0")
    if r <= 0:
        raise ValueError(f"r = {r} must be positive")
    return cmath.exp(-lam * r) / (4.0 * math.pi * r)


def gaussian_time_integral_quadrature(lam: complex, r: float,
                                      tol: float = 1e-11):
    """Verification mode: adaptive quadrature of the time integral.

    Returns (value, reported_absolute_error) where the error combines the
    quadrature estimate and the analytic bound on the truncated tail.
    """
    lam = complex(lam)
    mu = (lam * lam).real
    if mu <= 0:
        raise DivergentIntegral(f"Re(lambda^2) = {mu:.6g} <= 0")
    if r <= 0:
        raise ValueError(f"r = {r} must be positive")
    lam2 = lam * lam

    def integrand(t: float) -> complex:
        arg = r * r / (4.0 * t)
        if arg > 700.0:
            return 0.0 + 0.0j
        return cmath.exp(-t * lam2) * (4.0 * math.pi * t) ** -1.5 * math.exp(-arg)

    upper = max(1.0, 40.0 / mu, 5.0 * r / (2.0 * math.sqrt(mu)))
    # pure relative control: the value can be exponentially small in r
    value, err = integrate(integrand, 0.0, upper, tol_abs=0.0, tol_rel=tol)
    tail = (4.0 * math.pi * upper) ** -1.5 * math.exp(-upper * mu) / mu
    return value, err + tail
