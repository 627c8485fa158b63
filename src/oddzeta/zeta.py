"""Truncated odd-type Selberg zeta functions, geodesic heat trace, eta.

For a geodesic class with multiplier q (0 < |q| < 1, q = exp(-(l + i
theta))) on a Schottky hyperbolic 3-manifold, the per-class weight is
D = |1 - q|^2 / |q|, and the half zeta functions are

    log Z(sigma_+-, lambda) = - sum_over_classes chi_+- / (j D) e^(-lambda l)

with chi_+- = e^(+-i theta) for the odd-form (signature) variant and
chi_+- = s^(+-1), s = mu/|mu| the spin phase of the SL(2, C) lift, for the
spinor variant.  The sums run over all conjugacy classes up to the word
cutoff; gamma and gamma^(-1) count separately.

Z_odd = Z(sigma_+)/Z(sigma_-) is one sum: chi_- = conj(chi_+) and j, D
are real, so

    log Z_odd(lambda) = -2i sum a e^(-lambda l),   a = Im(chi_+ / (j D)),

and Z_odd, its log-derivative, the heat trace and every eta route read
this one odd weight a per class.  The class data is one ``ZetaTerms``:
the arrays and rank of a ``words.Spectrum`` plus the weight D and the
character chi = chi_+ per class.  Every sum is one correctly rounded
``_fsum`` over an array expression, so its value does not depend on the
order of the terms.  Terms from ``terms_from_group`` carry the group's
delta_hat, and only this module refuses them: ``ConvergenceViolation``
at Re(lambda) <= delta_hat, ``DeltaNotNegative`` for eta and the eta-F
identity when delta_hat >= 0.

The termwise log sums are the analytic branch that vanishes as
Re(lambda) -> +inf, so Im(log Z_odd(0)) needs no unwinding: the sum *is*
the continuously tracked argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceViolation, DeltaNotNegative, NonPrimitiveInput
from .moebius import EPS_CLASS, MoebiusMap
from .quadrature import integrate
from .words import (PoincareEstimate, Spectrum, _divide, class_spectrum,
                    estimate_delta)

VARIANTS = ("signature", "spinor")


@dataclass(frozen=True)
class ZetaTerms(Spectrum):
    """All per-class quantities entering the zeta, eta and heat-trace sums.

    The arrays of the ``Spectrum``, plus the weight ``D`` = |1 - q|^2/|q|
    and the character ``chi`` = chi_+ of each class, the ``variant``
    the characters belong to, and the ``estimate`` of delta_hat that the
    sums are checked against (None: never refused).
    """

    D: np.ndarray
    chi: np.ndarray
    variant: str
    estimate: Optional[PoincareEstimate] = None


@dataclass(frozen=True)
class ZetaEvaluation:
    """Truncated value with its error bookkeeping.

    ``tail_bound`` is on the same scale as ``value`` (for log-type
    quantities it bounds the missing log mass; for exponentiated ones it
    is propagated through exp).
    """

    value: complex
    tail_bound: float
    cutoff_L: int
    variant: str
    lam: complex

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "lambda": [self.lam.real, self.lam.imag],
            "value": [self.value.real, self.value.imag],
            "tail_bound": self.tail_bound,
            "cutoff_L": self.cutoff_L,
        }


def terms_from_spectrum(spectrum: Spectrum, variant: str = "signature",
                        spin_sign: str = "plus") -> ZetaTerms:
    """The zeta summand data of a spectrum.

    ``spin_sign`` resolves the convention choice of which half-spin (or
    half-form) character is called sigma_plus; "minus" swaps the pair
    (conjugates chi) and negates eta.  The default "plus" is the choice
    under which the holomorphic-factorization identity closes.  Only the
    ``Spectrum`` fields are read, so a ``ZetaTerms`` of any variant gives
    the terms of another.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant {variant!r} not in {VARIANTS}")
    if spin_sign not in ("plus", "minus"):
        raise ValueError(f"spin_sign {spin_sign!r} not 'plus' or 'minus'")
    # abs(1 - q) ** 2 / abs(q), cmath.exp(1j * theta) and sp / abs(sp) in
    # the operations CPython uses, so each value is the scalar one
    q = spectrum.q
    weight = (np.float_power(np.hypot(1.0 - q.real, 0.0 - q.imag), 2.0)
              / np.hypot(q.real, q.imag))
    chi = np.empty(len(q), dtype=complex)
    if variant == "signature":
        # exp(i theta) is cos + i sin of Im(1j * theta) = 0.0 + theta
        angle = (spectrum.theta + 0.0).tolist()
        chi.real, chi.imag = (list(map(math.cos, angle)),
                              list(map(math.sin, angle)))
    else:
        sp = spectrum.spin_phase
        chi.real, chi.imag = _divide(sp.real, sp.imag,
                                     np.hypot(sp.real, sp.imag), 0.0)
    if spin_sign == "minus":
        chi = chi.conj()
    arrays = {field.name: getattr(spectrum, field.name)
              for field in fields(Spectrum)}
    return ZetaTerms(**arrays, D=weight, chi=chi, variant=variant)


def terms_from_group(generators: Sequence[MoebiusMap], L: int,
                     delta_cutoff: int, variant: str = "signature",
                     spin_sign: str = "plus",
                     eps_class: float = EPS_CLASS) -> ZetaTerms:
    """Class terms for every conjugacy class of word length <= L, with
    the group's delta_hat estimate of order ``delta_cutoff``.

    One ``words.class_spectrum`` at max(L, delta_cutoff) gives both, in
    (length, lexicographic representative) order.  Raises NotLoxodromic
    naming the offending word if the family is not purely loxodromic.
    """
    spectrum = class_spectrum(generators, max(L, delta_cutoff), eps_class)
    estimate = estimate_delta(spectrum, delta_cutoff)
    if delta_cutoff > L:
        spectrum = spectrum.select(spectrum.word_length <= L)
    return replace(terms_from_spectrum(spectrum, variant, spin_sign),
                   estimate=estimate)


# --- truncation-tail model ----------------------------------------------------

#: Safety factor on the shell model's tail bound
_TAIL_SAFETY = 4.0


def shell_tail_bound(terms: Spectrum, re_lam: float) -> float:
    """Bound on the log-scale mass of all classes beyond the word cutoff.

    Model: at most 2g(2g-1)^(k-1) classes per omitted shell k, g the
    spectrum's ``rank``, each with length at least alpha*k where alpha is
    fitted on the shortest lengths of the last four enumerated shells;
    per-class magnitude is bounded by e^(-(1+Re lambda) l) / (1 -
    e^(-l))^2.  The factor ``_TAIL_SAFETY`` pads the linear-length
    extrapolation.  Returns 0.0 when the rank or shell metadata is
    missing (hand-built spectra) and inf when the model does not converge.
    """
    if terms.rank is None or terms.word_length is None or not len(terms):
        return 0.0
    # np.unique would import numpy.ma on its first call
    shells = np.flatnonzero(np.bincount(terms.word_length))[-4:].tolist()
    lengths = {k: float(terms.ell[terms.word_length == k].min())
               for k in shells}
    cutoff = shells[-1]
    alpha = (sum(k * lengths[k] for k in shells)
             / sum(k * k for k in shells))
    if alpha <= 0 or 1.0 + re_lam <= 0:
        return math.inf
    rank = terms.rank
    ratio = (2 * rank - 1) * math.exp(-alpha * (1.0 + re_lam))
    if ratio >= 1.0:
        return math.inf
    first = (2 * rank * (2 * rank - 1) ** cutoff
             * math.exp(-alpha * (1.0 + re_lam) * (cutoff + 1)))
    damping = (1.0 - math.exp(-alpha * (cutoff + 1))) ** 2
    return _TAIL_SAFETY * first / ((1.0 - ratio) * damping)


# --- zeta sums ------------------------------------------------------------------


def _fsum(values: np.ndarray) -> complex:
    """Correctly rounded sum of a real or complex array, part by part.

    The imaginary part is summed only when it is not all zero; fsum of
    zeros is 0.0 whatever their signs, so the result is the same.
    """
    imag = values.imag
    return complex(math.fsum(values.real.tolist()),
                   math.fsum(imag.tolist()) if imag.any() else 0.0)


def _odd_weight(terms: ZetaTerms) -> np.ndarray:
    """a = Im(chi_+ / (j D)) per class: (chi_+ - chi_-) / (j D) = 2i a."""
    return (terms.chi / (terms.j * terms.D)).imag


def _check_convergence(terms: ZetaTerms, lam: complex):
    """Refuse a sum at Re(lambda) <= the terms' delta_hat."""
    if terms.estimate is not None and lam.real <= terms.estimate.delta_hat:
        raise ConvergenceViolation(
            f"Re(lambda) = {lam.real:.6g} <= "
            f"delta_hat = {terms.estimate.delta_hat:.6g}"
        )


def _check_delta_negative(terms: ZetaTerms):
    """Refuse eta and the eta-F identity when the terms' delta_hat >= 0."""
    if terms.estimate is not None and terms.estimate.delta_hat >= 0:
        raise DeltaNotNegative(
            f"delta_hat = {terms.estimate.delta_hat:.6g} >= 0")


def log_zeta_half(terms: ZetaTerms, sign: str,
                  lam: complex) -> ZetaEvaluation:
    """log Z(sigma_sign, lambda) = -sum chi_sign / (j D) e^(-lambda l)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    lam = complex(lam)
    _check_convergence(terms, lam)
    chi = terms.chi if sign == "+" else terms.chi.conj()
    value = -_fsum(chi / (terms.j * terms.D) * np.exp(-lam * terms.ell))
    tail = shell_tail_bound(terms, lam.real)
    return ZetaEvaluation(value, tail, terms.cutoff, terms.variant, lam)


def log_zeta_odd(terms: ZetaTerms, lam: complex) -> ZetaEvaluation:
    """log Z_odd(lambda) = -2i sum a e^(-lambda l), a = Im(chi_+ / (j D)).

    Equal to log Z(sigma_+) - log Z(sigma_-) as one sum; its tail bound
    is the two halves' bounds added.
    """
    lam = complex(lam)
    _check_convergence(terms, lam)
    value = -2j * _fsum(_odd_weight(terms) * np.exp(-lam * terms.ell))
    tail = 2.0 * shell_tail_bound(terms, lam.real)
    return ZetaEvaluation(value, tail, terms.cutoff, terms.variant, lam)


def _value_scale_tail(value: complex, log_tail: float) -> float:
    """|value| expm1(log_tail), the log-scale tail bound on the value scale.

    Infinite, as ``shell_tail_bound`` reports no bound, when the log tail
    is not finite or exceeds the float range of expm1 (about 709.78).
    """
    if not math.isfinite(log_tail):
        return math.inf
    try:
        return abs(value) * math.expm1(log_tail)
    except OverflowError:
        return math.inf


def zeta_odd(terms: ZetaTerms, lam: complex) -> ZetaEvaluation:
    """Z_odd(lambda) = exp(log Z_odd(lambda)), truncated.

    The tail bound is propagated to the value scale: |Z| expm1(log tail).
    """
    log_odd = log_zeta_odd(terms, lam)
    value = cmath.exp(log_odd.value)
    return replace(log_odd, value=value,
                   tail_bound=_value_scale_tail(value, log_odd.tail_bound))


def zeta_odd_signature_product(terms: ZetaTerms, lam: complex,
                               inner_cutoff: int) -> ZetaEvaluation:
    """Independent route to Z_odd for the signature variant.

    Direct double product over primitive classes:
    prod over (k, l) in [0, K]^2 of
        (1 - e^(i theta) q^k conj(q)^l |q|^(lambda+1))
      / (1 - e^(-i theta) q^k conj(q)^l |q|^(lambda+1)).
    Must agree with the sum form within combined tail bounds.
    """
    lam = complex(lam)
    _check_convergence(terms, lam)
    powers = terms.j[terms.j != 1]
    if len(powers):
        raise NonPrimitiveInput(
            f"product form needs primitive classes, got j = {powers[0]}"
        )
    if terms.variant != "signature":
        raise ValueError("product form applies to the signature variant")
    log_total = 0.0 + 0.0j
    inner_tail = 0.0
    for q, theta in zip(terms.q.tolist(), terms.theta.tolist()):
        aq = abs(q)
        scale = cmath.exp((lam + 1.0) * math.log(aq))
        phase = cmath.exp(1j * theta)
        parts = []
        for k in range(inner_cutoff + 1):
            qk = q ** k
            for l in range(inner_cutoff + 1):
                w = qk * q.conjugate() ** l * scale
                parts.append(cmath.log(1.0 - phase * w)
                             - cmath.log(1.0 - w / phase))
        log_total += math.fsum(p.real for p in parts) + 1j * math.fsum(
            p.imag for p in parts
        )
        # (k, l) outside the box, both product factors
        box = 4.0 * aq ** (inner_cutoff + 2 + lam.real) / (1.0 - aq) ** 3
        inner_tail += box
    value = cmath.exp(log_total)
    outer = shell_tail_bound(terms, lam.real)
    tail = _value_scale_tail(value, inner_tail + outer)
    return ZetaEvaluation(value, tail, terms.cutoff, "signature", lam)


def dlog_zeta_odd(terms: ZetaTerms, lam: complex) -> complex:
    """d/dlambda log Z_odd = sum l (chi_+ - chi_-) / (j D) e^(-lambda l)."""
    lam = complex(lam)
    _check_convergence(terms, lam)
    return 2j * _fsum(terms.ell * _odd_weight(terms) * np.exp(-lam * terms.ell))


def odd_heat_trace(terms: ZetaTerms, t: float) -> complex:
    """Geodesic heat trace

        (2 pi i / (4 pi t)^{3/2}) sum l^2 (chi_+ - chi_-)/(j D) e^(-l^2/4t).

    (chi_+ - chi_-)/(j D) = 2i a is purely imaginary termwise, so the
    value is real for any class list; terms with l^2/4t > 700 count as 0.
    """
    if t <= 0:
        raise ValueError(f"t = {t} must be positive")
    arg = terms.ell ** 2 / (4.0 * t)
    decay = np.exp(-arg)
    decay[arg > 700.0] = 0.0
    pref = 2.0j * math.pi / (4.0 * math.pi * t) ** 1.5
    return pref * 2j * _fsum(terms.ell ** 2 * _odd_weight(terms) * decay)


# --- eta invariant ---------------------------------------------------------------


def _require_real(z: complex, what: str, tol: float = 1e-9) -> float:
    if abs(z.imag) > tol * (abs(z.real) + 1.0):
        raise ArithmeticError(f"{what} unexpectedly non-real: {z}")
    return z.real


def eta(terms: ZetaTerms, route: str = "central_value",
        quad_tol: float = 1e-11) -> float:
    """Eta invariant from the class data, by one of three routes.

    central_value:   Im(log Z_odd(0)) / pi, the termwise (tracked) branch,
                     from one ``log_zeta_odd``.
    lambda_integral: (i/pi) int_0^Lmax dlog Z_odd + termwise analytic tail,
                     Lmax = 40 / (shortest length).
    heat_quadrature: (1/sqrt(pi)) int_0^inf t^(-1/2) Tr-heat dt, computed
                     through u = 1/t so both halves of the split at t = 1
                     become smooth exponentially decaying integrals.

    Terms with an estimate need delta_hat < 0 (the convergence standing
    hypothesis); hand-built ones carry none.
    """
    _check_delta_negative(terms)
    if not terms:
        return 0.0
    if route == "central_value":
        return log_zeta_odd(terms, 0.0).value.imag / math.pi
    ell_min = float(terms.ell.min())
    if route == "lambda_integral":
        lmax = 40.0 / ell_min

        def integrand(lam: float) -> complex:
            return dlog_zeta_odd(terms, lam)

        body, _ = integrate(integrand, 0.0, lmax, tol_abs=quad_tol,
                            tol_rel=quad_tol)
        tail = 2j * _fsum(_odd_weight(terms) * np.exp(-lmax * terms.ell))
        return _require_real(1j * (body + tail) / math.pi, "lambda-integral eta")
    if route == "heat_quadrature":
        u_max = max(2.0, 170.0 / ell_min ** 2)

        def integrand_u(u: float) -> complex:
            return u ** -1.5 * odd_heat_trace(terms, 1.0 / u)

        # t in [1, inf) maps to u in (0, 1]; t in (0, 1] to u in [1, u_max]
        large_t, _ = integrate(integrand_u, 0.0, 1.0, tol_abs=quad_tol,
                               tol_rel=quad_tol)
        small_t, _ = integrate(integrand_u, 1.0, u_max, tol_abs=quad_tol,
                               tol_rel=quad_tol)
        return _require_real((large_t + small_t) / math.sqrt(math.pi),
                             "heat-quadrature eta")
    raise ValueError(f"unknown route {route!r}")
