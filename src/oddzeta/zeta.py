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
character chi = chi_+ per class.  The log zeta sums, Z_odd and the
lambda-integral tail are each one correctly rounded ``_fsum``, so their
values do not depend on the order of the terms.  ``_fsum`` sums exactly
in numpy, binning frexp mantissa halves by exponent with
``np.bincount`` (exact below 2^53) and rounding the folded Python int
once by int / int division; a correctly rounded sum is unique, so its
bits are those of ``math.fsum``.  The eta integrands
``dlog_zeta_odd`` and ``odd_heat_trace`` are ``words._traces``, a few
ulps from the correctly rounded sum.  Terms from ``terms_from_group``
carry the group's delta_hat, and only this module refuses them:
``ConvergenceViolation`` at Re(lambda) <= delta_hat, ``DeltaNotNegative``
for eta and the eta-F identity when delta_hat >= 0; a non-finite lambda
is refused with ``ValueError``.

The termwise log sums are the analytic branch that vanishes as
Re(lambda) -> +inf, so Im(log Z_odd(0)) needs no unwinding: the sum *is*
the continuously tracked argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConvergenceViolation, DeltaNotNegative
from .moebius import EPS_CLASS, MoebiusMap
from .quadrature import integrate_batch
from .words import (PoincareEstimate, Spectrum, _traces, class_spectra,
                    estimate_deltas)

VARIANTS = ("signature", "spinor")
ETA_ROUTES = ("central_value", "lambda_integral", "heat_quadrature")


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

    # per-class factors of the odd sums, built on first use
    @cached_property
    def _odd_weight(self) -> np.ndarray:
        """a = Im(chi_+ / (j D)) per class: (chi_+ - chi_-) / (j D) = 2i a."""
        return (self.chi / (self.j * self.D)).imag

    @cached_property
    def _ell_a(self) -> np.ndarray:
        """l a per class, the weights of ``dlog_zeta_odd``, as one row."""
        return (self.ell * self._odd_weight)[None]

    @cached_property
    def _ell_sq_a(self) -> np.ndarray:
        """l^2 a per class, the weights of ``odd_heat_trace``, as one row."""
        return (self.ell ** 2 * self._odd_weight)[None]


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
    q = spectrum.q
    weight = np.abs(1.0 - q) ** 2 / np.abs(q)
    if variant == "signature":
        chi = np.exp(1j * spectrum.theta)
    else:
        chi = spectrum.spin_phase / np.abs(spectrum.spin_phase)
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
    the group's delta_hat estimate of order ``delta_cutoff``: the
    one-group case of ``terms_from_groups``.  Raises NotLoxodromic
    naming the offending word if the family is not purely loxodromic.
    """
    return terms_from_groups([generators], L, delta_cutoff, variant,
                             spin_sign, eps_class)[0]


def terms_from_groups(generator_sets: Sequence[Sequence[MoebiusMap]],
                      L: int, delta_cutoff: int, variant: str = "signature",
                      spin_sign: str = "plus",
                      eps_class: float = EPS_CLASS) -> List[ZetaTerms]:
    """``terms_from_group`` of each of several groups of one rank.

    One ``words.class_spectra`` at max(L, delta_cutoff) gives the
    spectra, in (length, lexicographic representative) order, and one
    ``words.estimate_deltas`` of order ``delta_cutoff`` their estimates.
    Refusals come stage by stage, the spectra's before any delta_hat's.
    One group's are unchanged; a batch raises a refusal that one of its
    groups raises on its own, with the exception ``class_spectra``
    states.
    """
    spectra = class_spectra(generator_sets, max(L, delta_cutoff), eps_class)
    estimates = estimate_deltas(spectra, delta_cutoff)
    terms = []
    for spectrum, estimate in zip(spectra, estimates):
        if delta_cutoff > L:
            spectrum = spectrum.select(spectrum.word_length <= L)
        terms.append(replace(terms_from_spectrum(spectrum, variant, spin_sign),
                             estimate=estimate))
    return terms


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


#: Values binned per block: 2^16 mantissa halves below 2^27 sum below
#: 2^43, exact in float64
_SUM_BLOCK = 1 << 16
#: 2^0 .. 2^15: 16 int64 bins below 2^44 fold into one below 2^60
_FOLD_POWERS = np.left_shift(1, np.arange(16, dtype=np.int64))


def _exact_sum(x: np.ndarray) -> float:
    """The exact sum of a 1-D float64 array, rounded once.

    Each value is (high + low) 2^(e - 27), from its frexp exponent e and
    mantissa times 2^27 split into the integer high < 2^27 and the
    fraction low, a multiple of 2^-26.  Over a block, ``np.bincount``
    sums both per exponent exactly, from the block's smallest exponent
    up, and the bins fold into the Python int N of the sum N 2^-1126
    (the unit of the smallest subnormal's mantissa, 2^-1073 2^-53).  The
    one rounding is CPython's correctly rounded int / int division,
    subnormals included; a sum past the float range raises OverflowError,
    even where the partial sums of ``math.fsum`` would not.  An array
    with a non-finite value gets ``math.fsum``'s value or its ValueError.
    """
    total = 0
    for start in range(0, len(x), _SUM_BLOCK):
        mant, expo = np.frexp(x[start:start + _SUM_BLOCK])
        low, high = np.modf(mant * 2.0 ** 27)
        base = int(expo.min())
        expo -= base
        high = np.bincount(expo, high)
        # an inf or NaN value leaves its high bin inf or NaN
        if not np.isfinite(high).all():
            return math.fsum(x.tolist())
        # bin i counts units of 2^(base - 53 + i): low 2^26 at its value's
        # exponent, high 26 bins up; padded to whole groups of 16
        size = len(high)
        bins = np.zeros((size + 26 + 15) // 16 * 16, np.int64)
        bins[:size] = np.bincount(expo, low) * 2.0 ** 26
        bins[26:26 + size] += high.astype(np.int64)
        block = 0
        for group in reversed((bins.reshape(-1, 16) @ _FOLD_POWERS).tolist()):
            block = (block << 16) + group
        total += block << (base + 1073)
    return total / (1 << 1126)


def _fsum(values: np.ndarray) -> complex:
    """Correctly rounded sum of a real or complex array, part by part:
    ``complex(math.fsum(values.real), math.fsum(values.imag))`` wherever
    ``math.fsum`` returns (``_exact_sum``).

    The imaginary part is summed only when it is not all zero; the sum
    of zeros is 0.0 whatever their signs, so the result is the same.
    """
    imag = values.imag
    return complex(_exact_sum(values.real),
                   _exact_sum(imag) if imag.any() else 0.0)


def _check_convergence(terms: ZetaTerms, lam):
    """Refuse a non-finite lambda, or a sum at Re(lambda) <= the terms'
    delta_hat: at the smallest Re(lambda) of an array."""
    lam = np.asarray(lam)
    finite = np.isfinite(lam)
    if not finite.all():
        raise ValueError(f"lambda = {lam[~finite][0].item()} is not finite")
    re_min = float(lam.real.min()) if lam.size else math.inf
    if terms.estimate is not None and re_min <= terms.estimate.delta_hat:
        raise ConvergenceViolation(
            f"Re(lambda) = {re_min:.6g} <= "
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
    value = -2j * _fsum(terms._odd_weight * np.exp(-lam * terms.ell))
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


def dlog_zeta_odd(terms: ZetaTerms, lam) -> np.ndarray:
    """d/dlambda log Z_odd = 2i sum l a e^(-lambda l) at each lambda.

    Any shape in, the same shape out (a numpy scalar for a scalar).  All
    lambdas are one ``words._traces`` call over l a, built once per terms:
    the real exp for real lambdas, the complex exp for complex ones.
    """
    lam = np.asarray(lam)
    _check_convergence(terms, lam)
    sums = _traces(terms.ell[None], terms._ell_a, [0], lam.reshape(1, -1))
    return 2j * sums.reshape(lam.shape)


def odd_heat_trace(terms: ZetaTerms, t) -> np.ndarray:
    """Geodesic heat trace at each t > 0 (any shape in, the same out),

        (2 pi i / (4 pi t)^{3/2}) sum l^2 (chi_+ - chi_-)/(j D) e^(-l^2/4t),

    which is real, -2 (2 pi / (4 pi t)^{3/2}) sum l^2 a e^(-l^2/4t), as
    (chi_+ - chi_-)/(j D) = 2i a; all t are one ``words._traces`` call.
    """
    t = np.asarray(t, dtype=float)
    bad = t[~(t > 0)]
    if bad.size:
        raise ValueError(f"t = {bad[0]} must be positive")
    sums = _traces(terms.ell[None] ** 2, terms._ell_sq_a, [0],
                   0.25 / t.reshape(1, -1))
    pref = 2.0 * math.pi / np.float_power(4.0 * math.pi * t, 1.5)
    return -2.0 * pref * sums.reshape(t.shape)


# --- eta invariant ---------------------------------------------------------------


def eta(terms: ZetaTerms, route: str = "central_value",
        quad_tol: float = 1e-11) -> float:
    """Eta invariant from the class data, by one of three routes.

    central_value:   Im(log Z_odd(0)) / pi, the termwise (tracked) branch,
                     from one ``log_zeta_odd``.
    lambda_integral: (i/pi) int_0^Lmax dlog_zeta_odd + termwise analytic
                     tail, Lmax = 40 / (shortest length).
    heat_quadrature: (1/sqrt(pi)) int_0^inf t^(-1/2) odd_heat_trace dt,
                     through u = 1/t, so both halves of the split at t = 1
                     become smooth exponentially decaying integrals.

    The routes are equal in exact arithmetic, class by class, so their
    spread measures the quadrature only (and the integrands' rounding, a
    few ulps).  Terms with an estimate need delta_hat < 0 (the
    convergence hypothesis); hand-built ones carry none.
    """
    if route not in ETA_ROUTES:
        raise ValueError(f"unknown route {route!r} not in {ETA_ROUTES}")
    _check_delta_negative(terms)
    if not terms:
        return 0.0
    if route == "central_value":
        return log_zeta_odd(terms, 0.0).value.imag / math.pi
    ell_min = float(terms.ell.min())
    if route == "lambda_integral":
        lmax = 40.0 / ell_min
        (body,), _, _ = integrate_batch(
            lambda rows, lam: dlog_zeta_odd(terms, lam), [0.0], [lmax],
            quad_tol, quad_tol)
        tail = 2j * _fsum(terms._odd_weight * np.exp(-lmax * terms.ell))
        return (1j * (body + tail) / math.pi).real
    # heat_quadrature: t in [1, inf) is u in (0, 1], t in (0, 1] is [1, u_max]
    u_max = max(2.0, 170.0 / ell_min ** 2)
    (large_t, small_t), _, _ = integrate_batch(
        lambda rows, u: (np.float_power(u, -1.5)
                         * odd_heat_trace(terms, 1.0 / u)),
        [0.0, 1.0], [1.0, u_max], quad_tol, quad_tol)
    return ((large_t + small_t) / math.sqrt(math.pi)).real
