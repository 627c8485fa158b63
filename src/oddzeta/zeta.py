"""Truncated odd-type Selberg zeta functions, geodesic heat trace, eta.

For a geodesic class with multiplier q (0 < |q| < 1, q = exp(-(l + i
theta))) on a Schottky hyperbolic 3-manifold, the per-class weight is
D = |1 - q|^2 / |q|, and the half zeta functions are

    log Z(sigma_+-, lambda) = - sum_over_classes chi_+- / (j D) e^(-lambda l)

with chi_+- = e^(+-i theta) for the odd-form (signature) variant and
chi_+- = s^(+-1), s = mu/|mu| the spin phase of the SL(2, C) lift, for the
spinor variant.  The sums run over all conjugacy classes up to the word
cutoff; gamma and gamma^(-1) count separately.

The termwise log sums are the analytic branch that vanishes as
Re(lambda) -> +inf, so Im(log Z_odd(0)) needs no unwinding: the sum *is*
the continuously tracked argument.

Every sum is correctly rounded (math.fsum, separately on real and
imaginary parts), so its value does not depend on the order of the terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

from .errors import ConvergenceViolation, DeltaNotNegative, NonPrimitiveInput, NotLoxodromic
from .moebius import GeodesicInvariants, MoebiusMap, classify, geodesic_invariants
from .quadrature import integrate
from .words import ConjugacyClass, enumerate_classes, evaluate_word, word_to_str

VARIANTS = ("signature", "spinor")


@dataclass(frozen=True)
class ClassTerm:
    """All per-class quantities entering the zeta, eta and heat-trace sums."""

    ell: float
    theta: float
    q: complex
    j: int
    D: float
    chi_plus: complex
    chi_minus: complex
    variant: str
    spin_phase: complex = 1.0 + 0.0j
    word_length: Optional[int] = None


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


def class_term(inv: GeodesicInvariants, j: int, variant: str,
               spin_phase: Optional[complex] = None, spin_sign: str = "plus",
               word_length: Optional[int] = None) -> ClassTerm:
    """Build the zeta summand data for one conjugacy class.

    ``spin_sign`` resolves the convention choice of which half-spin (or
    half-form) character is called sigma_plus; "minus" swaps the pair and
    negates eta.  The default "plus" is the choice under which the
    holomorphic-factorization identity closes.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant {variant!r} not in {VARIANTS}")
    q = inv.q
    weight = abs(1.0 - q) ** 2 / abs(q)
    if variant == "signature":
        chi_plus = cmath.exp(1j * inv.theta)
    else:
        sp = inv.spin_phase if spin_phase is None else spin_phase
        chi_plus = sp / abs(sp)
    chi_minus = chi_plus.conjugate()  # characters are unit, chi_- = 1/chi_+
    if spin_sign == "minus":
        chi_plus, chi_minus = chi_minus, chi_plus
    elif spin_sign != "plus":
        raise ValueError(f"spin_sign {spin_sign!r} not 'plus' or 'minus'")
    return ClassTerm(
        ell=inv.length, theta=inv.theta, q=q, j=j, D=weight,
        chi_plus=chi_plus, chi_minus=chi_minus, variant=variant,
        spin_phase=inv.spin_phase, word_length=word_length,
    )


def terms_from_group(generators: Sequence[MoebiusMap], L: int,
                     variant: str = "signature", spin_sign: str = "plus",
                     budget: int = 10_000_000,
                     eps_class: float = 1e-9) -> List[ClassTerm]:
    """Class terms for every conjugacy class of word length <= L.

    Deterministic order (length, then lexicographic representative).
    Raises NotLoxodromic naming the offending word if the family is not
    purely loxodromic at this cutoff.
    """
    classes = enumerate_classes(len(generators), L, budget)
    return [_term_for_class(generators, c, variant, spin_sign, eps_class)
            for c in classes]


def _term_for_class(generators, cls: ConjugacyClass, variant: str,
                    spin_sign: str, eps_class: float) -> ClassTerm:
    m = evaluate_word(generators, cls.representative)
    kind = classify(m, eps_class)
    if kind != "loxodromic":
        raise NotLoxodromic(
            f"word {word_to_str(cls.representative)} is {kind}, not loxodromic"
        )
    inv = geodesic_invariants(m, eps_class)
    return class_term(inv, cls.j, variant, spin_sign=spin_sign,
                      word_length=cls.word_length)


def power_class_terms(base: ClassTerm, max_power: int,
                      spin_sign: str = "plus") -> List[ClassTerm]:
    """Terms for gamma, gamma^2, ..., gamma^P of a primitive class.

    Used to close a toy list under powers so that sum-form and
    product-form evaluations see the same data.
    """
    if base.j != 1:
        raise NonPrimitiveInput("power closure starts from a primitive class")
    out = []
    for p in range(1, max_power + 1):
        q_p = base.q ** p
        theta_p = -cmath.phase(q_p)
        if theta_p <= -math.pi:
            theta_p = math.pi
        inv = GeodesicInvariants(
            length=p * base.ell, theta=theta_p, q=q_p, mu=(base.q ** -0.5) ** p,
            attracting=0.0, repelling=complex(math.inf, 0.0),
            spin_phase=base.spin_phase ** p,
        )
        out.append(class_term(inv, p, base.variant, spin_sign=spin_sign,
                              word_length=None))
    return out


# --- truncation-tail model ----------------------------------------------------


def shell_tail_bound(terms: Sequence[ClassTerm], rank: Optional[int],
                     re_lam: float, safety: float = 4.0) -> float:
    """Bound on the log-scale mass of all classes beyond the word cutoff.

    Model: at most 2g(2g-1)^(k-1) classes per omitted shell k, each with
    length at least alpha*k where alpha is fitted on the shortest lengths
    of the last four enumerated shells; per-class magnitude is bounded by
    e^(-(1+Re lambda) l) / (1 - e^(-l))^2.  A x4 safety factor pads the
    linear-length extrapolation.  Returns 0.0 when shell metadata is
    missing (toy lists) and inf when the model does not converge.
    """
    if rank is None:
        return 0.0
    lengths: dict[int, float] = {}
    for t in terms:
        if t.word_length is None:
            return 0.0
        cur = lengths.get(t.word_length)
        if cur is None or t.ell < cur:
            lengths[t.word_length] = t.ell
    if not lengths:
        return 0.0
    cutoff = max(lengths)
    shells = sorted(lengths)[-4:]
    alpha = (sum(k * lengths[k] for k in shells)
             / sum(k * k for k in shells))
    if alpha <= 0 or 1.0 + re_lam <= 0:
        return math.inf
    ratio = (2 * rank - 1) * math.exp(-alpha * (1.0 + re_lam))
    if ratio >= 1.0:
        return math.inf
    first = (2 * rank * (2 * rank - 1) ** cutoff
             * math.exp(-alpha * (1.0 + re_lam) * (cutoff + 1)))
    damping = (1.0 - math.exp(-alpha * (cutoff + 1))) ** 2
    return safety * first / ((1.0 - ratio) * damping)


def _max_cutoff(terms: Sequence[ClassTerm]) -> int:
    return max((t.word_length or 0) for t in terms) if terms else 0


# --- zeta sums ------------------------------------------------------------------


def _fsum_complex(values: Iterable[complex]) -> complex:
    """Correctly rounded sum of complex values, part by part."""
    values = list(values)
    return complex(math.fsum(v.real for v in values),
                   math.fsum(v.imag for v in values))


def _check_convergence(lam: complex, delta_hat: Optional[float]):
    if delta_hat is not None and complex(lam).real <= delta_hat:
        raise ConvergenceViolation(
            f"Re(lambda) = {complex(lam).real:.6g} <= delta_hat = {delta_hat:.6g}"
        )


def log_zeta_half(terms: Sequence[ClassTerm], sign: str, lam: complex,
                  rank: Optional[int] = None,
                  delta_hat: Optional[float] = None) -> ZetaEvaluation:
    """log Z(sigma_sign, lambda) = -sum chi_sign / (j D) e^(-lambda l)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    lam = complex(lam)
    _check_convergence(lam, delta_hat)

    def summand(t: ClassTerm) -> complex:
        chi = t.chi_plus if sign == "+" else t.chi_minus
        return chi / (t.j * t.D) * cmath.exp(-lam * t.ell)

    value = -_fsum_complex(summand(t) for t in terms)
    tail = shell_tail_bound(terms, rank, lam.real)
    variant = terms[0].variant if terms else "signature"
    return ZetaEvaluation(value, tail, _max_cutoff(terms), variant, lam)


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


def zeta_odd(terms: Sequence[ClassTerm], lam: complex,
             rank: Optional[int] = None,
             delta_hat: Optional[float] = None) -> ZetaEvaluation:
    """Z_odd(lambda) = exp(log Z(sigma_+) - log Z(sigma_-)), truncated.

    The tail bound is propagated to the value scale: |Z| expm1(log tail).
    """
    zp = log_zeta_half(terms, "+", lam, rank, delta_hat)
    zm = log_zeta_half(terms, "-", lam, rank, delta_hat)
    log_value = zp.value - zm.value
    value = cmath.exp(log_value)
    tail = _value_scale_tail(value, zp.tail_bound + zm.tail_bound)
    return ZetaEvaluation(value, tail, zp.cutoff_L, zp.variant, complex(lam))


def zeta_odd_signature_product(terms: Sequence[ClassTerm], lam: complex,
                               inner_cutoff: int,
                               rank: Optional[int] = None,
                               delta_hat: Optional[float] = None) -> ZetaEvaluation:
    """Independent route to Z_odd for the signature variant.

    Direct double product over primitive classes:
    prod over (k, l) in [0, K]^2 of
        (1 - e^(i theta) q^k conj(q)^l |q|^(lambda+1))
      / (1 - e^(-i theta) q^k conj(q)^l |q|^(lambda+1)).
    Must agree with the sum form within combined tail bounds.
    """
    lam = complex(lam)
    _check_convergence(lam, delta_hat)
    log_total = 0.0 + 0.0j
    inner_tail = 0.0
    for t in terms:
        if t.j != 1:
            raise NonPrimitiveInput(
                f"product form needs primitive classes, got j = {t.j}"
            )
        if t.variant != "signature":
            raise ValueError("product form applies to the signature variant")
        aq = abs(t.q)
        scale = cmath.exp((lam + 1.0) * math.log(aq))
        phase = cmath.exp(1j * t.theta)
        parts = []
        for k in range(inner_cutoff + 1):
            qk = t.q ** k
            for l in range(inner_cutoff + 1):
                w = qk * t.q.conjugate() ** l * scale
                parts.append(cmath.log(1.0 - phase * w)
                             - cmath.log(1.0 - w / phase))
        log_total += math.fsum(p.real for p in parts) + 1j * math.fsum(
            p.imag for p in parts
        )
        # (k, l) outside the box, both product factors
        box = 4.0 * aq ** (inner_cutoff + 2 + lam.real) / (1.0 - aq) ** 3
        inner_tail += box
    value = cmath.exp(log_total)
    outer = shell_tail_bound(terms, rank, lam.real)
    tail = _value_scale_tail(value, inner_tail + outer)
    return ZetaEvaluation(value, tail, _max_cutoff(terms), "signature", lam)


def dlog_zeta_odd(terms: Sequence[ClassTerm], lam: complex,
                  delta_hat: Optional[float] = None) -> complex:
    """d/dlambda log Z_odd = sum l (chi_+ - chi_-) / (j D) e^(-lambda l)."""
    lam = complex(lam)
    _check_convergence(lam, delta_hat)
    return _fsum_complex(
        t.ell * (t.chi_plus - t.chi_minus) / (t.j * t.D)
        * cmath.exp(-lam * t.ell)
        for t in terms
    )


def odd_heat_trace(terms: Sequence[ClassTerm], t: float) -> complex:
    """Geodesic heat trace

        (2 pi i / (4 pi t)^{3/2}) sum l^2 (chi_+ - chi_-)/(j D) e^(-l^2/4t).

    chi_+ - chi_- is purely imaginary termwise, so the value is real up to
    rounding for any class list.
    """
    if t <= 0:
        raise ValueError(f"t = {t} must be positive")

    def summand(term: ClassTerm) -> complex:
        arg = term.ell ** 2 / (4.0 * t)
        if arg > 700.0:
            return 0.0 + 0.0j
        return (term.ell ** 2 * (term.chi_plus - term.chi_minus)
                / (term.j * term.D) * math.exp(-arg))

    pref = 2.0j * math.pi / (4.0 * math.pi * t) ** 1.5
    return pref * _fsum_complex(summand(term) for term in terms)


# --- eta invariant ---------------------------------------------------------------


def _min_length(terms: Sequence[ClassTerm]) -> float:
    return min(t.ell for t in terms)


def _require_real(z: complex, what: str, tol: float = 1e-9) -> float:
    if abs(z.imag) > tol * (abs(z.real) + 1.0):
        raise ArithmeticError(f"{what} unexpectedly non-real: {z}")
    return z.real


def eta(terms: Sequence[ClassTerm], route: str = "central_value",
        delta_hat: Optional[float] = None, rank: Optional[int] = None,
        lambda_max: Optional[float] = None,
        quad_tol: float = 1e-11) -> float:
    """Eta invariant from the class data, by one of three routes.

    central_value:   Im(log Z_odd(0)) / pi, the termwise (tracked) branch.
    lambda_integral: (i/pi) int_0^Lmax dlog Z_odd + termwise analytic tail.
    heat_quadrature: (1/sqrt(pi)) int_0^inf t^(-1/2) Tr-heat dt, computed
                     through u = 1/t so both halves of the split at t = 1
                     become smooth exponentially decaying integrals.

    A provided ``delta_hat`` must be negative (the convergence standing
    hypothesis); omit it only for toy term lists.
    """
    if delta_hat is not None and delta_hat >= 0:
        raise DeltaNotNegative(f"delta_hat = {delta_hat:.6g} >= 0")
    if not terms:
        return 0.0
    if route == "central_value":
        zp = log_zeta_half(terms, "+", 0.0, rank, delta_hat)
        zm = log_zeta_half(terms, "-", 0.0, rank, delta_hat)
        return (zp.value - zm.value).imag / math.pi
    if route == "lambda_integral":
        lmax = lambda_max if lambda_max is not None else 40.0 / _min_length(terms)

        def integrand(lam: float) -> complex:
            return dlog_zeta_odd(terms, lam)

        body, _ = integrate(integrand, 0.0, lmax, tol_abs=quad_tol,
                            tol_rel=quad_tol, max_panels=4096)
        tail = _fsum_complex(
            (t.chi_plus - t.chi_minus) / (t.j * t.D) * math.exp(-lmax * t.ell)
            for t in terms
        )
        return _require_real(1j * (body + tail) / math.pi, "lambda-integral eta")
    if route == "heat_quadrature":
        ell_min = _min_length(terms)
        u_max = max(2.0, 170.0 / ell_min ** 2)

        def integrand_u(u: float) -> complex:
            return u ** -1.5 * odd_heat_trace(terms, 1.0 / u)

        # t in [1, inf) maps to u in (0, 1]; t in (0, 1] to u in [1, u_max]
        large_t, _ = integrate(integrand_u, 0.0, 1.0, tol_abs=quad_tol,
                               tol_rel=quad_tol, max_panels=4096)
        small_t, _ = integrate(integrand_u, 1.0, u_max, tol_abs=quad_tol,
                               tol_rel=quad_tol, max_panels=4096)
        return _require_real((large_t + small_t) / math.sqrt(math.pi),
                             "heat-quadrature eta")
    raise ValueError(f"unknown route {route!r}")


def eta_central_with_budget(terms: Sequence[ClassTerm],
                            rank: Optional[int] = None,
                            delta_hat: Optional[float] = None):
    """(eta, error bound) via the central-value route."""
    zp = log_zeta_half(terms, "+", 0.0, rank, delta_hat)
    zm = log_zeta_half(terms, "-", 0.0, rank, delta_hat)
    value = (zp.value - zm.value).imag / math.pi
    return value, (zp.tail_bound + zm.tail_bound) / math.pi


def conjugated_terms(terms: Sequence[ClassTerm]) -> List[ClassTerm]:
    """Term list of the complex-conjugated group: q -> conj(q) termwise."""
    out = []
    for t in terms:
        out.append(replace(
            t,
            theta=-t.theta if t.theta != math.pi else math.pi,
            q=t.q.conjugate(),
            chi_plus=t.chi_minus,
            chi_minus=t.chi_plus,
            spin_phase=t.spin_phase.conjugate(),
        ))
    return out
