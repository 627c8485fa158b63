"""Gamma and Gauss hypergeometric functions over the complex numbers.

The log-gamma implementation is the classical Lanczos approximation with
g = 7 and 9 coefficients, accurate to about 1e-14 relative error on the
domain exercised here.  Branch offsets of 2*pi*i in ``log_gamma`` are
irrelevant to this package: every consumer exponentiates a difference of
log-gammas.

``hyp2f1`` sums the Gauss series directly for |z| <= 0.9 and otherwise
takes whichever of the Pfaff transformation, a series in z/(z - 1), and
the two-term connection formula in powers of 1 - z has the smaller
argument (the connection formula near z = 1, which is where the
resolvent kernels live at small r, c - a - b nonintegral there).  Just
above |z| = 1/2 the two connection terms cancel, so the direct series is
the accurate one there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NoConvergence, PoleAtC

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class GammaPole(Exception):
    """Internal marker: gamma evaluated at a nonpositive integer."""


def is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    if z.real > 0.5 or abs(z.imag) > tol:
        return False
    return abs(z.real - round(z.real)) <= tol


def log_gamma(z: complex) -> complex:
    """Principal-ish Lanczos log Gamma; raises GammaPole on nonpositive integers."""
    z = complex(z)
    if is_nonpositive_integer(z):
        raise GammaPole(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection; possible 2*pi*i offsets cancel in exponentiated ratios
        return cmath.log(math.pi / cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    w = z - 1.0
    x = _LANCZOS[0]
    for i, coef in enumerate(_LANCZOS[1:], start=1):
        x += coef / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(x)


def gamma(z: complex) -> complex:
    return cmath.exp(log_gamma(z))


def gamma_quotient(numerators, denominators) -> complex:
    """exp(sum log Gamma(numerators) - sum log Gamma(denominators)).

    A pole in a numerator raises GammaPole; a pole in a denominator makes
    the quotient vanish and returns 0.
    """
    acc = 0.0 + 0.0j
    for z in numerators:
        acc += log_gamma(z)
    for z in denominators:
        if is_nonpositive_integer(z):
            return 0.0 + 0.0j
        acc -= log_gamma(z)
    return cmath.exp(acc)


@dataclass(frozen=True)
class HypergeometricArgs:
    """Parameters (a, b; c) and argument z of the Gauss series.

    Valid when c is not a nonpositive integer and |z| <= 1, with z = 1
    admitted only for Re(c - a - b) > 0.
    """

    a: complex
    b: complex
    c: complex
    z: complex

    def __post_init__(self):
        if is_nonpositive_integer(self.c):
            raise PoleAtC(f"c = {self.c} is a nonpositive integer")
        if abs(self.z) > 1.0 + 1e-12:
            raise NoConvergence(f"|z| = {abs(self.z):.6g} > 1")

    def value(self) -> complex:
        return hyp2f1(self.a, self.b, self.c, self.z)


def _series(a: complex, b: complex, c: complex, z: complex,
            max_terms: int = 200_000, tol: float = 5e-17) -> complex:
    """Direct Gauss series; terminates for polynomial cases."""
    if is_nonpositive_integer(c):
        raise PoleAtC(f"c = {c} is a nonpositive integer")
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    term = 1.0 + 0.0j
    small = 0
    for k in range(max_terms):
        term = term * ((a + k) * (b + k)) / ((c + k) * (k + 1.0)) * z
        if term == 0:
            return total + comp
        y = term - comp
        t = total + y
        comp = (t - total) - y
        comp = -comp
        total = t
        if abs(term) <= tol * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return total + comp
        else:
            small = 0
    raise NoConvergence(
        f"2F1 series did not converge in {max_terms} terms at z = {z}"
    )


def _gauss_at_one(a: complex, b: complex, c: complex) -> complex:
    s = c - a - b
    if complex(s).real <= 0:
        raise NoConvergence(
            f"2F1 at z = 1 requires Re(c - a - b) > 0, got {complex(s).real}"
        )
    return gamma_quotient([c, s], [c - a, c - b])


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; z) on the closed unit disk.

    Raises PoleAtC for nonpositive-integer c and NoConvergence where the
    series and its transformations cannot deliver the value (a non-finite
    argument, z = 1 with Re(c - a - b) <= 0, |z| > 1, or parameter
    corners such as integral c - a - b right at z = 1).
    """
    a, b, c, z = map(complex, (a, b, c, z))
    for name, value in zip("abcz", (a, b, c, z)):
        if not cmath.isfinite(value):
            raise NoConvergence(f"{name} = {value} is not finite")
    if is_nonpositive_integer(c):
        raise PoleAtC(f"c = {c} is a nonpositive integer")
    if z == 0:
        return 1.0 + 0.0j
    if abs(z) > 1.0 + 1e-12:
        raise NoConvergence(f"|z| = {abs(z):.6g} > 1")
    if is_nonpositive_integer(a) or is_nonpositive_integer(b):
        return _series(a, b, c, z)  # terminating polynomial
    if abs(z - 1.0) < 1e-15:
        return _gauss_at_one(a, b, c)
    if abs(z) <= 0.9:
        return _series(a, b, c, z)
    w = z / (z - 1.0)
    if abs(w) <= abs(1.0 - z):
        # Pfaff; on Re z = 1/2, |w| = 1 and the 1 - z series is the one
        # that converges
        return (1.0 - z) ** (-a) * _series(a, c - b, c, w)
    s = c - a - b
    if abs(s - round(s.real)) < 1e-8 and abs(s.imag) < 1e-8:
        # integral c-a-b needs the logarithmic connection formula; fall back
        # to the plain series, which still converges (slowly) for |z| < 1
        if abs(z) < 0.999:
            return _series(a, b, c, z)
        raise NoConvergence(
            "z near 1 with integral c - a - b is outside the supported domain"
        )
    try:
        coef_a = gamma_quotient([c, s], [c - a, c - b])
        coef_b = gamma_quotient([c, -s], [a, b])
    except GammaPole as exc:
        raise NoConvergence(f"connection coefficient pole: {exc}") from exc
    u = 1.0 - z
    part1 = coef_a * _series(a, b, a + b - c + 1.0, u)
    part2 = coef_b * u ** s * _series(c - a, c - b, s + 1.0, u)
    return part1 + part2
