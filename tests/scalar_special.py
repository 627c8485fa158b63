"""The one-point Python reference of the array special functions and the
resolvent kernels: Lanczos log-gamma in ``cmath``, the Gauss series as a
Python loop, and ``hyp2f1`` and the two resolvent scalars as the package
computed them one point at a time.

The array code in ``oddzeta.special`` and ``oddzeta.kernels`` replaced
these.  It runs in numpy, whose complex division, ``exp`` and ``log``
round differently, and its series adds the Kahan compensation where this
loop subtracts it (``y = term - comp``, kept here as it was).  The tests
bound the distance between the two and compare both against mpmath.
"""

import cmath
import math

from oddzeta.errors import NoConvergence, PoleAtC

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
_LOG2 = math.log(2.0)


class GammaPole(Exception):
    pass


def is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    if z.real > 0.5 or abs(z.imag) > tol:
        return False
    return abs(z.real - round(z.real)) <= tol


def log_gamma(z: complex) -> complex:
    z = complex(z)
    if is_nonpositive_integer(z):
        raise GammaPole(f"gamma pole at z = {z}")
    if z.real < 0.5:
        return cmath.log(math.pi / cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    w = z - 1.0
    x = _LANCZOS[0]
    for i, coef in enumerate(_LANCZOS[1:], start=1):
        x += coef / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(x)


def gamma_quotient(numerators, denominators) -> complex:
    acc = 0.0 + 0.0j
    for z in numerators:
        acc += log_gamma(z)
    for z in denominators:
        if is_nonpositive_integer(z):
            return 0.0 + 0.0j
        acc -= log_gamma(z)
    return cmath.exp(acc)


def _series(a, b, c, z, max_terms=200_000, tol=5e-17):
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
    raise NoConvergence(f"2F1 series did not converge at z = {z}")


def hyp2f1(a, b, c, z) -> complex:
    a, b, c, z = map(complex, (a, b, c, z))
    if is_nonpositive_integer(c):
        raise PoleAtC(f"c = {c} is a nonpositive integer")
    if z == 0:
        return 1.0 + 0.0j
    if abs(z) > 1.0 + 1e-12:
        raise NoConvergence(f"|z| = {abs(z):.6g} > 1")
    if is_nonpositive_integer(a) or is_nonpositive_integer(b):
        return _series(a, b, c, z)
    if abs(z - 1.0) < 1e-15:
        s = c - a - b
        if s.real <= 0:
            raise NoConvergence("2F1 at z = 1 requires Re(c - a - b) > 0")
        return gamma_quotient([c, s], [c - a, c - b])
    if abs(z) <= 0.9:
        return _series(a, b, c, z)
    w = z / (z - 1.0)
    if abs(w) <= abs(1.0 - z):
        return (1.0 - z) ** (-a) * _series(a, c - b, c, w)
    s = c - a - b
    if abs(s - round(s.real)) < 1e-8 and abs(s.imag) < 1e-8:
        if abs(z) < 0.999:
            return _series(a, b, c, z)
        raise NoConvergence("z near 1 with integral c - a - b")
    coef_a = gamma_quotient([c, s], [c - a, c - b])
    coef_b = gamma_quotient([c, -s], [a, b])
    u = 1.0 - z
    part1 = coef_a * _series(a, b, a + b - c + 1.0, u)
    part2 = coef_b * u ** s * _series(c - a, c - b, s + 1.0, u)
    return part1 + part2


def _log_cosh_half(r):
    x = 0.5 * r
    return x + math.log1p(math.exp(-2.0 * x)) - _LOG2


def _log_sinh_half(r):
    x = 0.5 * r
    return x + math.log1p(-math.exp(-2.0 * x)) - _LOG2


def resolvent(lam: complex, r: float, d: int) -> complex:
    """``resolvent_scalar`` at one admissible (lambda, r)."""
    lam = complex(lam)
    pref = (2.0 ** -(d + 1)) * math.pi ** (-0.5 * (d + 1))
    gam = gamma_quotient([0.5 * (d + 1) + lam, lam], [2.0 * lam + 1.0])
    power = cmath.exp(-(d + 2.0 * lam) * _log_cosh_half(r))
    return pref * gam * power * hyp2f1(
        0.5 * (d + 1) + lam, lam, 2.0 * lam + 1.0,
        math.exp(-2.0 * _log_cosh_half(r)))


def dirac_resolvent(lam: complex, r: float, d: int) -> complex:
    """``dirac_resolvent_scalar`` at one admissible (lambda, r)."""
    lam = complex(lam)
    pref = -(2.0 ** -(d + 1)) * math.pi ** (-0.5 * (d + 1))
    gam = gamma_quotient([0.5 * (d + 1) + lam, lam + 1.0], [2.0 * lam + 1.0])
    power = cmath.exp(
        -(d + 1 + 2.0 * lam) * _log_cosh_half(r) + _log_sinh_half(r))
    return pref * gam * power * hyp2f1(
        0.5 * (d + 1) + lam, lam + 1.0, 2.0 * lam + 1.0,
        math.exp(-2.0 * _log_cosh_half(r)))
