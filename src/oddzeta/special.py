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

Every function here is array-valued: its arguments broadcast, a scalar
call is a 0-d call, and each point does the float operations it would
do alone, so its value does not depend on the other points.  ``hyp2f1``
sorts the points into its branches and sums the Gauss series of every
branch in one lockstep pass, each point with its own compensation and
its own stopping test.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, PoleAtC, PoleOfGamma

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
#: the Gauss series terms ``_series`` computes per step of its lockstep
_SERIES_BLOCK = 16


def _flat(*args):
    """The arguments broadcast against each other as flat complex arrays,
    and the broadcast shape.

    Every function here computes on flat arrays, even for a scalar call:
    numpy's scalar arithmetic rounds complex products differently from
    its array loops, and a point's value must not depend on its batch.
    """
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=complex)
                                   for x in args))
    return [x.ravel() for x in arrays], arrays[0].shape


def is_nonpositive_integer(z, tol: float = 1e-12):
    """Whether each point of z lies within tol of 0, -1, -2, ..."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(invalid="ignore"):  # -inf - -inf; the test fails anyway
        return ((z.real <= 0.5) & (np.abs(z.imag) <= tol)
                & (np.abs(z.real - np.round(z.real)) <= tol))[()]


def _exp(x):
    """np.exp, raising FloatingPointError where a finite x overflows, as
    cmath.exp raises OverflowError."""
    with np.errstate(over="raise"):
        return np.exp(x)


def log_gamma(z):
    """Principal-ish Lanczos log Gamma at every point of z; raises
    PoleOfGamma if any point is a nonpositive integer."""
    (z,), shape = _flat(z)
    pole = is_nonpositive_integer(z)
    if pole.any():
        raise PoleOfGamma(f"gamma pole at z = {z[pole][0].item()}")
    # reflection, Gamma(z) Gamma(1 - z) = pi / sin(pi z), left of 1/2;
    # possible 2*pi*i offsets cancel in exponentiated ratios
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z) - 1.0
    x = _LANCZOS[0]
    for i, coef in enumerate(_LANCZOS[1:], start=1):
        x = x + coef / (w + i)
    t = w + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(x)
    if reflect.any():
        with np.errstate(over="raise"):
            out[reflect] = (np.log(math.pi / np.sin(math.pi * z[reflect]))
                            - out[reflect])
    return out.reshape(shape)[()]


def gamma_quotient(numerators, denominators):
    """exp(sum log Gamma(numerators) - sum log Gamma(denominators)) at
    every point of the broadcast arguments.

    A pole in a numerator raises PoleOfGamma; a pole in a denominator makes
    the quotient vanish at that point.
    """
    args, shape = _flat(*numerators, *denominators)
    nums, dens = args[:len(numerators)], args[len(numerators):]
    vanish = np.zeros(args[0].size, dtype=bool)
    for z in dens:
        vanish |= is_nonpositive_integer(z)
    acc = np.zeros(args[0].size, dtype=complex)
    for z in nums:
        acc += log_gamma(z)
    for z in dens:
        acc -= log_gamma(np.where(vanish, 1.0, z))
    out = np.zeros(args[0].size, dtype=complex)
    out[~vanish] = _exp(acc[~vanish])
    return out.reshape(shape)[()]


def _series(a, b, c, z, max_terms: int = 200_000, tol: float = 5e-17):
    """The Gauss series sum_k (a)_k (b)_k / ((c)_k k!) z^k at every point
    of the flat arrays, in lockstep.

    The terms come ``_SERIES_BLOCK`` at a time: term k + 1 is term k times
    (a + k)(b + k) / ((c + k)(k + 1)) z, the ratios of a block one array
    expression and the terms their running product.  Each point adds its
    terms one by one with its own Kahan compensation and stops at the
    second term in a row below tol of its total (a terminating series at
    its second zero term); what a block computed past that is dropped.
    """
    out = np.empty(z.shape, dtype=complex)
    live = np.arange(z.size)  # the points still summing, and their state
    total = np.ones(z.shape, dtype=complex)
    comp = np.zeros(z.shape, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    small = np.zeros(z.shape, dtype=bool)  # the last term was below tol
    for k in range(0, max_terms, _SERIES_BLOCK):
        if not live.size:
            return out
        ks = np.arange(k, min(k + _SERIES_BLOCK, max_terms),
                       dtype=float)[:, None]
        terms = (a + ks) * (b + ks) / ((c + ks) * (ks + 1.0)) * z
        terms[0] = term * terms[0]
        terms = np.multiply.accumulate(terms, axis=0)
        totals, comps = np.empty_like(terms), np.empty_like(terms)
        for j, row in enumerate(terms):
            y = row + comp
            t = total + y
            comp = comps[j] = y - (t - total)  # what t lost of y
            total = totals[j] = t
        tiny = np.abs(terms) <= tol * np.maximum(np.abs(totals), 1e-300)
        stop = tiny & np.concatenate([small[None], tiny[:-1]])
        term, small = terms[-1], tiny[-1]
        done = stop.any(axis=0)
        if done.any():
            cols = np.flatnonzero(done)
            rows = stop[:, cols].argmax(axis=0)
            out[live[cols]] = totals[rows, cols] + comps[rows, cols]
            go = ~done
            live, a, b, c, z = live[go], a[go], b[go], c[go], z[go]
            total, comp, term, small = total[go], comp[go], term[go], small[go]
    if not live.size:
        return out
    raise NoConvergence(f"2F1 series did not converge in {max_terms} terms "
                        f"at z = {z[0].item()}")


# hyp2f1's branches, in the order their predicates are tried: the first
# five refuse the point
(_NONFINITE, _POLE_C, _OUTSIDE, _GAP_AT_ONE, _INTEGRAL_NEAR_ONE,
 _ZERO, _SERIES, _AT_ONE, _PFAFF, _CONNECT) = range(10)


def _branches(a, b, c, z, one_minus_z=None):
    """Each point's hyp2f1 branch (flat arrays): the first that applies.

    z is at one where the given exact ``one_minus_z`` is 0; without it,
    where the rounded z lies within 1e-15 of 1.
    """
    size = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = c - a - b
        at_one = (np.abs(z - 1.0) < 1e-15 if one_minus_z is None
                  else one_minus_z == 0)
        # Pfaff; on Re z = 1/2, |w| = 1 and the 1 - z series is the one
        # that converges
        pfaff = np.abs(z / (z - 1.0)) <= np.abs(1.0 - z)
        integral = ((np.abs(s - np.round(s.real)) < 1e-8)
                    & (np.abs(s.imag) < 1e-8))
    finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(z)
    return np.select(
        [~finite, is_nonpositive_integer(c), z == 0, size > 1.0 + 1e-12,
         is_nonpositive_integer(a) | is_nonpositive_integer(b),
         at_one & (s.real <= 0), at_one, size <= 0.9, pfaff,
         # integral c-a-b needs the logarithmic connection formula; the
         # plain series still converges (slowly) for |z| < 1
         integral & (size < 0.999), integral],
        [_NONFINITE, _POLE_C, _ZERO, _OUTSIDE, _SERIES,  # terminating
         _GAP_AT_ONE, _AT_ONE, _SERIES, _PFAFF,
         _SERIES, _INTEGRAL_NEAR_ONE],
        default=_CONNECT)


def _refusal(i: int, branch, a, b, c, z):
    """The error of point i of the flat arrays, whose branch refuses it."""
    a, b, c, z = a[i].item(), b[i].item(), c[i].item(), z[i].item()
    if branch[i] == _NONFINITE:
        name, value = next((name, value) for name, value
                           in zip("abcz", (a, b, c, z))
                           if not np.isfinite(value))
        return NoConvergence(f"{name} = {value} is not finite")
    if branch[i] == _POLE_C:
        return PoleAtC(f"c = {c} is a nonpositive integer")
    if branch[i] == _OUTSIDE:
        return NoConvergence(f"|z| = {abs(z):.6g} > 1")
    if branch[i] == _GAP_AT_ONE:
        return NoConvergence(
            f"2F1 at z = 1 requires Re(c - a - b) > 0, got {(c - a - b).real}")
    return NoConvergence(
        "z near 1 with integral c - a - b is outside the supported domain")


def hyp2f1(a, b, c, z, one_minus_z=None):
    """Gauss hypergeometric 2F1(a, b; c; z) on the closed unit disk, at
    every point of the broadcast arguments.

    ``one_minus_z``, when given, is 1 - z at every point, computed by the
    caller without the cancellation of 1 - z near z = 1: the connection
    formula's series and power run in it instead of in 1 - z, and a point
    is at z = 1 only where it is 0, not where the rounded z is within
    1e-15 of 1.

    Raises PoleAtC for nonpositive-integer c and NoConvergence where the
    series and its transformations cannot deliver the value (a non-finite
    argument, z = 1 with Re(c - a - b) <= 0, |z| > 1, or parameter
    corners such as integral c - a - b right at z = 1); of several such
    points, the first raises.
    """
    exact = one_minus_z is not None
    if not exact:
        one_minus_z = 1.0 - np.asarray(z, dtype=complex)
    (a, b, c, z, w), shape = _flat(a, b, c, z, one_minus_z)
    branch = _branches(a, b, c, z, w if exact else None)
    refused = branch < _ZERO
    if refused.any():
        raise _refusal(refused.argmax(), branch, a, b, c, z)
    return _values(a, b, c, z, w, branch).reshape(shape)[()]


def _values(a, b, c, z, w, branch):
    """hyp2f1 at every point of the flat complex arrays, w = 1 - z, whose
    ``_branches`` are ``branch``, none of them refusing."""
    out = np.ones(z.shape, dtype=complex)  # z = 0
    series, pfaff, connect, at_one = (
        np.flatnonzero(branch == code)
        for code in (_SERIES, _PFAFF, _CONNECT, _AT_ONE))
    ap, bp, cp, zp = a[pfaff], b[pfaff], c[pfaff], z[pfaff]
    ac, bc, cc = a[connect], b[connect], c[connect]
    s, u = cc - ac - bc, w[connect]
    with np.errstate(over="raise"):
        # every branch's series in one lockstep pass: the direct one, the
        # Pfaff one in z/(z - 1) and the two connection series in 1 - z
        parts = np.split(_series(
            np.concatenate([a[series], ap, ac, cc - ac]),
            np.concatenate([b[series], cp - bp, bc, cc - bc]),
            np.concatenate([c[series], cp, ac + bc - cc + 1.0, s + 1.0]),
            np.concatenate([z[series], zp / (zp - 1.0), u, u])),
            np.cumsum([series.size, pfaff.size, connect.size]))
        out[series] = parts[0]
        out[pfaff] = (1.0 - zp) ** (-ap) * parts[1]
        # s is nonintegral here, so neither coefficient meets a pole
        coef_a = gamma_quotient([cc, s], [cc - ac, cc - bc])
        coef_b = gamma_quotient([cc, -s], [ac, bc])
        # numpy's complex power is off by about |s log u| eps/2; a real
        # positive u (every resolvent's tanh^2(r/2)) takes the real power
        real = (u.imag == 0.0) & (u.real > 0.0)
        power, x, y = u ** s, u.real[real], s[real]
        power[real] = np.power(x, y.real) * np.exp(1j * y.imag * np.log(x))
        out[connect] = coef_a * parts[2] + coef_b * power * parts[3]
    a1, b1, c1 = a[at_one], b[at_one], c[at_one]
    out[at_one] = gamma_quotient([c1, c1 - a1 - b1], [c1 - a1, c1 - b1])
    return out
