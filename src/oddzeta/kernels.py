"""Explicit hyperbolic-space kernel scalars and related special values.

Everything here is the scalar (Schur) component of a kernel; the package
computes none of the endomorphism factors, parallel transport and Clifford
multiplication (the tests keep both in closed form, as the oracle of the
spin phase).  Dimension bookkeeping: the space is H^(d+1); the spinor
heat scalars use d + 1 = 2n + 1, the signature heat scalars d + 1 = 4m - 1.

The derivative operator (-d/d cosh r)^k of the heat scalars is evaluated
by one path for every r >= 0: Taylor jets in rho = r^2, in which the
bracket is analytic, so the removable singularity at r = 0 needs no
special case.  No finite differences anywhere.

The jets are array-valued: :func:`heat_spinor_batch` and
:func:`heat_signature_batch` run them over a whole (t, r) grid in one
pass, each point stopping its own series, so a point's value does not
depend on the grid it is evaluated in; a scalar (t, r) is a 0-d grid.
So are the resolvent scalars and ``c_lambda``: a (lambda, r) grid takes
one ``gamma_quotient`` call and one pass of ``hyp2f1``'s branch choice
and arithmetic, whose points do not depend on each other either.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .errors import AtDiagonal, DivergentIntegral, PoleAt, PoleOfGamma
from .quadrature import integrate_batch
from .special import (_ZERO, _branches, _exp, _refusal, _values,
                      gamma_quotient, is_nonpositive_integer)

_LOG2 = math.log(2.0)
#: log(2800): the Gaussian quadrature starts where r^2/4t = 700
_LOG_2800 = math.log(2800.0)
_LOG4 = math.log(4.0)
#: (4 pi)^(-3/2), the Gaussian integrand's constant
_FOUR_PI_POW = (4.0 * math.pi) ** -1.5


def c_lambda(lam):
    """C(lambda) = 2^(-2 lambda) Gamma(1/2 - lambda) / Gamma(1/2 + lambda)
    at every point of lam.

    Satisfies C(lambda) C(-lambda) = 1; first-order poles at 1/2 + N0,
    where the first pole point raises.
    """
    lam = np.asarray(lam, dtype=complex)
    shape, lam = lam.shape, lam.ravel()  # flat: see ``special._flat``
    pole = is_nonpositive_integer(0.5 - lam)
    if pole.any():
        raise PoleAt(f"C(lambda) pole at lambda = {lam[pole][0].item()}")
    ratio = gamma_quotient([0.5 - lam], [0.5 + lam])
    return (_exp(-2.0 * lam * _LOG2) * ratio).reshape(shape)[()]


def _log_cosh_half(r):
    # log cosh(r/2), overflow-safe
    x = 0.5 * r
    return x + np.log1p(np.exp(-2.0 * x)) - _LOG2


def _log_sinh_half(r):
    # log sinh(r/2); expm1, since 1 - exp(-r) cancels at small r
    x = 0.5 * r
    return x + np.log(-np.expm1(-2.0 * x)) - _LOG2


def _sech2_half(r):
    return np.exp(-2.0 * _log_cosh_half(r))


def _tanh2_half(r):
    """1 - sech^2(r/2) = tanh^2(r/2), formed directly: near the diagonal,
    1 - sech^2(r/2) would lose its digits to cancellation."""
    return np.tanh(0.5 * r) ** 2


def _hyp2f1_arguments(lam, d: int, dirac: bool):
    """a, b, c of the resolvent's 2F1 at each lambda: (d+1)/2 + lambda,
    lambda (lambda + 1 for the Dirac kernel) and 2 lambda + 1."""
    return (0.5 * (d + 1) + lam, lam + 1.0 if dirac else lam,
            2.0 * lam + 1.0)


def _grid(x, r, dtype):
    """x as ``dtype`` and r as float broadcast against each other: flat
    arrays (see ``special._flat``), and the broadcast shape."""
    x, r = np.broadcast_arrays(np.asarray(x, dtype=dtype),
                               np.asarray(r, dtype=float))
    return x.ravel(), r.ravel(), x.shape


def _resolvent(lam, r, d: int, dirac: bool, keep=()):
    """A resolvent kernel on H^(d+1) at every pair of the broadcast
    (lambda, r) grid, and each pair's refusal: (values, refusals) in the
    broadcast shape, a refused pair's value NaN and an unrefused pair's
    refusal None.

    A pair's refusal is its first failed check, in the kernel's order: r
    (a negative or NaN r, then r = 0), the gamma poles in lambda, then
    ``hyp2f1``'s branch at z = sech^2(r/2), given 1 - z = tanh^2(r/2).
    Every pair's refusal is decided before any arithmetic, and the first
    that is not an instance of ``keep`` raises; then the pairs with no
    refusal are evaluated, each branch decided once.
    """
    lam, r, shape = _grid(lam, r, complex)
    kernel = "Dirac resolvent" if dirac else "resolvent"
    excluded = "(-N/2)" if dirac else "{0} u (-N/2)"
    a, b, c = _hyp2f1_arguments(lam, d, dirac)
    pole = is_nonpositive_integer(2.0 * lam, tol=2e-12)
    if dirac:
        pole &= lam != 0  # the Dirac kernel is analytic at lambda = 0
    checks = (
        (~(r >= 0), lambda i: ValueError(f"r = {r[i]} negative")),
        (r == 0, lambda i: AtDiagonal(f"{kernel} scalar is singular at r = 0")),
        (pole, lambda i: PoleOfGamma(
            f"lambda = {lam[i].item()} in the excluded set {excluded}")),
        (is_nonpositive_integer(a),
         lambda i: PoleOfGamma(f"Gamma((d+1)/2 + lambda) pole at "
                               f"lambda = {lam[i].item()}")),
    )
    refusals = np.full(lam.size, None, dtype=object)
    free = np.ones(lam.size, dtype=bool)
    for failed, refusal in checks:
        for i in np.flatnonzero(failed & free):
            refusals[i] = refusal(i)
        free &= ~failed
    at = np.flatnonzero(free)
    a, b, c, r = a[at], b[at], c[at], r[at]
    # complex, as hyp2f1 takes them
    z = _sech2_half(r).astype(complex)
    w = _tanh2_half(r).astype(complex)
    branch = _branches(a, b, c, z, w)
    for i in np.flatnonzero(branch < _ZERO):
        refusals[at[i]] = _refusal(i, branch, a, b, c, z)
    for refusal in refusals:
        if refusal is not None and not isinstance(refusal, keep):
            raise refusal
    ok = branch >= _ZERO
    at, a, b, c, r = at[ok], a[ok], b[ok], c[ok], r[ok]
    sign = -1.0 if dirac else 1.0
    pref = sign * (2.0 ** -(d + 1)) * math.pi ** (-0.5 * (d + 1))
    gam = gamma_quotient([a, b], [c])
    if dirac:
        power = _exp(-(d + 1 + 2.0 * lam[at]) * _log_cosh_half(r)
                     + _log_sinh_half(r))
    else:
        power = _exp(-(d + 2.0 * lam[at]) * _log_cosh_half(r))
    values = np.full(lam.size, np.nan, dtype=complex)
    values[at] = pref * gam * power * _values(a, b, c, z[ok], w[ok],
                                               branch[ok])
    return values.reshape(shape), refusals.reshape(shape)


def resolvent_scalar(lam, r, d: int):
    """Scalar prefactor of the squared-Dirac resolvent kernel on H^(d+1)
    at spectral parameter lambda and geodesic distance r,

    2^-(d+1) pi^-(d+1)/2 G((d+1)/2+l) G(l) / G(2l+1)
        * cosh(r/2)^-(d+2l) * 2F1((d+1)/2+l, l; 2l+1; sech^2(r/2)),

    at every pair of the broadcast (lam, r) grid, in one pass of
    ``hyp2f1``'s arithmetic; a scalar pair gives a numpy scalar.

    Excluded lambda: {0} u (-N/2) and poles of Gamma((d+1)/2 + lambda)
    (``PoleOfGamma``).  A negative or NaN r raises ValueError, and r = 0
    AtDiagonal; ``hyp2f1`` refuses a z = sech^2(r/2) within 1e-3 of 1 for
    odd d, where c - a - b is integral.  The first refused pair raises,
    before any pair is evaluated.
    """
    return _resolvent(lam, r, d, dirac=False)[0][()]


def dirac_resolvent_scalar(lam, r, d: int):
    """Scalar prefactor of the Dirac-times-resolvent kernel on H^(d+1),
    on a broadcast (lam, r) grid, refusing pairs as ``resolvent_scalar``
    does.

    -2^-(d+1) pi^-(d+1)/2 G((d+1)/2+l) G(l+1) / G(2l+1)
        * cosh(r/2)^-(d+1+2l) sinh(r/2)
        * 2F1((d+1)/2+l, l+1; 2l+1; sech^2(r/2)),
    with the cl(v) U(m, m') endomorphism stripped.  Analytic at lambda = 0;
    the formula's gamma factors still exclude (-N/2).
    """
    return _resolvent(lam, r, d, dirac=True)[0][()]


# --- (-d/d cosh r)^k of r / sinh(s r) * exp(-r^2 / 4t) ------------------------
#
# In rho = r^2 the bracket is f = exp(-rho/4t) / S_s(rho) with
# S_s(rho) = sinh(s sqrt(rho)) / sqrt(rho), and d/d cosh r = (1/g) d/drho
# with g = S_1 / 2 = sinh r / 2r >= 1/2.  Every factor is a Taylor jet at
# rho = r^2; the same arithmetic serves r = 0 and large r.  A jet is a list
# of coefficient arrays, one entry per point, and every point runs the
# float operations it would run alone, so its value does not depend on
# the other points of the batch.


def _j_div(num, den):
    """Quotient of two jets (Taylor coefficient lists); den[0] != 0."""
    out = []
    for k in range(min(len(num), len(den))):
        acc = num[k]
        for i in range(1, k + 1):
            acc = acc - den[i] * out[k - i]
        out.append(acc / den[0])
    return out


def _j_deriv(a):
    """d/drho of a jet; shortens it by one order."""
    return [k * a[k] for k in range(1, len(a))]


def _sinhc_jet(s: float, rho: np.ndarray, order: int):
    """Taylor jets at the points rho (1-d) of
    S_s(rho) = sum_m s^(2m+1) rho^m / (2m+1)!, coefficient by coefficient.

    Coefficient j re-expands that series at rho,
    sum_i C(i+j, j) s^(2(i+j)+1) rho^i / (2(i+j)+1)!, whose terms are all
    positive, so no step cancels.  Each point stops at its own first term
    <= 2^-60 of its total, and only the points still summing are touched.
    Raises OverflowError where the sum leaves the float range, as
    sinh(s r) does.
    """
    jet = []
    lead = s  # s^(2j+1) / (2j+1)!
    for j in range(order + 1):
        total = np.empty_like(rho)
        live = np.arange(rho.size)  # the points still summing, and their
        acc = np.zeros_like(rho)    # running totals, terms and rho
        term = np.full_like(rho, lead)
        x = rho
        i = 0
        while live.size:
            acc += term
            i += 1
            n = 2 * (i + j)
            term *= (i + j) / i * s * s * x / (n * (n + 1))
            go = term > 2.0 ** -60 * acc  # also ends on inf and nan
            if not go.all():
                done = ~go
                total[live[done]] = acc[done]
                live, acc, term, x = live[go], acc[go], term[go], x[go]
        bad = ~np.isfinite(total)
        if bad.any():
            raise OverflowError(f"sinh({s!r} r) is not finite at "
                                f"r^2 = {rho[bad.argmax()].item()!r}")
        jet.append(total)
        lead *= s * s / ((2 * j + 2) * (2 * j + 3))
    return jet


def _neg_dcosh_power(inv_scale: float, t, k: int, r):
    """(-d/d cosh r)^k [ r/sinh(r*inv_scale) e^(-r^2/4t) ] at any r >= 0.

    t and r broadcast; a scalar pair gives a numpy scalar.
    """
    t, r, shape = _grid(t, r, float)
    rho = r * r
    # Python floats overflow to inf and nan without a word; so do these
    with np.errstate(over="ignore", invalid="ignore"):
        g = [0.5 * c for c in _sinhc_jet(1.0, rho, k)]
        expo = [np.exp(-0.25 * rho / t)]
        for j in range(1, k + 1):
            expo.append(expo[-1] * (-0.25 / t) / j)
        f = _j_div(expo, _sinhc_jet(inv_scale, rho, k))
        for _ in range(k):
            f = [-c for c in _j_div(_j_deriv(f), g)]
    return f[0].reshape(shape)[()]


def _positive_order(name: str, value) -> int:
    """``value`` as an int >= 1; anything else, a float too, is refused."""
    try:
        order = operator.index(value)
    except TypeError:
        order = 0
    if order < 1:
        raise ValueError(f"{name} = {value} must be a positive integer")
    return order


def _heat_batch(s: float, k: int, unit: complex, scale: float, t, r):
    """unit sinh(s r) / (scale t^(3/2))
    * (-d/d cosh r)^k [ r/sinh(s r) e^(-r^2/4t) ]
    at every point of the broadcast (t, r) grid, as a complex array.

    A t whose t^(3/2) overflows is refused.  ``unit`` times the real
    magnitude scales each part of ``unit`` exactly.
    """
    t, r, shape = _grid(t, r, float)
    # the first bad point raises; written so that NaN fails too
    bad = ~(r >= 0)
    if bad.any():
        raise ValueError(f"r = {r[bad.argmax()].item()} negative")
    bad = ~(t > 0)
    if bad.any():
        raise ValueError(f"t = {t[bad.argmax()].item()} not positive")
    core = _neg_dcosh_power(s, t, k, r)
    with np.errstate(over="ignore"):
        power, sinh = np.float_power(t, 1.5), np.sinh(s * r)
    over = np.isinf(power) & np.isfinite(t)
    if over.any():
        raise OverflowError(
            f"t ** 1.5 is not finite at t = {t[over.argmax()].item()!r}")
    # the jets refuse a sinh(s r) / r past the float range; sinh(s r)
    # itself may be just past it
    over = np.isinf(sinh)
    if over.any():
        raise OverflowError(
            f"sinh({s!r} r) is not finite at r = {r[over.argmax()].item()!r}")
    return (unit * (sinh / (scale * power) * core)).reshape(shape)


def heat_spinor_batch(t, r, n: int) -> np.ndarray:
    """Half-spin scalar p_plus of the odd heat kernel on H^(2n+1),

    p_plus = sinh(r/2) / (i 2^(3n + 3/2) Gamma(n + 3/2) t^(3/2))
             * (-d/d cosh r)^n [ r sinh(r/2)^(-1) e^(-r^2/4t) ],

    at every point of the (t, r) grid, which broadcasts; p_minus = -p_plus
    by construction.  Values are purely imaginary; the removable
    singularity at r = 0 is handled exactly.  One array pass of the jets
    over all points; returns a complex array in the broadcast shape, 0-d
    for a scalar pair.
    """
    n = _positive_order("n", n)
    scale = 2.0 ** (3 * n + 1.5) * math.gamma(n + 1.5)
    return _heat_batch(0.5, n, -1j, scale, t, r)


def heat_signature_batch(t, r, m: int) -> np.ndarray:
    """Signature-operator scalar p_plus on H^(4m-1),

    p_plus = (4m-1) sinh(r) / (i 2^(2m - 1/2) pi^(2m + 1/2) t^(3/2))
             * (-d/d cosh r)^(2m-1) [ r sinh(r)^(-1) e^(-r^2/4t) ],

    at every point of the (t, r) grid, as :func:`heat_spinor_batch` gives
    the spinor one; p_minus = -p_plus and p_middle is identically zero.
    """
    m = _positive_order("m", m)
    scale = 2.0 ** (2 * m - 0.5) * math.pi ** (2 * m + 0.5)
    return _heat_batch(1.0, 2 * m - 1, -1j * (4 * m - 1), scale, t, r)


# --- Gaussian time integral ---------------------------------------------------


def _gaussian_lam2(lam: complex, r: float) -> complex:
    """lambda^2, once Re(lambda^2) > 0 and r > 0 (a NaN r fails) hold."""
    lam2 = lam * lam
    if lam2.real <= 0:
        raise DivergentIntegral(f"Re(lambda^2) = {lam2.real:.6g} <= 0")
    if not r > 0:
        raise ValueError(f"r = {r} must be positive")
    return lam2


def gaussian_time_integral(lam: complex, r: float) -> complex:
    """exp(-k r) / (4 pi r), the closed form of
    int_0^inf exp(-t lambda^2) (4 pi t)^(-3/2) exp(-r^2/4t) dt,
    valid for Re(lambda^2) > 0, where k = +-lambda is the root of
    lambda^2 with Re k > 0: the integral sees lambda^2 alone."""
    lam = complex(lam)
    _gaussian_lam2(lam, r)
    k = lam if lam.real > 0 else -lam
    return cmath.exp(-k * r) / (4.0 * math.pi * r)


def gaussian_time_integral_quadrature(lam, r, tol: float = 1e-11):
    """Verification mode: adaptive quadrature of the time integral.

    ``lam`` and ``r`` broadcast against each other; every pair is checked
    as by :func:`gaussian_time_integral`, the first bad one raising.
    Returns (values, reported_absolute_errors) in the broadcast shape
    (0-d arrays for scalar inputs).  All pairs are integrated in one
    lockstep ``integrate_batch`` call.

    The integral runs in u = log t, over f(e^u) e^u du from
    u = 2 log r - log 2800, where r^2/4t = 700, to log ``upper``: in u the
    Gaussian onset near t ~ r^2 is one scale like any other, so no
    bisection cascade is needed to reach it.  The mass below the lower
    end, int_0^(r^2/2800) |f| dt <= erfc(sqrt 700) / (4 pi r), about
    1e-306 / r, is left out; the analytic bound on the tail above
    ``upper`` is added to each reported error.  An integral stops once
    its error estimate is below ``tol`` times the larger of |value| and
    int_0^inf |f| dt = exp(-r sqrt(mu)) / (4 pi r), mu = Re(lambda^2):
    the absolute floor lets a value that cancels far below its
    integrand converge.
    """
    lams, rs, shape = _grid(lam, r, complex)
    lams, rs = lams.tolist(), rs.tolist()
    lam2 = [_gaussian_lam2(l, d) for l, d in zip(lams, rs)]
    mu = [l2.real for l2 in lam2]
    upper = [max(1.0, 40.0 / m, 5.0 * d / (2.0 * math.sqrt(m)))
             for m, d in zip(mu, rs)]
    log_r = [math.log(d) for d in rs]
    lower = [2.0 * x - _LOG_2800 for x in log_r]
    floor = [tol * math.exp(-d * math.sqrt(m)) / (4.0 * math.pi * d)
             for m, d in zip(mu, rs)]
    lam2_a = np.array(lam2, dtype=complex)
    # log(r^2/4): r^2/4t = exp(log(r^2/4) - u) holds no r^2 or t that
    # could underflow
    log_quarter_r_sq = np.array([2.0 * x - _LOG4 for x in log_r])

    def integrand(rows, u):
        # f(t) t = (4 pi)^(-3/2) exp(-t lambda^2 - r^2/4t - u/2), t = e^u
        return _FOUR_PI_POW * np.exp(
            -np.exp(u) * lam2_a[rows, None]
            - np.exp(log_quarter_r_sq[rows, None] - u) - 0.5 * u)

    values, errors, _ = integrate_batch(integrand, lower,
                                        np.log(upper).tolist(),
                                        tol_abs=floor, tol_rel=tol)
    reported = [err + (4.0 * math.pi * up) ** -1.5 * math.exp(-up * m) / m
                for err, up, m in zip(errors, upper, mu)]
    return (np.array(values, dtype=complex).reshape(shape),
            np.array(reported).reshape(shape))
