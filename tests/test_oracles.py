"""50-digit mpmath oracles for the special values, the heat-kernel core
and the cycle expansion.

Each oracle is an independent evaluation in mpmath at 50 digits: its
own log-gamma, Gauss series and numerical differentiation.  Bounds are
relative to the reference unless stated otherwise.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import scalar_special
from oddzeta.config import load_config
from oddzeta.kernels import (_neg_dcosh_power, c_lambda,
                             dirac_resolvent_scalar, resolvent_scalar)
from oddzeta.special import hyp2f1, log_gamma
from oddzeta.words import class_spectra, cycle_expansion
from oddzeta.zeta import terms_from_spectrum
from test_words import _workloads


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def heat_core_oracle(s, t, k, r):
    """(-d/d cosh r)^k of F = r/sinh(s r) e^(-r^2/4t), differentiated
    numerically in v = cosh r - 1, where F is analytic."""
    s, t, r = mp.mpf(s), mp.mpf(t), mp.mpf(r)

    def F(v):
        rr = mp.acosh(1 + v)
        return rr / mp.sinh(s * rr) * mp.exp(-rr * rr / (4 * t))

    return (-1) ** k * mp.re(mp.diff(F, mp.cosh(r) - 1, k))


@pytest.mark.parametrize("s,k", [(0.5, 1), (0.5, 2), (1.0, 3), (1.0, 5)])
def test_heat_core(s, k):
    rs, ts = (0.04, 0.3, 0.434, 0.46, 1.0, 4.0, 10.0), (0.05, 1.0, 20.0)
    refs = [[heat_core_oracle(s, t, k, r) for r in rs] for t in ts]
    worst = 0.0
    for t, row in zip(ts, refs):
        for r, ref in zip(rs, row):
            got = _neg_dcosh_power(s, t, k, r)
            worst = max(worst, float(abs((got - ref) / ref)))
    assert worst <= 1e-13
    # the same grid as one array call
    grid = _neg_dcosh_power(s, np.array(ts)[:, None], k, rs)
    worst = max(float(abs((mp.mpf(got) - ref) / ref))
                for got, ref in zip(grid.ravel().tolist(),
                                    (ref for row in refs for ref in row)))
    assert worst <= 1e-13


def test_log_gamma():
    worst = 0.0
    for re in (-3.7, -1.5, -0.3, 0.01, 0.2, 0.5, 1.0, 1.5, 3.7, 11.0, 40.0):
        for im in (0.0, 0.3, -2.0, 10.0, -35.0):
            ref = mp.loggamma(mp.mpc(re, im))
            diff = mp.mpc(log_gamma(complex(re, im))) - ref
            if re < 0.5:
                # the reflection branch may differ from the continuous
                # log-gamma by 2 pi i k, which cancels in exponentials
                diff -= 2j * mp.pi * round(float(diff.imag) / (2 * math.pi))
            worst = max(worst, float(abs(diff) / max(1, abs(ref))))
    assert worst <= 1e-14


def test_c_lambda():
    # C(lambda) is the exponential of a sum of log-gammas; its rounding
    # grows with the size of that exponent
    worst = 0.0
    for re in (-3.3, -2.3, -0.7, -0.2, 0.0, 0.3, 1.0, 2.2, 4.9, 9.1):
        for im in (0.0, 0.05, -1.0, 6.0, -15.0, 30.0):
            lam = mp.mpc(re, im)
            ref = (mp.power(2, -2 * lam) * mp.gamma(0.5 - lam)
                   / mp.gamma(0.5 + lam))
            scale = (1 + abs(mp.loggamma(0.5 - lam))
                     + abs(mp.loggamma(0.5 + lam)) + 2 * abs(lam) * mp.log(2))
            err = abs(mp.mpc(c_lambda(complex(re, im))) - ref) / abs(ref)
            worst = max(worst, float(err / scale))
    assert worst <= 1e-14


def test_hyp2f1_resolvent_arguments():
    # the resolvent (b = lambda) and Dirac resolvent (b = lambda + 1)
    # arguments on H^3, z = sech^2(r/2) for r in [0.02, 4]; just above
    # z = 1/2 (r near 1.76) the 1 - z connection formula loses five
    # digits; each (lambda, b) row of z is one array call, whose values
    # are its 0-d calls bit for bit
    d = 2
    worst = 0.0
    z = [1.0 / math.cosh(0.01 * i) ** 2 for i in range(1, 201)]
    for lam in (0.3 + 0.1j, 1.0, 1.5 + 0.2j, 3 - 0.03j):
        a, c = 0.5 * (d + 1) + lam, 2 * lam + 1
        for b in (lam, lam + 1):
            values = hyp2f1(a, b, c, np.array(z)).tolist()
            for x, value in zip(z, values):
                ref = mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(x))
                err = abs(mp.mpc(value) - ref) / abs(ref)
                worst = max(worst, float(err))
    assert worst <= 1e-12


def test_hyp2f1_across_re_half():
    # |z| > 0.9 on both sides of Re z = 1/2, where the Pfaff argument
    # z/(z - 1) lies on the unit circle; first the point 0.5 + 0.8i
    a, b, c = 1.3 + 0.2j, 0.7, 2.1
    points = [0.5 + 0.8j]
    for x in (0.4, 0.45, 0.5, 0.55, 0.6):
        for modulus in (0.91, 0.94, 0.97, 0.99):
            y = math.sqrt(modulus ** 2 - x ** 2)
            points += [complex(x, y), complex(x, -y)]
    worst = 0.0
    for z in points:
        ref = mp.hyp2f1(mp.mpc(a), mp.mpf(b), mp.mpf(c), mp.mpc(z))
        err = abs(mp.mpc(hyp2f1(a, b, c, z)) - ref) / abs(ref)
        worst = max(worst, float(err))
    assert worst <= 1e-13


def test_direct_series_compensation():
    # the direct series just below |z| = 0.9, where it runs longest, at
    # resolvent parameters: the compensated sum stays near the rounding
    # of its terms; the reference's compensation, subtracted where it
    # belongs added, leaves it about three times as far off
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.3, 3.0, 60) + 1j * rng.uniform(-1.0, 1.0, 60)
    z = rng.uniform(0.5, 0.9, 60)
    a, b, c = 1.5 + lam, lam, 2 * lam + 1
    values = hyp2f1(a, b, c, z)
    worst = reference = 0.0
    for i in range(60):
        ref = mp.hyp2f1(mp.mpc(a[i]), mp.mpc(b[i]), mp.mpc(c[i]),
                        mp.mpf(z[i]))
        worst = max(worst, float(abs(mp.mpc(values[i]) - ref) / abs(ref)))
        scalar = scalar_special.hyp2f1(a[i], b[i], c[i], z[i])
        reference = max(reference, float(abs(mp.mpc(scalar) - ref) / abs(ref)))
    assert worst <= 2e-15 < reference


def resolvent_oracle(lam, r, d, dirac):
    """A resolvent scalar from mpmath's gamma, cosh and 2F1 at exact
    (lambda, r)."""
    lam, r = mp.mpc(lam), mp.mpf(r)
    a, c = mp.mpf(d + 1) / 2 + lam, 2 * lam + 1
    b = lam + 1 if dirac else lam
    z = mp.sech(r / 2) ** 2
    value = (mp.mpf(2) ** -(d + 1) * mp.pi ** (-mp.mpf(d + 1) / 2)
             * mp.gamma(a) * mp.gamma(b) / mp.gamma(c) * mp.hyp2f1(a, b, c, z))
    if dirac:
        return -value * mp.cosh(r / 2) ** -(d + 1 + 2 * lam) * mp.sinh(r / 2)
    return value * mp.cosh(r / 2) ** -(d + 2 * lam)


@pytest.mark.parametrize("seed", range(11))
def test_resolvent_ladder(seed, tmp_path):
    # every 7th (lambda, r, kind) of the benchmark's kernel grid at this
    # seed, both kinds and every r among them: the array kernels' worst
    # error is at most 1.1 times the one-point reference's, which is
    # set by the rounding of z = sech^2(r/2) near 1
    path = tmp_path / "kernels.cfg"
    path.write_text(_workloads().generate(seed)["kernels.cfg"])
    config = load_config(str(path))
    points = [(lam, r, dirac) for lam in config.lambda_grid
              for r in config.r_grid for dirac in (False, True)][::7]
    worst = {}
    for dirac, kernel, reference in (
            (False, resolvent_scalar, scalar_special.resolvent),
            (True, dirac_resolvent_scalar, scalar_special.dirac_resolvent)):
        lam, r = (np.array(column) for column in zip(
            *[(lam, r) for lam, r, kind in points if kind == dirac]))
        values = kernel(lam, r, config.kernel_d)
        for i in range(lam.size):
            ref = resolvent_oracle(lam[i], r[i], config.kernel_d, dirac)
            for path_name, value in (
                    ("array", values[i]),
                    ("reference", reference(lam[i], r[i], config.kernel_d))):
                err = float(abs(mp.mpc(value) - ref) / abs(ref))
                worst[path_name] = max(worst.get(path_name, 0.0), err)
    assert worst["array"] <= 1.1 * worst["reference"]


def test_resolvent_near_the_diagonal():
    # the seed-10 bench pair nearest the diagonal: hyp2f1's connection
    # formula runs in 1 - z = tanh^2(r/2), computed directly; from
    # 1 - the rounded sech^2(r/2) the values were 2942 eps (Dirac,
    # 6.5e-13) and 1110 eps off, now 9.9 and 5.3 eps
    lam, r, d = (3.001206581659285 + 1.1252800753610543j,
                 0.04670133967442327, 2)
    for kernel, dirac in ((dirac_resolvent_scalar, True),
                          (resolvent_scalar, False)):
        ref = resolvent_oracle(lam, r, d, dirac)
        error = abs(mp.mpc(kernel(lam, r, d).item()) - ref) / abs(ref)
        assert error <= 32 * np.finfo(float).eps


#: How far the resolvent kernels may lie from the 50-digit oracle down to
#: the diagonal, relative, in units of epsilon.  Near the diagonal the
#: connection formula's power (1 - z)^(c - a - b) dominates.  hyp2f1
#: forms it as a real power of the real 1 - z = tanh^2(r/2); what is left
#: is the rounding of c - a - b (-1.4999999999999998 for -3/2), which the
#: power multiplies by |log(1 - z)|: the worst measured on this grid is
#: 57.1 eps (d = 4, lambda = 0.3+0.1i, r = 1e-12).  Before log sinh(r/2)
#: went through expm1 the Dirac kernel was 2 584 eps off at r = 1e-5, and
#: before hyp2f1 read z = 1 off the exact 1 - z both kernels refused every
#: r below about 6e-8.
RESOLVENT_DIAGONAL_EPS = 64


@pytest.mark.parametrize("d", [2, 4])
def test_resolvents_down_to_the_diagonal(d):
    lam = np.array([1 + 0.2j, 0.3 + 0.1j, 2.5 - 0.8j])
    r = np.array([0.04] + [m * 10.0 ** -k for k in range(2, 13)
                           for m in (3, 1)])
    worst = 0.0
    for dirac, kernel in ((False, resolvent_scalar),
                          (True, dirac_resolvent_scalar)):
        values = kernel(lam[:, None], r, d)
        for i in range(lam.size):
            for j in range(r.size):
                ref = resolvent_oracle(lam[i], r[j], d, dirac)
                err = abs(mp.mpc(values[i, j]) - ref) / abs(ref)
                worst = max(worst, float(err))
    assert worst <= RESOLVENT_DIAGONAL_EPS * np.finfo(float).eps


def newton_oracle(traces):
    """c_0..c_N of Newton's identities, n c_n = -sum_k t_k c_(n-k), on the
    float traces t_1..t_N, in mpmath."""
    c = [mp.mpc(1)]
    for n in range(1, len(traces) + 1):
        c.append(-mp.fsum(mp.mpc(traces[k - 1]) * c[n - k]
                          for k in range(1, n + 1)) / n)
    return c


def test_cycle_expansion(eta_thick_config):
    # the real trivial weight (n/j)/D and the complex signature weight
    # (n/j) e^(i theta)/D on 12 shells of the thick point
    N = 12
    terms = terms_from_spectrum(class_spectra([eta_thick_config.generators],
                                               N)[0])
    n_over_j = terms.word_length / terms.j
    starts = np.searchsorted(terms.word_length, np.arange(1, N + 1))
    lam = [0.0, -0.4]
    worst = 0.0
    for weight in (n_over_j / terms.D, n_over_j * terms.chi / terms.D):
        got = cycle_expansion(terms, weight, lam, N)
        assert got.shape == (N + 1, len(lam))
        for col, x in enumerate(lam):
            traces = np.add.reduceat(weight * np.exp(-x * terms.ell), starts)
            ref = newton_oracle(traces.tolist())
            worst = max(worst, *(float(abs(mp.mpc(got[n, col]) - ref[n]))
                                 for n in range(N + 1)))
    assert worst <= 1e-15
