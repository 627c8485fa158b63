import cmath
import math
import re
import warnings

import numpy as np
import pytest

import scalar_special
from oddzeta import kernels, quadrature
from oddzeta.config import load_config
from oddzeta.errors import (
    AtDiagonal,
    DivergentIntegral,
    NoConvergence,
    PoleAt,
    PoleOfGamma,
)
from oddzeta.kernels import (
    c_lambda,
    dirac_resolvent_scalar,
    gaussian_time_integral,
    gaussian_time_integral_quadrature,
    heat_signature_batch,
    heat_spinor_batch,
    resolvent_scalar,
)
from oddzeta.kernels import _neg_dcosh_power
from test_words import _workloads


class TestCLambda:
    def test_at_zero(self):
        assert abs(c_lambda(0.0) - 1.0) < 1e-15

    def test_pole_at_half_integers(self):
        for lam in (0.5, 1.5, 2.5):
            with pytest.raises(PoleAt):
                c_lambda(lam)

    def test_functional_equation_on_grid(self):
        worst = 0.0
        for k in range(-4, 5):
            for j in range(-3, 4):
                lam = 0.1 * k + 0.07j * j
                if abs((0.5 - lam).real - round((0.5 - lam).real)) < 1e-9 and abs(lam.imag) < 1e-12:
                    continue
                worst = max(worst, abs(c_lambda(lam) * c_lambda(-lam) - 1.0))
        assert worst < 1e-12


def resolvent_series_oracle(lam, r, d, n=5000):
    """Direct evaluation of the resolvent scalar from its defining series.

    Independent path: real stdlib gamma, raw series, no transformations.
    """
    a = 0.5 * (d + 1) + lam
    b = lam
    c = 2 * lam + 1
    z = 1.0 / math.cosh(0.5 * r) ** 2
    total, term = 1.0, 1.0
    for k in range(n):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    pref = (2.0 ** -(d + 1) * math.pi ** (-0.5 * (d + 1))
            * math.gamma(a) * math.gamma(b) / math.gamma(c))
    return pref * math.cosh(0.5 * r) ** (-(d + 2 * lam)) * total


class TestResolventScalars:
    def test_against_series_oracle(self):
        mine = resolvent_scalar(1.0, 1.0, 2)
        oracle = resolvent_series_oracle(1.0, 1.0, 2)
        assert abs(mine - oracle) < 1e-10 * abs(oracle)
        # frozen from the oracle
        assert abs(mine - 0.030666354308180387) < 1e-12

    def test_decay_exponent(self):
        # |value| ~ e^{-(d/2 + lam) r}; slope between r = 8 and r = 10
        lam, d = 1.0, 2
        v8 = abs(resolvent_scalar(lam, 8.0, d))
        v10 = abs(resolvent_scalar(lam, 10.0, d))
        slope = -(math.log(v10) - math.log(v8)) / 2.0
        assert abs(slope - (0.5 * d + lam)) < 0.02 * (0.5 * d + lam)

    def test_pole_set(self):
        with pytest.raises(PoleOfGamma):
            resolvent_scalar(0.0, 1.0, 2)
        with pytest.raises(PoleOfGamma):
            resolvent_scalar(-0.5, 1.0, 2)
        with pytest.raises(AtDiagonal):
            resolvent_scalar(1.0, 0.0, 2)

    def test_r_validation(self):
        # a negative r is refused as a value, r = 0 as the diagonal
        for kernel in (resolvent_scalar, dirac_resolvent_scalar):
            with pytest.raises(ValueError, match="r = -1.0 negative"):
                kernel(1.0, -1.0, 2)
            with pytest.raises(AtDiagonal, match="singular at r = 0"):
                kernel(1.0, 0.0, 2)

    def test_nan_r_refused(self):
        for kernel in (resolvent_scalar, dirac_resolvent_scalar):
            with pytest.raises(ValueError, match="r = nan negative"):
                kernel(1.0, math.nan, 2)

    def test_dirac_variant_regular_at_zero(self):
        value = dirac_resolvent_scalar(0.0, 1.0, 2)
        assert value.imag == pytest.approx(0.0, abs=1e-14)
        assert value.real < 0  # overall minus sign of the formula

    def test_reflection_difference_smooth_at_diagonal(self):
        # J_lam(r) - J_(-lam)(r) has a finite limit at r = 0 although both
        # sides diverge like 1/(4 pi r); frozen limit from the r-scan
        lam = 0.3
        diffs = []
        for r in (1e-2, 3e-3, 1e-3):
            plus = resolvent_scalar(lam, r, 2)
            minus = resolvent_scalar(-lam, r, 2)
            assert abs(plus) > 0.5 / (4.0 * math.pi * r)  # singular side
            diffs.append(plus - minus)
        assert abs(diffs[-1] - 0.0848826164) < 1e-6
        assert abs(diffs[-1] - diffs[-2]) < 1e-5

    def test_dirac_against_series_oracle(self):
        lam, r, d = 1.0, 1.2, 2
        a = 0.5 * (d + 1) + lam
        b = lam + 1.0
        c = 2 * lam + 1.0
        z = 1.0 / math.cosh(0.5 * r) ** 2
        total, term = 1.0, 1.0
        for k in range(5000):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += term
        pref = -(2.0 ** -(d + 1) * math.pi ** (-0.5 * (d + 1))
                 * math.gamma(a) * math.gamma(b) / math.gamma(c))
        oracle = (pref * math.cosh(0.5 * r) ** (-(d + 1 + 2 * lam))
                  * math.sinh(0.5 * r) * total)
        mine = dirac_resolvent_scalar(lam, r, d)
        assert abs(mine - oracle) < 1e-10 * abs(oracle)

    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_values_are_each_pairs_own(self, d):
        # a lambda column by an r row, and the same pairs flat and
        # reversed: every value is its 0-d call's, bit for bit; the r run
        # through the direct series, the connection formula and, for odd
        # d, the series at integral c - a - b
        lam = np.array([0.3 + 0.1j, 1.0, 2.5 - 0.8j])[:, None]
        # for odd d, the series at z = sech^2(r/2) near 0.999 runs 10^4
        # terms; r = 0.2 keeps it to a few thousand
        r = np.array([0.07 if d % 2 == 0 else 0.2, 0.3, 0.5, 1.2, 4.0])
        for kernel in (resolvent_scalar, dirac_resolvent_scalar):
            grid = kernel(lam, r, d)
            assert grid.shape == (3, 5)
            flat_lam, flat_r = (np.broadcast_to(x, grid.shape).ravel()[::-1]
                                for x in (lam, r))
            back = np.ascontiguousarray(
                kernel(flat_lam, flat_r, d)[::-1].reshape(grid.shape))
            assert (bits(back) == bits(grid)).all()
            for i in range(3):
                for j in range(5):
                    assert (bits([kernel(lam[i, 0], r[j], d)])
                            == bits([grid[i, j]])).all()
        values = c_lambda(lam)
        assert all((bits([c_lambda(lam[i, 0])]) == bits([values[i, 0]])).all()
                   for i in range(3))

    def test_first_refused_pair_raises(self):
        # of r = 0 and the pole at lambda = -1/2, the first in flat order
        with pytest.raises(AtDiagonal):
            resolvent_scalar([1.0, 1.0, -0.5], [1.0, 0.0, 1.0], 2)
        with pytest.raises(PoleOfGamma):
            resolvent_scalar([1.0, -0.5, 1.0], [1.0, 1.0, 0.0], 2)

    def test_refusal_raises_before_any_arithmetic(self):
        # lambda = -5.25 at r = 400 overflows exp on its own; a later
        # refused pair of the same call still raises its own refusal,
        # since every refusal is decided before any pair is evaluated
        for kernel in (resolvent_scalar, dirac_resolvent_scalar):
            with pytest.raises(FloatingPointError):
                kernel(-5.25, 400.0, 2)
            with pytest.raises(PoleOfGamma):
                kernel([-5.25, -0.5], [400.0, 1.0], 2)
            with pytest.raises(AtDiagonal):
                kernel([-5.25, 1 + 0.2j], [400.0, 0.0], 2)

    def test_odd_d_near_the_diagonal_refused(self):
        # with d odd, c - a - b is an integer: hyp2f1 refuses
        # z = sech^2(r/2) above 0.999, r below about 0.063
        for kernel in (resolvent_scalar, dirac_resolvent_scalar):
            with pytest.raises(NoConvergence, match="integral c - a - b"):
                kernel(1 + 0.2j, [0.5, 0.04], 3)
            assert np.isfinite(kernel(1 + 0.2j, 0.07, 3))

    def test_within_bound_of_scalar_reference(self, kernels_config):
        # the benchmark's seed-0 grid against the one-point reference: the
        # reference forms 1 - z from the rounded z = sech^2(r/2), the array
        # kernels take tanh^2(r/2), and the connection formula carries the
        # reference's rounding into a relative error of about
        # eps / (1 - z); the bound is 64 eps / (1 - z), measured at most 33
        # on seeds 0-10
        lam = np.array(kernels_config.lambda_grid)[:, None]
        r = np.array(kernels_config.r_grid)
        slack = 64 * 2.0 ** -52 / (1.0 - np.cosh(0.5 * r) ** -2)
        for kernel, reference in (
                (resolvent_scalar, scalar_special.resolvent),
                (dirac_resolvent_scalar, scalar_special.dirac_resolvent)):
            grid = kernel(lam, r, 2)
            for i in range(lam.shape[0]):
                for j in range(r.size):
                    ref = reference(lam[i, 0], r[j], 2)
                    assert abs(grid[i, j] - ref) <= slack[j] * abs(ref)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_refusal_and_value_agree_near_the_diagonal(self, d):
        # the refusals read the exact 1 - z = tanh^2(r/2) that the values
        # get, so each pair has a refusal or a finite value, never both or
        # neither; z = sech^2(r/2) rounds to within 1e-15 of 1 below
        # r = 6e-8 and to 1 itself below 2e-8, which at even d once read
        # as z = 1 and refused every such pair with NoConvergence.  The
        # pass that keeps every refusal gives each unrefused pair its 0-d
        # call's value, bit for bit, and each refused pair NaN
        lam = np.array([1 + 0.2j, 0.3 + 0.1j, 2.5 - 0.8j])[:, None]
        r = np.array([0.04, 1e-3, 1e-6, 6e-8, 3e-8, 1e-8, 1e-10, 1e-12])
        for dirac, kernel in ((False, resolvent_scalar),
                              (True, dirac_resolvent_scalar)):
            values, refusals = kernels._resolvent(lam, r, d, dirac,
                                                  keep=Exception)
            assert values.shape == refusals.shape == (3, 8)
            for i in range(lam.shape[0]):
                for j in range(r.size):
                    if refusals[i, j] is None:
                        value = kernel(lam[i, 0], r[j], d)
                        assert np.isfinite(value)
                        assert (bits([value]) == bits([values[i, j]])).all()
                    else:
                        assert np.isnan(values[i, j])
                        with pytest.raises(type(refusals[i, j])):
                            kernel(lam[i, 0], r[j], d)
            # at even d every pair has a value; at odd d, where c - a - b
            # is an integer, the pairs below r = 0.063 are refused
            assert all(x is None for x in refusals.flat) == (d % 2 == 0)


def spinor_heat_oracle_n1(t, r):
    """Hand-differentiated n = 1 scalar: -(f'(r)/sinh r) with
    f = r e^{-r^2/4t} / sinh(r/2), assembled termwise."""
    g = math.exp(-r * r / (4 * t)) / math.sinh(0.5 * r)
    gp = math.exp(-r * r / (4 * t)) * (
        -(r / (2 * t)) / math.sinh(0.5 * r)
        - 0.5 * math.cosh(0.5 * r) / math.sinh(0.5 * r) ** 2
    )
    core = -(g + r * gp) / math.sinh(r)
    return -1j * math.sinh(0.5 * r) / (2.0 ** 4.5 * math.gamma(2.5) * t ** 1.5) * core


def spinor_point(t, r, n):
    """p_plus at one (t, r): a 0-d ``heat_spinor_batch`` call."""
    return heat_spinor_batch(t, r, n).item()


def signature_point(t, r, m):
    """p_plus at one (t, r): a 0-d ``heat_signature_batch`` call."""
    return heat_signature_batch(t, r, m).item()


class TestHeatScalars:
    def test_plus_minus_cancel_everywhere(self):
        # p_minus = -p_plus, as oddzeta kernels forms it; the sum is 0
        # only where p_plus is finite
        t = np.array([0.05, 0.7, 3.0])[:, None]
        for n in (1, 2, 3):
            pp = heat_spinor_batch(t, [0.0, 0.3, 1.0, 6.0], n)
            assert (pp + -pp == 0).all()

    def test_value_matches_hand_derivative(self):
        pp = spinor_point(1.0, 1.0, 1)
        oracle = spinor_heat_oracle_n1(1.0, 1.0)
        assert abs(pp - oracle) < 1e-10 * abs(oracle)
        assert abs(pp - (-0.012821787595588252j)) < 1e-13  # frozen

    def test_removable_singularity_at_diagonal(self):
        # p_t(0) vanishes through the sinh(r/2) prefactor; the inner
        # derivative has the small-r Taylor value 1/6 + 1/t  (from
        # f = 2 - (1/12 + 1/(2t)) r^2 + O(r^4), r^2 = 2(cosh r - 1) + ...)
        from oddzeta.kernels import _neg_dcosh_power
        for t in (0.5, 1.0, 2.0):
            assert spinor_point(t, 0.0, 1) == 0
            core = _neg_dcosh_power(0.5, t, 1, 0.0)
            assert abs(core - (1.0 / 6.0 + 1.0 / t)) < 1e-12

    def test_purely_imaginary(self):
        for r in (0.1, 0.5, 2.0):
            assert spinor_point(0.8, r, 2).real == 0.0

    def test_signature_components(self):
        sp = signature_point(1.0, 1.0, 1)
        g = math.exp(-0.25) / math.sinh(1.0)
        gp = math.exp(-0.25) * (-0.5 / math.sinh(1.0)
                                - math.cosh(1.0) / math.sinh(1.0) ** 2)
        core = -(g + gp) / math.sinh(1.0)
        oracle = -1j * 3.0 * math.sinh(1.0) / (2.0 ** 1.5 * math.pi ** 2.5) * core
        assert abs(sp - oracle) < 1e-10 * abs(oracle)

    def test_signature_middle_zero_on_grid(self):
        # p_middle is identically zero, and oddzeta kernels writes 0.0 for
        # it; p_plus on the same grid is finite and purely imaginary
        for m in (1, 2):
            sp = heat_signature_batch([[0.2], [1.0]], [0.0, 0.7, 3.0], m)
            assert np.isfinite(sp).all() and (sp.real == 0.0).all()

    def test_gaussian_decay_envelope(self):
        # |p_plus(r)| <= K e^{-r^2/4t} poly(r): the polynomial-corrected
        # log-ratio decreases through r = 5, 10, 20
        t, n = 1.0, 1
        def envelope(r):
            pp = spinor_point(t, r, n)
            return math.log(abs(pp)) + r * r / (4 * t) - (n + 2) * math.log(r)
        values = [envelope(r) for r in (5.0, 10.0, 20.0)]
        assert values[0] > values[1] > values[2]


def bits(values):
    """The float64 bit patterns of ``values`` (complex as two floats), so
    that -0.0 and 0.0 differ and NaN equals itself."""
    return np.asarray(values).view(np.int64)


#: the (t, r) grid of the array tests: the diagonal, both sides of the
#: r = 0.45 scale, and r far enough out that the series runs long
HEAT_T = (0.05, 1.0, 20.0)
HEAT_R = (0.0, 1e-3, 0.04, 0.45, 1.0, 4.0, 10.0, 30.0)


def scalar_neg_dcosh_power(s, t, k, r):
    """The one-point jets in Python floats and math.exp, as the kernels
    module evaluated them before it went array-valued: the reference for
    the array core, within ``CORE_REL_BOUND``."""
    def div(num, den):
        out = []
        for i in range(min(len(num), len(den))):
            acc = num[i]
            for j in range(1, i + 1):
                acc -= den[j] * out[i - j]
            out.append(acc / den[0])
        return out

    def sinhc(s, rho, order):
        jet, lead = [], s
        for j in range(order + 1):
            total, term, i = 0.0, lead, 0
            while True:
                total += term
                i += 1
                n = 2 * (i + j)
                term *= (i + j) / i * s * s * rho / (n * (n + 1))
                if not term > 2.0 ** -60 * total:
                    break
            jet.append(total)
            lead *= s * s / ((2 * j + 2) * (2 * j + 3))
        return jet

    rho = r * r
    g = [0.5 * c for c in sinhc(1.0, rho, k)]
    expo = [math.exp(-0.25 * rho / t)]
    for j in range(1, k + 1):
        expo.append(expo[-1] * (-0.25 / t) / j)
    f = div(expo, sinhc(s, rho, k))
    for _ in range(k):
        f = [-c for c in div([i * f[i] for i in range(1, len(f))], g)]
    return f[0]


#: How far the array core may lie from ``scalar_neg_dcosh_power``,
#: relative to its value.  The core is linear in its exp factor, and
#: numpy's exp may round an ulp or a few off the C library's: measured at
#: most 2.2 eps on the grid of the array tests (numpy 2.4, x86-64
#: AVX-512), one point per case; the bound leaves room for other builds.
CORE_REL_BOUND = 8 * np.finfo(float).eps


class TestHeatBatch:
    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_array_core_equals_one_point_bit_for_bit(self, s, k):
        t, r = (a.ravel() for a in np.meshgrid(HEAT_T, HEAT_R, indexing="ij"))
        alone = [_neg_dcosh_power(s, ti, k, ri)
                 for ti, ri in zip(t.tolist(), r.tolist())]
        together = _neg_dcosh_power(s, t, k, r)
        assert together.shape == t.shape
        assert (bits(together) == bits(alone)).all()
        reference = np.array([scalar_neg_dcosh_power(s, ti, k, ri)
                              for ti, ri in zip(t.tolist(), r.tolist())])
        assert (np.abs(together - reference)
                <= CORE_REL_BOUND * np.abs(reference)).all()
        # a value cannot depend on its batch neighbours
        order = np.random.default_rng(k).permutation(t.size)
        permuted = _neg_dcosh_power(s, t[order], k, r[order])
        assert (bits(permuted) == bits(together[order])).all()

    def test_core_broadcasts(self):
        grid = _neg_dcosh_power(0.5, np.array(HEAT_T)[:, None], 2, HEAT_R)
        assert grid.shape == (len(HEAT_T), len(HEAT_R))
        flat = _neg_dcosh_power(0.5, np.repeat(HEAT_T, len(HEAT_R)), 2,
                                np.tile(HEAT_R, len(HEAT_T)))
        assert (bits(grid.ravel()) == bits(flat)).all()
        assert isinstance(_neg_dcosh_power(0.5, 1.0, 2, 1.0), float)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_public_batches_equal_one_point_functions(self, order):
        # signs of zero included: p_plus at r = 0 is +0 - 0i
        t = np.array(HEAT_T)[:, None]
        spinor = heat_spinor_batch(t, HEAT_R, order)
        signature = heat_signature_batch(t, HEAT_R, order)
        assert spinor.shape == signature.shape == (len(HEAT_T), len(HEAT_R))
        for i, ti in enumerate(HEAT_T):
            for j, rj in enumerate(HEAT_R):
                pp = heat_spinor_batch(ti, rj, order)
                sp = heat_signature_batch(ti, rj, order)
                assert pp.shape == sp.shape == ()
                assert (bits([pp, sp]) == bits([spinor[i, j],
                                                 signature[i, j]])).all()

    @pytest.mark.parametrize("order", [1.5, 2.0, "2", 0, -1, math.nan])
    def test_non_integer_order_refused(self, order):
        # a float order is refused, not left to die in range() with a
        # TypeError
        with pytest.raises(ValueError, match="must be a positive integer"):
            heat_spinor_batch(1.0, 1.0, order)
        with pytest.raises(ValueError, match="must be a positive integer"):
            heat_signature_batch(1.0, 1.0, order)
        with pytest.raises(ValueError, match="must be a positive integer"):
            heat_spinor_batch(1.0, [0.5, 1.0], order)
        with pytest.raises(ValueError, match="must be a positive integer"):
            heat_signature_batch(1.0, [0.5, 1.0], order)

    def test_integer_like_orders_accepted(self):
        pp = spinor_point(1.0, 1.0, 2)
        assert spinor_point(1.0, 1.0, np.int64(2)) == pp
        assert signature_point(1.0, 1.0, np.int64(2)) == signature_point(
            1.0, 1.0, 2)

    @pytest.mark.parametrize("t, r, message", [
        ([1.0, 1.0], [1.0, -1.0], "r = -1.0 negative"),
        ([1.0, 1.0], [1.0, math.nan], "r = nan negative"),
        ([1.0, 0.0], [1.0, 1.0], "t = 0.0 not positive"),
        ([1.0, math.nan], [1.0, 1.0], "t = nan not positive"),
    ])
    def test_batch_points_checked(self, t, r, message):
        for batch in (heat_spinor_batch, heat_signature_batch):
            with pytest.raises(ValueError, match=message):
                batch(t, r, 1)

    @pytest.mark.parametrize("batch", [heat_spinor_batch,
                                       heat_signature_batch])
    def test_overflow_refused_without_warnings(self, batch):
        # sinh r leaves the float range at r = 800, in the middle of a batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="is not finite"):
                batch([0.5, 1.0, 1.0], [1.0, 800.0, 2.0], 2)
            with pytest.raises(OverflowError, match="t \\*\\* 1.5"):
                batch([1.0, 1e300], [1.0, 1.0], 1)

    def test_sinh_past_the_float_range_refused(self):
        # at r = 712 the jets' sinh(r) / r is finite but sinh r is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=(
                    r"^sinh\(1.0 r\) is not finite at r = 712.0$")):
                heat_signature_batch(1.0, [1.0, 712.0], 1)


class TestGaussianTimeIntegral:
    def test_closed_form_values(self):
        assert abs(gaussian_time_integral(1.0, 1.0)
                   - math.exp(-1.0) / (4.0 * math.pi)) < 1e-16
        assert abs(gaussian_time_integral(2.0, 3.0)
                   - math.exp(-6.0) / (12.0 * math.pi)) < 1e-18

    def test_quadrature_agrees(self):
        closed = gaussian_time_integral(1.0, 1.0)
        quad, err = gaussian_time_integral_quadrature(1.0, 1.0)
        assert quad.shape == err.shape == ()
        assert abs(closed - quad) < 1e-8 * abs(closed)
        assert abs(closed - quad) <= err + 1e-15

    def test_complex_lambda(self):
        lam = 1.3 + 0.4j
        closed = gaussian_time_integral(lam, 2.0)
        quad, err = gaussian_time_integral_quadrature(lam, 2.0)
        assert abs(closed - quad) < 1e-9 * abs(closed)

    @pytest.mark.parametrize("lam", [-0.5, -1.3 + 0.4j, -1.3 - 0.4j])
    def test_negative_real_part_takes_the_decaying_root(self, lam):
        # the integral depends on lambda^2 alone, so -lambda gives the
        # same value, bit for bit: exp(-|Re lambda| r) decays; the closed
        # form once took exp(-lambda r), which grows, and lay 1/(4 pi)
        # off the quadrature at small r
        for r in (1e-9, 0.04, 2.0):
            closed = gaussian_time_integral(lam, r)
            assert closed == gaussian_time_integral(-lam, r)
            quad, err = gaussian_time_integral_quadrature(lam, r)
            assert abs(closed - quad) <= err

    def test_divergent(self):
        with pytest.raises(DivergentIntegral):
            gaussian_time_integral(1j, 1.0)
        with pytest.raises(DivergentIntegral):
            gaussian_time_integral_quadrature(cmath.exp(0.26j * math.pi), 1.0)

    def test_tiny_distance_converges(self):
        # in u = log t no node forms r^2 or t, so r^2 underflowing to 0
        # costs nothing; in t the quadrature met 0/0 at r <= 1e-150
        for r in (1e-150, 1e-300):
            closed = gaussian_time_integral(0.5 - 0.1j, r)
            quad, err = gaussian_time_integral_quadrature(0.5 - 0.1j, r)
            assert abs(closed - quad) <= err <= 2e-11 * abs(closed)

    @pytest.mark.parametrize("integral", [gaussian_time_integral,
                                          gaussian_time_integral_quadrature])
    def test_nan_distance_refused(self, integral):
        # before, the closed form returned nan+nanj and the quadrature ran
        # to 4 097 panels before it raised NoConvergence
        with pytest.raises(ValueError, match="r = nan must be positive"):
            integral(1.0, math.nan)


    def test_underflowing_lambda_square_refused_at_once(self):
        # lambda^2 = 1e-320 passes Re(lambda^2) > 0, but the upper limit
        # 40/mu is inf, so every node is NaN; before, the quadrature
        # bisected to 4 097 panels before it raised.  In u = log t the
        # panel runs from log(1/2800), where r^2/4t = 700 at r = 1
        lower = -math.log(2800.0)
        with pytest.raises(NoConvergence,
                           match=re.escape(f"panel [{lower!r}, inf]")):
            gaussian_time_integral_quadrature(1e-160, 1.0)

    def test_cancelling_pair_converges_on_the_absolute_floor(self,
                                                               monkeypatch):
        # at lambda = 3+2.9i, r = 20 the value, about 3.5e-29, is far
        # below int |f| dt = e^(-r sqrt(mu)) / (4 pi r), about 8.6e-10:
        # under pure relative control the estimate stalled near 3.4e-24
        # and the quadrature ran out of panels; the floor tol int |f|
        # stops it, and the closed form lies within the reported error
        panels = []

        def count(*args, **kwargs):
            result = quadrature.integrate_batch(*args, **kwargs)
            panels.extend(result[2])
            return result

        monkeypatch.setattr(kernels, "integrate_batch", count)
        lam, r, tol = 3 + 2.9j, 20.0, 1e-11
        value, err = gaussian_time_integral_quadrature(lam, r, tol=tol)
        mu = (lam * lam).real
        floor = tol * math.exp(-r * math.sqrt(mu)) / (4.0 * math.pi * r)
        upper = 40.0 / mu
        tail = (4.0 * math.pi * upper) ** -1.5 * math.exp(-upper * mu) / mu
        assert panels == [437]
        assert abs(gaussian_time_integral(lam, r) - value) <= err
        assert err <= floor + tail

    def test_grid_matches_the_scalar_integrand(self, kernels_config):
        # lambda and r broadcast to the (r, lambda) grid; each value is the
        # per-pair quadrature of the cmath/math integrand up to the ulps
        # by which numpy's exp and power may differ from the C library's
        tol = kernels_config.quad_tol
        lam = np.array(kernels_config.lambda_grid)
        r = np.array(kernels_config.r_grid)[:, None]
        values, errors = gaussian_time_integral_quadrature(lam, r, tol=tol)
        assert values.shape == errors.shape == (r.size, lam.size)
        worst = 0.0
        for (i, j), value in np.ndenumerate(values):
            ref, _ = scalar_gaussian_quadrature(complex(lam[j]),
                                                float(r[i, 0]), tol)
            worst = max(worst, abs(value - ref) / abs(ref))
        assert worst <= 1e-15

    def test_batch_rows_do_not_couple(self, kernels_config, monkeypatch):
        # the seed-0 grid plus one pair needing far more panels: each row
        # of the lockstep call is the same integral run alone
        calls = []

        def capture(f, a, b, tol_abs, tol_rel):
            calls.append((f, a, b, tol_abs, tol_rel))
            return quadrature.integrate_batch(f, a, b, tol_abs, tol_rel)

        monkeypatch.setattr(kernels, "integrate_batch", capture)
        lam = [l for l in kernels_config.lambda_grid
               for _ in kernels_config.r_grid] + [0.3 + 0.29j]
        r = list(kernels_config.r_grid) * len(kernels_config.lambda_grid)
        gaussian_time_integral_quadrature(lam, r + [0.02],
                                          tol=kernels_config.quad_tol)
        (f, a, b, tol_abs, tol_rel), = calls
        values, errors, panels = quadrature.integrate_batch(
            f, a, b, tol_abs, tol_rel)
        assert sum(panels[:-1]) == 9120
        assert panels[-1] > 2 * max(panels[:-1])
        for i in range(len(a)):
            alone = quadrature.integrate_batch(
                lambda rows, x: f(rows + i, x), [a[i]], [b[i]],
                [tol_abs[i]], tol_rel)
            assert alone == ([values[i]], [errors[i]], [panels[i]])

    @pytest.mark.parametrize("seed", range(11))
    def test_within_both_errors_of_the_time_space_quadrature(self, seed,
                                                             tmp_path):
        # the log-time values against the t-space quadrature they
        # replaced, on each seed's bench grid: the two differ by no more
        # than the sum of their reported errors
        path = tmp_path / "kernels.cfg"
        path.write_text(_workloads().generate(seed)["kernels.cfg"])
        config = load_config(str(path))
        lam = np.array(config.lambda_grid)
        r = np.array(config.r_grid)[:, None]
        values, errors = gaussian_time_integral_quadrature(
            lam, r, tol=config.quad_tol)
        old, old_errors = time_space_gaussian_quadrature(
            lam, r, config.quad_tol)
        assert (np.abs(values - old) <= errors + old_errors).all()


def scalar_gaussian_quadrature(lam: complex, r: float, tol: float):
    """One pair's Gaussian time integral through a one-row
    ``integrate_batch`` in u = log t, with the integrand evaluated node
    by node in cmath and math."""
    lam2 = lam * lam
    mu = lam2.real
    log_quarter_r_sq = 2.0 * math.log(r) - math.log(4.0)

    def integrand(u):
        # r^2/4t as exp(log(r^2/4) - u), t = e^u
        return ((4.0 * math.pi) ** -1.5
                * cmath.exp(-math.exp(u) * lam2
                            - math.exp(log_quarter_r_sq - u) - 0.5 * u))

    upper = max(1.0, 40.0 / mu, 5.0 * r / (2.0 * math.sqrt(mu)))
    floor = tol * math.exp(-r * math.sqrt(mu)) / (4.0 * math.pi * r)
    values, errors, _ = quadrature.integrate_batch(
        lambda rows, x: [[integrand(u) for u in panel]
                         for panel in x.tolist()],
        [2.0 * math.log(r) - math.log(2800.0)], [math.log(upper)],
        tol_abs=floor, tol_rel=tol)
    return values[0], errors[0]


def time_space_gaussian_quadrature(lam, r, tol: float):
    """The Gaussian time integral as ``kernels`` computed it before it
    moved to u = log t: one lockstep quadrature in t over [0, upper] of
    e^(-t lambda^2) (4 pi t)^(-3/2) e^(-r^2/4t), zeroed where
    r^2/4t > 700, under pure relative control.  Returns (values,
    reported errors, the tail bound included) in the broadcast shape."""
    lam, r = np.broadcast_arrays(np.asarray(lam, dtype=complex),
                                 np.asarray(r, dtype=float))
    lam2 = lam.ravel() ** 2
    mu = lam2.real
    r_sq = r.ravel() ** 2
    upper = np.maximum(np.maximum(1.0, 40.0 / mu),
                       5.0 * r.ravel() / (2.0 * np.sqrt(mu)))

    def integrand(rows, t):
        arg = r_sq[rows, None] / (4.0 * t)
        value = (np.exp(-t * lam2[rows, None])
                 * np.float_power(4.0 * math.pi * t, -1.5) * np.exp(-arg))
        value[arg > 700.0] = 0.0
        return value

    values, errors, _ = quadrature.integrate_batch(
        integrand, [0.0] * lam2.size, upper.tolist(), tol_abs=0.0,
        tol_rel=tol)
    reported = (np.array(errors) + (4.0 * math.pi * upper) ** -1.5
                * np.exp(-upper * mu) / mu)
    return (np.array(values).reshape(lam.shape),
            reported.reshape(lam.shape))
