import math
import random

import numpy as np
import pytest

import scalar_special
from oddzeta import special
from oddzeta.errors import NoConvergence, PoleAtC, PoleOfGamma
from oddzeta.special import (
    gamma_quotient,
    hyp2f1,
    log_gamma,
)


def brute_series(a, b, c, z, n=4000):
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    return total


def gamma(z):
    """Gamma as the tests take it: exp of ``log_gamma``."""
    return np.exp(log_gamma(z))


class TestGamma:
    def test_against_stdlib_on_reals(self):
        for x in (0.5, 1.0, 2.5, 7.3, 11.0, 0.01):
            assert abs(gamma(x) - math.gamma(x)) < 1e-13 * math.gamma(x)

    def test_reflection_region(self):
        # Gamma(-1.5) = 4 sqrt(pi) / 3
        assert abs(gamma(-1.5) - 4.0 * math.sqrt(math.pi) / 3.0) < 1e-13

    def test_pole_raises(self):
        with pytest.raises(PoleOfGamma):
            log_gamma(0.0)
        with pytest.raises(PoleOfGamma):
            log_gamma(-3.0)

    def test_complex_conjugate_symmetry(self):
        z = 1.7 + 0.9j
        assert abs(gamma(z).conjugate() - gamma(z.conjugate())) < 1e-13 * abs(gamma(z))


class TestHyp2F1:
    @pytest.mark.parametrize("name", "abcz")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_argument_refused(self, name, bad):
        args = {"a": 0.5, "b": 0.5, "c": 2.0, "z": 0.3, name: bad}
        with pytest.raises(NoConvergence, match=f"^{name} = .* is not finite$"):
            hyp2f1(**args)

    def test_at_zero(self):
        assert hyp2f1(0.3 + 0.2j, -1.1, 2.4 - 0.3j, 0.0) == 1.0

    def test_log_closed_form(self):
        # F(1, 1; 2; z) = -log(1-z)/z, frozen at z = 1/2
        assert abs(hyp2f1(1, 1, 2, 0.5) - 1.3862943611198906) < 1e-13

    def test_gauss_summation_at_one(self):
        val = hyp2f1(0.5, 0.5, 2.0, 1.0)
        expect = math.exp(math.lgamma(2.0) + math.lgamma(1.0)
                          - 2.0 * math.lgamma(1.5))
        assert abs(val - expect) < 1e-12 * expect

    def test_at_one_requires_positive_real_gap(self):
        with pytest.raises(NoConvergence):
            hyp2f1(1.0, 1.0, 2.0, 1.0)  # c - a - b = 0

    def test_pole_at_c(self):
        with pytest.raises(PoleAtC):
            hyp2f1(0.5, 0.5, -2.0, 0.3)

    def test_outside_disk_rejected(self):
        with pytest.raises(NoConvergence):
            hyp2f1(0.5, 0.5, 1.5, 1.2)

    def test_polynomial_termination(self):
        # a = -3 gives a cubic; check against explicit expansion
        a, b, c, z = -3.0, 1.7, 2.2, 0.95
        expect = sum(
            math.prod((a + i) for i in range(k)) * math.prod((b + i) for i in range(k))
            / (math.prod((c + i) for i in range(k)) * math.factorial(k)) * z ** k
            for k in range(4)
        )
        assert abs(hyp2f1(a, b, c, z) - expect) < 1e-12 * abs(expect)

    def test_connection_formula_region_vs_brute_force(self):
        a, b, c = 0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j
        for z in (0.9, 0.82 + 0.05j, 0.99):
            mine = hyp2f1(a, b, c, z)
            brute = brute_series(a, b, c, z, n=200_000)
            assert abs(mine - brute) < 1e-11 * abs(brute)

    def test_pfaff_region_vs_brute_force(self):
        a, b, c = 0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j
        for z in (-0.95, -0.6 + 0.4j, 0.2 + 0.9j):
            mine = hyp2f1(a, b, c, z)
            brute = brute_series(a, b, c, z, n=200_000)
            assert abs(mine - brute) < 1e-11 * abs(brute)

    def test_contiguous_relation_at_random_points(self):
        # c(1-z) F(a,b;c;z) - c F(a-1,b;c;z) + (c-b) z F(a,b;c+1;z) = 0
        rng = random.Random(7)
        for _ in range(20):
            a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            c = complex(rng.uniform(1, 3), rng.uniform(-1, 1))
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
            residual = (c * (1 - z) * hyp2f1(a, b, c, z)
                        - c * hyp2f1(a - 1, b, c, z)
                        + (c - b) * z * hyp2f1(a, b, c + 1, z))
            scale = abs(c * hyp2f1(a, b, c, z)) + 1.0
            assert abs(residual) / scale < 1e-9

    def test_refusals_and_closed_form(self):
        with pytest.raises(PoleAtC):
            hyp2f1(0.5, 0.5, -1.0, 0.3)
        with pytest.raises(NoConvergence):
            hyp2f1(0.5, 0.5, 1.5, 1.5)
        # 2F1(1, 1; 2; z) = -log(1 - z) / z
        assert abs(hyp2f1(1.0, 1.0, 2.0, 0.5) - 2.0 * math.log(2.0)) < 1e-13


#: (a, b, c, z) points of every hyp2f1 branch, by the name of the branch
BRANCH_POINTS = {
    "z = 0": (0.3 + 0.2j, -1.1, 2.4 - 0.3j, 0.0),
    "direct": (0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j, 0.45 - 0.3j),
    "direct near 0.9": (2.5 + 0.4j, 1.0 + 0.4j, 3.0 + 0.8j, 0.89),
    "Pfaff": (0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j, -0.95),
    "Pfaff off the axis": (0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j, 0.2 + 0.9j),
    "connection": (0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j, 0.95 + 0.05j),
    "connection near 1": (2.5 + 0.4j, 2.0 + 0.4j, 3.0 + 0.8j, 0.9995),
    "terminating": (-3.0, 1.7, 2.2, 0.95),
    "z = 1": (0.5, 0.5, 2.0, 1.0),
    "integral c - a - b": (0.5, 0.5, 2.0, 0.95),
}


def bits(x):
    """The bytes of a complex array or scalar, signs of zero included."""
    return np.asarray(x, dtype=complex).tobytes()


class TestArrayValues:
    def test_points_cover_every_branch(self):
        (a, b, c, z), _ = special._flat(*zip(*BRANCH_POINTS.values()))
        branch = dict(zip(BRANCH_POINTS, special._branches(a, b, c, z)))
        assert branch["z = 0"] == special._ZERO
        assert branch["z = 1"] == special._AT_ONE
        assert {branch["Pfaff"], branch["Pfaff off the axis"]} == {
            special._PFAFF}
        assert {branch["connection"], branch["connection near 1"]} == {
            special._CONNECT}
        # the terminating, direct and integral c - a - b points all sum
        # the series in z
        for name in ("direct", "direct near 0.9", "terminating",
                     "integral c - a - b"):
            assert branch[name] == special._SERIES, name

    def test_grid_values_are_each_points_own(self):
        # one call over every branch, that call reversed, and a broadcast
        # grid of parameter rows by z columns: every value is its 0-d
        # call's, bit for bit
        points = list(BRANCH_POINTS.values())
        one = [hyp2f1(*p) for p in points]
        grid = hyp2f1(*map(np.array, zip(*points)))
        assert grid.shape == (len(points),)
        assert [bits(v) for v in grid] == [bits(v) for v in one]
        back = hyp2f1(*map(np.array, zip(*points[::-1])))
        assert [bits(v) for v in back[::-1]] == [bits(v) for v in one]
        a, b, c = (np.array(column)[:, None] for column in zip(
            (0.3 + 0.1j, 1.2 - 0.4j, 2.7 + 0.2j),
            (1.5 + 0.4j, 1.0 + 0.4j, 3.0 + 0.8j),
            (1.3 + 0.2j, 0.7, 2.1)))
        z = np.array([0.0, 0.3, 0.89, -0.95, 0.2 + 0.9j, 0.95 + 0.05j,
                      0.9995, 1.0])
        grid = hyp2f1(a, b, c, z)
        assert grid.shape == (3, z.size)
        for i in range(3):
            for j in range(z.size):
                assert bits(grid[i, j]) == bits(
                    hyp2f1(a[i, 0], b[i, 0], c[i, 0], z[j]))

    def test_one_minus_z_feeds_the_connection_formula(self):
        # 1 - z given as 1 - z leaves every branch's bits alone; given
        # exactly, it moves only the connection branch's value, which then
        # no longer inherits the rounding of z near 1
        points = list(BRANCH_POINTS.values())
        a, b, c, z = map(np.array, zip(*points))
        z = z.astype(complex)
        plain = hyp2f1(a, b, c, z)
        assert bits(hyp2f1(a, b, c, z, 1.0 - z)) == bits(plain)
        shifted = hyp2f1(a, b, c, z, (1.0 - z) * (1.0 + 2.0 ** -40))
        branch = special._branches(a, b, c, z)
        moved = np.array([bits(x) != bits(y)
                          for x, y in zip(shifted, plain)])
        assert (moved == (branch == special._CONNECT)).all()

    def test_first_refused_point_raises(self):
        ok, outside, pole = ((0.5, 0.5, 2.0, 0.3), (0.5, 0.5, 1.5, 1.5),
                             (0.5, 0.5, -2.0, 0.3))
        for points, error in (([ok, outside, pole], NoConvergence),
                              ([ok, pole, outside], PoleAtC)):
            with pytest.raises(error):
                hyp2f1(*map(np.array, zip(*points)))

    def test_log_gamma_grid(self):
        # both sides of the reflection at Re z = 1/2
        z = np.array([complex(re, im) for re in (-3.7, -0.3, 0.2, 0.5, 1.5,
                                                 11.0)
                      for im in (0.0, 0.3, -2.0, 10.0)]).reshape(6, 4)
        grid = log_gamma(z)
        assert grid.shape == (6, 4)
        assert all(bits(grid.flat[i]) == bits(log_gamma(z.flat[i]))
                   for i in range(z.size))
        with pytest.raises(PoleOfGamma):
            log_gamma(np.array([1.5, -2.0]))

    def test_gamma_quotient_vanishes_pointwise(self):
        # a pole in a denominator zeroes its own point only
        got = gamma_quotient([np.array([2.5, 3.5])], [np.array([-1.0, 2.0])])
        assert got[0] == 0
        assert abs(got[1] - math.gamma(3.5) / math.gamma(2.0)) < 1e-13 * got[1]
        with pytest.raises(PoleOfGamma):
            gamma_quotient([np.array([2.5, -3.0])], [1.5])


#: How far ``hyp2f1`` may lie from ``scalar_special.hyp2f1``, relative
#: to the value, in units of epsilon: the direct series at z = 0.89 sums
#: about 300 terms, and the connection formula at z = 0.9995 divides by
#: powers of 1 - z; measured at most 21 on these points.
HYP2F1_REFERENCE_EPS = 64


def test_hyp2f1_within_bound_of_scalar_reference():
    rng = random.Random(11)
    points = list(BRANCH_POINTS.values())
    for _ in range(40):
        lam = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.2, 1.2))
        z = complex(rng.uniform(-0.99, 0.995), 0.0)
        points.append((1.5 + lam, lam, 2.0 * lam + 1.0, z))
    values = hyp2f1(*map(np.array, zip(*points)))
    worst = max(abs(v - scalar_special.hyp2f1(*p)) / abs(v)
                for v, p in zip(values, points))
    assert worst <= HYP2F1_REFERENCE_EPS * 2.0 ** -52
