import math
import random

import pytest

from oddzeta.errors import NoConvergence, PoleAtC
from oddzeta.special import (
    GammaPole,
    HypergeometricArgs,
    gamma,
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


class TestGamma:
    def test_against_stdlib_on_reals(self):
        for x in (0.5, 1.0, 2.5, 7.3, 11.0, 0.01):
            assert abs(gamma(x) - math.gamma(x)) < 1e-13 * math.gamma(x)

    def test_reflection_region(self):
        # Gamma(-1.5) = 4 sqrt(pi) / 3
        assert abs(gamma(-1.5) - 4.0 * math.sqrt(math.pi) / 3.0) < 1e-13

    def test_pole_raises(self):
        with pytest.raises(GammaPole):
            log_gamma(0.0)
        with pytest.raises(GammaPole):
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

    def test_args_dataclass_validates(self):
        with pytest.raises(PoleAtC):
            HypergeometricArgs(0.5, 0.5, -1.0, 0.3)
        with pytest.raises(NoConvergence):
            HypergeometricArgs(0.5, 0.5, 1.5, 1.5)
        args = HypergeometricArgs(1.0, 1.0, 2.0, 0.5)
        assert abs(args.value() - 2.0 * math.log(2.0)) < 1e-13
