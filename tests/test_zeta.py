import cmath
import math
import random

import pytest
from toyterms import invariants_from_q, primitive_term, toy_list

from oddzeta.errors import ConvergenceViolation, DeltaNotNegative, NonPrimitiveInput
from oddzeta.moebius import MoebiusMap, geodesic_invariants
from oddzeta.quadrature import integrate
from oddzeta.zeta import (
    class_term,
    conjugated_terms,
    dlog_zeta_odd,
    eta,
    eta_central_with_budget,
    log_zeta_half,
    odd_heat_trace,
    power_class_terms,
    shell_tail_bound,
    terms_from_group,
    zeta_odd,
    zeta_odd_signature_product,
)


class TestClassTerm:
    def test_weight_for_real_multiplier(self):
        inv = geodesic_invariants(MoebiusMap(2.0, 0.0, 0.0, 0.5))  # q = 1/4
        term = class_term(inv, 1, "signature")
        assert abs(term.D - 2.25) < 1e-15  # (3/4)^2 * 4
        assert abs(term.chi_plus - term.chi_minus) < 1e-15  # sin 0 = 0

    def test_characters_at_theta_pi(self):
        inv = geodesic_invariants(MoebiusMap(2j, 0.0, 0.0, -0.5j))  # q = -1/4
        sig = class_term(inv, 1, "signature")
        spin = class_term(inv, 1, "spinor")
        assert abs(sig.chi_plus - sig.chi_minus) < 1e-14  # 2i sin(pi) = 0
        assert abs((spin.chi_plus - spin.chi_minus) - 2j) < 1e-14  # 2i sin(pi/2)

    def test_weight_for_complex_multiplier(self):
        q = 0.2 * cmath.exp(1j * math.pi / 3)
        term = primitive_term(q)
        assert abs(term.D - abs(1 - q) ** 2 / 0.2) < 1e-14

    def test_spin_sign_swap(self):
        inv = invariants_from_q(0.25j)
        plus = class_term(inv, 1, "spinor", spin_sign="plus")
        minus = class_term(inv, 1, "spinor", spin_sign="minus")
        assert plus.chi_plus == minus.chi_minus
        assert plus.chi_minus == minus.chi_plus


class TestLogZetaHalf:
    def test_empty_terms(self):
        ev = log_zeta_half([], "+", 0.0)
        assert ev.value == 0.0
        assert cmath.exp(ev.value) == 1.0

    def test_single_term_value(self):
        inv = geodesic_invariants(MoebiusMap(2.0, 0.0, 0.0, 0.5))
        term = class_term(inv, 1, "signature")
        ev = log_zeta_half([term], "+", 0.0)
        assert abs(ev.value - (-4.0 / 9.0)) < 1e-15

    def test_power_index_divides(self):
        inv = geodesic_invariants(MoebiusMap(2.0, 0.0, 0.0, 0.5))
        t1 = class_term(inv, 1, "signature")
        t2 = class_term(inv, 2, "signature")
        assert abs(2.0 * log_zeta_half([t2], "+", 0.0).value
                   - log_zeta_half([t1], "+", 0.0).value) < 1e-15

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceViolation):
            log_zeta_half([primitive_term(0.1)], "+", -0.5, delta_hat=-0.3)

    def test_json_shape(self):
        ev = log_zeta_half([primitive_term(0.1)], "+", 0.25 + 0.5j)
        doc = ev.to_json_dict()
        assert set(doc) == {"variant", "lambda", "value", "tail_bound", "cutoff_L"}
        assert doc["lambda"] == [0.25, 0.5]


class TestZetaOdd:
    def test_real_multipliers_give_unit_zeta(self):
        terms = toy_list([0.3, 0.05, 0.17])
        for lam in (0.0, 0.4, 1.3):
            assert zeta_odd(terms, lam).value == 1.0  # chi_+ = chi_- termwise

    def test_sum_form_vs_double_product(self):
        base = primitive_term(0.25j)
        terms = power_class_terms(base, 60)
        zsum = zeta_odd(terms, 0.0)
        zprod = zeta_odd_signature_product([base], 0.0, 80)
        assert abs(zsum.value - zprod.value) < 1e-10

    def test_sum_vs_product_at_complex_lambda(self):
        base = primitive_term(0.2 * cmath.exp(0.8j))
        terms = power_class_terms(base, 80)
        lam = 0.3 + 0.1j
        zsum = zeta_odd(terms, lam)
        zprod = zeta_odd_signature_product([base], lam, 80)
        assert abs(zsum.value - zprod.value) < 1e-10

    def test_product_form_rejects_powers(self):
        with pytest.raises(NonPrimitiveInput):
            zeta_odd_signature_product(power_class_terms(primitive_term(0.2j), 3),
                                       0.0, 20)

    def test_unit_modulus_on_conjugation_closed_list(self):
        q = 0.2 * cmath.exp(1j * math.pi / 4)
        terms = toy_list([q, q.conjugate()])
        value = zeta_odd(terms, 0.0).value
        assert abs(abs(value) - 1.0) < 1e-14

    def test_tail_above_expm1_range_is_infinite(self, monkeypatch):
        # a finite log tail past ~709.78 overflows expm1; both zeta routes
        # must then report no bound, as shell_tail_bound does
        monkeypatch.setattr("oddzeta.zeta.shell_tail_bound",
                            lambda terms, rank, re_lam: 750.0)
        base = primitive_term(0.2 * cmath.exp(0.8j))
        for z in (zeta_odd(power_class_terms(base, 20), 0.3, rank=2),
                  zeta_odd_signature_product([base], 0.3, 20, rank=2)):
            assert z.tail_bound == math.inf
            assert cmath.isfinite(z.value)
        monkeypatch.setattr("oddzeta.zeta.shell_tail_bound",
                            lambda terms, rank, re_lam: 300.0)
        z = zeta_odd(power_class_terms(base, 20), 0.3, rank=2)
        assert math.isfinite(z.tail_bound)

    def test_half_zeta_matches_symmetric_power_product(self):
        # Z(sigma_+, lambda) against the independent double product
        # prod_{a,b >= 0} (1 - e^(i theta) q^a conj(q)^b |q|^(lambda+1))
        base = primitive_term(0.2 * cmath.exp(0.6j))
        lam = 0.1
        half = cmath.exp(log_zeta_half(power_class_terms(base, 80), "+", lam).value)
        product = 1.0 + 0.0j
        scale = abs(base.q) ** (lam + 1.0)
        for a in range(81):
            for b in range(81):
                w = base.q ** a * base.q.conjugate() ** b * scale
                product *= 1.0 - cmath.exp(1j * base.theta) * w
        assert abs(half - product) < 1e-10


class TestDlogZetaOdd:
    def test_empty(self):
        assert dlog_zeta_odd([], 1.0) == 0.0

    def test_real_group_identically_zero(self):
        terms = toy_list([0.3, 0.07])
        assert dlog_zeta_odd(terms, 0.7) == 0.0

    def test_centered_difference(self):
        terms = toy_list([0.25j, 0.1 * cmath.exp(0.3j)])
        lam, h = 0.3, 1e-4
        def logz(x):
            return (log_zeta_half(terms, "+", x).value
                    - log_zeta_half(terms, "-", x).value)
        fd = (logz(lam + h) - logz(lam - h)) / (2 * h)
        assert abs(fd - dlog_zeta_odd(terms, lam)) < 1e-7


class TestOddHeatTrace:
    def test_real_group_zero(self):
        assert odd_heat_trace(toy_list([0.3, 0.07]), 0.5) == 0.0

    def test_single_term_closed_form(self):
        # theta = +pi/2, |q| = e^{-1}: trace = -(4 pi) (4 pi t)^{-3/2} e^{-1/4t} / D
        term = primitive_term(-1j * math.exp(-1.0))
        assert abs(term.theta - 0.5 * math.pi) < 1e-15
        for t in (0.4, 0.7, 2.0):
            value = odd_heat_trace([term], t)
            expect = -(4.0 * math.pi / (4.0 * math.pi * t) ** 1.5
                       ) * math.exp(-1.0 / (4 * t)) / term.D
            assert abs(value - expect) < 1e-14 * abs(expect)
            assert value.imag == 0.0

    def test_laplace_transform_matches_dlog(self):
        # int_0^inf e^{-t lam^2} Tr dt = (i/2) dlog Z_odd(lam) at lam = 1
        terms = toy_list([0.25j], max_power=60)
        lam = 1.0
        integrand = lambda u: (u ** -2.0 * cmath.exp(-(lam ** 2) / u)
                               * odd_heat_trace(terms, 1.0 / u))
        left, _ = integrate(integrand, 0.0, 1.0, 1e-12, 1e-12, 2048)
        right, _ = integrate(integrand, 1.0, 400.0, 1e-12, 1e-12, 4096)
        lhs = left + right
        rhs = 0.5j * dlog_zeta_odd(terms, lam)
        assert abs(lhs - rhs) < 1e-6

    def test_small_t_gaussian_suppression(self):
        # decay rate is min(l)^2 / 4 per the trace formula exponent
        terms = toy_list([0.25j, 0.1j])
        c2 = min(t.ell for t in terms) ** 2
        t1, t2 = 0.05, 0.1
        measured = (math.log(abs(odd_heat_trace(terms, t1)))
                    - math.log(abs(odd_heat_trace(terms, t2))))
        predicted = -(c2 / 4.0) * (1.0 / t1 - 1.0 / t2) - 1.5 * math.log(t1 / t2)
        assert abs(measured - predicted) < 0.05 * abs(predicted)

    def test_large_t_power_law(self):
        terms = toy_list([0.25j, 0.1j])
        slope = ((math.log(abs(odd_heat_trace(terms, 1e4)))
                  - math.log(abs(odd_heat_trace(terms, 1e2)))) / math.log(100.0))
        assert -1.6 < slope < -1.4


class TestEta:
    def test_real_group_zero_by_all_routes(self):
        terms = toy_list([0.3, 0.07])
        for route in ("central_value", "lambda_integral", "heat_quadrature"):
            assert abs(eta(terms, route)) < 1e-12

    def test_toy_routes_agree(self):
        terms = toy_list([0.25j], max_power=60)
        closed = (1j * sum((t.chi_plus - t.chi_minus) / (t.j * t.D)
                           for t in terms) / math.pi).real
        values = {route: eta(terms, route)
                  for route in ("central_value", "lambda_integral",
                                "heat_quadrature")}
        assert abs(values["central_value"] - closed) < 1e-12
        assert abs(values["central_value"] - values["lambda_integral"]) < 1e-6
        assert abs(values["central_value"] - values["heat_quadrature"]) < 1e-6

    def test_conjugation_negates(self):
        terms = toy_list([0.25j, 0.15 * cmath.exp(0.9j)])
        assert abs(eta(terms, "central_value")
                   + eta(conjugated_terms(terms), "central_value")) < 1e-14

    def test_delta_guard(self):
        with pytest.raises(DeltaNotNegative):
            eta(toy_list([0.25j]), "central_value", delta_hat=0.1)

    def test_spin_sign_swap_negates(self):
        plus = toy_list([0.25j], variant="spinor", spin_sign="plus")
        minus = toy_list([0.25j], variant="spinor", spin_sign="minus")
        assert abs(eta(plus, "central_value")
                   + eta(minus, "central_value")) < 1e-14

    def test_central_equals_tracked_argument(self):
        # walking lambda from large to 0 and accumulating the continuous
        # argument of Z_odd reproduces Im log Z_odd(0) termwise
        terms = toy_list([0.25j, 0.2 * cmath.exp(1.1j)])
        lam_grid = [8.0 - 0.05 * k for k in range(161)]
        total = 0.0
        prev = zeta_odd(terms, lam_grid[0]).value
        arg = cmath.phase(prev)
        for lam in lam_grid[1:]:
            cur = zeta_odd(terms, lam).value
            arg += cmath.phase(cur / prev)
            prev = cur
        tracked = arg / math.pi
        assert abs(tracked - eta(terms, "central_value")) < 1e-9


class TestGroupTerms:
    def test_signature_terms_sorted_and_tagged(self, complex_groups):
        _, _, terms = complex_groups["g2_complex_a"]
        lengths = [t.word_length for t in terms]
        assert lengths == sorted(lengths)
        assert all(t.variant == "signature" for t in terms)

    def test_spinor_terms_unit_characters(self, complex_groups):
        point, _, _ = complex_groups["g2_complex_b"]
        spin_terms = terms_from_group(point.generators, 3, "spinor")
        for t in spin_terms:
            assert abs(abs(t.chi_plus) - 1.0) < 1e-12
            assert abs(t.chi_plus - t.spin_phase / abs(t.spin_phase)) < 1e-12

    def test_sums_do_not_depend_on_term_order(self, complex_groups):
        # correctly rounded sums: any permutation gives the same bits
        _, est, terms = complex_groups["g2_complex_a"]
        shuffled = list(terms)
        random.Random(6).shuffle(shuffled)
        assert shuffled != terms
        for sign in ("+", "-"):
            for lam in (0.0, 0.4 - 0.3j):
                assert (log_zeta_half(shuffled, sign, lam, 2, est.delta_hat)
                        == log_zeta_half(terms, sign, lam, 2, est.delta_hat))
        for lam in (0.0, 1.5 + 2.0j):
            assert dlog_zeta_odd(shuffled, lam) == dlog_zeta_odd(terms, lam)
        for t in (0.05, 1.0, 30.0):
            assert odd_heat_trace(shuffled, t) == odd_heat_trace(terms, t)

    def test_generator_lift_sign_moves_spinor_characters_only(self, complex_groups):
        # negating one generator changes the spin structure: spinor
        # characters flip on words using that letter an odd number of
        # times, while the signature variant cannot see the sign
        point, _, _ = complex_groups["g2_complex_a"]
        flipped = (-point.generators[0], point.generators[1])
        sig_a = terms_from_group(point.generators, 4)
        sig_b = terms_from_group(flipped, 4)
        assert all(abs(x.chi_plus - y.chi_plus) < 1e-12
                   for x, y in zip(sig_a, sig_b))
        spin_a = terms_from_group(point.generators, 4, "spinor")
        spin_b = terms_from_group(flipped, 4, "spinor")
        flips = [abs(x.chi_plus + y.chi_plus) < 1e-12 and abs(x.chi_plus) > 0.9
                 for x, y in zip(spin_a, spin_b)]
        keeps = [abs(x.chi_plus - y.chi_plus) < 1e-12
                 for x, y in zip(spin_a, spin_b)]
        assert any(flips) and any(keeps)
        assert all(f or k for f, k in zip(flips, keeps))

    def test_tail_bound_monotone_in_cutoff(self, real_group):
        point, _, _ = real_group
        bounds = []
        for cutoff in (4, 5, 6):
            terms = terms_from_group(point.generators, cutoff)
            bounds.append(shell_tail_bound(terms, 2, 0.0))
        assert bounds[0] >= bounds[1] >= bounds[2]
        assert bounds[2] > 0.0

    def test_budget_with_metadata(self, complex_groups):
        point, est, terms = complex_groups["g2_complex_a"]
        value, budget = eta_central_with_budget(terms, rank=2,
                                                delta_hat=est.delta_hat)
        assert budget > 0.0
        assert abs(value - eta(terms, "central_value")) < 1e-15
