import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from test_words import ELLIPTIC_AB, _families, scalar_class_spectrum
from toyterms import (
    class_terms,
    conjugated_terms,
    invariants_from_q,
    power_class_terms,
    primitive_term,
    toy_list,
)

from oddzeta.errors import (
    ConvergenceViolation,
    DeltaNotNegative,
    NonPrimitiveInput,
    NotLoxodromic,
)
from oddzeta.moebius import (
    GeodesicInvariants,
    MoebiusMap,
    geodesic_invariants,
)
from oddzeta.quadrature import integrate
from oddzeta.sample_groups import ring_group
from oddzeta.words import PoincareEstimate, class_spectrum
from oddzeta.zeta import (
    _fsum,
    dlog_zeta_odd,
    eta,
    log_zeta_half,
    log_zeta_odd,
    odd_heat_trace,
    shell_tail_bound,
    terms_from_group,
    terms_from_spectrum,
    zeta_odd,
    zeta_odd_signature_product,
)
from oddzeta.zograf import check_eta_F_identity


def at(delta_hat):
    """An exponent estimate of delta_hat, with a point bracket."""
    return PoincareEstimate(delta_hat=delta_hat, bracket=(delta_hat,) * 2)


def chi_pair(terms):
    """(chi_+, chi_-) of a one-class term set."""
    chi = complex(terms.chi[0])
    return chi, chi.conjugate()


def reference_weight_and_character(inv, variant, spin_sign):
    """D and chi_+ of one class, as scalar expressions."""
    chi = (cmath.exp(1j * inv.theta) if variant == "signature"
           else inv.spin_phase / abs(inv.spin_phase))
    return (abs(1.0 - inv.q) ** 2 / abs(inv.q),
            chi if spin_sign == "plus" else chi.conjugate())


class TestClassTerm:
    def test_weight_for_real_multiplier(self):
        inv = geodesic_invariants(MoebiusMap(2.0, 0.0, 0.0, 0.5))  # q = 1/4
        term = class_terms([(inv, 1)], "signature")
        chi_plus, chi_minus = chi_pair(term)
        assert abs(term.D[0] - 2.25) < 1e-15  # (3/4)^2 * 4
        assert abs(chi_plus - chi_minus) < 1e-15  # sin 0 = 0

    def test_characters_at_theta_pi(self):
        inv = geodesic_invariants(MoebiusMap(2j, 0.0, 0.0, -0.5j))  # q = -1/4
        sig_plus, sig_minus = chi_pair(class_terms([(inv, 1)], "signature"))
        spin_plus, spin_minus = chi_pair(class_terms([(inv, 1)], "spinor"))
        assert abs(sig_plus - sig_minus) < 1e-14  # 2i sin(pi) = 0
        assert abs((spin_plus - spin_minus) - 2j) < 1e-14  # 2i sin(pi/2)

    def test_weight_for_complex_multiplier(self):
        q = 0.2 * cmath.exp(1j * math.pi / 3)
        term = primitive_term(q)
        assert abs(term.D[0] - abs(1 - q) ** 2 / 0.2) < 1e-14

    def test_spin_sign_swap(self):
        inv = invariants_from_q(0.25j)
        plus = chi_pair(class_terms([(inv, 1)], "spinor", spin_sign="plus"))
        minus = chi_pair(class_terms([(inv, 1)], "spinor", spin_sign="minus"))
        assert plus[0] == minus[1]
        assert plus[1] == minus[0]

    def test_refuses_unknown_variant_and_sign(self):
        inv = invariants_from_q(0.25j)
        with pytest.raises(ValueError, match="variant"):
            class_terms([(inv, 1)], "odd")
        with pytest.raises(ValueError, match="spin_sign"):
            class_terms([(inv, 1)], spin_sign="both")


class TestLogZetaHalf:
    def test_empty_terms(self):
        ev = log_zeta_half(toy_list([]), "+", 0.0)
        assert ev.value == 0.0
        assert cmath.exp(ev.value) == 1.0

    def test_single_term_value(self):
        inv = geodesic_invariants(MoebiusMap(2.0, 0.0, 0.0, 0.5))
        term = class_terms([(inv, 1)], "signature")
        ev = log_zeta_half(term, "+", 0.0)
        assert abs(ev.value - (-4.0 / 9.0)) < 1e-15

    def test_power_index_divides(self):
        inv = geodesic_invariants(MoebiusMap(2.0, 0.0, 0.0, 0.5))
        t1 = class_terms([(inv, 1)], "signature")
        t2 = class_terms([(inv, 2)], "signature")
        assert abs(2.0 * log_zeta_half(t2, "+", 0.0).value
                   - log_zeta_half(t1, "+", 0.0).value) < 1e-15

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceViolation):
            log_zeta_half(replace(primitive_term(0.1), estimate=at(-0.3)),
                          "+", -0.5)

    def test_json_shape(self):
        ev = log_zeta_half(primitive_term(0.1), "+", 0.25 + 0.5j)
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
        zprod = zeta_odd_signature_product(base, 0.0, 80)
        assert abs(zsum.value - zprod.value) < 1e-10

    def test_sum_vs_product_at_complex_lambda(self):
        base = primitive_term(0.2 * cmath.exp(0.8j))
        terms = power_class_terms(base, 80)
        lam = 0.3 + 0.1j
        zsum = zeta_odd(terms, lam)
        zprod = zeta_odd_signature_product(base, lam, 80)
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
                            lambda terms, re_lam: 750.0)
        base = primitive_term(0.2 * cmath.exp(0.8j))
        for z in (zeta_odd(power_class_terms(base, 20), 0.3),
                  zeta_odd_signature_product(base, 0.3, 20)):
            assert z.tail_bound == math.inf
            assert cmath.isfinite(z.value)
        monkeypatch.setattr("oddzeta.zeta.shell_tail_bound",
                            lambda terms, re_lam: 300.0)
        z = zeta_odd(power_class_terms(base, 20), 0.3)
        assert math.isfinite(z.tail_bound)

    def test_half_zeta_matches_symmetric_power_product(self):
        # Z(sigma_+, lambda) against the independent double product
        # prod_{a,b >= 0} (1 - e^(i theta) q^a conj(q)^b |q|^(lambda+1))
        base = primitive_term(0.2 * cmath.exp(0.6j))
        lam = 0.1
        half = cmath.exp(log_zeta_half(power_class_terms(base, 80), "+", lam).value)
        product = 1.0 + 0.0j
        q, theta = complex(base.q[0]), float(base.theta[0])
        scale = abs(q) ** (lam + 1.0)
        for a in range(81):
            for b in range(81):
                w = q ** a * q.conjugate() ** b * scale
                product *= 1.0 - cmath.exp(1j * theta) * w
        assert abs(half - product) < 1e-10


class TestDlogZetaOdd:
    def test_empty(self):
        assert dlog_zeta_odd(toy_list([]), 1.0) == 0.0

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
        assert abs(term.theta[0] - 0.5 * math.pi) < 1e-15
        for t in (0.4, 0.7, 2.0):
            value = odd_heat_trace(term, t)
            expect = -(4.0 * math.pi / (4.0 * math.pi * t) ** 1.5
                       ) * math.exp(-1.0 / (4 * t)) / term.D[0]
            assert abs(value - expect) < 1e-14 * abs(expect)
            assert value.imag == 0.0

    def test_laplace_transform_matches_dlog(self):
        # int_0^inf e^{-t lam^2} Tr dt = (i/2) dlog Z_odd(lam) at lam = 1
        terms = toy_list([0.25j], max_power=60)
        lam = 1.0
        integrand = lambda u: (u ** -2.0 * cmath.exp(-(lam ** 2) / u)
                               * odd_heat_trace(terms, 1.0 / u))
        left, _ = integrate(integrand, 0.0, 1.0, 1e-12, 1e-12)
        right, _ = integrate(integrand, 1.0, 400.0, 1e-12, 1e-12)
        lhs = left + right
        rhs = 0.5j * dlog_zeta_odd(terms, lam)
        assert abs(lhs - rhs) < 1e-6

    def test_small_t_gaussian_suppression(self):
        # decay rate is min(l)^2 / 4 per the trace formula exponent
        terms = toy_list([0.25j, 0.1j])
        c2 = terms.ell.min() ** 2
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
        closed = (1j * sum(((terms.chi - terms.chi.conj())
                            / (terms.j * terms.D)).tolist()) / math.pi).real
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
            eta(replace(toy_list([0.25j]), estimate=at(0.1)),
                "central_value")

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
        assert np.all(np.diff(terms.word_length) >= 0)
        assert terms.variant == "signature"
        assert len(terms) == len(terms.chi) == len(terms.D)

    def test_terms_match_scalar_reference(self, complex_groups):
        point, _, _ = complex_groups["g2_complex_b"]
        reference = list(scalar_class_spectrum(point.generators, 5))
        for variant, sign in (("signature", "plus"), ("spinor", "minus")):
            terms = terms_from_spectrum(
                class_spectrum(point.generators, 5), variant, sign)
            assert terms.variant == variant
            assert terms.word_length.tolist() == [len(w) for w, _, _ in reference]
            assert terms.j.tolist() == [j for _, j, _ in reference]
            for field, got in (("length", terms.ell), ("theta", terms.theta),
                               ("q", terms.q),
                               ("spin_phase", terms.spin_phase)):
                assert got.tolist() == [getattr(inv, field)
                                        for _, _, inv in reference]
            weights, characters = zip(*(
                reference_weight_and_character(inv, variant, sign)
                for _, _, inv in reference))
            assert terms.D.tolist() == list(weights)
            assert terms.chi.tolist() == list(characters)

    @pytest.mark.parametrize("family", ["thick", "real_pair", "ring5"])
    def test_weights_and_characters_bit_identical(self, family):
        # the float real_pair has real multipliers, so every theta is -0.0
        gens, L = _families()[family] if family != "real_pair" else (
            _families()["float_real_pair"][0], 6)
        spectrum = class_spectrum(gens, min(L, 6))
        rows = [GeodesicInvariants(length=ell, theta=theta, q=q, mu=None,
                                   attracting=None, repelling=None,
                                   spin_phase=phase)
                for ell, theta, q, phase in zip(
                    spectrum.ell.tolist(), spectrum.theta.tolist(),
                    spectrum.q.tolist(), spectrum.spin_phase.tolist())]
        for variant in ("signature", "spinor"):
            for sign in ("plus", "minus"):
                terms = terms_from_spectrum(spectrum, variant, sign)
                weights, characters = zip(*(
                    reference_weight_and_character(inv, variant, sign)
                    for inv in rows))
                assert list(map(repr, terms.D.tolist())) == list(
                    map(repr, weights))
                assert list(map(repr, terms.chi.tolist())) == list(
                    map(repr, characters))

    def test_first_non_loxodromic_class_refused(self):
        # ab and its inverse BA are elliptic; BA is first in class order
        with pytest.raises(NotLoxodromic) as reference:
            list(scalar_class_spectrum(ELLIPTIC_AB, 3))
        with pytest.raises(NotLoxodromic) as refused:
            terms_from_group(ELLIPTIC_AB, 3, 4)
        assert str(refused.value) == str(reference.value) == (
            "word BA is elliptic, not loxodromic")

    def test_spinor_terms_unit_characters(self, complex_groups):
        point, _, _ = complex_groups["g2_complex_b"]
        spin_terms = terms_from_spectrum(class_spectrum(point.generators, 3),
                                         "spinor")
        assert np.all(np.abs(np.abs(spin_terms.chi) - 1.0) < 1e-12)
        assert np.all(np.abs(spin_terms.chi - spin_terms.spin_phase
                             / np.abs(spin_terms.spin_phase)) < 1e-12)

    def test_sums_do_not_depend_on_term_order(self, complex_groups):
        # correctly rounded sums: any permutation gives the same bits
        _, _, terms = complex_groups["g2_complex_a"]
        order = list(range(len(terms)))
        random.Random(6).shuffle(order)
        shuffled = terms.select(np.array(order))
        assert not np.array_equal(shuffled.ell, terms.ell)
        for sign in ("+", "-"):
            for lam in (0.0, 0.4 - 0.3j):
                assert (log_zeta_half(shuffled, sign, lam)
                        == log_zeta_half(terms, sign, lam))
        for lam in (0.0, 0.4 - 0.3j):
            assert log_zeta_odd(shuffled, lam) == log_zeta_odd(terms, lam)
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
        spectrum_a = class_spectrum(point.generators, 4)
        spectrum_b = class_spectrum(flipped, 4)
        sig_a = terms_from_spectrum(spectrum_a)
        sig_b = terms_from_spectrum(spectrum_b)
        assert np.all(np.abs(sig_a.chi - sig_b.chi) < 1e-12)
        spin_a = terms_from_spectrum(spectrum_a, "spinor").chi
        spin_b = terms_from_spectrum(spectrum_b, "spinor").chi
        flips = (np.abs(spin_a + spin_b) < 1e-12) & (np.abs(spin_a) > 0.9)
        keeps = np.abs(spin_a - spin_b) < 1e-12
        assert flips.any() and keeps.any()
        assert np.all(flips | keeps)

    def test_tail_bound_monotone_in_cutoff(self, real_group):
        point, _, _ = real_group
        bounds = []
        for cutoff in (4, 5, 6):
            terms = terms_from_spectrum(class_spectrum(point.generators,
                                                       cutoff))
            bounds.append(shell_tail_bound(terms, 0.0))
        assert bounds[0] >= bounds[1] >= bounds[2]
        assert bounds[2] > 0.0

    def test_budget_with_metadata(self, complex_groups):
        point, est, terms = complex_groups["g2_complex_a"]
        log_odd = log_zeta_odd(terms, 0.0)
        assert log_odd.tail_bound > 0.0
        assert abs(log_odd.value.imag / math.pi
                   - eta(terms, "central_value")) < 1e-15

    def test_odd_tail_is_both_halves(self, complex_groups):
        _, _, terms = complex_groups["g2_complex_a"]
        for lam in (0.0, 0.3 + 0.2j):
            halves = [log_zeta_half(terms, sign, lam).tail_bound
                      for sign in ("+", "-")]
            assert (log_zeta_odd(terms, lam).tail_bound
                    == halves[0] + halves[1] > 0.0)

    # bounds of the shell model with the rank given as len(generators);
    # ring_group() has rank 5, and rank 2 would give 11.5 at re_lam = 0.5
    @pytest.mark.parametrize("family,L,re_lam,bound", [
        ("g2_complex_a", 6, 0.0, 2.889760363272307e-15),
        ("g2_complex_a", 6, 0.5, 1.4246151948744302e-24),
        ("ring", 3, 0.0, math.inf),
        ("ring", 3, 0.5, math.inf),
        ("ring", 3, 2.0, 2.1759715271257103),
    ])
    def test_tail_bound_reads_rank_from_spectrum(self, complex_groups, family,
                                                 L, re_lam, bound):
        if family == "ring":
            gens = ring_group()
        else:
            gens = complex_groups[family][0].generators
        terms = terms_from_spectrum(class_spectrum(gens, L))
        assert shell_tail_bound(terms, re_lam) == bound


#: The five sums over the terms, each at lambda
SUMS = {
    "log_zeta_half": lambda terms, lam: log_zeta_half(terms, "+", lam),
    "log_zeta_odd": log_zeta_odd,
    "zeta_odd": zeta_odd,
    "zeta_odd_signature_product":
        lambda terms, lam: zeta_odd_signature_product(terms, lam, 10),
    "dlog_zeta_odd": dlog_zeta_odd,
}

#: The two computations that need delta_hat < 0
NEGATIVE_DELTA = {
    "eta": lambda terms: eta(terms, "central_value"),
    "check_eta_F_identity": lambda terms: check_eta_F_identity(terms, 10),
}


class TestAbscissaGuard:
    """The terms carry their delta_hat, and every sum checks it."""

    @pytest.mark.parametrize("name", list(SUMS))
    def test_sum_refused_at_the_abscissa(self, name):
        delta_hat = -0.3
        terms = replace(primitive_term(0.1), estimate=at(delta_hat))
        with pytest.raises(ConvergenceViolation):
            SUMS[name](terms, delta_hat + 0.5j)
        SUMS[name](terms, delta_hat + 0.01)

    @pytest.mark.parametrize("name", list(NEGATIVE_DELTA))
    @pytest.mark.parametrize("delta_hat", [0.0, 0.1])
    def test_refused_without_a_negative_delta(self, name, delta_hat):
        terms = replace(primitive_term(0.1), estimate=at(delta_hat))
        with pytest.raises(DeltaNotNegative):
            NEGATIVE_DELTA[name](terms)
        NEGATIVE_DELTA[name](replace(terms, estimate=at(-0.01)))

    @pytest.mark.parametrize("name", list(SUMS) + list(NEGATIVE_DELTA))
    def test_terms_without_an_estimate_never_refused(self, name):
        terms = primitive_term(0.1)
        assert terms.estimate is None
        if name in SUMS:
            SUMS[name](terms, -0.9)
        else:
            NEGATIVE_DELTA[name](terms)

    def test_estimate_survives_select(self, complex_groups):
        _, _, terms = complex_groups["g2_complex_a"]
        assert terms.estimate is not None
        assert terms.select(terms.j == 1).estimate == terms.estimate


class TestFsum:
    def test_correctly_rounded_over_wide_range(self):
        # terms spread over 24 decades: the sum is the exact rational sum
        # rounded once, whatever the order of the terms
        rng = random.Random(11)
        terms = np.exp([math.log(rng.uniform(0.01, 1.0))
                        + rng.randint(-8, 16) * math.log(10.0)
                        for _ in range(5000)])
        exact = float(sum(Fraction(x) for x in terms.tolist()))
        assert sum(terms.tolist()) != exact  # left-to-right summation misses
        total = _fsum(terms)
        assert total == complex(math.fsum(terms.tolist()), 0.0)
        assert total.real == exact
        assert _fsum(terms[::-1]) == total

    def test_zero_imaginary_parts_give_plus_zero(self):
        values = np.array([1.5 - 0.0j, -0.25 + 0.0j, 2.0 - 0.0j])
        total = _fsum(values)
        assert total == complex(math.fsum([1.5, -0.25, 2.0]), 0.0)
        assert math.copysign(1.0, total.imag) == 1.0
        assert _fsum(np.array([1.0 + 2.0j, 0.5 - 3.0j])) == 1.5 - 1.0j
