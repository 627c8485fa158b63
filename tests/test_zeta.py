import cmath
import math
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_words import (ELLIPTIC_AB, _families, ring_group,
                        scalar_class_spectrum, ulps)
from toyterms import (
    class_terms,
    conjugated_terms,
    invariants_from_q,
    power_class_terms,
    primitive_term,
    toy_list,
    zeta_odd_signature_product,
)

from oddzeta.errors import (
    ConvergenceViolation,
    DeltaNotNegative,
    NotLoxodromic,
)
from oddzeta.moebius import (
    GeodesicInvariants,
    MoebiusMap,
    geodesic_invariants,
)
from oddzeta.quadrature import integrate_batch
from oddzeta import words
from oddzeta.words import (PoincareEstimate, class_spectra, cycle_expansion,
                           estimate_deltas)
from oddzeta.zeta import (
    _SUM_BLOCK,
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
)
from oddzeta.zograf import check_eta_F_identity


def at(delta_hat):
    """An exponent estimate of delta_hat, with a point bracket."""
    return PoincareEstimate(delta_hat=delta_hat, bracket=(delta_hat,) * 2)


def chi_pair(terms):
    """(chi_+, chi_-) of a one-class term set."""
    chi = complex(terms.chi[0])
    return chi, chi.conjugate()


#: How far D and chi may lie from ``reference_weight_and_character``, in
#: ``ulps``: measured at most 6 and 2.2 (the signature chi bit-equal) on
#: the families of test_words and the eta_thick box (numpy 2.4, x86-64
#: AVX-512), for D = np.abs(1 - q) ** 2 / np.abs(q)
TERM_ULP_BOUNDS = {"D": 8, "chi": 3}


def within_term_bounds(terms, rows, variant, sign):
    """D and chi of ``terms`` within TERM_ULP_BOUNDS of the scalar
    expressions on the invariants ``rows``."""
    weights, characters = zip(*(
        reference_weight_and_character(inv, variant, sign) for inv in rows))
    assert ulps(terms.D, np.array(weights)).max() <= TERM_ULP_BOUNDS["D"]
    assert (ulps(terms.chi, np.array(characters)).max()
            <= TERM_ULP_BOUNDS["chi"])


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

    def test_unit_modulus_on_conjugation_closed_list(self):
        q = 0.2 * cmath.exp(1j * math.pi / 4)
        terms = toy_list([q, q.conjugate()])
        value = zeta_odd(terms, 0.0).value
        assert abs(abs(value) - 1.0) < 1e-14

    def test_tail_above_expm1_range_is_infinite(self, monkeypatch):
        # a finite log tail past ~709.78 overflows expm1; zeta_odd must
        # then report no bound, as shell_tail_bound does
        monkeypatch.setattr("oddzeta.zeta.shell_tail_bound",
                            lambda terms, re_lam: 750.0)
        base = primitive_term(0.2 * cmath.exp(0.8j))
        z = zeta_odd(power_class_terms(base, 20), 0.3)
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

    def test_array_in_the_same_shape_out(self):
        terms = toy_list([0.25j, 0.1 * cmath.exp(0.3j)])
        for lam in (np.array([[0.3, 1.0], [2.5, 0.0]]),
                    np.array([0.2 + 0.5j, 1.0 - 2.0j, 0.7])):
            values = dlog_zeta_odd(terms, lam)
            assert values.shape == lam.shape
            assert values.ravel().tolist() == [
                dlog_zeta_odd(terms, x) for x in lam.ravel().tolist()]
        assert np.shape(dlog_zeta_odd(terms, 0.3)) == ()
        assert dlog_zeta_odd(terms, np.zeros((0, 15))).shape == (0, 15)


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

    def test_array_in_the_same_shape_out(self):
        terms = toy_list([0.25j, 0.1j])
        t = np.array([[0.05, 1.0], [30.0, 2.0]])
        values = odd_heat_trace(terms, t)
        assert values.shape == t.shape and values.dtype == float
        assert values.ravel().tolist() == [
            odd_heat_trace(terms, x) for x in t.ravel().tolist()]
        assert np.shape(odd_heat_trace(terms, 0.5)) == ()

    def test_laplace_transform_matches_dlog(self):
        # int_0^inf e^{-t lam^2} Tr dt = (i/2) dlog Z_odd(lam) at lam = 1
        terms = toy_list([0.25j], max_power=60)
        lam = 1.0
        integrand = lambda u: (u ** -2.0 * cmath.exp(-(lam ** 2) / u)
                               * odd_heat_trace(terms, 1.0 / u))
        # node by node, one row per piece of [0, 400]
        (left, right), _, _ = integrate_batch(
            lambda rows, x: [[integrand(u) for u in panel]
                             for panel in x.tolist()],
            [0.0, 1.0], [1.0, 400.0], 1e-12, 1e-12)
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

    def test_unknown_route_refused_before_the_empty_shortcut(self):
        # empty terms used to give 0.0 whatever the route
        with pytest.raises(ValueError, match="unknown route 'no_such_route'"):
            eta(toy_list([]), "no_such_route")

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


@pytest.fixture(scope="module")
def thick_terms(eta_thick_config):
    """The terms `oddzeta eta` sums on the benchmark's thick point."""
    config = eta_thick_config
    return terms_from_group(config.generators, config.word_cutoff,
                            config.delta_cutoff)


class TestTraceBlock:
    def test_block_size_moves_no_bits(self, thick_terms, monkeypatch):
        # each lambda, t or node is its own row of np.add.reduceat, so the
        # number of rows per block of _TRACE_BLOCK terms moves no bit
        terms, N = thick_terms, thick_terms.cutoff
        lam = np.linspace(0.0, 40.0 / terms.ell.min(), 31)
        t = 1.0 / np.linspace(1e-3, 170.0 / terms.ell.min() ** 2, 31)
        weight = terms.word_length / terms.j * terms.chi / terms.D

        def values():
            # one spectrum is a one-row stack; two are stacked rows
            estimates = (estimate_deltas([terms], N)
                         + estimate_deltas([terms, terms], N))
            arrays = (dlog_zeta_odd(terms, lam),
                      dlog_zeta_odd(terms, lam + 0.5j),
                      odd_heat_trace(terms, t),
                      cycle_expansion(terms, weight, lam - 0.4, N),
                      np.array([[e.delta_hat, *e.bracket] for e in estimates]))
            return [a.view(np.int64).tolist() for a in arrays]

        default = values()
        assert 1 < len(terms) < words._TRACE_BLOCK
        for block in (1, 1 << 22):
            monkeypatch.setattr(words, "_TRACE_BLOCK", block)
            assert values() == default


class TestExactRewrites:
    """Two reported agreements hold class by class in exact arithmetic,
    so they measure rounding, quadrature and the missing powers, never
    the truncation of the spectrum."""

    def test_eta_routes_are_one_closed_form(self, thick_terms):
        # per class, the t- and lambda-integrals are the central value
        # (2/pi) (1/j) Im(q/(1 - q))
        q = thick_terms.q
        closed = 2.0 / math.pi * math.fsum(
            ((q / (1.0 - q)).imag / thick_terms.j).tolist())
        assert abs(eta(thick_terms, "central_value") - closed) <= 1e-15
        for route in ("lambda_integral", "heat_quadrature"):
            assert abs(eta(thick_terms, route) - closed) <= 100 * 1e-11
        # the quadrature integrands read only the odd weight, so a sign
        # slip in another variant or sign shows against its central value
        for variant, sign in (("spinor", "plus"), ("signature", "minus"),
                              ("spinor", "minus")):
            terms = replace(terms_from_spectrum(thick_terms, variant, sign),
                            estimate=thick_terms.estimate)
            central = eta(terms, "central_value")
            for route in ("lambda_integral", "heat_quadrature"):
                assert abs(eta(terms, route) - central) <= 100 * 1e-11

    def test_reported_quadrature_error_bounds_the_observed_error(
            self, thick_terms):
        # the central value is the exact value of both routes, so
        # |route - central| is each route's observed quadrature error
        terms, tol = thick_terms, 1e-11
        central = eta(terms, "central_value")
        ell_min = float(terms.ell.min())
        lmax = 40.0 / ell_min
        (body,), (error,), _ = integrate_batch(
            lambda rows, lam: dlog_zeta_odd(terms, lam), [0.0], [lmax],
            tol, tol)
        tail = 2j * _fsum(terms._odd_weight * np.exp(-lmax * terms.ell))
        route = (1j * (body + tail) / math.pi).real
        assert route == eta(terms, "lambda_integral")
        assert abs(route - central) <= error / math.pi + 1e-15
        u_max = max(2.0, 170.0 / ell_min ** 2)
        halves, errors, _ = integrate_batch(
            lambda rows, u: (np.float_power(u, -1.5)
                             * odd_heat_trace(terms, 1.0 / u)),
            [0.0, 1.0], [1.0, u_max], tol, tol)
        route = ((halves[0] + halves[1]) / math.sqrt(math.pi)).real
        assert route == eta(terms, "heat_quadrature")
        assert (abs(route - central)
                <= (errors[0] + errors[1]) / math.sqrt(math.pi) + 1e-15)

    def test_identity_residual_is_the_missing_powers(self, thick_terms,
                                                     eta_thick_config):
        # arg F + (pi/2) eta_L = -sum (1/k) Im(q0^k/(1 - q0^k)) over the
        # primitive classes gamma_0 and the powers k > L/|gamma_0| that F
        # includes and the length-L sum does not
        L = thick_terms.cutoff
        report = check_eta_F_identity(thick_terms,
                                      eta_thick_config.inner_cutoff)
        primitive = thick_terms.select(thick_terms.j == 1)
        missing = []
        for q0, n in zip(primitive.q.tolist(),
                         primitive.word_length.tolist()):
            for k in range(L // n + 1, 60):
                qk = q0 ** k
                missing.append((qk / (1.0 - qk)).imag / k)
        assert abs(report.arg_f + 0.5 * math.pi * report.eta
                   + math.fsum(missing)) <= 1e-15
        assert abs(math.fsum(missing)) > 1e-9  # the sum is not vacuous


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
                class_spectra([point.generators], 5)[0], variant, sign)
            assert terms.variant == variant
            assert terms.word_length.tolist() == [len(w) for w, _, _ in reference]
            assert terms.j.tolist() == [j for _, j, _ in reference]
            for field, got in (("length", terms.ell), ("theta", terms.theta),
                               ("q", terms.q),
                               ("spin_phase", terms.spin_phase)):
                assert got.tolist() == [getattr(inv, field)
                                        for _, _, inv in reference]
            within_term_bounds(terms, [inv for _, _, inv in reference],
                               variant, sign)

    @pytest.mark.parametrize("family", ["thick", "real_pair", "ring5"])
    def test_weights_and_characters_within_ulps(self, family):
        # the float real_pair has real multipliers, so every theta is -0.0
        gens, L = _families()[family] if family != "real_pair" else (
            _families()["float_real_pair"][0], 6)
        spectrum = class_spectra([gens], min(L, 6))[0]
        rows = [GeodesicInvariants(length=ell, theta=theta, q=q, mu=None,
                                   attracting=None, repelling=None,
                                   spin_phase=phase)
                for ell, theta, q, phase in zip(
                    spectrum.ell.tolist(), spectrum.theta.tolist(),
                    spectrum.q.tolist(), spectrum.spin_phase.tolist())]
        for variant in ("signature", "spinor"):
            for sign in ("plus", "minus"):
                within_term_bounds(terms_from_spectrum(spectrum, variant, sign),
                                   rows, variant, sign)

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
        spin_terms = terms_from_spectrum(
            class_spectra([point.generators], 3)[0],
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
        # the eta integrands are np.add.reduceat rows (words._traces): in
        # either order within a pairwise sum's rounding bound of the
        # correctly rounded sum of the same per-class terms
        ell, a = terms.ell, terms._odd_weight
        steps = math.ceil(math.log2(len(terms)))

        def near_fsum(values, per_class):
            bound = 4 * steps * np.finfo(float).eps * np.abs(per_class).sum()
            for value in values:
                assert abs(value - _fsum(per_class)) <= bound

        for lam in (0.0, 1.5 + 2.0j):
            near_fsum((dlog_zeta_odd(shuffled, lam), dlog_zeta_odd(terms, lam)),
                      2j * ell * a * np.exp(-lam * ell))
        for t in (0.05, 1.0, 30.0):
            near_fsum((odd_heat_trace(shuffled, t), odd_heat_trace(terms, t)),
                      -4.0 * math.pi / (4.0 * math.pi * t) ** 1.5
                      * ell ** 2 * a * np.exp(-ell ** 2 / (4.0 * t)))

    def test_generator_lift_sign_moves_spinor_characters_only(
            self, eta_thick_config):
        # negating generator i changes the spin structure: it negates each
        # class matrix whose word has n_i letters i or i^-1 by (-1)^n_i,
        # exactly, so the spin phase flips by (-1)^n_i bit for bit and
        # length, holonomy and multiplier, which the signature variant
        # reads, stay bit for bit
        gens = eta_thick_config.generators
        g, L = len(gens), eta_thick_config.word_cutoff
        flips = [tuple(-m if k == i else m for k, m in enumerate(gens))
                 for i in range(g)]
        base, *flipped = class_spectra([gens, *flips], L)
        # letter index g + i - 1 is generator i, g - i its inverse
        digits = base.codes[:, None] // (2 * g) ** np.arange(L) % (2 * g)
        inside = np.arange(L) < base.word_length[:, None]
        for i, spectrum in enumerate(flipped, start=1):
            n_i = (inside & ((digits == g + i - 1) | (digits == g - i))).sum(1)
            assert 0 < (n_i % 2).sum() < len(base)
            want = np.where(n_i % 2 == 1, -base.spin_phase, base.spin_phase)
            assert np.array_equal(spectrum.spin_phase.view(np.int64),
                                  want.view(np.int64))
            for field in ("ell", "theta", "q"):
                x, y = getattr(spectrum, field), getattr(base, field)
                assert np.array_equal(x.view(np.int64), y.view(np.int64))

    def test_tail_bound_monotone_in_cutoff(self, real_group):
        point, _, _ = real_group
        bounds = []
        for cutoff in (4, 5, 6):
            terms = terms_from_spectrum(class_spectra([point.generators],
                                                       cutoff)[0])
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
        terms = terms_from_spectrum(class_spectra([gens], L)[0])
        # the bound is about e^(-12 alpha) at ring's re_lam = 2: the few
        # ulps by which the products and invariants may round move it by a
        # relative 1e-14 (measured 1.0e-14 on ring; numpy 2.4, x86-64)
        assert shell_tail_bound(terms, re_lam) == pytest.approx(bound,
                                                                rel=1e-13)


#: The four sums over the terms, each at lambda
SUMS = {
    "log_zeta_half": lambda terms, lam: log_zeta_half(terms, "+", lam),
    "log_zeta_odd": log_zeta_odd,
    "zeta_odd": zeta_odd,
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

    @pytest.mark.parametrize("name", list(SUMS))
    @pytest.mark.parametrize("lam", [math.nan, complex(0.5, math.nan),
                                     complex(0.0, math.inf), -math.inf])
    def test_non_finite_lambda_refused(self, name, lam):
        # NaN passes a Re(lambda) <= delta_hat test, so it is refused
        # first, with or without an estimate
        for estimate in (None, at(-0.3)):
            terms = replace(primitive_term(0.1), estimate=estimate)
            with pytest.raises(ValueError,
                               match=r"^lambda = .* is not finite$"):
                SUMS[name](terms, lam)

    def test_array_refused_at_its_smallest_real_part(self):
        terms = replace(primitive_term(0.1), estimate=at(-0.3))
        with pytest.raises(ConvergenceViolation, match=r"= -0\.3 <="):
            dlog_zeta_odd(terms, np.array([[1.0, 0.5j], [-0.3, 2.0]]))
        with pytest.raises(ValueError, match=r"^lambda = nan is not finite$"):
            dlog_zeta_odd(terms, np.array([1.0, math.nan]))
        dlog_zeta_odd(terms, np.array([1.0, -0.29]))

    @pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
    def test_heat_trace_refuses_t(self, t):
        with pytest.raises(ValueError, match=f"^t = {t} must be positive$"):
            odd_heat_trace(primitive_term(0.1), t)
        with pytest.raises(ValueError, match=f"^t = {t} must be positive$"):
            odd_heat_trace(primitive_term(0.1), np.array([1.0, t]))

    def test_estimate_survives_select(self, complex_groups):
        _, _, terms = complex_groups["g2_complex_a"]
        assert terms.estimate is not None
        assert terms.select(terms.j == 1).estimate == terms.estimate


def fraction_sum(part):
    """The exact sum of a float array rounded once; OverflowError past
    the float range.  Repeated values are counted, so long arrays cost
    what their distinct values do."""
    counts = Counter(part.tolist())
    return float(sum(count * Fraction(value)
                     for value, count in counts.items()))


@st.composite
def fsum_arrays(draw):
    """Real or complex arrays of 0 to more than two blocks, built by
    repeating a drawn pattern: any finite float, subnormals and signed
    zeros included, mantissas at exponents from 2^-1074 to 2^1023,
    cancelling pairs and half-way ties."""
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(math.ldexp, st.floats(-2.0, 2.0, exclude_min=True,
                                        exclude_max=True),
                  st.one_of(st.integers(-1074, 1023),
                            st.integers(-1074, -1000),
                            st.integers(1000, 1023))))
    chunk = st.one_of(
        value.map(lambda v: [v]),
        value.map(lambda v: [v, -v]),
        value.map(lambda v: [v, math.copysign(math.ulp(v) / 2, v)]),
    )

    def pattern():
        return st.lists(chunk, min_size=1, max_size=6).map(
            lambda chunks: [v for c in chunks for v in c])

    size = draw(st.one_of(st.integers(0, 24), st.integers(0, 24),
                          st.integers(2 * _SUM_BLOCK, 2 * _SUM_BLOCK + 24)))
    values = np.resize(np.array(draw(pattern())), size)
    if draw(st.booleans()):
        values = values + 1j * np.resize(np.array(draw(pattern())), size)
    return values


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

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(fsum_arrays())
    def test_matches_math_fsum(self, values):
        try:
            expected = complex(math.fsum(values.real.tolist()),
                               math.fsum(values.imag.tolist()))
        except OverflowError:
            # a partial sum of math.fsum left the float range: _fsum
            # rounds the exact sum, or raises where that is out of range
            try:
                expected = complex(fraction_sum(values.real),
                                   fraction_sum(values.imag))
            except OverflowError:
                with pytest.raises(OverflowError):
                    _fsum(values)
                return
        total = _fsum(values)
        assert total == expected
        assert (math.copysign(1.0, total.real),
                math.copysign(1.0, total.imag)) == (
                    math.copysign(1.0, expected.real),
                    math.copysign(1.0, expected.imag))

    @pytest.mark.parametrize("values", [
        [1.0, 2.0 ** -53],                    # a tie, to even: 1.0
        [1.0, 2.0 ** -53, 5e-324],            # just past the tie
        [5e-324, 5e-324, -2.0 ** -1022],      # subnormal result
        [1e300, 1.0, -1e300],                 # cancellation
        [-0.0, -0.0],
        [],
    ])
    def test_rounding_cases(self, values):
        total = _fsum(np.array(values))
        assert total == complex(math.fsum(values), 0.0)
        assert math.copysign(1.0, total.real) == math.copysign(
            1.0, math.fsum(values))

    @pytest.mark.parametrize("values", [
        [1.0, math.inf],
        [math.nan, 1.0],
        [-math.inf, 2.0, -math.inf],
        [2.5 + 1.0j, 1.0 + complex(0.0, math.inf)],
        [1.0] * (_SUM_BLOCK + 5) + [math.inf],   # in the second block
    ])
    def test_non_finite_as_math_fsum(self, values):
        values = np.array(values)
        total = _fsum(values)
        expected = complex(math.fsum(values.real), math.fsum(values.imag))
        assert (cmath.isnan(total) and cmath.isnan(expected)
                or total == expected)

    @pytest.mark.parametrize("values", [
        [math.inf, -math.inf],
        [1.0 + 0.0j, complex(0.0, math.inf), complex(0.0, -math.inf)],
    ])
    def test_inf_minus_inf_raises_as_math_fsum(self, values):
        with pytest.raises(ValueError, match="-inf \\+ inf in fsum"):
            _fsum(np.array(values))

    def test_exact_sum_past_the_float_range_raises(self):
        top = sys.float_info.max
        for values in ([top, top], [top, math.ulp(top) / 2],
                       [1.0 + 1e308j, 2.0 + 1e308j]):
            with pytest.raises(OverflowError):
                _fsum(np.array(values))
        assert _fsum(np.array([top, math.ulp(top) / 4])) == top

    def test_exact_sum_when_partial_sums_overflow(self):
        # math.fsum raises "intermediate overflow" here; the exact sum is
        # in range and _fsum returns it
        values = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(values)
        assert _fsum(np.array(values)) == 1e308 + 0j
