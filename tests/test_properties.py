"""Group-level properties over random chart points, at word cutoff 5.

Chart points are drawn in the regime ``sample_groups`` documents:
multipliers |q| < e^-6 and the fixed-point pairs {0, inf} and {1, b2}
far apart (|b2| >= 0.6 with Re b2 <= 0, so |b2 - 1| >= 1).
"""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oddzeta.moebius import MoebiusMap
from oddzeta.words import class_spectra
from oddzeta.zeta import (eta, log_zeta_half, log_zeta_odd, terms_from_group,
                         terms_from_spectrum)
from oddzeta.zograf import (chart_params, check_eta_F_identity,
                            schottky_from_params, zograf_F)

L = 5
M = 30

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None,
                    database=None)

moduli = st.floats(1e-4, 2e-3)
angles = st.floats(-math.pi, math.pi)


@st.composite
def chart_points(draw):
    q1 = cmath.rect(draw(moduli), draw(angles))
    q2 = cmath.rect(draw(moduli), draw(angles))
    b2 = cmath.rect(draw(st.floats(0.6, 3.0)),
                    draw(st.floats(0.5 * math.pi, 1.5 * math.pi)))
    return q1, q2, b2


real_chart_points = st.tuples(moduli, moduli, st.floats(-3.0, -0.6))


def conjugate(generators):
    return tuple(MoebiusMap(m.a.conjugate(), m.b.conjugate(),
                            m.c.conjugate(), m.d.conjugate())
                 for m in generators)


def eta_and_f(generators, variant="signature", spin_sign="plus"):
    terms = terms_from_spectrum(class_spectra([generators], L)[0], variant,
                                spin_sign)
    return (eta(terms, "central_value"),
            zograf_F(terms.select(terms.j == 1), M))


@PROPERTY
@given(chart_points())
def test_conjugation_negates_eta_and_conjugates_f(params):
    gens = schottky_from_params(*params).generators
    eta_value, f_eval = eta_and_f(gens)
    eta_conj, f_conj = eta_and_f(conjugate(gens))
    assert abs(eta_conj + eta_value) <= 1e-15
    assert abs(f_conj.value - f_eval.value.conjugate()) <= 1e-15


@PROPERTY
@given(chart_points())
def test_spin_sign_minus_negates_spinor_eta(params):
    gens = schottky_from_params(*params).generators
    spectrum = class_spectra([gens], L)[0]
    plus = eta(terms_from_spectrum(spectrum, "spinor", "plus"),
               "central_value")
    minus = eta(terms_from_spectrum(spectrum, "spinor", "minus"),
                "central_value")
    assert abs(plus + minus) <= 1e-15


@PROPERTY
@given(chart_points())
def test_identity_residual_within_budget(params):
    gens = schottky_from_params(*params).generators
    report = check_eta_F_identity(terms_from_group(gens, L, 6), M)
    assert report.residual <= report.error_budget
    assert report.central_cross_check <= report.error_budget


@PROPERTY
@given(chart_points())
def test_odd_sum_is_the_half_sum_difference(params):
    terms = terms_from_spectrum(
        class_spectra([schottky_from_params(*params).generators], L)[0])
    for lam in (0.0, 0.3 + 0.2j):
        odd = log_zeta_odd(terms, lam).value
        halves = (log_zeta_half(terms, "+", lam).value
                  - log_zeta_half(terms, "-", lam).value)
        assert abs(odd - halves) <= 4.0 * math.ulp(max(abs(odd), 1.0))


@PROPERTY
@given(real_chart_points)
def test_real_chart_has_zero_eta_and_real_f(params):
    eta_value, f_eval = eta_and_f(schottky_from_params(*params).generators)
    assert abs(eta_value) <= 1e-15
    assert abs(f_eval.log_value.imag) <= 1e-15


@PROPERTY
@given(chart_points(), st.tuples(*[st.floats(-1.0, 1.0)] * 4))
def test_normalize_schottky_keeps_the_spectrum(params, shift):
    # move the family out of normal position by h = [[1, u], [v, 1 + uv]],
    # then back into it by rebuilding it from its chart point, as
    # ``oddzeta scan`` does
    u, v = complex(*shift[:2]), complex(*shift[2:])
    h = MoebiusMap(1.0, u, v, 1.0 + u * v)
    gens = schottky_from_params(*params).generators
    moved = tuple(h @ m @ h.inverse() for m in gens)
    want = class_spectra([gens], L)[0]
    for family in (moved, schottky_from_params(*chart_params(moved)).generators):
        got = class_spectra([family], L)[0]
        assert got.j.tolist() == want.j.tolist()
        assert max(abs(got.ell - want.ell)) <= 1e-12
        # holonomy angles are compared modulo 2 pi (theta = pi may wrap)
        turn = (got.theta - want.theta + math.pi) % (2.0 * math.pi) - math.pi
        assert max(abs(turn)) <= 1e-12
