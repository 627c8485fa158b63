import cmath
import math

import pytest

from oddzeta import quadrature
from oddzeta.errors import NoConvergence
from oddzeta.quadrature import integrate_batch


def _scalar_rows(fs):
    """The batch integrand evaluating row i's scalar integrand fs[i]."""
    def f(rows, x):
        return [[fs[i](t) for t in panel] for i, panel in zip(rows, x.tolist())]
    return f


def integrate(f, a, b, tol_abs=1e-12, tol_rel=1e-12):
    """(value, error bound) of one scalar integrand: a one-row batch."""
    values, errors, _ = integrate_batch(_scalar_rows([f]), [a], [b],
                                        tol_abs, tol_rel)
    return values[0], errors[0]


def test_polynomial_exact():
    value, err = integrate(lambda x: x * x, 0.0, 1.0)
    assert abs(value - 1.0 / 3.0) < 1e-14
    assert err >= abs(value - 1.0 / 3.0)


def test_oscillatory_complex_integrand():
    # int_0^pi e^{i x} dx = 2i
    value, err = integrate(lambda x: cmath.exp(1j * x), 0.0, math.pi)
    assert abs(value - 2j) < 1e-12
    assert err >= abs(value - 2j)


def test_gaussian_tail():
    value, err = integrate(lambda x: math.exp(-x * x), 0.0, 8.0,
                           tol_abs=1e-13, tol_rel=1e-13)
    assert abs(value - 0.5 * math.sqrt(math.pi)) < 1e-12
    assert err >= abs(value - 0.5 * math.sqrt(math.pi))


def test_error_estimate_bounds_true_error_on_peaked_integrand():
    # sharp peak forces adaptive refinement; the reported bound must hold
    peak = lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2)
    value, err = integrate(peak, 0.0, 1.0, tol_abs=1e-10, tol_rel=1e-10)
    exact = (math.atan(0.7 / 1e-2) + math.atan(0.3 / 1e-2)) / 1e-2
    assert abs(value - exact) <= max(err, 1e-9 * exact)


def test_panel_budget_exhaustion_raises(monkeypatch):
    # before, the message read "17 panels" against a limit of 16
    monkeypatch.setattr(quadrature, "MAX_PANELS", 16)
    with pytest.raises(NoConvergence, match="with 15 panels, limit 16"):
        integrate(lambda x: abs(x - 1.0 / math.pi) ** -0.9, 0.0, 1.0,
                  tol_abs=1e-14, tol_rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_panel_refused_at_once(bad):
    # before, a NaN integrand bisected to 4 097 panels before it raised
    calls = []

    def f(x):
        calls.append(x)
        return bad

    with pytest.raises(NoConvergence, match=r"panel \[0.0, 1.0\] .* not finite"):
        integrate(f, 0.0, 1.0)
    assert len(calls) == 15


def test_batch_rows_are_the_scalar_integrals():
    # peaks of different widths need very different panel counts; each
    # row must be exactly the integral run alone, whatever shares its rounds
    fs = [lambda x: x * x, lambda x: cmath.exp(1j * x),
          lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2),
          lambda x: 1.0 / (1e-2 + (x + 0.7) ** 2) + 0.5j, lambda x: 1.0]
    a, b = [0.0, 0.0, -1.0, -1.0, 2.0], [1.0, math.pi, 1.0, 1.0, 2.0]
    values, errors, panels = integrate_batch(_scalar_rows(fs), a, b,
                                             1e-12, 1e-12)
    assert panels[2] > 10 * panels[0] and panels[4] == 0
    for i, f in enumerate(fs):
        alone = integrate_batch(_scalar_rows([f]), [a[i]], [b[i]],
                                1e-12, 1e-12)
        assert alone == ([values[i]], [errors[i]], [panels[i]])


def test_empty_interval():
    value, err = integrate(lambda x: 1.0, 2.0, 2.0)
    assert value == 0.0 and err == 0.0
