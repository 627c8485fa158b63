import cmath
import math

import pytest

from oddzeta import quadrature
from oddzeta.errors import NoConvergence
from oddzeta.quadrature import integrate


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
    monkeypatch.setattr(quadrature, "MAX_PANELS", 16)
    with pytest.raises(NoConvergence):
        integrate(lambda x: abs(x - 1.0 / math.pi) ** -0.9, 0.0, 1.0,
                  tol_abs=1e-14, tol_rel=1e-14)


def test_empty_interval():
    value, err = integrate(lambda x: 1.0, 2.0, 2.0)
    assert value == 0.0 and err == 0.0
