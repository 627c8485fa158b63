import cmath
import math

import numpy as np
import pytest

import heap_quadrature
from oddzeta import kernels, quadrature, zeta
from oddzeta.config import load_config
from oddzeta.errors import NoConvergence
from oddzeta.quadrature import integrate_batch
from oddzeta.zeta import eta, terms_from_group
from test_words import _workloads


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


# --- the heap reference -------------------------------------------------------


def _peak(x):
    return 1.0 / (1e-4 + (x - 0.3) ** 2)


def _refusal(fs, a, b, core=quadrature):
    """The NoConvergence text of the batch of scalar integrands fs."""
    with pytest.raises(NoConvergence) as info:
        core.integrate_batch(_scalar_rows(fs), a, b, 1e-12, 1e-12)
    return str(info.value)


def test_non_finite_panel_in_a_later_row_refused_as_alone():
    # x * x converges in the first round and leaves the store, so the
    # peak's rows move up; the last peak is inf at x = 0.75, the centre
    # node of its second-round panel [0.5, 1.0]
    def bad(x):
        return math.inf if x == 0.75 else _peak(x)

    fs, a, b = [lambda x: x * x, _peak, bad], [0.0, -1.0, 0.0], [2.0, 1.0, 1.0]
    alone = _refusal([bad], [0.0], [1.0])
    assert alone == (
        "quadrature over [0.0, 1.0]: panel [0.5, 1.0] has value "
        "(inf+0j) and error estimate nan, not finite")
    assert _refusal(fs, a, b) == alone
    assert _refusal(fs, a, b, heap_quadrature) == alone


def test_budget_exhaustion_in_one_row_refused_as_alone(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 16)

    def singular(x):
        return abs(x - 1.0 / math.pi) ** -0.9

    fs = [lambda x: x * x, lambda x: cmath.exp(1j * x), singular, _peak]
    a, b = [0.0, 0.0, -0.5, 0.0], [1.0, 1.0, 1.0, 1.0]
    alone = _refusal([singular], [-0.5], [1.0])
    assert alone.startswith("quadrature over [-0.5, 1.0] did not reach "
                            "tolerance: error ")
    assert alone.endswith(" with 15 panels, limit 16")
    assert _refusal(fs, a, b) == alone
    assert _refusal(fs, a, b, heap_quadrature) == alone


def test_ties_split_the_oldest_panel():
    # every panel of one width has the same estimate, so each round is a
    # tie: both cores split the oldest panel, and evaluate the same nodes
    # in the same calls
    pattern = np.cos(np.arange(15.0))

    def rounds(core):
        calls = []

        def f(rows, x):
            calls.append((rows.tolist(), x.tolist()))
            return np.round(x[:, :1] - x[:, 1:2], 6) ** 2 * pattern

        _, _, panels = core.integrate_batch(f, [0.0, 0.0], [1.0, 2.0],
                                            1e-6, 1e-6)
        return panels, calls

    panels, calls = rounds(quadrature)
    assert min(panels) > 10
    assert (panels, calls) == rounds(heap_quadrature)


def _live_panel_sums(f, a, b, tol_abs, tol_rel, monkeypatch):
    """integrate_batch's result, and per row the sum of |value| over the
    panels it ends with, the scale of its summation order's rounding."""
    seen = []
    panels = quadrature._panels

    def spy(f, rows, lo, hi):
        est = panels(f, rows, lo, hi)
        seen.extend(zip(rows.tolist(), lo.tolist(), hi.tolist(),
                        np.hypot(est[:, 1], est[:, 2]).tolist()))
        return est

    monkeypatch.setattr(quadrature, "_panels", spy)
    result = integrate_batch(f, a, b, tol_abs, tol_rel)
    monkeypatch.undo()
    made = {(i, lo, hi) for i, lo, hi, _ in seen}
    sums = [0.0] * len(a)
    for i, lo, hi, size in seen:
        if (i, lo, 0.5 * (lo + hi)) not in made:  # never bisected
            sums[i] += size
    return result, sums


#: The reordering bound: a row's value lies within REORDER * eps * the
#: sum of |panel value| of the heap core's, and its error bound within
#: REORDER * eps of the heap core's, a sum of nonnegative estimates.
#: The bench kernels grid on seeds 0-10 moves them by at most 3.2 and
#: 2.9 eps.
REORDER = 8


def _bench_config(seed, name, tmp_path):
    path = tmp_path / name
    path.write_text(_workloads().generate(seed)[name])
    return load_config(str(path))


@pytest.mark.parametrize("seed", range(11))
def test_gaussian_check_matches_the_heap_core(seed, tmp_path, monkeypatch):
    # the bench kernels grid's one lockstep call: the same panels as the
    # heap core, each total reordered within the bound
    config = _bench_config(seed, "kernels.cfg", tmp_path)
    calls = []

    def capture(f, a, b, tol_abs, tol_rel):
        calls.append((f, a, b, tol_abs, tol_rel))
        return integrate_batch(f, a, b, tol_abs, tol_rel)

    monkeypatch.setattr(kernels, "integrate_batch", capture)
    kernels.gaussian_time_integral_quadrature(
        np.array(config.lambda_grid), np.array(config.r_grid)[:, None],
        tol=config.quad_tol)
    monkeypatch.undo()
    (args,) = calls
    (values, errors, panels), sums = _live_panel_sums(*args, monkeypatch)
    ref_values, ref_errors, ref_panels = heap_quadrature.integrate_batch(*args)
    assert panels == ref_panels
    eps = np.finfo(float).eps
    for value, ref, size in zip(values, ref_values, sums):
        assert abs(value - ref) <= REORDER * eps * size
    for error, ref in zip(errors, ref_errors):
        assert abs(error - ref) <= REORDER * eps * ref


@pytest.mark.parametrize("seed", range(11))
def test_eta_routes_match_the_heap_core(seed, tmp_path, monkeypatch):
    # the bench thick point's two quadrature routes, a one-row and a
    # two-row batch: the same panels, and the same eta bit for bit
    config = _bench_config(seed, "eta_thick.cfg", tmp_path)
    terms = terms_from_group(config.generators, config.word_cutoff,
                             config.delta_cutoff)
    for route in ("lambda_integral", "heat_quadrature"):
        runs = {}
        for core in (quadrature, heap_quadrature):
            panels = []

            def count(*args, core=core):
                result = core.integrate_batch(*args)
                panels.append(result[2])
                return result

            monkeypatch.setattr(zeta, "integrate_batch", count)
            runs[core] = (eta(terms, route, config.quad_tol), panels)
        assert runs[quadrature] == runs[heap_quadrature]


# --- the node and slot sums ---------------------------------------------------


def _float_bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("k", [1, 15, 33, 600])
def test_panels_equal_the_accumulate_form(k):
    # the node sums, one addition per node, against the heap core's
    # running sum over the (panel, node) axis: the same value and
    # estimate bit for bit, an inf and a NaN node included
    rng = np.random.default_rng(k)
    a = rng.uniform(-2.0, 2.0, k)
    b = a + rng.uniform(-1e-3, 3.0, k)
    rows = np.arange(k) % 3

    def f(rows, x):
        fx = np.exp(-x * x) * (1.0 + 0.5j * rows[:, None]) + np.sin(7.0 * x)
        fx[0, 7] = complex(np.inf, 0.0)
        fx[-1, 3] = np.nan
        return fx

    got = quadrature._panels(f, rows, a, b)
    values, errors = heap_quadrature._panels(f, rows, a, b)
    assert _float_bits(got[:, 0]) == _float_bits(errors)
    values = np.array(values, dtype=complex)
    assert _float_bits(got[:, 1]) == _float_bits(values.real)
    assert _float_bits(got[:, 2]) == _float_bits(values.imag)
    assert not np.isfinite(got[0]).all() and np.isnan(got[-1, 1])


def test_totals_are_the_slot_sums_in_creation_order(monkeypatch):
    # each row's totals are the running sum of its panels in the order
    # they were made, a bisected panel's slot counting +0.0: two rows
    # with more slots than numpy's pairwise sum adds one by one, and a
    # reversed interval whose imaginary parts are all -0.0
    fs = [lambda x: cmath.exp(1j * x) / (0.01 + x * x), _peak,
          lambda x: -x * x, lambda x: 1.0]
    a, b = [-1.0, 0.0, 0.0, 0.0], [2.0, 1.0, -1.0, 3.0]
    seen = []
    panels = quadrature._panels

    def spy(f, rows, lo, hi):
        est = panels(f, rows, lo, hi)
        seen.extend(zip(rows.tolist(), lo.tolist(), hi.tolist(),
                        est.tolist()))
        return est

    monkeypatch.setattr(quadrature, "_panels", spy)
    values, errors, counts = integrate_batch(_scalar_rows(fs), a, b,
                                             1e-11, 1e-11)
    made = {(i, lo, hi) for i, lo, hi, _ in seen}
    assert counts[0] > 8 and counts[1] > 8
    for i in range(len(fs)):
        slots = [est if (i, lo, 0.5 * (lo + hi)) not in made else [0.0] * 3
                 for row, lo, hi, est in seen if row == i]
        assert len(slots) == counts[i]
        total = slots[0]
        for slot in slots[1:]:
            total = [s + v for s, v in zip(total, slot)]
        assert _float_bits(total) == _float_bits(
            [errors[i], values[i].real, values[i].imag])
