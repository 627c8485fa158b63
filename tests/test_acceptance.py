"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
import random
import time

import numpy as np
from toyterms import primitive_term, toy_list

from oddzeta.clifford import CliffordElement
from oddzeta.kernels import (
    c_lambda,
    gaussian_time_integral,
    gaussian_time_integral_quadrature,
)
from oddzeta.moebius import HalfSpacePoint
from oddzeta.sample_groups import sample_group
from oddzeta.special import hyp2f1
from oddzeta.transport import (
    TransportPair,
    adjoint_action,
    boundary_limit_transport,
    spinor_transport,
    tau_matrix,
)
from oddzeta.words import enumerate_classes, estimate_delta
from oddzeta.zeta import (
    eta,
    odd_heat_trace,
    terms_from_group,
    zeta_odd,
    zeta_odd_signature_product,
)
from oddzeta.zograf import check_eta_F_identity, pluriharmonicity_scan, zograf_F

IDENTITY_RESIDUAL_TOL = 1e-3
IDENTITY_TAIL_BUDGET = 1e-4
IDENTITY_RUNTIME_S = 60.0
CENTRAL_VALUE_TOL = 1e-6
ROUTE_TOL_GROUPS = 1e-4
ROUTE_TOL_TOYS = 1e-6
UNITARITY_TOL = 1e-6
REAL_ETA_TOL = 1e-10
REAL_IMF_TOL = 1e-12
GAUSSIAN_REL_TOL = 1e-8
GAUSSIAN_RUNTIME_S = 1.0
TRANSPORT_TOL = 1e-12
HEAT_SMALL_T_REL = 0.05
HEAT_SLOPE_BAND = (-1.6, -1.4)
COMBINATORICS_RUNTIME_S = 10.0
F1_TOL = 1e-9
CLAMBDA_TOL = 1e-12
FD_ORACLE_TOL = 1e-8


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_eta_factorization_identity(complex_groups):
    from oddzeta.moebius import geodesic_invariants

    worst_resid = 0.0
    worst_budget = 0.0
    worst_time = 0.0
    for name, (point, est, _) in complex_groups.items():
        assert est.delta_hat < -0.05
        for gen in point.generators:
            assert geodesic_invariants(gen).length > 6.0
        t0 = time.perf_counter()
        identity_est = estimate_delta(point.generators, 6)
        terms = terms_from_group(point.generators, 6, "signature")
        rep = check_eta_F_identity(terms, 40, identity_est.delta_hat, 2)
        elapsed = time.perf_counter() - t0
        worst_resid = max(worst_resid, rep.residual)
        worst_budget = max(worst_budget, rep.error_budget)
        worst_time = max(worst_time, elapsed)
    ok = (worst_resid < IDENTITY_RESIDUAL_TOL
          and worst_budget < IDENTITY_TAIL_BUDGET
          and worst_time < IDENTITY_RUNTIME_S)
    report(1, ok, f"3 groups, residual <= {worst_resid:.2e}, "
                  f"budget <= {worst_budget:.2e}, time <= {worst_time:.2f}s")


def test_criterion_02_central_value_identity(complex_groups):
    worst = 0.0
    for name, (point, est, sig_terms) in complex_groups.items():
        for terms in (sig_terms,
                      terms_from_group(point.generators, 6, "spinor")):
            eta_int = eta(terms, "lambda_integral", delta_hat=est.delta_hat,
                          rank=2)
            z0 = zeta_odd(terms, 0.0, rank=2, delta_hat=est.delta_hat).value
            worst = max(worst, abs(cmath.exp(1j * math.pi * eta_int) - z0))
    ok = worst < CENTRAL_VALUE_TOL
    report(2, ok, f"|e^(i pi eta) - Z_odd(0)| <= {worst:.2e} "
                  "(lambda-integral route, both variants)")


def test_criterion_03_route_agreement(complex_groups):
    worst_group = 0.0
    for name, (point, est, terms) in complex_groups.items():
        values = [eta(terms, route, delta_hat=est.delta_hat, rank=2)
                  for route in ("central_value", "lambda_integral",
                                "heat_quadrature")]
        for i in range(3):
            for k in range(i + 1, 3):
                worst_group = max(worst_group, abs(values[i] - values[k]))
    worst_toy = 0.0
    toys = toy_list([0.25j, 0.15 * cmath.exp(0.9j), 0.05 * cmath.exp(-2.0j)])
    toy_values = [eta(toys, route) for route in
                  ("central_value", "lambda_integral", "heat_quadrature")]
    for i in range(3):
        for k in range(i + 1, 3):
            worst_toy = max(worst_toy, abs(toy_values[i] - toy_values[k]))
    ok = worst_group < ROUTE_TOL_GROUPS and worst_toy < ROUTE_TOL_TOYS
    report(3, ok, f"pairwise eta routes: groups <= {worst_group:.2e}, "
                  f"toys <= {worst_toy:.2e}")


def test_criterion_04_unitarity_of_central_value(complex_groups):
    worst = 0.0
    for name, (point, est, terms) in complex_groups.items():
        assert est.delta_hat < 0
        z0 = zeta_odd(terms, 0.0, rank=2, delta_hat=est.delta_hat).value
        worst = max(worst, abs(abs(z0) - 1.0))
    ok = worst < UNITARITY_TOL
    report(4, ok, f"||Z_odd(0)| - 1| <= {worst:.2e} on all groups")


def test_criterion_05_real_group_symmetry(real_group):
    point, est, terms = real_group
    worst_eta = max(abs(eta(terms, route, delta_hat=est.delta_hat, rank=2))
                    for route in ("central_value", "lambda_integral",
                                  "heat_quadrature"))
    f_eval = zograf_F([t for t in terms if t.j == 1], 50, rank=2)
    ok = worst_eta < REAL_ETA_TOL and abs(f_eval.value.imag) < REAL_IMF_TOL
    report(5, ok, f"real generators: |eta| <= {worst_eta:.2e}, "
                  f"|Im F| = {abs(f_eval.value.imag):.2e}")


def test_criterion_06_gaussian_time_integral():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
        for r in (0.5, 1.0, 2.0, 4.0, 8.0):
            closed = gaussian_time_integral(lam, r)
            quad, _ = gaussian_time_integral_quadrature(lam, r)
            worst = max(worst, abs(closed - quad) / abs(closed))
    elapsed = time.perf_counter() - t0
    ok = worst < GAUSSIAN_REL_TOL and elapsed < GAUSSIAN_RUNTIME_S
    report(6, ok, f"5x5 grid, relative error <= {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_parallel_transport():
    rng = random.Random(77)
    worst_orth = worst_det = worst_cover = 0.0
    for i in range(100):
        x = 1e-8 if i % 10 == 0 else rng.uniform(0.05, 3.0)
        xp = 1e-8 if i % 10 == 5 else rng.uniform(0.05, 3.0)
        d = rng.choice([1, 2, 3, 4])
        p = TransportPair(
            HalfSpacePoint(x, tuple(rng.uniform(-3, 3) for _ in range(d))),
            HalfSpacePoint(xp, tuple(rng.uniform(-3, 3) for _ in range(d))),
        )
        t = tau_matrix(p)
        worst_orth = max(worst_orth, float(np.max(np.abs(t.T @ t - np.eye(d + 1)))))
        worst_det = max(worst_det, abs(np.linalg.det(t) - 1.0))
        u = spinor_transport(p)
        pi_u = np.column_stack(
            [adjoint_action(u, v) for v in np.eye(d + 1)]
        )
        worst_cover = max(worst_cover, float(np.max(np.abs(pi_u - t))))
    limit_ok = True
    target = CliffordElement.scalar(3, 0.0) - (
        CliffordElement.basis_vector(3, 0) * CliffordElement.basis_vector(3, 1)
    )
    for r in (1e2, 1e4, 1e6):
        err = (boundary_limit_transport((1.0, 0.0), r) - target).norm()
        limit_ok = limit_ok and err < 2.0 / r
    ok = (worst_orth < TRANSPORT_TOL and worst_det < TRANSPORT_TOL
          and worst_cover < TRANSPORT_TOL and limit_ok)
    report(7, ok, f"orthogonality <= {worst_orth:.2e}, det <= {worst_det:.2e}, "
                  f"spin cover <= {worst_cover:.2e}, boundary limit < 2/r")


def test_criterion_08_heat_trace_asymptotics(complex_groups):
    # Small-t suppression rate: the trace formula's Gaussian factor is
    # e^(-l^2/4t), so the measured rate is compared against c^2/4 with
    # c = min l (the criterion's nominal e^(-c^2/t) misstates the
    # constant; see the decisions ledger).
    worst_rel = 0.0
    worst_slope_lo, worst_slope_hi = 0.0, -3.0
    for name, (point, est, terms) in complex_groups.items():
        c2 = min(t.ell for t in terms) ** 2
        t1, t2 = 0.05, 0.1
        measured = (math.log(abs(odd_heat_trace(terms, t1)))
                    - math.log(abs(odd_heat_trace(terms, t2))))
        predicted = -(c2 / 4.0) * (1 / t1 - 1 / t2) - 1.5 * math.log(t1 / t2)
        worst_rel = max(worst_rel, abs(measured - predicted) / abs(predicted))
        slope = ((math.log(abs(odd_heat_trace(terms, 1e4)))
                  - math.log(abs(odd_heat_trace(terms, 1e2))))
                 / math.log(100.0))
        worst_slope_lo = min(worst_slope_lo, slope)
        worst_slope_hi = max(worst_slope_hi, slope)
    ok = (worst_rel < HEAT_SMALL_T_REL
          and HEAT_SLOPE_BAND[0] < worst_slope_lo
          and worst_slope_hi < HEAT_SLOPE_BAND[1])
    report(8, ok, f"small-t Gaussian rate within {worst_rel:.2%}, "
                  f"large-t slope in [{worst_slope_lo:.3f}, {worst_slope_hi:.3f}]")


def test_criterion_09_combinatorics():
    from test_words import brute_force_classes

    t0 = time.perf_counter()
    mine = {c.representative: c.j for c in enumerate_classes(2, 8)}
    brute = brute_force_classes(2, 8)
    elapsed = time.perf_counter() - t0
    ok = mine == brute and elapsed < COMBINATORICS_RUNTIME_S
    report(9, ok, f"{len(mine)} classes at L = 8 match brute force, "
                  f"{elapsed:.2f}s")


def test_criterion_10_special_functions(complex_groups):
    rng = random.Random(7)
    worst_contig = 0.0
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(1, 3), rng.uniform(-1, 1))
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        res = (c * (1 - z) * hyp2f1(a, b, c, z) - c * hyp2f1(a - 1, b, c, z)
               + (c - b) * z * hyp2f1(a, b, c + 1, z))
        worst_contig = max(worst_contig, abs(res) / (abs(c * hyp2f1(a, b, c, z)) + 1))
    gauss = abs(hyp2f1(0.5, 0.5, 2.0, 1.0)
                - math.exp(math.lgamma(2) + math.lgamma(1) - 2 * math.lgamma(1.5)))
    worst_clam = 0.0
    for k in range(-4, 5):
        for j in range(-3, 4):
            lam = 0.1 * k + 0.07j * j
            if abs(lam.imag) < 1e-12 and abs((0.5 - lam).real
                                             - round((0.5 - lam).real)) < 1e-9:
                continue
            worst_clam = max(worst_clam, abs(c_lambda(lam) * c_lambda(-lam) - 1))
    # sum form vs double product within combined tail bounds, toy and group
    base = primitive_term(0.25j)
    from oddzeta.zeta import power_class_terms
    zsum = zeta_odd(power_class_terms(base, 60), 0.0)
    zprod = zeta_odd_signature_product([base], 0.0, 80)
    toy_gap = abs(zsum.value - zprod.value)
    _, est, terms = complex_groups["g2_complex_a"]
    zsum_g = zeta_odd(terms, 0.0, rank=2, delta_hat=est.delta_hat)
    zprod_g = zeta_odd_signature_product([t for t in terms if t.j == 1], 0.0,
                                         60, rank=2, delta_hat=est.delta_hat)
    group_gap = abs(zsum_g.value - zprod_g.value)
    group_budget = zsum_g.tail_bound + zprod_g.tail_bound
    ok = (worst_contig < F1_TOL and gauss < F1_TOL and worst_clam < CLAMBDA_TOL
          and toy_gap < 1e-10 and group_gap <= group_budget)
    report(10, ok, f"2F1 contiguous <= {worst_contig:.2e}, gauss <= {gauss:.2e}, "
                   f"C(lambda) <= {worst_clam:.2e}, zeta sum-vs-product toy "
                   f"{toy_gap:.2e} / group {group_gap:.2e} <= {group_budget:.2e}")


def test_criterion_11_pluriharmonicity():
    base = sample_group("scan_base")
    all_ok = True
    details = []
    harmonic = pluriharmonicity_scan(base, 0, 1e-2, L=4,
                                     value_fn=lambda p: (p[0] ** 3).real)
    nonharmonic = pluriharmonicity_scan(base, 0, 1e-2, L=4,
                                        value_fn=lambda p: abs(p[0]) ** 2)
    all_ok &= abs(harmonic.fd_laplacian) < FD_ORACLE_TOL
    all_ok &= abs(nonharmonic.fd_laplacian - 4.0) < 1e-6
    for idx in range(3):
        rep = pluriharmonicity_scan(base, idx, 5e-3, L=4, delta_cutoff=5)
        all_ok &= abs(rep.fd_laplacian) < rep.error_budget
        details.append(f"p{idx}: |{rep.fd_laplacian:.2e}| < {rep.error_budget:.2e}")
    report(11, bool(all_ok),
           "eta fd-laplacians within budget (" + "; ".join(details)
           + f"), oracles {harmonic.fd_laplacian:.1e} / "
             f"{nonharmonic.fd_laplacian:.6f}")
