import cmath
import math

import pytest
from toyterms import primitive_term, toy_list

from oddzeta.errors import DeltaNotNegative, LeftSchottkyDomain, NonPrimitiveInput
from oddzeta.moebius import geodesic_invariants
from oddzeta.sample_groups import ring_group, sample_group
from oddzeta.words import estimate_delta
from oddzeta.zeta import eta, terms_from_group, zeta_odd
from oddzeta.zograf import (
    check_eta_F_identity,
    pluriharmonicity_scan,
    point_params,
    schottky_from_params,
    zograf_F,
)


class TestSchottkyChart:
    def test_builder_places_anchors(self):
        point = schottky_from_params(0.001 + 0.0005j, 0.002 - 0.001j, -1.0 + 0.5j)
        inv1 = geodesic_invariants(point.generators[0])
        inv2 = geodesic_invariants(point.generators[1])
        assert abs(inv1.attracting) < 1e-12
        assert not math.isfinite(inv1.repelling.real)
        assert abs(inv2.attracting - 1.0) < 1e-10
        assert abs(inv2.repelling - (-1.0 + 0.5j)) < 1e-10
        assert abs(inv1.q - (0.001 + 0.0005j)) < 1e-14
        assert abs(inv2.q - (0.002 - 0.001j)) < 1e-14

    def test_roundtrip_params(self):
        params = (0.0012 + 0.0004j, 0.0009 - 0.0011j, 2.0 + 1.5j)
        point = schottky_from_params(*params)
        recovered = point_params(point)
        assert all(abs(a - b) < 1e-10 for a, b in zip(params, recovered))

    def test_rejects_anchor_collisions(self):
        with pytest.raises(ValueError):
            schottky_from_params(0.001, 0.001, 1.0)
        with pytest.raises(ValueError):
            schottky_from_params(1.2, 0.001, -1.0)


class TestZografF:
    def test_empty_product(self):
        ev = zograf_F([], 10)
        assert ev.value == 1.0
        assert ev.tail_bound == 0.0

    def test_single_small_multiplier(self):
        ev = zograf_F([primitive_term(0.01)], 10)
        expect = 1.0
        for m in range(11):
            expect *= 1.0 - 0.01 ** (1 + m)
        assert abs(ev.value - expect) < 1e-15
        assert abs(ev.value - 0.9899000001000099) < 1e-15  # frozen from the loop

    def test_real_multipliers_give_real_value(self):
        ev = zograf_F([primitive_term(q) for q in (0.3, 0.05, 0.12)], 40)
        assert ev.value.imag == 0.0

    def test_rejects_powers(self):
        base = primitive_term(0.2)
        from oddzeta.zeta import power_class_terms
        with pytest.raises(NonPrimitiveInput):
            zograf_F(power_class_terms(base, 2), 10)

    def test_conjugating_multipliers_conjugates_f(self):
        qs = [0.2 * cmath.exp(0.7j), 0.05 * cmath.exp(-1.2j)]
        forward = zograf_F([primitive_term(q) for q in qs], 50)
        backward = zograf_F([primitive_term(q.conjugate()) for q in qs], 50)
        assert abs(forward.value.conjugate() - backward.value) < 1e-12

    def test_inner_tail_bound_validity(self):
        terms = [primitive_term(0.3 * cmath.exp(0.4j))]
        coarse = zograf_F(terms, 20)
        fine = zograf_F(terms, 30)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound

    def test_central_value_identity_on_symmetric_toy(self):
        # Z_odd(0) = conj(F)/F through two independent code paths
        q = 0.2 * cmath.exp(1j * math.pi / 4)
        sum_terms = toy_list([q, q.conjugate()], max_power=70)
        z0 = zeta_odd(sum_terms, 0.0).value
        f = zograf_F([primitive_term(q), primitive_term(q.conjugate())], 90)
        assert abs(z0 - f.value.conjugate() / f.value) < 1e-10


def identity_report(generators, L, M, delta_cutoff=None):
    """check_eta_F_identity on the group's signature terms at cutoff L."""
    est = estimate_delta(generators, delta_cutoff or max(6, L))
    terms = terms_from_group(generators, L, "signature")
    return check_eta_F_identity(terms, M, est.delta_hat, len(generators))


class TestEtaFIdentity:
    def test_real_group_residual_zero(self):
        point = sample_group("real_pair")
        report = identity_report(point.generators, L=5, M=30)
        assert report.residual < 1e-14
        assert abs(report.eta) < 1e-14
        assert report.f_value.imag == 0.0

    def test_complex_group_identity(self, complex_groups):
        point, _, _ = complex_groups["g2_complex_b"]
        report = identity_report(point.generators, L=6, M=40)
        assert report.residual < 1e-9
        assert report.central_cross_check < 1e-12
        assert report.error_budget < 1e-9

    def test_delta_guard(self):
        with pytest.raises(DeltaNotNegative):
            identity_report(ring_group(), L=3, M=10, delta_cutoff=5)

    def test_refuses_spinor_terms(self, complex_groups):
        point, est, _ = complex_groups["g2_complex_b"]
        spinor = terms_from_group(point.generators, 4, "spinor")
        with pytest.raises(ValueError):
            check_eta_F_identity(spinor, 20, est.delta_hat, 2)

    def test_identity_selects_character_convention(self, complex_groups):
        # with the swapped sigma assignment eta flips sign and the
        # factorization identity misses by pi * |eta|
        from oddzeta.zograf import zograf_F as f_eval
        point, est, terms = complex_groups["g2_complex_b"]
        flipped = terms_from_group(point.generators, 6, "signature",
                                   spin_sign="minus")
        eta_flipped = eta(flipped, "central_value", delta_hat=est.delta_hat)
        f = f_eval([t for t in terms if t.j == 1], 40)
        residual = abs(f.log_value.imag + 0.5 * math.pi * eta_flipped)
        assert residual > 1e-3  # fails decisively for the wrong choice


class TestPluriharmonicityScan:
    def test_harmonic_oracle(self):
        base = sample_group("scan_base")
        rep = pluriharmonicity_scan(base, 2, 1e-2, L=4,
                                    value_fn=lambda p: (p[2] ** 3).real)
        assert abs(rep.fd_laplacian) < 1e-8
        assert rep.error_budget > 0.0

    def test_nonharmonic_oracle(self):
        base = sample_group("scan_base")
        rep = pluriharmonicity_scan(base, 1, 1e-2, L=4,
                                    value_fn=lambda p: abs(p[1]) ** 2)
        assert abs(rep.fd_laplacian - 4.0) < 1e-7

    def test_eta_is_pluriharmonic_at_base_point(self):
        base = sample_group("scan_base")
        for idx in range(3):
            rep = pluriharmonicity_scan(base, idx, 5e-3, L=4, delta_cutoff=5)
            assert abs(rep.fd_laplacian) < rep.error_budget

    def test_leaving_domain_raises(self):
        # q1 + h crosses |q| = 1
        base = schottky_from_params(0.995, 0.0012, -1.0 + 0.5j)
        with pytest.raises(LeftSchottkyDomain):
            pluriharmonicity_scan(base, 0, 1e-2, L=3, delta_cutoff=4)

    def test_parameter_index_validation(self):
        base = sample_group("scan_base")
        with pytest.raises(ValueError):
            pluriharmonicity_scan(base, 3, 1e-2, L=3)
        with pytest.raises(ValueError):
            pluriharmonicity_scan(base, 0, -1e-2, L=3)
