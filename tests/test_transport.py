import math
import random

import numpy as np
import pytest
from clifford_transport import (
    CliffordElement,
    HalfSpacePoint,
    NotInvertible,
    TransportPair,
    UndefinedAtCorner,
    adjoint_action,
    boundary_limit_transport,
    spinor_transport,
    tau_matrix,
)
from test_moebius import apply_h3

from oddzeta.moebius import MoebiusMap


def pair(x, y, xp, yp):
    return TransportPair(HalfSpacePoint(x, y), HalfSpacePoint(xp, yp))


def random_pair(rng, with_boundary=False):
    def height(i):
        if with_boundary and i % 4 == 0:
            return 10.0 ** rng.uniform(-8, -6)
        return rng.uniform(0.05, 3.0)
    d = rng.choice([1, 2, 3, 4])
    return TransportPair(
        HalfSpacePoint(height(0), tuple(rng.uniform(-3, 3) for _ in range(d))),
        HalfSpacePoint(height(1), tuple(rng.uniform(-3, 3) for _ in range(d))),
    )


def spin_projection(u, dim):
    return np.column_stack([adjoint_action(u, v) for v in np.eye(dim)])


class TestCliffordAlgebra:
    def test_vector_square_is_plus_one(self):
        # positive-definite convention: pinned by the spin-cover property
        for i in range(3):
            e = CliffordElement.basis_vector(3, i)
            assert (e * e).coeffs[0] == 1.0

    def test_anticommutation(self):
        e0 = CliffordElement.basis_vector(3, 0)
        e1 = CliffordElement.basis_vector(3, 1)
        anti = e0 * e1 + e1 * e0
        assert anti.norm() == 0.0

    def test_associativity_random(self):
        rng = random.Random(5)
        def rand_elt():
            return CliffordElement(3, tuple(rng.uniform(-1, 1) for _ in range(8)))
        for _ in range(20):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert ((a * b) * c - a * (b * c)).norm() < 1e-12

    def test_reverse_and_inverse(self):
        u = CliffordElement.scalar(3, math.cos(0.4)) - (
            CliffordElement.basis_vector(3, 0)
            * CliffordElement.basis_vector(3, 1)
        ) * math.sin(0.4)
        prod = u * u.inverse()
        assert (prod - CliffordElement.scalar(3, 1.0)).norm() < 1e-14

    def test_non_versor_not_invertible(self):
        mixed = CliffordElement.scalar(3, 1.0) + CliffordElement.basis_vector(3, 0)
        bad = mixed * (CliffordElement.scalar(3, 1.0)
                       + CliffordElement.basis_vector(3, 1))
        with pytest.raises(NotInvertible):
            (bad - CliffordElement.scalar(3, bad.scalar_part())).inverse()


class TestTauMatrix:
    def test_coincident_interior_points_identity(self):
        t = tau_matrix(pair(0.8, (0.1, -0.2), 0.8, (0.1, -0.2)))
        assert np.max(np.abs(t - np.eye(3))) < 1e-15

    def test_same_vertical_line_identity(self):
        t = tau_matrix(pair(1.0, (0.0, 0.0), 3.0, (0.0, 0.0)))
        assert np.max(np.abs(t - np.eye(3))) < 1e-15

    def test_reference_rotation(self):
        t = tau_matrix(pair(1.0, (1.0, 0.0), 1.0, (0.0, 0.0)))
        expect = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(t - expect)) < 1e-15

    def test_special_orthogonal_on_random_pairs(self, rng):
        for i in range(100):
            p = random_pair(rng, with_boundary=True)
            t = tau_matrix(p)
            dim = p.boundary_dim + 1
            assert np.max(np.abs(t.T @ t - np.eye(dim))) < 1e-12
            assert abs(np.linalg.det(t) - 1.0) < 1e-12

    def test_corner_undefined(self):
        with pytest.raises(UndefinedAtCorner):
            tau_matrix(pair(0.0, (1.0, 2.0), 0.0, (1.0, 2.0)))

    def test_isometry_equivariance_to_base_point(self, rng):
        # tau(m, m') = tau(A(m), (1, 0)) for A(m) = ((x/x'), (y - y')/x')
        for _ in range(20):
            p = random_pair(rng)
            m, mp = p.m, p.m_prime
            if mp.x == 0:
                continue
            am = HalfSpacePoint(m.x / mp.x,
                                tuple((u - v) / mp.x for u, v in zip(m.y, mp.y)))
            base = HalfSpacePoint(1.0, (0.0,) * len(m.y))
            t1 = tau_matrix(p)
            t2 = tau_matrix(TransportPair(am, base))
            assert np.max(np.abs(t1 - t2)) < 1e-12

    def test_composition_along_geodesics(self):
        # vertical line: all transports are the identity
        pts = [HalfSpacePoint(x, (0.0, 0.0)) for x in (0.5, 1.0, 2.7)]
        for a in pts:
            for b in pts:
                assert np.max(np.abs(tau_matrix(TransportPair(a, b))
                                     - np.eye(3))) < 1e-15
        # half-circle geodesic: image of the vertical line under an isometry
        g = MoebiusMap.normalized(1.0, 0.0, 1.0, 1.0)
        imgs = [apply_h3(g, p) for p in pts]
        t12 = tau_matrix(TransportPair(imgs[0], imgs[1]))
        t23 = tau_matrix(TransportPair(imgs[1], imgs[2]))
        t13 = tau_matrix(TransportPair(imgs[0], imgs[2]))
        assert np.max(np.abs(t12 @ t23 - t13)) < 1e-10


class TestSpinorTransport:
    def test_identity_at_coincidence(self):
        u = spinor_transport(pair(1.3, (0.4,), 1.3, (0.4,)))
        assert (u - CliffordElement.scalar(2, 1.0)).norm() == 0.0

    def test_reference_value(self):
        u = spinor_transport(pair(1.0, (1.0, 0.0), 1.0, (0.0, 0.0)))
        assert abs(u.coeffs[0] - 2.0 / math.sqrt(5.0)) < 1e-15
        assert abs(u.coeffs[0b011] + 1.0 / math.sqrt(5.0)) < 1e-15
        assert abs(u.norm() - 1.0) < 1e-15

    def test_reversal_inverse(self, rng):
        for _ in range(10):
            p = random_pair(rng)
            u_fwd = spinor_transport(p)
            u_bwd = spinor_transport(TransportPair(p.m_prime, p.m))
            dim = p.boundary_dim + 1
            assert ((u_fwd * u_bwd)
                    - CliffordElement.scalar(dim, 1.0)).norm() < 1e-14

    def test_spin_cover_on_random_pairs(self, rng):
        for _ in range(100):
            p = random_pair(rng, with_boundary=True)
            u = spinor_transport(p)
            t = tau_matrix(p)
            assert np.max(np.abs(spin_projection(u, p.boundary_dim + 1) - t)) < 1e-12

    def test_planar_block_matches_complex_transport(self):
        # the 2x2 (X, R) block of tau is the inverse of the rotation
        # (-r + i(1+x)) / (r + i(1+x)) that carries frames the other way
        x, r = 0.7, 1.3
        t = tau_matrix(pair(x, (r,), 1.0, (0.0,)))
        c_tau = complex(t[1, 1], t[0, 1])  # action on R in the (R, X) plane
        c_lemma = (-r + 1j * (1 + x)) / (r + 1j * (1 + x))
        assert abs(c_tau * c_lemma - 1.0) < 1e-12


class TestAdjointAction:
    def test_identity_rotor(self):
        u = CliffordElement.scalar(3, 1.0)
        assert np.allclose(adjoint_action(u, (0.3, -1.0, 2.0)), (0.3, -1.0, 2.0))

    def test_plane_rotor_rotates_by_phi(self):
        phi = 0.73
        x = CliffordElement.basis_vector(3, 0)
        e1 = CliffordElement.basis_vector(3, 1)
        u = CliffordElement.scalar(3, math.cos(0.5 * phi)) - (x * e1) * math.sin(0.5 * phi)
        out = adjoint_action(u, (1.0, 0.0, 0.0))
        assert np.allclose(out, (math.cos(phi), math.sin(phi), 0.0), atol=1e-14)

    def test_transport_action_on_x_is_tau_column(self, rng):
        for _ in range(20):
            p = random_pair(rng)
            u = spinor_transport(p)
            t = tau_matrix(p)
            dim = p.boundary_dim + 1
            x_out = adjoint_action(u, (1.0,) + (0.0,) * (dim - 1))
            assert np.max(np.abs(x_out - t[:, 0])) < 1e-12


class TestBoundaryLimit:
    def test_far_point_approaches_minus_xr(self):
        u = boundary_limit_transport((1.0, 0.0), 1e6)
        dim = 3
        target = CliffordElement.scalar(dim, 0.0) - (
            CliffordElement.basis_vector(dim, 0)
            * CliffordElement.basis_vector(dim, 1)
        )
        assert (u - target).norm() < 3e-6

    def test_unit_norm_everywhere(self):
        omega = (0.6, 0.8)
        for r in (0.3, 1.0, 7.0):
            assert abs(boundary_limit_transport(omega, r).norm() - 1.0) < 1e-14

    def test_convergence_rate(self):
        omega = (0.0, 1.0)
        dim = 3
        target = CliffordElement.scalar(dim, 0.0) - (
            CliffordElement.basis_vector(dim, 0)
            * CliffordElement.basis_vector(dim, 2)
        )
        for r in (2.0, 10.0, 100.0, 10000.0):
            assert (boundary_limit_transport(omega, r) - target).norm() <= 2.0 / r
