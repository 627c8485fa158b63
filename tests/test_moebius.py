import cmath
import math
import re
import struct

import pytest

from clifford_transport import BoundaryPoint, HalfSpacePoint
from hypothesis import given, settings
from hypothesis import strategies as st

from oddzeta.errors import DegenerateConfiguration, NotLoxodromic
from oddzeta.moebius import (
    MoebiusMap,
    classify,
    geodesic_invariants,
    is_infinite,
    loxodromic,
)
from oddzeta.zograf import chart_params, schottky_from_params

EPS = 2.0 ** -52

DIAG_2 = MoebiusMap(2.0, 0.0, 0.0, 0.5)
DIAG_2I = MoebiusMap(2j, 0.0, 0.0, -0.5j)


def loxodromic_at_0_inf(q):
    """z -> q z: attracting fixed point 0, repelling inf."""
    root = cmath.sqrt(q)
    return MoebiusMap(root, 0.0, 0.0, 1.0 / root)


def max_abs_diff(m, other):
    """The largest entry difference of two matrices."""
    return max(abs(m.a - other.a), abs(m.b - other.b),
               abs(m.c - other.c), abs(m.d - other.d))


def apply_h3(m, p):
    """Isometric action of m on upper half-space H^3 (boundary
    dimension 2)."""
    if len(p.y) != 2:
        raise ValueError("H^3 action needs 2-dimensional boundary points")
    z = complex(p.y[0], p.y[1])
    t = p.x
    cz_d = m.c * z + m.d
    den = abs(cz_d) ** 2 + abs(m.c) ** 2 * t * t
    z_new = ((m.a * z + m.b) * cz_d.conjugate()
             + m.a * m.c.conjugate() * t * t) / den
    return HalfSpacePoint(t / den, (z_new.real, z_new.imag))


def hyperbolic_distance(m, mp):
    """Geodesic distance in the half-space model, any boundary dimension,
    from cosh^2(d/2) = (|y - y'|^2 + (x + x')^2) / (4 x x')."""
    if m.x <= 0 or mp.x <= 0:
        raise BoundaryPoint("distance needs interior points (x > 0)")
    if len(m.y) != len(mp.y):
        raise ValueError("boundary dimensions differ")
    dy2 = sum((u - v) ** 2 for u, v in zip(m.y, mp.y))
    val = (dy2 + (m.x + mp.x) ** 2) / (4.0 * m.x * mp.x)
    return 2.0 * math.acosh(math.sqrt(max(val, 1.0)))


def normal_position(generators):
    """The family rebuilt from its chart point, as ``oddzeta scan`` does."""
    return schottky_from_params(*chart_params(generators)).generators


def random_sl2(rng):
    while True:
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(a) < 1e-2:
            continue
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return MoebiusMap(a, b, c, (1.0 + b * c) / a)


def entry_bits(m):
    """The IEEE bits of the real and imaginary part of every entry."""
    return [struct.pack("<dd", z.real, z.imag) for z in (m.a, m.b, m.c, m.d)]


class TestEntries:
    def test_float_entries_stored_as_complex(self):
        m = MoebiusMap(2.0, 0.0, 0.0, 0.5)
        assert all(type(z) is complex for z in (m.a, m.b, m.c, m.d))
        want = MoebiusMap(2 + 0j, 0j, 0j, 0.5 + 0j)
        assert entry_bits(m) == entry_bits(want)

    def test_nan_determinant_refused(self):
        with pytest.raises(ValueError, match="determinant"):
            MoebiusMap(float("nan"), 0, 0, 1)

    @pytest.mark.parametrize("entries, name", [
        ((math.inf, 0, 0, 1), "a"),
        ((1, 0, 0, complex(0.0, -math.inf)), "d"),
    ])
    def test_infinite_entry_refused(self, entries, name):
        # det = inf passes the determinant check, whose tolerance is
        # infinite too
        with pytest.raises(ValueError, match=f"^entry {name} = .* not finite$"):
            MoebiusMap(*entries)

    def test_entry_scale_past_float_range_refused(self):
        # a valid SL(2, C) matrix whose squared entry scale, the
        # determinant tolerance, overflows
        with pytest.raises(ValueError, match=r"^entry scale 1e\+200 squares"):
            MoebiusMap(1e200, 0, 0, 1e-200)


class TestClassify:
    def test_identity(self):
        assert classify(MoebiusMap.identity()) == "identity"
        assert classify(-MoebiusMap.identity()) == "identity"

    def test_loxodromic_diagonal(self):
        assert classify(DIAG_2) == "loxodromic"  # tr^2 = 25/4 > 4

    def test_parabolic(self):
        assert classify(MoebiusMap(1.0, 1.0, 0.0, 1.0)) == "parabolic"

    def test_elliptic(self):
        t = 0.4
        rot = MoebiusMap(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
        assert classify(rot) == "elliptic"

    def test_loxodromic_with_rotation(self):
        assert classify(DIAG_2I) == "loxodromic"


class TestGeodesicInvariants:
    def test_diagonal_real(self):
        inv = geodesic_invariants(DIAG_2)
        assert abs(inv.length - 2.0 * math.log(2.0)) < 1e-15
        assert inv.theta == 0.0
        assert abs(inv.q - 0.25) < 1e-15
        # z -> 4z attracts to infinity
        assert is_infinite(inv.attracting)
        assert abs(inv.repelling) < 1e-15

    def test_diagonal_rotating(self):
        inv = geodesic_invariants(DIAG_2I)
        assert abs(inv.length - 2.0 * math.log(2.0)) < 1e-15
        assert abs(inv.theta - math.pi) < 1e-15
        assert abs(inv.q + 0.25) < 1e-15
        assert abs(inv.spin_phase - 1j) < 1e-15

    def test_sign_flip_only_moves_spin_phase(self):
        plus = geodesic_invariants(DIAG_2)
        minus = geodesic_invariants(-DIAG_2)
        assert plus.q == minus.q
        assert plus.length == minus.length
        assert plus.theta == minus.theta
        assert abs(plus.spin_phase + minus.spin_phase) < 1e-15

    def test_tiny_lower_left_entry(self):
        # conjugating z -> q z by h = [[1, u], [v, 1 + uv]] with a subnormal
        # v leaves c so small that (a - d + s) / 2c overflows: the fixed
        # points are still h(0) = u / (1 + uv) and h(inf) = 1 / v = inf
        u, v = 0.00390625j, 2.225073858507e-311
        h = MoebiusMap(1.0, u, v, 1.0 + u * v)
        m = h @ loxodromic_at_0_inf(0.001953125) @ h.inverse()
        assert m.c != 0
        inv = geodesic_invariants(m)
        assert abs(inv.attracting - u) < 1e-17
        assert is_infinite(inv.repelling)

    def test_rejects_non_loxodromic(self):
        with pytest.raises(NotLoxodromic):
            geodesic_invariants(MoebiusMap(1.0, 1.0, 0.0, 1.0))

    def test_inverse_has_same_multiplier(self, rng):
        for _ in range(25):
            q = cmath.rect(rng.uniform(0.05, 0.8), rng.uniform(-math.pi, math.pi))
            m = loxodromic(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(3, 5), rng.uniform(-2, 2)), q
            )
            inv = geodesic_invariants(m)
            inv_of_inverse = geodesic_invariants(m.inverse())
            assert abs(inv.q - inv_of_inverse.q) < 1e-10

    def test_conjugation_invariance(self, rng):
        m = loxodromic(0.3 - 0.2j, 1.5 + 1.0j, 0.3 + 0.1j)
        base = geodesic_invariants(m)
        for _ in range(25):
            g = random_sl2(rng)
            conj = geodesic_invariants(g @ m @ g.inverse())
            assert abs(conj.q - base.q) < 1e-10
            assert abs(conj.length - base.length) < 1e-10
            assert abs(conj.theta - base.theta) < 1e-10

    def test_powers_scale_length_and_multiplier(self, rng):
        for _ in range(10):
            q = cmath.rect(rng.uniform(0.2, 0.7), rng.uniform(-2.0, 2.0))
            m = loxodromic(-1.0 + 0.5j, 2.0 - 0.3j, q)
            inv = geodesic_invariants(m)
            power = m
            for k in (2, 3):
                power = power @ m
                inv_k = geodesic_invariants(power)
                assert abs(inv_k.length - k * inv.length) < 1e-10
                assert abs(inv_k.q - inv.q ** k) < 1e-10

    def test_attracting_fixed_point_attracts(self, rng):
        for _ in range(20):
            q = cmath.rect(rng.uniform(0.1, 0.6), rng.uniform(-3.0, 3.0))
            att = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            rep = att + cmath.rect(rng.uniform(1.0, 3.0), rng.uniform(0, 6.28))
            m = loxodromic(att, rep, q)
            inv = geodesic_invariants(m)
            z = inv.repelling + 0.1 * (inv.attracting - inv.repelling)
            for _ in range(40):
                z = m.apply(z)
            assert abs(z - inv.attracting) < 1e-6


@st.composite
def loxodromic_data(draw):
    """(attracting, repelling, q) with the fixed points at least 0.5 apart."""
    angles = st.floats(-math.pi, math.pi)
    attracting = draw(st.complex_numbers(max_magnitude=3.0))
    repelling = attracting + cmath.rect(draw(st.floats(0.5, 3.0)),
                                        draw(angles))
    return attracting, repelling, cmath.rect(draw(st.floats(0.01, 0.9)),
                                             draw(angles))


class TestLoxodromic:
    @settings(max_examples=50, derandomize=True, deadline=None,
              database=None)
    @given(loxodromic_data())
    def test_inverts_geodesic_invariants(self, data):
        attracting, repelling, q = data
        m = loxodromic(attracting, repelling, q)
        inv = geodesic_invariants(m)
        # rounding grows with the entries of m, about scale^2 / |a - r|,
        # and with 1 / |1 - q| near the unit circle; the bounds are about
        # 6 times the worst of 200 000 random draws
        scale = 1.0 + abs(attracting) + abs(repelling)
        tol = 16.0 * EPS * scale ** 2 / abs(attracting - repelling) / abs(1 - q)
        assert abs(inv.attracting - attracting) <= tol * scale
        assert abs(inv.repelling - repelling) <= tol * scale
        assert abs(inv.q - q) <= tol
        # the other lift: everything but the spin phase is bit-identical
        neg = geodesic_invariants(-m)
        assert (neg.q, neg.length, neg.theta, neg.attracting,
                neg.repelling) == (inv.q, inv.length, inv.theta,
                                   inv.attracting, inv.repelling)
        assert neg.spin_phase == -inv.spin_phase

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5j, complex(math.nan, 0.0)])
    def test_multiplier_outside_unit_disc_refused(self, q):
        with pytest.raises(ValueError, match=re.escape("0 < |q| < 1")):
            loxodromic(0.0, 1.0, q)


class TestHyperbolicDistance:
    def test_coincident_points(self):
        o = HalfSpacePoint(1.0, (0.0, 0.0))
        assert hyperbolic_distance(o, o) == 0.0

    def test_vertical_segment(self):
        d = hyperbolic_distance(HalfSpacePoint(1.0, (0.0, 0.0)),
                                HalfSpacePoint(2.0, (0.0, 0.0)))
        assert abs(d - math.log(2.0)) < 1e-12

    def test_horizontal_offset(self):
        d = hyperbolic_distance(HalfSpacePoint(1.0, (1.0, 0.0)),
                                HalfSpacePoint(1.0, (0.0, 0.0)))
        assert abs(d - 2.0 * math.acosh(math.sqrt(1.25))) < 1e-12

    def test_general_dimension(self):
        a = HalfSpacePoint(0.5, (1.0, -2.0, 0.5, 3.0))
        b = HalfSpacePoint(1.5, (0.0, 0.0, 0.0, 0.0))
        dy2 = 1.0 + 4.0 + 0.25 + 9.0
        expect = 2.0 * math.acosh(math.sqrt((dy2 + 4.0) / 3.0))
        assert abs(hyperbolic_distance(a, b) - expect) < 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryPoint):
            hyperbolic_distance(HalfSpacePoint(0.0, (0.0, 0.0)),
                                HalfSpacePoint(1.0, (0.0, 0.0)))

    def test_isometry_invariance(self, rng):
        p1 = HalfSpacePoint(0.7, (0.3, -1.2))
        p2 = HalfSpacePoint(2.3, (-0.4, 0.9))
        base = hyperbolic_distance(p1, p2)
        for _ in range(25):
            g = random_sl2(rng)
            moved = hyperbolic_distance(apply_h3(g, p1), apply_h3(g, p2))
            assert abs(moved - base) < 1e-10


class TestNormalizeSchottky:
    """Normal position is the family rebuilt from its chart point."""

    def test_already_normalized_unchanged(self):
        # attracting point of g1 at 0 means z -> q z, i.e. diag(1/2, 2)
        g1 = MoebiusMap(0.5, 0.0, 0.0, 2.0)
        g2 = loxodromic(1.0, -1.0, 0.04)
        out = normal_position([g1, g2])
        assert max_abs_diff(out[0], g1) < 1e-12
        assert max_abs_diff(out[1], g2) < 1e-12

    def test_roundtrip_through_translation(self):
        g1 = MoebiusMap(0.5, 0.0, 0.0, 2.0)
        g2 = loxodromic(1.0, -1.0, 0.04)
        base = normal_position([g1, g2])
        t = MoebiusMap(1.0, 5.0, 0.0, 1.0)
        conjugated = [t @ g @ t.inverse() for g in (g1, g2)]
        back = normal_position(conjugated)
        assert max(max_abs_diff(x, y) for x, y in zip(base, back)) < 1e-10

    def test_word_invariants_unchanged(self):
        g1 = loxodromic(0.2 + 0.1j, -3.0, 0.05 + 0.02j)
        g2 = loxodromic(1.0 - 0.5j, 4.0 + 1.0j, 0.03 - 0.01j)
        before = geodesic_invariants(g1 @ g2)
        n1, n2 = normal_position([g1, g2])
        after = geodesic_invariants(n1 @ n2)
        assert abs(before.q - after.q) < 1e-10

    def test_single_generator_degenerate(self):
        with pytest.raises(DegenerateConfiguration,
                           match="exactly 2 generators, got 1"):
            normal_position([DIAG_2])
