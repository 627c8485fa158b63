"""SL(2, C) Moebius maps: classification, geodesic data, half-space geometry.

Matrices are kept in SL(2, C), not PSL(2, C): the overall sign is preserved
through products, inverses and conjugation, because it carries the spin
lift that the spinor zeta variant needs.  Geodesic invariants themselves
(multiplier q, length, holonomy angle) are sign-blind; the sign surfaces
only through ``spin_phase``.

Discreteness of generator families is trusted input everywhere in this
package: no Schottky (Jordan curve) condition is checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import BoundaryPoint, DegenerateConfiguration, NotLoxodromic

EPS_DET = 1e-12
EPS_CLASS = 1e-9

#: Point at infinity on the Riemann sphere.
INFINITY = complex(math.inf, 0.0)


def is_infinite(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True)
class MoebiusMap:
    """Row-major entries of a unit-determinant 2x2 complex matrix.

    Entries are stored as Python ``complex`` whatever number type they
    are given in, so every product follows complex arithmetic.  The
    determinant constraint is enforced relative to the squared entry
    scale: for a matrix with entries of size K, the value a*d - b*c is
    only determined to about eps_machine * K^2 in floating point, so an
    absolute det tolerance would spuriously reject long word products of
    large loxodromic matrices (whose expanding eigenvalue remains
    relatively accurate throughout).
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        # written so that a NaN determinant fails too
        if not abs(self.det() - 1.0) <= 1e-6 * max(1.0, self._scale_sq()):
            raise ValueError(
                f"determinant {self.det():.6g} too far from 1; "
                "renormalize with MoebiusMap.normalized(...)"
            )
        # an infinite entry passes the check above: its tolerance is infinite
        for name, z in zip("abcd", (self.a, self.b, self.c, self.d)):
            if not cmath.isfinite(z):
                raise ValueError(f"entry {name} = {z} is not finite")

    def _scale_sq(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)) ** 2

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def normalized(a: complex, b: complex, c: complex, d: complex) -> "MoebiusMap":
        """Scale entries by the principal 1/sqrt(det); keeps signs near det = 1.

        Below the determinant noise floor (eps * scale^2) the division is
        skipped: there the computed det is cancellation noise and dividing
        by its square root would contaminate the entries.  A product that
        overflowed to a non-finite entry raises OverflowError.
        """
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise OverflowError(f"entries {(a, b, c, d)} are not all finite")
        det = a * d - b * c
        floor = 1e-12 * max(1.0, max(abs(a), abs(b), abs(c), abs(d)) ** 2)
        if abs(det - 1.0) <= floor:
            return MoebiusMap(a, b, c, d)
        if det == 0:
            raise ValueError("singular matrix")
        s = cmath.sqrt(det)
        return MoebiusMap(a / s, b / s, c / s, d / s)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap.normalized(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        # adjugate equals inverse at det = 1 and preserves the sign lift
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "MoebiusMap":
        return MoebiusMap(-self.a, -self.b, -self.c, -self.d)

    def apply(self, z: complex) -> complex:
        """Action on the Riemann sphere C u {inf}."""
        if is_infinite(z):
            return self.a / self.c if self.c != 0 else INFINITY
        den = self.c * z + self.d
        if den == 0:
            return INFINITY
        return (self.a * z + self.b) / den

    def apply_h3(self, m: "HalfSpacePoint") -> "HalfSpacePoint":
        """Isometric action on upper half-space H^3 (boundary dimension 2)."""
        if len(m.y) != 2:
            raise ValueError("H^3 action needs 2-dimensional boundary points")
        z = complex(m.y[0], m.y[1])
        t = m.x
        cz_d = self.c * z + self.d
        den = abs(cz_d) ** 2 + abs(self.c) ** 2 * t * t
        z_new = ((self.a * z + self.b) * cz_d.conjugate()
                 + self.a * self.c.conjugate() * t * t) / den
        return HalfSpacePoint(t / den, (z_new.real, z_new.imag))

    def max_abs_diff(self, other: "MoebiusMap") -> float:
        return max(abs(self.a - other.a), abs(self.b - other.b),
                   abs(self.c - other.c), abs(self.d - other.d))


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x, y) of the half-space model, x the height, y in R^d."""

    x: float
    y: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if self.x < 0:
            raise BoundaryPoint(f"height x = {self.x} negative")


@dataclass(frozen=True)
class GeodesicInvariants:
    """Per-element geodesic data of a loxodromic map.

    q = mu^(-2) with |mu| > 1, length = -log|q| > 0 and theta the unique
    angle in (-pi, pi] with q = exp(-(length + i*theta)).  ``spin_phase``
    is mu/|mu| for the given SL(2, C) lift; it flips sign with the matrix
    sign while everything else stays put.
    """

    length: float
    theta: float
    q: complex
    mu: complex
    attracting: complex
    repelling: complex
    spin_phase: complex


def classify(m: MoebiusMap, eps_class: float = EPS_CLASS) -> str:
    """One of 'identity' | 'parabolic' | 'elliptic' | 'loxodromic'.

    Decided from tr^2: identity iff m = +-Id, parabolic iff tr^2 = 4
    otherwise, elliptic iff tr^2 real in [0, 4), loxodromic otherwise.
    Near-boundary cases are resolved by ``eps_class``, which is a
    documented limitation: there is no exact classification threshold
    in floating point.
    """
    return _classify(m.a, m.b, m.c, m.d, eps_class)


def _classify(a, b, c, d, eps_class: float) -> str:
    """classify on the entries of a matrix, with MoebiusMap's arithmetic."""
    if min(max(abs(a - 1.0), abs(b - 0.0), abs(c - 0.0), abs(d - 1.0)),
           max(abs(-a - 1.0), abs(-b - 0.0), abs(-c - 0.0),
               abs(-d - 1.0))) < eps_class:
        return "identity"
    tr2 = (a + d) ** 2
    if abs(tr2 - 4.0) < eps_class:
        return "parabolic"
    if abs(tr2.imag) < eps_class and -eps_class < tr2.real < 4.0:
        return "elliptic"
    return "loxodromic"


def _expanding_eigenvalue(t: complex) -> complex:
    """Eigenvalue mu with |mu| > 1 of a loxodromic matrix of trace t, sign
    included."""
    s = cmath.sqrt(t * t - 4.0)
    # align the root with t to avoid cancellation in t + s
    if (t.conjugate() * s).real < 0:
        s = -s
    mu = 0.5 * (t + s)
    if abs(mu) <= 1.0:
        raise NotLoxodromic(f"no expanding eigenvalue, trace {t}")
    return mu


def spin_phase(m: MoebiusMap, eps_class: float = EPS_CLASS) -> complex:
    """mu/|mu| of the expanding eigenvalue; negates when m does."""
    if classify(m, eps_class) != "loxodromic":
        raise NotLoxodromic("spin phase defined for loxodromic maps only")
    mu = _expanding_eigenvalue(m.trace())
    return mu / abs(mu)


def geodesic_invariants(m: MoebiusMap, eps_class: float = EPS_CLASS) -> GeodesicInvariants:
    """Multiplier, length, holonomy and fixed points of a loxodromic map."""
    kind = classify(m, eps_class)
    if kind != "loxodromic":
        raise NotLoxodromic(f"classify() = {kind}")
    return _loxodromic_invariants(m.a, m.b, m.c, m.d)


def _multiplier_invariants(t: complex):
    """(mu, q, length, theta, spin phase) of a loxodromic matrix of trace t."""
    mu = _expanding_eigenvalue(t)
    q = mu ** -2
    length = 2.0 * math.log(abs(mu))
    theta = -cmath.phase(q)
    if theta <= -math.pi:
        theta = math.pi
    return mu, q, length, theta, mu / abs(mu)


def _loxodromic_invariants(a, b, c, d) -> GeodesicInvariants:
    """geodesic_invariants on the entries of a matrix already classified
    loxodromic, with MoebiusMap's arithmetic."""
    t = a + d
    mu, q, length, theta, phase = _multiplier_invariants(t)
    mu_small = 1.0 / mu
    if c == 0:
        finite = b / (d - a)
        if abs(a) > 1.0:
            att, rep = INFINITY, finite
        else:
            att, rep = finite, INFINITY
    else:
        # roots of c z^2 + (d - a) z - b: take the large-numerator root
        # directly and recover the other from the product -b/c
        s = cmath.sqrt(t * t - 4.0)
        if ((a - d).conjugate() * s).real < 0:
            s = -s
        root1 = (a - d + s) / (2.0 * c)
        if root1 != 0:
            root2 = (-b / c) / root1
        else:
            root2 = (a - d - s) / (2.0 * c)
        # attracting root satisfies c z + d = mu (expanding eigenvector)
        if abs(c * root1 + d - mu) <= abs(c * root1 + d - mu_small):
            att, rep = root1, root2
        else:
            att, rep = root2, root1
    return GeodesicInvariants(
        length=length, theta=theta, q=q, mu=mu,
        attracting=att, repelling=rep, spin_phase=phase,
    )


def hyperbolic_distance(m: HalfSpacePoint, mp: HalfSpacePoint) -> float:
    """Geodesic distance in the half-space model, any boundary dimension.

    Uses cosh^2(d/2) = (|y - y'|^2 + (x + x')^2) / (4 x x').
    """
    if m.x <= 0 or mp.x <= 0:
        raise BoundaryPoint("distance needs interior points (x > 0)")
    if len(m.y) != len(mp.y):
        raise ValueError("boundary dimensions differ")
    dy2 = sum((u - v) ** 2 for u, v in zip(m.y, mp.y))
    val = (dy2 + (m.x + mp.x) ** 2) / (4.0 * m.x * mp.x)
    return 2.0 * math.acosh(math.sqrt(max(val, 1.0)))


def _map_to_0_inf_1(p1: complex, p2: complex, p3: complex) -> MoebiusMap:
    """Unique Moebius map with p1 -> 0, p2 -> inf, p3 -> 1."""
    if is_infinite(p1):
        a, b, c, d = 0.0, p3 - p2, 1.0, -p2
    elif is_infinite(p2):
        a, b, c, d = 1.0, -p1, 0.0, p3 - p1
    elif is_infinite(p3):
        a, b, c, d = 1.0, -p1, 1.0, -p2
    else:
        a, b = p3 - p2, -p1 * (p3 - p2)
        c, d = p3 - p1, -p2 * (p3 - p1)
    return MoebiusMap.normalized(a, b, c, d)


def _points_distinct(points: Sequence[complex], tol: float = 1e-12) -> bool:
    for i in range(len(points)):
        for k in range(i + 1, len(points)):
            zi, zk = points[i], points[k]
            if is_infinite(zi) and is_infinite(zk):
                return False
            if is_infinite(zi) or is_infinite(zk):
                continue
            if abs(zi - zk) <= tol * (1.0 + abs(zi) + abs(zk)):
                return False
    return True


def normalize_schottky(generators: Sequence[MoebiusMap],
                       eps_class: float = EPS_CLASS) -> Tuple[MoebiusMap, ...]:
    """Conjugate the family so (att(g1), rep(g1), att(g2)) = (0, inf, 1).

    Invariants (q, length, theta) of every word are unchanged; fixed
    points move by the conjugating map.
    """
    if len(generators) < 2:
        raise DegenerateConfiguration("need at least two generators")
    inv1 = geodesic_invariants(generators[0], eps_class)
    inv2 = geodesic_invariants(generators[1], eps_class)
    anchors = (inv1.attracting, inv1.repelling, inv2.attracting)
    if not _points_distinct(anchors):
        raise DegenerateConfiguration(f"anchor points {anchors} not distinct")
    g = _map_to_0_inf_1(*anchors)
    g_inv = g.inverse()
    return tuple(g @ m @ g_inv for m in generators)
